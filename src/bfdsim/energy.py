"""Norms, symmetrizer energies, Hamiltonian, and variational diagnostics.

The weighted Sobolev scale is  ||u||^2_{X^s_{mu^k}} = ||u||^2_{H^s}
+ mu^k ||grad^k u||^2_{H^s}, realized spectrally with the Bessel weight
<xi>^s = (1 + |xi|^2)^{s/2} and |xi|^k in place of the k-th gradient; the
weights are cached per (grid, s, k, mu) by sobolev_weight.  The
symmetrizer energy E_s pairs the Helmholtz-weighted state against the
symmetrizer applied to it, with every operator chain evaluated exactly as
displayed (multipliers in spectral space, coefficient multiplications
pointwise with two-thirds dealiasing after each product).  Every spectrum
here lives on the rfftn half lattice, and every product, as in the mover
forcing, goes through GridSpec.product_hat.  Sums over the lattice weigh
its columns the Hermitian way (GridSpec.hermitian_sum).
Each symmetrizer variant stacks its operands into one inverse transform
and its products into one forward transform (GridSpec.ifft_real and
product_hat take stacks).  What depends on the fields alone, the |hat|^2
of every field, the dealiased v_j v_k and the Bessel-weighted fields
Lam^s zeta, Lam^s v, is formed once per state and kept in its memo
(FieldState), so the norms, the Hamiltonian and the smallness term of one
report row, or the points of one equivalence state, share it.
The noncav column of energy_report is min(1 - eps*zeta) alone
(system.noncav_margin); the steepness proxy eps*W^{1,inf} is formed only
by system.noncavitation_margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterDomainError
from .params import (
    VARIANT_B_ZERO,
    VARIANT_BD_DISTINCT,
    VARIANT_BD_EQUAL,
    CaseClass,
    check_variant,
    classify_case,
)
from .spectral import GridSpec, SpectralField, field_values
from .symbols import symbol_table
from .system import FieldState, noncav_margin, rhs_hat

REPORT_COLUMNS = ("t", "hamiltonian", "E_s", "calE_s", "ratio",
                  "x0_norm", "noncav", "smallness")

# relative imaginary residue allowed in the E_s pairing before it is an error;
# on the half lattice it arises in the self-conjugate columns (see _pair)
PAIRING_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class EnergyReport:
    """One diagnostic row of a run."""

    t: float
    hamiltonian: float
    E_s: float
    calE_s: float
    ratio: float
    x0_norm: float
    noncav: float
    smallness: float

    def csv_row(self) -> str:
        return ",".join(format(getattr(self, c), ".17g") for c in REPORT_COLUMNS)


def csv_header() -> str:
    return ",".join(REPORT_COLUMNS)


def sobolev_weight(grid: GridSpec, s: float, k: int, mu: float) -> np.ndarray:
    """Weight of the X^s_{mu^k} norm on the half lattice.

    (1 + |xi|^2)^s (1 + mu^k |xi|^{2k}), and (1 + |xi|^2)^s alone at k = 0,
    where mu is ignored.  Read-only and cached: _weight_cache keeps the 8
    most recent (grid, s, k, mu), one float64 half-lattice array each
    (17 KiB at 64^2, 258 KiB at 256^2, 4 MiB at 1024^2).
    """
    return _weight_cache(grid, s, k, mu if k > 0 else 0.0)


@lru_cache(maxsize=8)
def _weight_cache(grid: GridSpec, s: float, k: int, mu: float) -> np.ndarray:
    weight = (1.0 + grid.abs2_xi) ** s
    if k > 0:
        weight = weight * (1.0 + mu**k * grid.abs2_xi**k)
    weight.flags.writeable = False
    return weight


def bessel_weight(grid: GridSpec, s: float) -> np.ndarray:
    """<xi>^s = (1 + |xi|^2)^{s/2}, cached and read-only (sobolev_weight)."""
    return sobolev_weight(grid, s / 2.0, 0, 0.0)


def x_norm(field: SpectralField, s: float, k: int, mu: float) -> float:
    """Norm of X^s_{mu^k}; k = 0 gives the plain H^s norm."""
    if s < 0.0 or k < 0:
        raise ParameterDomainError("s and k must be nonnegative")
    grid = field.grid
    return math.sqrt(grid.spectral_l2_sq(field.hat, weight=sobolev_weight(grid, s, k, mu)))


def x_norm_state(state: FieldState, s: float, k: int, k_prime: int) -> float:
    """||zeta||_{X^s_{mu^k}} + ||v||_{X^s_{mu^k'}} for a full state."""
    z_norm, v_norms = _x_norms(state, s, k, k_prime)
    return z_norm + math.sqrt(sum(n**2 for n in v_norms))


def _abs2(state: FieldState) -> tuple[np.ndarray, ...]:
    """|hat|^2 of zeta and of each v_j, kept in the state's memo."""
    memo = state.memo
    if "abs2" not in memo:
        memo["abs2"] = tuple(f.hat.real**2 + f.hat.imag**2 for f in (state.zeta, *state.v))
    return memo["abs2"]


def _bessel_fields(state: FieldState, s: float) -> tuple[SpectralField, ...]:
    """Lam^s zeta and Lam^s v_j, kept in the state's memo per s, so their
    values too are transformed once per state.  At s = 0 they are the
    state's own fields."""
    if s == 0.0:
        return (state.zeta, *state.v)
    key = ("bessel", s)
    if key not in state.memo:
        grid = state.grid
        lam = bessel_weight(grid, s)
        state.memo[key] = tuple(SpectralField(grid, hat=lam * f.hat)
                                for f in (state.zeta, *state.v))
    return state.memo[key]


def _x_norms(state: FieldState, s: float, k: int, k_prime: int):
    """(x_norm of zeta in X^s_{mu^k}, [x_norm of each v_j in X^s_{mu^k'}]),
    from the memo's |hat|^2."""
    if s < 0.0 or k < 0 or k_prime < 0:
        raise ParameterDomainError("s and k must be nonnegative")
    grid, mu = state.grid, state.params.mu
    z_abs2, *v_abs2 = _abs2(state)
    v_weight = sobolev_weight(grid, s, k_prime, mu)
    return (math.sqrt(grid.abs2_l2_sq(z_abs2, sobolev_weight(grid, s, k, mu))),
            [math.sqrt(grid.abs2_l2_sq(a, v_weight)) for a in v_abs2])


def _operands(grid: GridSpec, pairs) -> np.ndarray:
    """Real values of the spectra mult * hat, one per (mult, hat) pair,
    formed into one stack and inverse-transformed in one ifft_real call."""
    stack = np.empty((len(pairs),) + grid.half_shape, dtype=np.complex128)
    for (mult, hat), dest in zip(pairs, stack):
        np.multiply(mult, hat, out=dest)
    return grid.ifft_real(stack)


def _vv_values(state: FieldState) -> list[list[np.ndarray]]:
    """Dealiased values of every v_j v_k, kept in the state's memo; the
    products j <= k go through one product_hat and one ifft_real call."""
    memo = state.memo
    if "vv" not in memo:
        grid = state.grid
        vvals = field_values(state.v)
        dim = len(vvals)
        pairs = [(j, k) for j in range(dim) for k in range(j, dim)]
        values = grid.ifft_real(grid.product_hat(np.stack([vvals[j] * vvals[k]
                                                            for j, k in pairs])))
        vv = [[None] * dim for _ in range(dim)]
        for (j, k), jk in zip(pairs, values):
            vv[j][k] = vv[k][j] = jk
        memo["vv"] = vv
    return memo["vv"]


def _dot(fs, gs) -> np.ndarray:
    """sum_j f_j g_j of real grid arrays."""
    return sum(f * g for f, g in zip(fs, gs))


def _pair(grid: GridSpec, weight: np.ndarray, f_hat: np.ndarray, g_hat: np.ndarray) -> complex:
    """L2 pairing (W f | g) of two (nominally real) fields from their
    half-lattice spectra, W the real multiplier weight, even in xi.

    It forms conj(W f_hat) g_hat in the one array that W f_hat needs
    anyway (numpy's vdot goes through BLAS, whose thread hand-off at the
    default thread count costs more than the sum).  The real part of the
    pairing is the Hermitian-weighted sum of its real part.  Its imaginary
    part cancels between each mode and its mirror image, so on the half
    lattice it can arise only in the self-conjugate columns 0 and n/2,
    which hold both: it is the (conjugated) sum there, the residue that
    energy_Es checks.
    """
    prod = np.multiply(weight, f_hat)
    np.conjugate(prod, out=prod)
    prod *= g_hat
    # the self-conjugate columns count once in the real part (hermitian_sum)
    edges = complex(prod[..., ::grid.n[-1] // 2].sum())
    total = 2.0 * float(prod.real.sum()) - edges.real
    return grid.cell_volume / grid.npoints * complex(total, -edges.imag)


def symmetrizer_apply(state: FieldState, arg_z: SpectralField,
                      arg_v: tuple[SpectralField, ...], variant: str):
    """Apply the case's symmetrizer to the argument fields (arg_z, arg_v).

    The coefficients (zeta, v) come from the state; the argument is the
    (already Bessel-weighted) field the energy pairs against, and the
    half-lattice spectra returned are of S applied to it.  The distinct
    spectral operands go through one inverse transform (the b = d variant
    reads the argument's .values, so cached values cost none), the
    dealiased v_j v_k come from the state's memo, and the dealiased
    products go through one forward transform.  The products that share an
    outer multiplier are summed in physical space first (dealiasing is
    linear).
    """
    grid = state.grid
    p = state.params
    check_variant(p, variant)
    tab = symbol_table(grid, p)
    gamma, eps, mu = p.gamma, p.epsilon, p.mu
    gg = gamma * (1.0 - gamma)
    omc = tab.one_minus_cmu
    zvals, *vvals = field_values((state.zeta, *state.v))
    dims = range(grid.dim)
    z_hat, v_hat = arg_z.hat, [a.hat for a in arg_v]

    if variant == VARIANT_BD_EQUAL:
        z_arg, *v_arg = field_values((arg_z, *arg_v))
        prod_z, *prod_v = grid.product_hat(np.stack(
            [_dot(vvals, v_arg)] + [zvals * v_arg[j] + vvals[j] * z_arg for j in dims]))
        out_z = gg * omc * z_hat - eps * prod_z
        out_v = tuple(tab.A * v_hat[j] - eps * prod_v[j] for j in dims)
        return out_z, out_v

    # both remaining variants pair v with (1 - c mu Lap) arg and need v_j v_k
    vv = _vv_values(state)

    if variant == VARIANT_BD_DISTINCT:
        g = tab.g
        z_omc, *ops = _operands(grid, [(omc, z_hat)] + [(omc, a) for a in v_hat]
                                + [(g - 1.0, a) for a in v_hat])
        v_omc, v_g1 = ops[:grid.dim], ops[grid.dim:]
        prod_z, *prods = grid.product_hat(np.stack(
            [_dot(vvals, v_omc)]
            + [eps**2 * _dot(vv[j], v_g1) - gg * eps * zvals * v_omc[j] for j in dims]
            + [vvals[j] * z_omc for j in dims]))
        out_z = gg * (gg * omc**2 * g * z_hat) - gg * eps * g * prod_z
        out_v = tuple(
            gg * (tab.A * omc * v_hat[j]) + prods[j] - gg * eps * g * prods[grid.dim + j]
            for j in dims)
        return out_z, out_v

    helm_d = tab.helmholtz_d
    # v_lap is -Lap arg_v
    z_omc, *ops = _operands(grid, [(omc, z_hat)] + [(omc, a) for a in v_hat]
                            + [(helm_d, a) for a in v_hat]
                            + [(grid.abs2_xi, a) for a in v_hat])
    v_omc, v_helm, v_lap = (ops[i * grid.dim:(i + 1) * grid.dim] for i in range(3))
    prod_z, *prods = grid.product_hat(np.stack(
        [_dot(vvals, v_omc)]
        + [zvals * v_helm[j] for j in dims]
        + [gg * eps * vvals[j] * z_omc + p.d * eps**2 * mu * _dot(vv[j], v_lap)
           for j in dims]))
    out_z = gg * (gg * omc**2 * z_hat) - gg * eps * prod_z
    out_v = tuple(
        gg * omc * (tab.A * (helm_d * v_hat[j]) - eps * prods[j]) - prods[grid.dim + j]
        for j in dims)
    return out_z, out_v


def energy_Es(state: FieldState, s: float, case: CaseClass | None = None) -> float:
    """Symmetrizer energy (W Lam^s V | S_V Lam^s V)_2 for the state's case.

    W is 1 - b*mu*Lap for the b = d and b != d formulations and
    1 - d*mu*Lap for b = 0 (identity when the coefficient vanishes).  The
    pairing of real fields is real.  An imaginary residue above
    PAIRING_IMAG_TOL relative raises ArithmeticError; on the half lattice
    it arises only in the self-conjugate columns, from a state whose
    spectrum is not conjugate-symmetric there.
    """
    if case is None:
        case = classify_case(state.params)
    grid = state.grid
    tab = symbol_table(grid, state.params)
    arg_z, *arg_v = _bessel_fields(state, s)
    s_z, s_v = symmetrizer_apply(state, arg_z, tuple(arg_v), case.variant)

    weight = tab.helmholtz_d if case.variant == VARIANT_B_ZERO else tab.helmholtz_b
    total = _pair(grid, weight, arg_z.hat, s_z)
    for j in range(grid.dim):
        total += _pair(grid, weight, arg_v[j].hat, s_v[j])

    if abs(total.imag) > PAIRING_IMAG_TOL * max(1.0, abs(total)):
        raise ArithmeticError(
            f"energy pairing has imaginary residue {total.imag:.3e} "
            f"relative to {abs(total):.3e}"
        )
    return float(total.real)


def equivalence_ratio(state: FieldState, s: float,
                      case: CaseClass | None = None):
    """(E_s / calE_s, k, k'); ratio is NaN for the zero state."""
    if case is None:
        case = classify_case(state.params)
    cal = calE_s(state, s, case)
    if cal == 0.0:
        return (math.nan, case.k, case.k_prime)
    return (energy_Es(state, s, case) / cal, case.k, case.k_prime)


def calE_s(state: FieldState, s: float, case: CaseClass | None = None) -> float:
    """Reference energy ||zeta||^2_{X^s_{mu^k}} + ||v||^2_{X^s_{mu^k'}}."""
    if case is None:
        case = classify_case(state.params)
    z_norm, v_norms = _x_norms(state, s, case.k, case.k_prime)
    out = z_norm**2
    out += sum(n**2 for n in v_norms)
    return out


def hamiltonian(state: FieldState) -> float:
    """Conserved functional of the equal-coefficient case.

    H = (1/2) integral of (1-gamma)zeta^2 + (1/gamma)(1-eps*zeta)|v|^2
        - (1-gamma)*c*mu*|grad zeta|^2 - (a*mu/gamma)|grad v|^2
        + (1/gamma^2)sqrt(mu/mu2)|sigma^{1/2} v|^2
        + (1/gamma^3)(mu/mu2)|sigma v|^2.
    Mode by mode its quadratic part is (1-gamma)(1 - c*mu*|xi|^2)|zeta_hat|^2
    + (1/gamma) A(xi)|v_hat|^2.
    """
    grid = state.grid
    p = state.params
    tab = symbol_table(grid, p)
    gamma = p.gamma

    z_abs2, *v_abs2 = _abs2(state)
    total = (1.0 - gamma) * grid.abs2_l2_sq(z_abs2, tab.one_minus_cmu)
    total += sum(grid.abs2_l2_sq(a, tab.A) for a in v_abs2) / gamma
    if p.epsilon != 0.0:
        vsq = sum(c.values**2 for c in state.v)
        vsq_d = grid.ifft_real(grid.product_hat(vsq))
        total -= p.epsilon / gamma * grid.integral(state.zeta.values * vsq_d)
    return 0.5 * total


def variational_gradients(state: FieldState):
    """Half-lattice spectra of dH/dzeta and dH/dv at the state."""
    grid = state.grid
    p = state.params
    tab = symbol_table(grid, p)
    gamma = p.gamma

    dz = (1.0 - gamma) * tab.one_minus_cmu * state.zeta.hat
    linear_v = tab.A / gamma
    dv = [linear_v * c.hat for c in state.v]

    if p.epsilon != 0.0:
        zvals, *vvals = field_values((state.zeta, *state.v))
        prod_vsq, *prod_zv = grid.product_hat(np.stack(
            [sum(c**2 for c in vvals)] + [zvals * c for c in vvals]))
        dz = dz - p.epsilon / (2.0 * gamma) * prod_vsq
        for j, prod in enumerate(prod_zv):
            dv[j] = dv[j] - p.epsilon / gamma * prod
    return dz, tuple(dv)


def variational_check(state: FieldState) -> float:
    """Residual of the gradient-flow form of the evolution equations.

    Compares (1 - b*mu*Lap) dt zeta with -div dH/dv and (1 - d*mu*Lap) dt v
    with -grad dH/dzeta; returns the worse relative L2 mismatch.
    """
    grid = state.grid
    p = state.params
    tab = symbol_table(grid, p)
    dz_dt, dv_dt = rhs_hat(state.zeta.hat, tuple(c.hat for c in state.v),
                           grid, p, table=tab)
    gz, gv = variational_gradients(state)

    lhs1 = tab.helmholtz_b * dz_dt
    rhs1 = np.zeros(grid.half_shape, dtype=np.complex128)
    for xi, comp in zip(grid.xi_mesh, gv):
        rhs1 -= 1j * xi * comp

    def rel(a_hat, b_hat):
        na = math.sqrt(grid.spectral_l2_sq(a_hat))
        nb = math.sqrt(grid.spectral_l2_sq(b_hat))
        scale = max(na, nb)
        if scale == 0.0:
            return 0.0
        return math.sqrt(grid.spectral_l2_sq(a_hat - b_hat)) / scale

    worst = rel(lhs1, rhs1)
    for xi, dvj in zip(grid.xi_mesh, dv_dt):
        lhs2 = tab.helmholtz_d * dvj
        rhs2 = -1j * xi * gz
        worst = max(worst, rel(lhs2, rhs2))
    return worst


def hamiltonian_coercivity_form(state: FieldState) -> float:
    """Lower-bound bracket ||zeta||^2 + mu||grad zeta||^2 + ||v||^2
    + 2*mu*(1 - eps*||zeta||^2)||grad v||^2 used to gauge H's positivity."""
    grid = state.grid
    p = state.params
    z_abs2, *v_abs2 = _abs2(state)
    z_l2 = grid.abs2_l2_sq(z_abs2)
    out = z_l2 + p.mu * grid.abs2_l2_sq(z_abs2, grid.abs2_xi)
    grad_v = 0.0
    for a in v_abs2:
        out += grid.abs2_l2_sq(a)
        grad_v += grid.abs2_l2_sq(a, grid.abs2_xi)
    out += 2.0 * p.mu * (1.0 - p.epsilon * z_l2) * grad_v
    return out


def energy_report(state: FieldState, s: float = 0.0,
                  case: CaseClass | None = None) -> EnergyReport:
    """Assemble the standard diagnostic row for one instant.

    noncav is min(1 - eps*zeta) alone; the steepness proxy of
    noncavitation_margin is not formed here.  At s = 0 the symmetrizer
    energy reads the state's cached values, so on a 2-D b = d state whose
    values are cached the row costs 4 rfftn and 1 irfftn.
    """
    if case is None:
        case = classify_case(state.params)
    p = state.params
    ham = hamiltonian(state)
    es = energy_Es(state, s, case)
    cal = calE_s(state, s, case)
    ratio = es / cal if cal > 0.0 else math.nan
    x0 = x_norm_state(state, 0.0, 1, 1)
    noncav = noncav_margin(state)
    small = p.epsilon * state.grid.abs2_l2_sq(_abs2(state)[0])
    return EnergyReport(t=state.t, hamiltonian=ham, E_s=es, calE_s=cal,
                        ratio=ratio, x0_norm=x0, noncav=noncav, smallness=small)
