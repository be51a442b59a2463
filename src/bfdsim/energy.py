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
Each symmetrizer entry is a polynomial of degree <= 2 in eps whose
coefficients do not read it, so the symmetrizer is applied split by
powers of eps, S = S0 + eps*S1 + eps^2*S2 (S2 = 0 for b = d), and E_s =
c0 + eps*c1 + eps^2*c2 with c_i the pairing against S_i.  Each variant
stacks its operands into one inverse transform and its products, one field
per power of eps, into one forward transform (GridSpec.ifft_real and
product_hat take stacks).  What depends on the fields alone, the |hat|^2
of every field, the dealiased v_j v_k and the Bessel-weighted fields
Lam^s zeta, Lam^s v, is formed once per state and kept in its memo
(FieldState), so the norms, the Hamiltonian and the smallness term of one
report row, or the points of one equivalence state, share it.  The c_i
are kept there too, per s, variant and the parameters other than eps: the
points of an equivalence sweep that share mu run the symmetrizer once,
and the rest is scalar arithmetic.  So are the X^s norms, per (s, k, k',
mu): evolve's blow-up test and a report row of the same snapshot read
one evaluation.
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
    """(x_norm of zeta in X^s_{mu^k}, (x_norm of each v_j in X^s_{mu^k'})),
    from the memo's |hat|^2, and kept in the memo under ("x", s, k, k',
    mu): evolve's blow-up test and energy_report's x0_norm read the same
    norms of one snapshot, and the points of an equivalence sweep that
    share mu the same calE_s."""
    if s < 0.0 or k < 0 or k_prime < 0:
        raise ParameterDomainError("s and k must be nonnegative")
    grid, mu = state.grid, state.params.mu
    key = ("x", s, k, k_prime, mu)
    norms = state.memo.get(key)
    if norms is None:
        z_abs2, *v_abs2 = _abs2(state)
        v_weight = sobolev_weight(grid, s, k_prime, mu)
        norms = state.memo[key] = (
            math.sqrt(grid.abs2_l2_sq(z_abs2, sobolev_weight(grid, s, k, mu))),
            tuple(math.sqrt(grid.abs2_l2_sq(a, v_weight)) for a in v_abs2))
    return norms


def _operands(grid: GridSpec, pairs) -> np.ndarray:
    """Real values of the spectra mult * hat, one per (mult, hat) pair,
    formed into one stack and inverse-transformed in one ifft_real call."""
    stack = np.empty((len(pairs),) + grid.half_shape, dtype=np.complex128)
    for (mult, hat), dest in zip(pairs, stack):
        np.multiply(mult, hat, out=dest)
    return grid.ifft_real(stack)


def _products(grid: GridSpec, terms) -> np.ndarray:
    """Dealiased half-lattice spectra of real products, one per entry of
    terms, a list of (f, g) pairs whose products it sums: formed in place
    in one stack and forward-transformed in one product_hat call."""
    stack = np.empty((len(terms),) + grid.n)
    for pairs, dest in zip(terms, stack):
        (f, g), *rest = pairs
        np.multiply(f, g, out=dest)
        for f, g in rest:
            dest += f * g
    return grid.product_hat(stack)


def _vv_values(state: FieldState) -> list[list[np.ndarray]]:
    """Dealiased values of every v_j v_k, kept in the state's memo; the
    products j <= k go through one _products and one ifft_real call."""
    memo = state.memo
    if "vv" not in memo:
        grid = state.grid
        vvals = field_values(state.v)
        dim = len(vvals)
        pairs = [(j, k) for j in range(dim) for k in range(j, dim)]
        values = grid.ifft_real(_products(grid, [[(vvals[j], vvals[k])] for j, k in pairs]))
        vv = [[None] * dim for _ in range(dim)]
        for (j, k), jk in zip(pairs, values):
            vv[j][k] = vv[k][j] = jk
        memo["vv"] = vv
    return memo["vv"]


def _pair(grid: GridSpec, weight: np.ndarray, f_hats, *g_hats: np.ndarray):
    """L2 pairings (W f | g) of a (nominally real) field f with each g,
    from their half-lattice spectra, W the real multiplier weight, even in
    xi; returned as a tuple, one complex per g.

    f_hats are the component spectra of f (one for a scalar field), each
    g_hat stacks as many (one leading axis), and a pairing sums over the
    components.  conj(W f) is formed once, into one array, and each g_hat
    is overwritten by its product with it.  numpy's vdot is not used: it
    goes through BLAS, whose thread hand-off at the default thread count
    costs more than the sum.  The real part of a pairing is the
    Hermitian-weighted sum of its real part.  Its imaginary part cancels
    between each mode and its mirror image, so on the half lattice it can
    arise only in the self-conjugate columns 0 and n/2, which hold both:
    it is the (conjugated) sum there, the residue that energy_Es checks.
    """
    conj_wf = np.empty((len(f_hats),) + grid.half_shape, dtype=np.complex128)
    for f_hat, dest in zip(f_hats, conj_wf):
        np.multiply(weight, f_hat, out=dest)
    np.conjugate(conj_wf, out=conj_wf)
    scale = grid.cell_volume / grid.npoints
    out = []
    for g_hat in g_hats:
        prod = np.multiply(g_hat, conj_wf, out=g_hat)
        # the self-conjugate columns count once in the real part (hermitian_sum)
        edges = complex(prod[..., ::grid.n[-1] // 2].sum())
        total = 2.0 * float(prod.real.sum()) - edges.real
        out.append(scale * complex(total, -edges.imag))
    return tuple(out)


def _symmetrizer_parts(state: FieldState, arg_z: SpectralField,
                       arg_v: tuple[SpectralField, ...], variant: str) -> list[np.ndarray]:
    """The case's symmetrizer split by powers of eps, applied to the
    argument fields (arg_z, arg_v).

    Every entry of the symmetrizer is a polynomial of degree <= 2 in eps
    whose coefficients are free of it (frozen_symbol_matrices), so S =
    S0 + eps*S1 + eps^2*S2, with S2 = 0 for b = d.  Returned is [S0, S1]
    for b = d and [S0, S1, S2] otherwise, the half-lattice spectra of each
    applied to the argument as one (dim + 1,) + half_shape array: the
    zeta component, then the v_j.  No operation here reads eps.

    The coefficients (zeta, v) come from the state; the argument is the
    (already Bessel-weighted) field the energy pairs against.  The
    distinct spectral operands go through one inverse transform (the b = d
    variant reads the argument's .values, so cached values cost none), the
    dealiased v_j v_k come from the state's memo, and the dealiased
    products go through one forward transform.  Each product carries one
    power of eps; the products of one power that share an outer
    multiplier are summed in physical space first (dealiasing is linear).
    """
    grid = state.grid
    p = state.params
    check_variant(p, variant)
    tab = symbol_table(grid, p)
    gg = p.gamma * (1.0 - p.gamma)
    omc = tab.one_minus_cmu
    zvals, *vvals = field_values((state.zeta, *state.v))
    dim = grid.dim
    dims = range(dim)
    z_hat, v_hat = arg_z.hat, [a.hat for a in arg_v]

    if variant == VARIANT_BD_EQUAL:
        z_arg, *v_arg = field_values((arg_z, *arg_v))
        s1 = _products(grid, [list(zip(vvals, v_arg))]
                       + [[(zvals, v_arg[j]), (vvals[j], z_arg)] for j in dims])
        np.negative(s1, out=s1)
        s0 = np.empty_like(s1)
        np.multiply(gg * omc, z_hat, out=s0[0])
        for j in dims:
            np.multiply(tab.A, v_hat[j], out=s0[1 + j])
        return [s0, s1]

    # both remaining variants pair v with (1 - c mu Lap) arg and need v_j v_k;
    # S0 is a multiplier on each component (m0_z, m0_v), S1 and S2 are sums
    # of products weighted by m_z, m_zx, m_vz and m_vy
    vv = _vv_values(state)
    if variant == VARIANT_BD_DISTINCT:
        g = tab.g
        z_omc, *ops = _operands(grid, [(omc, z_hat)] + [(omc, a) for a in v_hat]
                                + [(g - 1.0, a) for a in v_hat])
        # v_x is (1 - c mu Lap) arg_v, v_y is (g - 1) arg_v
        v_x, v_y = ops[:dim], ops[dim:]
        m0_z, m0_v = gg * (gg * omc**2 * g), gg * (tab.A * omc)
        m_z, m_zx, m_vz, m_vy = -gg * g, -gg, -gg * g, 1.0
    else:
        helm_d = tab.helmholtz_d
        z_omc, *ops = _operands(grid, [(omc, z_hat)] + [(omc, a) for a in v_hat]
                                + [(helm_d, a) for a in v_hat]
                                + [(grid.abs2_xi, a) for a in v_hat])
        # v_x is (1 - d mu Lap) arg_v, v_y is -Lap arg_v
        v_x, v_y = ops[dim:2 * dim], ops[2 * dim:]
        m0_z, m0_v = gg * (gg * omc**2), gg * omc * (tab.A * helm_d)
        m_z, m_zx, m_vz, m_vy = -gg, -gg * omc, -gg, -(p.d * p.mu)
    v_omc = ops[:dim]
    prod_z, *prods = _products(grid, [list(zip(vvals, v_omc))]
                               + [[(zvals, v_x[j])] for j in dims]
                               + [[(vvals[j], z_omc)] for j in dims]
                               + [list(zip(vv[j], v_y)) for j in dims])
    prod_zx, prod_vz, prod_vy = (prods[i * dim:(i + 1) * dim] for i in range(3))
    s0, s1, s2 = (np.empty((dim + 1,) + grid.half_shape, dtype=np.complex128)
                  for _ in range(3))
    np.multiply(m0_z, z_hat, out=s0[0])
    np.multiply(m_z, prod_z, out=s1[0])
    s2[0] = 0.0
    for j in dims:
        np.multiply(m0_v, v_hat[j], out=s0[1 + j])
        s1[1 + j] = m_zx * prod_zx[j] + m_vz * prod_vz[j]
        np.multiply(m_vy, prod_vy[j], out=s2[1 + j])
    return [s0, s1, s2]


def symmetrizer_apply(state: FieldState, arg_z: SpectralField,
                      arg_v: tuple[SpectralField, ...], variant: str):
    """Apply the case's symmetrizer to the argument fields (arg_z, arg_v):
    the half-lattice spectra S0 + eps*S1 + eps^2*S2 of _symmetrizer_parts,
    as (zeta component, (v_j components))."""
    eps = state.params.epsilon
    s0, s1, *s2 = _symmetrizer_parts(state, arg_z, arg_v, variant)
    out = s0 + eps * s1
    if s2:
        out += eps**2 * s2[0]
    return out[0], tuple(out[1:])


def energy_Es(state: FieldState, s: float, case: CaseClass | None = None) -> float:
    """Symmetrizer energy (W Lam^s V | S_V Lam^s V)_2 for the state's case.

    W is 1 - b*mu*Lap for the b = d and b != d formulations and
    1 - d*mu*Lap for b = 0 (identity when the coefficient vanishes).  With
    S = S0 + eps*S1 + eps^2*S2 (_symmetrizer_parts) the energy is c0 +
    eps*c1 + eps^2*c2, c_i the pairing against S_i, all formed from one
    conj(W Lam^s V).  Nothing in the c_i reads eps, so they are kept in the
    state's memo under ("es", s, variant, the parameters with eps set to
    0): the points of one equivalence state that differ only in eps share
    them.  The pairing of real fields is real.  An imaginary residue of
    the total above PAIRING_IMAG_TOL relative raises ArithmeticError; on
    the half lattice it arises only in the self-conjugate columns, from a
    state whose spectrum is not conjugate-symmetric there.
    """
    if case is None:
        case = classify_case(state.params)
    p = state.params
    key = ("es", s, case.variant, p.replace(epsilon=0.0))
    coeffs = state.memo.get(key)
    if coeffs is None:
        tab = symbol_table(state.grid, p)
        weight = tab.helmholtz_d if case.variant == VARIANT_B_ZERO else tab.helmholtz_b
        arg_z, *arg_v = _bessel_fields(state, s)
        parts = _symmetrizer_parts(state, arg_z, tuple(arg_v), case.variant)
        args = (arg_z.hat, *(a.hat for a in arg_v))
        coeffs = state.memo[key] = _pair(state.grid, weight, args, *parts)

    total = coeffs[0] + p.epsilon * coeffs[1]
    if len(coeffs) > 2:
        total += p.epsilon**2 * coeffs[2]
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
        zvals, *vvals = field_values((state.zeta, *state.v))
        vsq = sum(c**2 for c in vvals)
        vsq_d = grid.ifft_real(grid.product_hat(vsq))
        total -= p.epsilon / gamma * grid.integral(zvals * vsq_d)
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
