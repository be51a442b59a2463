"""Norms, symmetrizer energies, Hamiltonian, and variational diagnostics.

The weighted Sobolev scale is  ||u||^2_{X^s_{mu^k}} = ||u||^2_{H^s}
+ mu^k ||grad^k u||^2_{H^s}, realized spectrally with the Bessel weight
<xi>^s = (1 + |xi|^2)^{s/2} and |xi|^k in place of the k-th gradient; the
weights are cached per (grid, s, k, mu) by sobolev_weight.  The
symmetrizer energy E_s pairs the Helmholtz-weighted state against the
symmetrizer applied to it, with every operator chain evaluated exactly as
displayed (multipliers in spectral space, coefficient multiplications
pointwise with two-thirds dealiasing after each product).  Every product
here, as in the mover forcing, goes through GridSpec.product_hat on the
rfftn half lattice; a full spectrum is rebuilt with GridSpec.extend_half.
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
from .spectral import GridSpec, SpectralField
from .symbols import symbol_table
from .system import FieldState, noncav_margin, rhs_hat

REPORT_COLUMNS = ("t", "hamiltonian", "E_s", "calE_s", "ratio",
                  "x0_norm", "noncav", "smallness")

# relative imaginary residue allowed in the E_s pairing before it is an error
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
    """Weight of the X^s_{mu^k} norm on the full lattice.

    (1 + |xi|^2)^s (1 + mu^k |xi|^{2k}), and (1 + |xi|^2)^s alone at k = 0,
    where mu is ignored.  Read-only and cached: _weight_cache keeps the 8
    most recent (grid, s, k, mu), one float64 grid array of 8*npoints
    bytes each (32 KiB at 64^2, 512 KiB at 256^2, 8 MiB at 1024^2).
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
    mu = state.params.mu
    vsq = sum(x_norm(c, s, k_prime, mu) ** 2 for c in state.v)
    return x_norm(state.zeta, s, k, mu) + math.sqrt(vsq)


def _product_full(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Full dealiased spectrum of a real product (GridSpec.product_hat)."""
    hat = grid.product_hat(values)
    return grid.extend_half(hat, hat)


def _vv_values(grid: GridSpec, vvals) -> list[list[np.ndarray]]:
    """Dealiased values of every v_j v_k, each symmetric pair formed once."""
    dim = len(vvals)
    vv = [[None] * dim for _ in range(dim)]
    for j in range(dim):
        for k in range(j, dim):
            vv[j][k] = vv[k][j] = grid.ifft_real(grid.product_hat(vvals[j] * vvals[k]))
    return vv


def _dot(fs, gs) -> np.ndarray:
    """sum_j f_j g_j of real grid arrays."""
    return sum(f * g for f, g in zip(fs, gs))


def _pair(grid: GridSpec, f_hat: np.ndarray, g_hat: np.ndarray) -> complex:
    """L2 pairing of two (nominally real) fields from their spectra."""
    return grid.cell_volume / grid.npoints * complex(np.vdot(g_hat, f_hat))


def symmetrizer_apply(state: FieldState, arg_z: SpectralField,
                      arg_v: tuple[SpectralField, ...], variant: str):
    """Apply the case's symmetrizer to the argument fields (arg_z, arg_v).

    The coefficients (zeta, v) come from the state; the argument is the
    (already Bessel-weighted) field the energy pairs against, and the
    spectra returned are of S applied to it.  Each distinct spectral
    operand is inverse-transformed once; the b = d variant reads the
    argument's .values, so cached values cost no transform.  The products
    that share an outer multiplier are summed in physical space before one
    dealiased transform (dealiasing is linear).
    """
    grid = state.grid
    p = state.params
    check_variant(p, variant)
    tab = symbol_table(grid, p)
    gamma, eps, mu = p.gamma, p.epsilon, p.mu
    gg = gamma * (1.0 - gamma)
    omc = tab.one_minus_cmu
    zvals = state.zeta.values
    vvals = [c.values for c in state.v]
    dims = range(grid.dim)
    z_hat, v_hat = arg_z.hat, [a.hat for a in arg_v]

    if variant == VARIANT_BD_EQUAL:
        z_arg = arg_z.values
        v_arg = [a.values for a in arg_v]
        out_z = gg * omc * z_hat - eps * _product_full(grid, _dot(vvals, v_arg))
        out_v = tuple(
            tab.A * v_hat[j] - eps * _product_full(grid, zvals * v_arg[j] + vvals[j] * z_arg)
            for j in dims)
        return out_z, out_v

    # both remaining variants pair v with (1 - c mu Lap) arg and need v_j v_k
    z_omc = grid.ifft_real(omc * z_hat)
    v_omc = [grid.ifft_real(omc * a) for a in v_hat]
    vv = _vv_values(grid, vvals)

    if variant == VARIANT_BD_DISTINCT:
        g = tab.g
        v_g1 = [grid.ifft_real((g - 1.0) * a) for a in v_hat]
        out_z = (gg * (gg * omc**2 * g * z_hat)
                 - gg * eps * g * _product_full(grid, _dot(vvals, v_omc)))
        out_v = tuple(
            gg * (tab.A * omc * v_hat[j])
            + _product_full(grid, eps**2 * _dot(vv[j], v_g1) - gg * eps * zvals * v_omc[j])
            - gg * eps * g * _product_full(grid, vvals[j] * z_omc)
            for j in dims)
        return out_z, out_v

    helm_d = tab.helmholtz_d
    v_helm = [grid.ifft_real(helm_d * a) for a in v_hat]
    v_lap = [grid.ifft_real(grid.abs2_xi * a) for a in v_hat]  # -Lap arg_v
    out_z = gg * (gg * omc**2 * z_hat) - gg * eps * _product_full(grid, _dot(vvals, v_omc))
    out_v = tuple(
        gg * omc * (tab.A * (helm_d * v_hat[j]) - eps * _product_full(grid, zvals * v_helm[j]))
        - _product_full(grid, gg * eps * vvals[j] * z_omc
                        + p.d * eps**2 * mu * _dot(vv[j], v_lap))
        for j in dims)
    return out_z, out_v


def energy_Es(state: FieldState, s: float, case: CaseClass | None = None) -> float:
    """Symmetrizer energy (W Lam^s V | S_V Lam^s V)_2 for the state's case.

    W is 1 - b*mu*Lap for the b = d and b != d formulations and
    1 - d*mu*Lap for b = 0 (identity when the coefficient vanishes).
    """
    if case is None:
        case = classify_case(state.params)
    grid = state.grid
    tab = symbol_table(grid, state.params)
    if s == 0.0:
        # Lam^0 = 1: the state's own fields, so their cached values serve
        arg_z, arg_v = state.zeta, state.v
    else:
        lam = bessel_weight(grid, s)
        arg_z = SpectralField(grid, hat=lam * state.zeta.hat)
        arg_v = tuple(SpectralField(grid, hat=lam * c.hat) for c in state.v)
    s_z, s_v = symmetrizer_apply(state, arg_z, arg_v, case.variant)

    weight = tab.helmholtz_d if case.variant == VARIANT_B_ZERO else tab.helmholtz_b
    total = _pair(grid, weight * arg_z.hat, s_z)
    for j in range(grid.dim):
        total += _pair(grid, weight * arg_v[j].hat, s_v[j])

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
    mu = state.params.mu
    out = x_norm(state.zeta, s, case.k, mu) ** 2
    out += sum(x_norm(c, s, case.k_prime, mu) ** 2 for c in state.v)
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

    total = (1.0 - gamma) * grid.spectral_l2_sq(state.zeta.hat, weight=tab.one_minus_cmu)
    total += sum(grid.spectral_l2_sq(c.hat, weight=tab.A) for c in state.v) / gamma
    if p.epsilon != 0.0:
        vsq = sum(c.values**2 for c in state.v)
        vsq_d = grid.ifft_real(grid.product_hat(vsq))
        total -= p.epsilon / gamma * grid.integral(state.zeta.values * vsq_d)
    return 0.5 * total


def variational_gradients(state: FieldState):
    """Spectra of dH/dzeta and dH/dv at the state."""
    grid = state.grid
    p = state.params
    tab = symbol_table(grid, p)
    gamma = p.gamma

    dz = (1.0 - gamma) * tab.one_minus_cmu * state.zeta.hat
    linear_v = tab.A / gamma
    dv = [linear_v * c.hat for c in state.v]

    if p.epsilon != 0.0:
        vsq = sum(c.values**2 for c in state.v)
        dz = dz - p.epsilon / (2.0 * gamma) * _product_full(grid, vsq)
        zvals = state.zeta.values
        for j, comp in enumerate(state.v):
            dv[j] = dv[j] - p.epsilon / gamma * _product_full(grid, zvals * comp.values)
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
    rhs1 = np.zeros(grid.n, dtype=np.complex128)
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
    zhat = state.zeta.hat
    z_l2 = grid.spectral_l2_sq(zhat)
    out = z_l2 + p.mu * grid.spectral_l2_sq(zhat, weight=grid.abs2_xi)
    grad_v = 0.0
    for c in state.v:
        out += grid.spectral_l2_sq(c.hat)
        grad_v += grid.spectral_l2_sq(c.hat, weight=grid.abs2_xi)
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
    small = p.epsilon * state.grid.spectral_l2_sq(state.zeta.hat)
    return EnergyReport(t=state.t, hamiltonian=ham, E_s=es, calE_s=cal,
                        ratio=ratio, x0_norm=x0, noncav=noncav, smallness=small)
