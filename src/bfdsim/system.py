"""State container, evolution right-hand side, and frozen-coefficient algebra.

The evolution system on the torus is

    (1 - b*mu*Lap) dt zeta + (1/gamma) div((A(D) - eps*zeta) v) = 0,
    (1 - d*mu*Lap) dt v + (1-gamma)(1 + c*mu*Lap) grad zeta
                        - (eps/(2*gamma)) grad(|v|^2) = 0,

with A(D) the combined dispersion multiplier.  Freezing the coefficients at
a constant background (zeta_bar, v_bar) and taking Fourier transforms yields
a first-order system  W(xi) dt V + M(xi) V = 0 whose symmetrizer S(xi) makes
i S M Hermitian; three S families cover b = d, b != d with b > 0, and b = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError, ParameterDomainError
from .params import (
    VARIANT_BD_DISTINCT,
    VARIANT_BD_EQUAL,
    ModelParams,
    check_variant,
    symmetrizer_variant,
)
from .spectral import GridSpec, SpectralField, _check_same_grid
from .symbols import SymbolTable, multipliers, symbol_table


@dataclass
class FieldState:
    """Surface displacement and layer-mean velocity at one instant.

    memo holds what the energy layer derives from the fields, not from t:
    the |hat|^2 of zeta and of each v_j, the dealiased values of every
    v_j v_k, and per s the Bessel-weighted fields Lam^s zeta, Lam^s v_j
    with their values, all free of params; the eps-free pairings
    (c0, c1[, c2]) of E_s = c0 + eps*c1 + eps^2*c2, under the key ("es",
    s, variant, params with epsilon = 0), since they depend on every
    parameter but eps; and the X^s norms of zeta and each v_j under ("x",
    s, k, k', mu) (see bfdsim.energy).  Each entry is filled on first
    use and read everywhere after.  That is sound because a state's fields
    are never reassigned and their arrays never mutated in place (the
    SpectralField contract): other fields make another FieldState, whose
    memo starts empty, and copy() starts one too.  with_params keeps the
    fields, so it shares the memo: the points of the equivalence sweep
    score one state through it, running the symmetrizer once per mu.
    """

    t: float
    zeta: SpectralField
    v: tuple[SpectralField, ...]
    params: ModelParams
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.v, tuple):
            self.v = tuple(self.v)
        grid = _check_same_grid(self.zeta, *self.v)
        if len(self.v) != grid.dim:
            raise GridMismatchError(
                f"velocity needs {grid.dim} components, got {len(self.v)}"
            )

    @property
    def grid(self) -> GridSpec:
        return self.zeta.grid

    @property
    def dim(self) -> int:
        return self.grid.dim

    def with_params(self, params: ModelParams) -> "FieldState":
        """The same instant and fields under other parameters, sharing the memo."""
        out = FieldState(t=self.t, zeta=self.zeta, v=self.v, params=params)
        out.memo = self.memo
        return out

    def copy(self) -> "FieldState":
        return FieldState(t=self.t, zeta=self.zeta.copy(),
                          v=tuple(c.copy() for c in self.v), params=self.params)

    @classmethod
    def from_arrays(cls, grid: GridSpec, params: ModelParams, zeta, v, t: float = 0.0):
        zf = SpectralField.from_real(grid, zeta)
        vf = tuple(SpectralField.from_real(grid, comp) for comp in v)
        return cls(t=t, zeta=zf, v=vf, params=params)

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(f.hat)) for f in (self.zeta, *self.v))


def quadratic_products(values: np.ndarray, grid: GridSpec, products=None, out=None,
                       work=None):
    """Spectra (div(zeta v)_hat, (|v|^2)_hat) of the quadratic terms.

    values is the real stack [zeta, v_1, ..., v_dim] in physical space;
    its zeta slot is spent as scratch, so values is overwritten there.
    The products [zeta v_1, ..., zeta v_dim, |v|^2] are formed as one real
    stack, in products if given, and go through GridSpec.product_hat, the
    one product kernel, in one call: they are truncated by the two-thirds
    rule and returned on the half lattice (last axis 0..n/2), or, with out
    a (dim + 1,) + band_shape stack, on the two-thirds band (the IF-RK4
    stage's lattice), with work the scratch of the band transforms.  The
    two spectra returned are slots of one (dim + 1) stack, out when given.
    The IF-RK4 stage kernel passes buffers of the evolution workspace, so
    a stage allocates nothing here.
    """
    dim = grid.dim
    zr, vr = values[0], values[1:]
    if products is None:
        products = np.empty_like(values)
    np.multiply(zr, vr, out=products[:dim])
    vsq = np.multiply(vr[0], vr[0], out=products[dim])
    for comp in vr[1:]:
        vsq += np.multiply(comp, comp, out=zr)
    hats = grid.product_hat(products, out=out, work=work)
    xis = grid.xi_mesh if out is None else grid.band_xi
    div_zv = hats[0]
    div_zv *= 1j * xis[0]
    for hat, xi in zip(hats[1:dim], xis[1:]):
        hat *= 1j * xi
        div_zv += hat
    return div_zv, hats[dim]


def rhs_hat(zhat: np.ndarray, vhats: tuple[np.ndarray, ...], grid: GridSpec,
            params: ModelParams, table: SymbolTable | None = None):
    """Tendency spectra (dt zeta_hat, dt v_hat) of the primitive system.

    The spectra are on the half lattice, as are the quadratic terms of
    quadratic_products.  At eps = 0 no product is formed at all, so the map
    is exactly linear.
    """
    if table is None:
        table = symbol_table(grid, params)
    gamma, eps = params.gamma, params.epsilon

    num_z = np.zeros(grid.half_shape, dtype=np.complex128)
    for xi, vh in zip(grid.xi_mesh, vhats):
        num_z += 1j * xi * (table.A * vh)
    num_v = (1.0 - gamma) * table.one_minus_cmu * zhat

    if eps != 0.0:
        values = grid.ifft_real(np.stack([zhat, *vhats]))
        div_zv, vsq_hat = quadratic_products(values, grid)
        num_z = num_z - eps * div_zv
        num_v = num_v - eps / (2.0 * gamma) * vsq_hat
    dz = -num_z / (gamma * table.helmholtz_b)
    dv = tuple(-(1j * xi * num_v) / table.helmholtz_d for xi in grid.xi_mesh)
    return dz, dv


# frozen-coefficient algebra ----------------------------------------------


@dataclass(frozen=True)
class FrozenSymbolMatrices:
    """Weighted first-order system and symmetrizer at one wavenumber.

    M is the system matrix of  W(xi) dt V + M V = 0  where the weight W is
    1 + b*mu*|xi|^2 for the b = d and b != d variants and 1 + d*mu*|xi|^2
    for the b = 0 variant.  prefactor is the overall scalar in front of the
    symmetrizer family (1 for b = d, gamma*(1-gamma) otherwise); margins
    quoted per unit prefactor are comparable across variants.
    """

    xi: tuple[float, ...]
    M: np.ndarray
    S: np.ndarray
    variant: str
    prefactor: float


def frozen_symbol_matrices(xi, zeta_bar: float, v_bar, params: ModelParams,
                           variant: str | None = None) -> FrozenSymbolMatrices:
    """Assemble M(xi) and S(xi) frozen at a constant background."""
    xi = tuple(float(c) for c in np.atleast_1d(xi))
    v_bar = tuple(float(c) for c in np.atleast_1d(v_bar))
    dim = len(xi)
    if dim not in (1, 2) or len(v_bar) != dim:
        raise ParameterDomainError("xi and v_bar must both have 1 or 2 components")
    if variant is None:
        variant = symmetrizer_variant(params)
    check_variant(params, variant)

    gamma, eps, mu = params.gamma, params.epsilon, params.mu
    abs2 = sum(c * c for c in xi)
    sym = multipliers(abs2, params)
    A, helm_d, omc, g = (float(sym[k]) for k in ("A", "helmholtz_d", "one_minus_cmu", "g"))
    Aez = A - eps * zeta_bar
    ixi = [1j * c for c in xi]
    v_dot_ixi = sum(vb * ix for vb, ix in zip(v_bar, ixi))

    m = dim + 1
    M = np.zeros((m, m), dtype=np.complex128)
    S = np.zeros((m, m), dtype=np.complex128)

    if variant in (VARIANT_BD_EQUAL, VARIANT_BD_DISTINCT):
        g_row = 1.0 if variant == VARIANT_BD_EQUAL else g
        M[0, 0] = -(eps / gamma) * v_dot_ixi
        for j in range(dim):
            M[0, 1 + j] = Aez / gamma * ixi[j]
            M[1 + j, 0] = (1.0 - gamma) * g_row * omc * ixi[j]
            for k in range(dim):
                M[1 + j, 1 + k] = -(eps / gamma) * g_row * v_bar[k] * ixi[j]
    else:
        M[0, 0] = -(eps / gamma) * helm_d * v_dot_ixi
        for j in range(dim):
            M[0, 1 + j] = helm_d * Aez / gamma * ixi[j]
            M[1 + j, 0] = (1.0 - gamma) * omc * ixi[j]
            for k in range(dim):
                M[1 + j, 1 + k] = -(eps / gamma) * v_bar[k] * ixi[j]

    gg = gamma * (1.0 - gamma)
    if variant == VARIANT_BD_EQUAL:
        prefactor = 1.0
        S[0, 0] = gg * omc
        for j in range(dim):
            S[0, 1 + j] = S[1 + j, 0] = -eps * v_bar[j]
            S[1 + j, 1 + j] = Aez
    elif variant == VARIANT_BD_DISTINCT:
        prefactor = gg
        S[0, 0] = gg * (gg * omc**2 * g)
        for j in range(dim):
            S[0, 1 + j] = S[1 + j, 0] = gg * (-eps * g * v_bar[j] * omc)
            S[1 + j, 1 + j] = gg * (Aez * omc)
            for k in range(dim):
                S[1 + j, 1 + k] += eps**2 * (g - 1.0) * v_bar[j] * v_bar[k]
    else:
        prefactor = gg
        S[0, 0] = gg * (gg * omc**2)
        for j in range(dim):
            S[0, 1 + j] = S[1 + j, 0] = gg * (-eps * v_bar[j] * omc)
            S[1 + j, 1 + j] = gg * (omc * Aez * helm_d)
            for k in range(dim):
                S[1 + j, 1 + k] += -params.d * eps**2 * mu * abs2 * v_bar[j] * v_bar[k]

    return FrozenSymbolMatrices(xi=xi, M=M, S=S, variant=variant,
                                prefactor=prefactor)


class HermitianReport(NamedTuple):
    defect: float
    margin: float


def hermitian_defect(S: np.ndarray, M: np.ndarray) -> HermitianReport:
    """Deviation of i*S*M from Hermitian, and the positivity margin of S.

    defect = ||i S M - (i S M)^H||_F / (1 + ||i S M||_F); margin is the
    smallest eigenvalue of the symmetric part of S.
    """
    P = 1j * (S @ M)
    defect = float(np.linalg.norm(P - P.conj().T) / (1.0 + np.linalg.norm(P)))
    sym = 0.5 * (S + S.conj().T)
    margin = float(np.linalg.eigvalsh(sym)[0])
    return HermitianReport(defect=defect, margin=margin)


class CavitationReport(NamedTuple):
    margin: float
    eps_w1inf: float


def noncav_margin(state: FieldState) -> float:
    """min over the grid of (1 - eps*zeta), the noncavitation margin."""
    return float(np.min(1.0 - state.params.epsilon * state.zeta.values))


def noncavitation_margin(state: FieldState) -> CavitationReport:
    """noncav_margin(state), plus a steepness proxy.

    The proxy is eps*(||zeta||_inf + ||grad zeta||_inf + ||v||_inf +
    ||grad v||_inf) with gradients from the spectrum; the long-time
    arguments need it small of order sqrt(eps).
    """
    grid = state.grid
    eps = state.params.epsilon
    zvals = state.zeta.values
    margin = noncav_margin(state)

    def grad_maxabs(field: SpectralField) -> float:
        mag = np.zeros(grid.n)
        for xi in grid.xi_mesh:
            mag += grid.ifft_real(1j * xi * field.hat) ** 2
        return float(np.sqrt(np.max(mag)))

    vmag = np.zeros(grid.n)
    for comp in state.v:
        vmag += comp.values**2
    w1 = (float(np.max(np.abs(zvals))) + grad_maxabs(state.zeta)
          + float(np.sqrt(np.max(vmag))) + sum(grad_maxabs(c) for c in state.v))
    return CavitationReport(margin=margin, eps_w1inf=eps * w1)


# amplitude/shallowness normal form ----------------------------------------


def rescale_to_unit(state: FieldState) -> FieldState:
    """Map a state to the equivalent unit-parameter system.

    With zeta(t, X) = eps^{-1} zt(t/sqrt(mu), X/sqrt(mu)) the rescaled pair
    solves the same system with eps = mu = 1 and depth parameter mu2/mu.
    Amplitudes are multiplied by eps, lengths and time divided by sqrt(mu).
    """
    p = state.params
    if p.epsilon <= 0.0:
        raise ParameterDomainError("rescale_to_unit requires epsilon > 0")
    root = math.sqrt(p.mu)
    new_params = ModelParams(gamma=p.gamma, epsilon=1.0, mu=1.0, mu2=p.mu2 / p.mu,
                             a=p.a, b=p.b, c=p.c, d=p.d)
    grid = state.grid
    new_grid = GridSpec(n=grid.n, length=tuple(L / root for L in grid.length))
    zeta = SpectralField(new_grid, real=p.epsilon * state.zeta.values)
    v = tuple(SpectralField(new_grid, real=p.epsilon * c.values) for c in state.v)
    return FieldState(t=state.t / root, zeta=zeta, v=v, params=new_params)


def rescale_from_unit(state: FieldState, epsilon: float, mu: float) -> FieldState:
    """Inverse of rescale_to_unit for the given target (epsilon, mu)."""
    p = state.params
    if epsilon <= 0.0 or mu <= 0.0:
        raise ParameterDomainError("epsilon and mu must be > 0")
    root = math.sqrt(mu)
    new_params = ModelParams(gamma=p.gamma, epsilon=epsilon, mu=mu, mu2=p.mu2 * mu,
                             a=p.a, b=p.b, c=p.c, d=p.d)
    grid = state.grid
    new_grid = GridSpec(n=grid.n, length=tuple(L * root for L in grid.length))
    zeta = SpectralField(new_grid, real=state.zeta.values / epsilon)
    v = tuple(SpectralField(new_grid, real=c.values / epsilon) for c in state.v)
    return FieldState(t=state.t * root, zeta=zeta, v=v, params=new_params)
