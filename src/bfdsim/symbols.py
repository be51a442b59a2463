"""Fourier multipliers of the linearized system.

sigma(xi) = sqrt(mu2)*|xi|*coth(sqrt(mu2)*|xi|) is the full-dispersion
symbol; it is evaluated through the overflow-safe rewriting
sigma = s + 2*s/(exp(2*s) - 1) with s = sqrt(mu2)*|xi|, which tends to 1 as
s -> 0 and to s as s -> inf.  The combined symbol

    A(xi) = 1 - a*mu*|xi|^2 + (1/gamma)*sqrt(mu/mu2)*sigma
              + (1/gamma^2)*(mu/mu2)*sigma^2

drives the surface equation, and with the paper weights

    omega1 = (1/gamma)*A(xi)/(1 + b*mu*|xi|^2),
    omega2 = (1 - gamma)*(1 - c*mu*|xi|^2)/(1 + b*mu*|xi|^2),
    g = (1 + b*mu*|xi|^2)/(1 + d*mu*|xi|^2)

the longitudinal pair of every coefficient case oscillates at
Omega_sys(xi) = |xi|*sqrt(omega1*omega2*g), and the movers
zeta +- r*(xi/|xi|).v split with the impedance r = sqrt(omega1/(g*omega2)).
When b = d, g is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .params import ModelParams
from .spectral import GridSpec

# beyond this 2*s, exp(2*s) overflows double precision; coth is 1 to machine
# precision long before, so the asymptote is exact there
_EXP_CUTOFF = 700.0


def sigma_of(s: np.ndarray) -> np.ndarray:
    """s*coth(s) evaluated stably for s >= 0, with value 1 at s = 0."""
    s = np.asarray(s, dtype=np.float64)
    out = np.empty_like(s)
    small = 2.0 * s <= _EXP_CUTOFF
    with np.errstate(divide="ignore", invalid="ignore"):
        out[small] = s[small] + 2.0 * s[small] / np.expm1(2.0 * s[small])
    out[~small] = s[~small]
    out[s == 0.0] = 1.0
    return out


def multipliers(abs2, params: ModelParams) -> dict[str, np.ndarray]:
    """Every linear multiplier at |xi|^2 = abs2, keyed by SymbolTable field."""
    mu, mu2, gamma = params.mu, params.mu2, params.gamma
    abs2 = np.asarray(abs2, dtype=np.float64)
    abs_xi = np.sqrt(abs2)

    sig = sigma_of(np.sqrt(mu2) * abs_xi)
    ratio = mu / mu2
    A = (1.0 - params.a * mu * abs2
         + np.sqrt(ratio) / gamma * sig
         + ratio / gamma**2 * sig**2)
    helm_b = 1.0 + params.b * mu * abs2
    helm_d = 1.0 + params.d * mu * abs2
    one_minus_cmu = 1.0 - params.c * mu * abs2
    g = helm_b / helm_d
    omega1 = A / (gamma * helm_b)
    omega2 = (1.0 - gamma) * one_minus_cmu / helm_b
    return dict(A=A, g=g, Omega=abs_xi * np.sqrt(omega1 * omega2 * g),
                impedance=np.sqrt(omega1 / (g * omega2)),
                helmholtz_b=helm_b, helmholtz_d=helm_d,
                one_minus_cmu=one_minus_cmu)


@dataclass(eq=False)
class SymbolTable:
    """Multiplier arrays over one grid for one parameter set.

    The linear symbols are those of multipliers, on the rfftn half
    lattice (grid.half_shape); the rest fold the per-mode constants of the
    IF-RK4 stage into one multiplier each:

        forcing_div = (eps/gamma) / (1 + b*mu*|xi|^2),
        forcing_vsq = (eps/(2*gamma)) * i|xi| / (1 + d*mu*|xi|^2),
        mover_velocity[j] = 0.5 * (xi_j/|xi|) / r,

    with the impedance r.  The stage rebuilds the gradient part of v_hat_j
    as mover_velocity[j]*(Z+ - Z-), and its forcing is forcing_div times
    div(zeta v)_hat, plus or minus r*forcing_vsq times (|v|^2)_hat.  The
    two forcing multipliers live on the two-thirds band (grid.band_shape),
    the stage's lattice; mover_velocity lives on the half lattice, since
    undiagonalize reads it there too, and band_mover_velocity is its copy
    on the band, so a stage multiplies by it in one call.  The stage
    gathers the band of the impedance from ratio_sqrt once per step
    instead, and that of Omega once per dt (see bfdsim.evolution).
    sigma, omega1 and omega2 are read by no stage, so they are derived on
    access rather than stored.
    """

    grid: GridSpec
    params: ModelParams
    A: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    Omega: np.ndarray = field(repr=False)
    impedance: np.ndarray = field(repr=False)
    helmholtz_b: np.ndarray = field(repr=False)
    helmholtz_d: np.ndarray = field(repr=False)
    one_minus_cmu: np.ndarray = field(repr=False)
    forcing_div: np.ndarray = field(repr=False)
    forcing_vsq: np.ndarray = field(repr=False)
    mover_velocity: np.ndarray = field(repr=False)
    band_mover_velocity: np.ndarray = field(repr=False)

    @property
    def sigma(self) -> np.ndarray:
        """sqrt(mu2)*|xi|*coth(sqrt(mu2)*|xi|), the full-dispersion symbol."""
        return sigma_of(np.sqrt(self.params.mu2) * self.grid.abs_xi)

    @property
    def omega1(self) -> np.ndarray:
        return self.A / (self.params.gamma * self.helmholtz_b)

    @property
    def omega2(self) -> np.ndarray:
        return (1.0 - self.params.gamma) * self.one_minus_cmu / self.helmholtz_b

    @property
    def ratio_sqrt(self) -> np.ndarray:
        """sqrt(omega1/(g*omega2)), the mode-splitting impedance.

        The same array as impedance, read under this name by the stepper
        and the initial data.  It stays a property because
        perfbench/spans.py wraps it by name to count its reads per step."""
        return self.impedance

    @property
    def lambda_plus(self) -> np.ndarray:
        """Eigenvalue i*Omega_sys of the linear flow."""
        return 1j * self.Omega


@lru_cache(maxsize=64)
def symbol_table(grid: GridSpec, params: ModelParams) -> SymbolTable:
    """Build (or fetch the cached) symbol table for a grid/parameter pair."""
    sym = multipliers(grid.abs2_xi, params)
    band = grid.band
    eps, gamma = params.epsilon, params.gamma
    mover_velocity = np.stack([0.5 * u / sym["impedance"] for u in grid.unit_xi])
    return SymbolTable(
        grid=grid, params=params, **sym,
        forcing_div=eps / gamma / band(sym["helmholtz_b"]),
        forcing_vsq=eps / (2.0 * gamma) * 1j * band(grid.abs_xi) / band(sym["helmholtz_d"]),
        mover_velocity=mover_velocity, band_mover_velocity=band(mover_velocity))
