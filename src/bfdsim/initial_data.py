"""Initial-data recipes for simulations and studies.

Profiles: `gaussian` (mean-removed bump at the domain center), `mode`
(single cosine mode), `random_bandlimited` (seeded spectrum on integer
modes |k| <= n/8 with <xi>^-2 decay).  The default velocity is the linear
right-mover: a real field cannot put all content in one mover globally
(realness pairs Z-(-xi) with Z+(xi)), so Z- is zeroed on the half-lattice
where the first nonzero wavenumber component is positive, which in 1D is
the classical v_hat = zeta_hat / r with the mover impedance
r = sqrt(omega1/(g*omega2)) of bfdsim.symbols (g = 1 when b = d).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterDomainError
from .params import ModelParams
from .spectral import GridSpec, SpectralField
from .symbols import symbol_table
from .system import FieldState

PROFILES = ("gaussian", "mode", "random_bandlimited")
VELOCITIES = ("right-mover", "zero", "random")


def _halfspace_sign(grid: GridSpec) -> np.ndarray:
    """+1/-1 on the half-lattices split by the first nonzero xi component."""
    mesh = grid.xi_mesh
    s = np.sign(np.broadcast_to(mesh[0], grid.n)).astype(np.float64)
    if grid.dim == 2:
        tie = s == 0.0
        s = np.where(tie, np.sign(np.broadcast_to(mesh[1], grid.n)), s)
    return s


def right_mover_velocity(zeta: SpectralField, params: ModelParams):
    """Velocity pairing with zeta so the leftgoing mover Z- vanishes on the
    positive half-lattice."""
    grid = zeta.grid
    tab = symbol_table(grid, params)
    s = _halfspace_sign(grid)
    scale = s / tab.ratio_sqrt * zeta.hat
    return tuple(SpectralField(grid, real=grid.ifft_real(u * scale))
                 for u in grid.unit_xi)


def _profile_gaussian(grid: GridSpec, width: float | None) -> np.ndarray:
    if width is None:
        width = min(grid.length) / 16.0
    r2 = np.zeros(grid.n)
    for x, L in zip(grid.x_mesh, grid.length):
        r2 = r2 + (x - L / 2.0) ** 2
    vals = np.exp(-r2 / width**2)
    return vals - vals.mean()


def _profile_mode(grid: GridSpec, mode_k: tuple[int, ...]) -> np.ndarray:
    phase = np.zeros(grid.n)
    for k, x, L in zip(mode_k, grid.x_mesh, grid.length):
        phase = phase + 2.0 * np.pi * k * x / L
    return np.cos(phase)


def _profile_random(grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    white = rng.standard_normal(grid.n)
    hat = grid.fft(white, half=True)
    k2 = np.zeros(grid.n)
    k_axes = [np.rint(np.fft.fftfreq(m) * m) for m in grid.n]
    mesh = np.meshgrid(*k_axes, indexing="ij", sparse=True)
    for comp in mesh:
        k2 = k2 + comp**2
    band = np.sqrt(k2) <= min(grid.n) / 8.0
    hat = hat * band[grid.half] / (1.0 + grid.abs2_xi[grid.half])
    hat[(0,) * grid.dim] = 0.0
    return grid.ifft_real(hat)


def make_zeta(grid: GridSpec, profile: str, amplitude: float,
              seed: int | None = None, width: float | None = None,
              mode_k=None) -> SpectralField:
    """Build the surface profile, dealiased and scaled to max |zeta| = amplitude."""
    if profile == "gaussian":
        vals = _profile_gaussian(grid, width)
    elif profile == "mode":
        if mode_k is None:
            mode_k = (1,) * grid.dim
        vals = _profile_mode(grid, tuple(int(k) for k in np.atleast_1d(mode_k)))
    elif profile == "random_bandlimited":
        rng = np.random.default_rng(seed)
        vals = _profile_random(grid, rng)
    else:
        raise ParameterDomainError(
            f"unknown profile {profile!r}; expected one of {PROFILES}"
        )
    vals = grid.ifft_real(grid.product_hat(vals))
    peak = float(np.max(np.abs(vals)))
    if peak > 0.0 and amplitude != 0.0:
        vals = vals * (amplitude / peak)
    elif amplitude == 0.0:
        vals = np.zeros(grid.n)
    return SpectralField(grid, real=vals)


def make_initial_state(grid: GridSpec, params: ModelParams, profile: str = "gaussian",
                       amplitude: float = 0.1, seed: int | None = None,
                       width: float | None = None, mode_k=None,
                       velocity: str = "right-mover", t: float = 0.0) -> FieldState:
    zeta = make_zeta(grid, profile, amplitude, seed=seed, width=width, mode_k=mode_k)
    if velocity == "right-mover":
        v = right_mover_velocity(zeta, params)
    elif velocity == "zero":
        v = tuple(SpectralField.zeros(grid) for _ in range(grid.dim))
    elif velocity == "random":
        base = 0 if seed is None else int(seed)
        v = tuple(
            make_zeta(grid, "random_bandlimited", amplitude, seed=base + 1 + j)
            for j in range(grid.dim)
        )
    else:
        raise ParameterDomainError(
            f"unknown velocity recipe {velocity!r}; expected one of {VELOCITIES}"
        )
    return FieldState(t=t, zeta=zeta, v=v, params=params)
