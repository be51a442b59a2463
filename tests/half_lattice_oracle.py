"""IF-RK4 with its stages on the rfftn half lattice: a test oracle.

The package steps at eps != 0 on the two-thirds band (bfdsim.evolution).
This is the same scheme with every stage run on the whole half lattice
(last axis 0..n/2), in fresh arrays, with the stage constants formed here
on that lattice.  Each per-mode operation and each transform is the one
the band stepper runs, in the same order, so on exactly band-limited
movers the two agree bitwise: the band only skips modes that hold 0.
forcing gives the stage's forcing spectra on the full lattice.
"""

import numpy as np

from bfdsim import symbol_table
from bfdsim.evolution import DiagState
from bfdsim.system import quadratic_products


def _stage(diag: DiagState, consts, Z):
    """Forcing (f+, f-) on the half lattice, stacked, from the movers Z."""
    grid = diag.grid
    mover_velocity, rot, forcing_div, forcing_vsq, r = consts
    Zp, Zm = Z
    vhats = (Zp - Zm) * mover_velocity
    zhat = (Zp + Zm) * 0.5
    if rot is not None:
        vhats += rot
    origin = (0,) * grid.dim
    zhat[origin] = diag.zero_mode[0]
    vhats[(slice(None),) + origin] = diag.zero_mode[1]
    zr = grid.ifft_real(zhat)
    vr = [grid.ifft_real(vh) for vh in vhats]
    div_zv, vsq = quadratic_products(zr, vr, grid)
    div_zv *= forcing_div
    vsq *= forcing_vsq
    vsq *= r
    return np.stack([div_zv + vsq, div_zv - vsq])


def _consts(diag: DiagState):
    """The stage constants of diag on the half lattice."""
    grid, p = diag.grid, diag.params
    tab = symbol_table(grid, p)
    half, eps, gamma = grid.half, p.epsilon, p.gamma
    rot = None
    if diag.W_hat is not None:
        W = diag.W_hat[half]
        u1, u2 = (u[half] for u in grid.unit_xi)
        rot = np.stack([W * 1j * u2, W * -1j * u1])
    return (tab.mover_velocity, rot,
            eps / gamma / tab.helmholtz_b[half],
            eps / (2.0 * gamma) * 1j * grid.abs_xi[half] / tab.helmholtz_d[half],
            tab.ratio_sqrt[half])


def forcing(diag: DiagState):
    """Full-lattice forcing spectra (f+_hat, f-_hat) of the movers of diag,
    the stage extended with f+(-xi) = conj f-(xi).

    Precondition: Z+(-xi) = conj Z-(xi) (every diagonalize output).
    """
    grid, half = diag.grid, diag.grid.half
    fp, fm = _stage(diag, _consts(diag), (diag.Zp_hat[half], diag.Zm_hat[half]))
    return grid.extend_half(fp, fm), grid.extend_half(fm, fp)


def step(diag: DiagState, dt: float) -> DiagState:
    """One IF-RK4 step at eps != 0, its stages on the half lattice.

    Precondition: Z+(-xi) = conj Z-(xi) (every diagonalize output).
    """
    grid, p = diag.grid, diag.params
    tab = symbol_table(grid, p)
    half, h = grid.half, dt
    consts = _consts(diag)
    e_h0 = np.exp(tab.Omega[half] * (-0.5j * h))
    e_h = np.stack([e_h0, np.conjugate(e_h0)])
    e_f = e_h * e_h
    z0 = np.stack([diag.Zp_hat[half], diag.Zm_hat[half]])

    k = _stage(diag, consts, z0)
    acc = k * e_f
    k = _stage(diag, consts, (k * (h / 2) + z0) * e_h)
    acc += k * e_h * 2.0
    k = _stage(diag, consts, k * (h / 2) + z0 * e_h)
    acc += k * e_h * 2.0
    k = _stage(diag, consts, k * e_h * h + z0 * e_f)
    acc += k
    acc *= h / 6
    acc += z0 * e_f

    Zp1, Zm1 = acc
    return DiagState(t=diag.t + h, Zp_hat=grid.extend_half(Zp1, Zm1),
                     Zm_hat=grid.extend_half(Zm1, Zp1), W_hat=diag.W_hat,
                     zero_mode=diag.zero_mode, grid=grid, params=p)
