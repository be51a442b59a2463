"""IF-RK4 with its stages on the rfftn half lattice, and the whole lattice
the half lattice stands for: test oracles.

The package steps at eps != 0 on the two-thirds band (bfdsim.evolution).
step is the same scheme with every stage run on the whole half lattice
(last axis 0..n/2), in fresh arrays, with the stage constants formed here
on that lattice.  Each per-mode operation and each transform is the one
the band stepper runs, in the same order, so on exactly band-limited
movers the two agree bitwise: the band only skips modes that hold 0.

The package holds every spectrum on the half lattice.  extend_half and
whole rebuild the whole (numpy fftn layout) lattice from it, and the
full_* helpers give the wavenumbers, the two-thirds mask and the L2 sum
there, so tests can check the package against full-lattice formulas.
forcing gives the stage's forcing spectra on the whole lattice.
"""

import numpy as np

from bfdsim import symbol_table
from bfdsim.evolution import DiagState
from bfdsim.system import quadratic_products


def extend_half(grid, hat_p: np.ndarray, hat_m: np.ndarray) -> np.ndarray:
    """Whole spectrum F from half-lattice spectra with F(-xi) = conj hat_m(xi).

    F equals hat_p on the last-axis modes 0..n/2, except in the two
    self-conjugate columns 0 and n/2 of a 2-D grid, where the rows
    k_0 < 0 come from hat_m like every other mode off the half lattice.
    Pass hat_m = hat_p for a Hermitian spectrum, or the partner mover
    for Z+- (Z+(-xi) = conj Z-(xi)).
    """
    m = grid.n[-1] // 2
    full = np.empty(grid.n, dtype=np.complex128)
    full[..., :m + 1] = hat_p
    # -xi reverses the last axis, and in 2-D the rows k_0 != 0
    tail = full[..., m + 1:]
    if grid.dim == 1:
        np.conjugate(hat_m[m - 1:0:-1], out=tail)
    else:
        k = grid.n[0] // 2
        np.conjugate(hat_m[:1, m - 1:0:-1], out=tail[:1])
        np.conjugate(hat_m[:0:-1, m - 1:0:-1], out=tail[1:])
        np.conjugate(hat_m[k - 1:0:-1, ::m], out=full[k + 1:, ::m])
    return full


def whole(grid, hat_p: np.ndarray, hat_m: np.ndarray) -> np.ndarray:
    """The whole-lattice array that a mover hat_p with partner hat_m stands
    for: hat_p on all of the half lattice, conj hat_m(-xi) off it.  Unlike
    extend_half it keeps hat_p's own rows k_0 < 0 in the self-conjugate
    columns, so a pairing defect there shows."""
    full = extend_half(grid, hat_p, hat_m)
    full[..., :grid.half_shape[-1]] = hat_p
    return full


def full_xi_mesh(grid):
    """Broadcastable wavenumber components on the whole lattice."""
    return np.meshgrid(*grid.xi, indexing="ij", sparse=True)


def full_abs2_xi(grid) -> np.ndarray:
    out = np.zeros(grid.n)
    for comp in full_xi_mesh(grid):
        out = out + comp**2
    return out


def full_dealias_mask(grid) -> np.ndarray:
    """The two-thirds rule on the whole lattice: |k_j| <= n_j/3."""
    mask = np.ones(grid.n, dtype=bool)
    ks = np.meshgrid(*[np.rint(np.fft.fftfreq(m) * m) for m in grid.n],
                     indexing="ij", sparse=True)
    for m, k in zip(grid.n, ks):
        mask &= np.abs(k) <= m // 3
    return mask


def full_l2_sq(grid, hat: np.ndarray, weight=None) -> float:
    """(cell/N) * sum |hat|^2 (times weight) over a whole-lattice spectrum."""
    abs2 = np.abs(hat) ** 2
    if weight is not None:
        abs2 = abs2 * weight
    return grid.cell_volume / grid.npoints * float(np.sum(abs2))


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
    div_zv, vsq = quadratic_products(grid.ifft_real(np.stack([zhat, *vhats])), grid)
    div_zv *= forcing_div
    vsq *= forcing_vsq
    vsq *= r
    return np.stack([div_zv + vsq, div_zv - vsq])


def _consts(diag: DiagState):
    """The stage constants of diag on the half lattice."""
    grid, p = diag.grid, diag.params
    tab = symbol_table(grid, p)
    eps, gamma = p.epsilon, p.gamma
    rot = None
    if diag.W_hat is not None:
        W = diag.W_hat
        u1, u2 = grid.unit_xi
        rot = np.stack([W * 1j * u2, W * -1j * u1])
    return (tab.mover_velocity, rot,
            eps / gamma / tab.helmholtz_b,
            eps / (2.0 * gamma) * 1j * grid.abs_xi / tab.helmholtz_d,
            tab.ratio_sqrt)


def forcing(diag: DiagState):
    """Whole-lattice forcing spectra (f+_hat, f-_hat) of the movers of diag,
    the stage extended with f+(-xi) = conj f-(xi).

    Precondition: Z+(-xi) = conj Z-(xi) (every diagonalize output).
    """
    grid = diag.grid
    fp, fm = _stage(diag, _consts(diag), (diag.Zp_hat, diag.Zm_hat))
    return extend_half(grid, fp, fm), extend_half(grid, fm, fp)


def step(diag: DiagState, dt: float) -> DiagState:
    """One IF-RK4 step at eps != 0, its stages on the half lattice.  Column
    0's rows k_0 < 0 of the result are set from the partner by Z+(-xi) =
    conj Z-(xi), as extend_half sets them.

    Precondition: Z+(-xi) = conj Z-(xi) (every diagonalize output).
    """
    grid, p = diag.grid, diag.params
    tab = symbol_table(grid, p)
    h = dt
    consts = _consts(diag)
    e_h0 = np.exp(tab.Omega * (-0.5j * h))
    e_h = np.stack([e_h0, np.conjugate(e_h0)])
    e_f = e_h * e_h
    z0 = np.stack([diag.Zp_hat, diag.Zm_hat])

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
    half = (Ellipsis, slice(0, grid.half_shape[-1]))
    return DiagState(t=diag.t + h, Zp_hat=extend_half(grid, Zp1, Zm1)[half],
                     Zm_hat=extend_half(grid, Zm1, Zp1)[half], W_hat=diag.W_hat,
                     zero_mode=diag.zero_mode, grid=grid, params=p)
