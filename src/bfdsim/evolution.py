"""Time integration: exact-phase integrating-factor RK4 (IF-RK4).

The linear flow diagonalizes in every coefficient case: W = |D|^{-1}
curl v is frozen, and the dispersive movers Z+- = zeta +- r (1/(i|D|))
div v, with the impedance r = sqrt(omega1/(g*omega2)), obey
dt Z+- = -(+-) i Omega_sys Z+- + f+- with Omega_sys(xi) =
|xi| sqrt(omega1 omega2 g) (see bfdsim.symbols; g = 1 when b = d) and
the quadratic forcing f+- written out at the stage kernel, _stage.  The
one scheme is an integrating-factor RK4 whose linear part is the exact
phase, so eps = 0 evolution is exact to roundoff.  At eps != 0 its
lattice is the two-thirds band (GridSpec.band_shape: rows |k_0| <= n_0/3
by columns 0..n_1/3 of the rfftn half lattice), which is all a stepped
mover holds: Z+(-xi) = conj Z-(xi) gives the other half, and every
product is truncated by the two-thirds rule, so the stages transform,
multiply and sum 44 % of the half lattice at 256^2.  The step drops
content off the band, so it rejects a state that carries any (evolve
checks its start state, step_exponential any state it did not make).
Each stage is one call of the stage kernel, which writes into the buffers
of its thread's workspace (kept for the last grid shape stepped) and
allocates nothing.  The xi = 0 modes decouple, are stored separately, and
are conserved bitwise.  Classical RK4 on the primitive equations
(rhs_hat) and the half-lattice IF-RK4 stage live on only as test oracles.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .energy import x_norm_state
from .errors import ParameterDomainError
from .params import ModelParams
from .spectral import GridSpec, SpectralField
from .symbols import SymbolTable, symbol_table
from .system import FieldState, quadratic_products

BLOWUP_NORM = 1e6
# relative spectral L2 bound on the content the eps != 0 stepper would drop
BAND_TOL = 1e-12

SCHEME_EXPONENTIAL = "exponential"


@dataclass
class SchemeConfig:
    """Step, end time and monitor cadence of an evolve run.

    scheme names the one integrator, IF-RK4; it admits only "exponential".
    """

    dt: float
    max_t: float
    scheme: str = SCHEME_EXPONENTIAL
    cadence: int = 1

    def __post_init__(self):
        if self.scheme != SCHEME_EXPONENTIAL:
            raise ParameterDomainError(f"unknown scheme {self.scheme!r} "
                                       f"(the one scheme is {SCHEME_EXPONENTIAL})")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ParameterDomainError(f"dt must be finite and > 0, got {self.dt}")
        if not math.isfinite(self.max_t):
            raise ParameterDomainError(f"max_t must be finite, got {self.max_t}")
        if self.cadence < 1:
            raise ParameterDomainError("cadence must be >= 1 step")


class BlowUpSignal(RuntimeError):
    """Raised when the solution leaves the finite regime."""

    def __init__(self, t: float, norm: float, steps: int, events: list):
        super().__init__(f"blow-up at t={t:.6g} (X0 norm {norm:.3e})")
        self.t = t
        self.norm = norm
        self.steps = steps
        self.events = events


@dataclass
class DiagState:
    """State in the diagonal variables of the linear flow.

    With u = xi/|xi| and the impedance r = sqrt(omega1/(g*omega2)), the
    movers are Z+- = zeta_hat +- r u.v_hat and W_hat = i(u1 v2_hat -
    u2 v1_hat) is the frozen rotational part.

    Spectra store 0 at xi = 0; the (conserved) means live in zero_mode as
    (zeta_hat(0), (v_hat(0), ...)).  W_hat is None in one dimension, where
    every field is a gradient.

    The spectra are full-lattice arrays.  For a real state the movers pair
    up as Z+(-xi) = conj Z-(xi), so the rfftn half lattice (grid.half)
    carries all of them, and undiagonalize reads only that half.  At
    eps != 0, step_exponential reads less: the two-thirds band
    (grid.band), the stepper's lattice.  It runs the stage kernel on it in
    the buffers of the thread's workspace and rebuilds the rest with
    GridSpec.extend_band into fresh arrays, which are 0 off the band.  So
    the movers of a returned state never alias a workspace buffer; its
    W_hat is the input's own array, carried through frozen.

    checked marks the outputs of step_exponential at eps != 0, paired and
    on the band by construction.  step_exponential checks any other state
    (_require_on_band), a diagonalize output included, since diagonalize
    serves undealiased states too; so evolve pays for one check, at its
    first step.
    """

    t: float
    Zp_hat: np.ndarray
    Zm_hat: np.ndarray
    W_hat: np.ndarray | None
    zero_mode: tuple
    grid: GridSpec
    params: ModelParams
    checked: bool = field(default=False, repr=False, compare=False)


def diagonalize(state: FieldState) -> DiagState:
    """Split the state into frozen-rotational and dispersive-mover spectra."""
    grid = state.grid
    tab = symbol_table(grid, state.params)
    origin = (0,) * grid.dim

    zhat = state.zeta.hat
    vhats = [c.hat for c in state.v]
    proj = np.zeros(grid.n, dtype=np.complex128)
    for u, vh in zip(grid.unit_xi, vhats):
        proj += u * vh
    r = tab.ratio_sqrt
    Zp = zhat + r * proj
    Zm = zhat - r * proj

    if grid.dim == 2:
        u1, u2 = grid.unit_xi
        W = 1j * (u1 * vhats[1] - u2 * vhats[0])
        W[origin] = 0.0
    else:
        W = None

    zero_mode = (complex(zhat[origin]), tuple(complex(vh[origin]) for vh in vhats))
    Zp[origin] = 0.0
    Zm[origin] = 0.0
    return DiagState(t=state.t, Zp_hat=Zp, Zm_hat=Zm, W_hat=W,
                     zero_mode=zero_mode, grid=grid, params=state.params)


def undiagonalize(diag: DiagState) -> FieldState:
    """Rebuild the primitive state; the output fields are real-valued.

    zeta_hat = (Z+ + Z-)/2 and v_hat = mover_velocity (Z+ - Z-) + i u-perp
    W, formed on the half lattice of diag (not the band: gates and tests
    round-trip states with content off it) in ws.half of the thread's
    workspace, and extended as Hermitian spectra into fresh arrays; so it
    requires Z+(-xi) = conj Z-(xi) and no content on the Nyquist modes
    (see require_no_nyquist).  zeta_hat's slot is the scratch of the
    rotational part before zeta_hat lands in it.
    """
    grid = diag.grid
    tab = symbol_table(grid, diag.params)
    half = grid.half
    ws = _workspace(grid)
    zhat, vhats = ws.half[0], ws.half[1:]
    Zp, Zm = diag.Zp_hat[half], diag.Zm_hat[half]
    np.multiply(np.subtract(Zp, Zm, out=zhat), tab.mover_velocity, out=vhats)
    if diag.W_hat is not None:
        W = diag.W_hat[half]
        u1, u2 = grid.unit_xi
        for vh, sign, u in ((vhats[0], 1j, u2), (vhats[1], -1j, u1)):
            vh += np.multiply(np.multiply(W, sign, out=zhat), u[half], out=zhat)
    np.multiply(np.add(Zp, Zm, out=zhat), 0.5, out=zhat)
    origin = (0,) * grid.dim
    zhat[origin] = diag.zero_mode[0]
    vhats[(slice(None),) + origin] = diag.zero_mode[1]
    zeta, *v = (SpectralField(grid, hat=grid.extend_half(f, f)) for f in ws.half)
    return FieldState(t=diag.t, zeta=zeta, v=tuple(v), params=diag.params)


class _Workspace:
    """Scratch buffers of the IF-RK4 stage kernel for one grid shape.

    Each thread holds one workspace (see _workspace); the stage kernel,
    step_exponential and undiagonalize write only into its buffers, and
    every array they return to a caller is fresh, so no output aliases a
    buffer.  Spectra live on the two-thirds band (grid.band_shape), the
    stepper's lattice, real arrays on the grid, and fft_work is the
    scratch of the band transforms (GridSpec.band_work); each +- pair is
    one stacked (2, ...) array, so one ufunc call updates both movers.
    undiagonalize's half-lattice spectra (half) and the stage's real
    values share one buffer, which neither needs while the other runs, so
    the half lattice adds no resident scratch to the band workspace.
    """

    def __init__(self, grid: GridSpec):
        def band(count):
            return np.empty((count,) + grid.band_shape, dtype=np.complex128)

        count = grid.dim + 1
        self.shape = grid.n
        # zeta_hat and the v_hats of a stage, then its two product spectra;
        # spectra[:2] is also the scratch of the RK combinations
        self.spectra = band(count)
        # (count, n..., n_last/2 + 1) complex holds count real grids: the
        # last axis has 2 more floats than a grid row, per row
        self.half = np.empty((count,) + grid.n[:-1] + (grid.n[-1] // 2 + 1,),
                             dtype=np.complex128)
        self.values = (self.half.reshape(-1).view(np.float64)[:count * grid.npoints]
                       .reshape((count,) + grid.n))
        self.work = (np.empty(grid.n), np.empty(grid.n))
        self.fft_work = grid.band_work()
        # stage: a stage's input movers, overwritten by its forcing (f+, f-);
        # acc: the RK sum; z0: the input movers of the step
        self.stage = band(2)
        self.acc = band(2)
        self.z0 = band(2)
        # i u2 W and -i u1 W, the rotational part of v_hat in 2-D
        self.rot = band(2) if grid.dim == 2 else None
        self.e_h = band(2)
        self.e_f = band(2)
        self.phase_key = None

    def set_rotation(self, diag: DiagState) -> None:
        """Form the rotational part of v_hat from diag.W_hat, once per step."""
        if self.rot is None:
            return
        u1, u2 = diag.grid.unit_xi
        for b, f in diag.grid.band_blocks:
            W, rp, rm = diag.W_hat[f], self.rot[0][b], self.rot[1][b]
            np.multiply(np.multiply(W, 1j, out=rp), u2[f], out=rp)
            np.multiply(np.multiply(W, -1j, out=rm), u1[f], out=rm)

    def phase(self, tab: SymbolTable, h: float):
        """The stacked half-step and full-step phases (e_h, e_f) of the
        movers on the band, e_h = (e^{-i Omega h/2}, e^{+i Omega h/2}) and
        e_f = e_h**2, recomputed only when tab or h changes."""
        if self.phase_key is None or self.phase_key[0] is not tab or self.phase_key[1] != h:
            e_h = self.e_h
            for b, f in tab.grid.band_blocks:
                np.multiply(tab.Omega[f], -0.5j * h, out=e_h[0][b])
            np.exp(e_h[0], out=e_h[0])
            np.conjugate(e_h[0], out=e_h[1])
            np.multiply(e_h, e_h, out=self.e_f)
            self.phase_key = (tab, h)
        return self.e_h, self.e_f


# one workspace per thread: the studies step several runs at once
_LOCAL = threading.local()


def _workspace(grid: GridSpec) -> _Workspace:
    """This thread's workspace for grid's shape; a new shape replaces it."""
    ws = getattr(_LOCAL, "ws", None)
    if ws is None or ws.shape != grid.n:
        ws = _LOCAL.ws = _Workspace(grid)
    return ws


def _reconstruct(diag: DiagState, tab: SymbolTable, ws: _Workspace, Z):
    """zeta_hat and the v_hats on the band, in ws.spectra.

    From the band movers Z = (Z+, Z-) (stacked or a pair), the rotational
    part set by ws.set_rotation and the zero mode of diag, as undiagonalize
    forms them on the half lattice: zeta_hat = (Z+ + Z-)/2 and v_hat =
    mover_velocity (Z+ - Z-) + i u-perp W.
    """
    Zp, Zm = Z
    zhat, vhats = ws.spectra[0], ws.spectra[1:]
    # Z+ - Z- waits in zhat's slot, which vhats does not overlap
    np.subtract(Zp, Zm, out=zhat)
    for b, f in diag.grid.band_blocks:
        np.multiply(zhat[b], tab.mover_velocity[f], out=vhats[b])
    np.multiply(np.add(Zp, Zm, out=zhat), 0.5, out=zhat)
    if ws.rot is not None:
        vhats += ws.rot
    origin = (0,) * diag.grid.dim
    zhat[origin] = diag.zero_mode[0]
    vhats[(slice(None),) + origin] = diag.zero_mode[1]
    return ws.spectra


def _stage(diag: DiagState, tab: SymbolTable, ws: _Workspace, Z):
    """The stage kernel: forcing (f+_hat, f-_hat) of the mover equations on
    the band,

    f+- = (eps/gamma)(1 - b*mu*Lap)^{-1} div(zeta v)
          +- (eps/(2*gamma)) sqrt(omega1/(g*omega2)) i|xi|
             (1 - d*mu*Lap)^{-1} (|v|^2).

    Both terms carry a factor xi, so the xi = 0 component is exactly 0,
    and at eps = 0 both are 0.  Reads the band movers Z (which may be
    ws.stage), the rotational part set by ws.set_rotation and the zero
    mode of diag, and writes the forcing into ws.stage, which it returns.
    The impedance r is read from tab.ratio_sqrt by the band's row blocks.
    """
    grid = diag.grid
    _reconstruct(diag, tab, ws, Z)
    zr, *vr = (grid.ifft_real(hat, out=values, work=ws.fft_work)
               for hat, values in zip(ws.spectra, ws.values))
    div_zv, vsq = quadratic_products(zr, vr, grid, out=ws.spectra[:2], work=ws.work,
                                     fft_work=ws.fft_work)
    div_zv *= tab.forcing_div
    vsq *= tab.forcing_vsq
    for b, f in grid.band_blocks:
        vsq[b] *= tab.ratio_sqrt[f]
    fp, fm = ws.stage
    np.add(div_zv, vsq, out=fp)
    np.subtract(div_zv, vsq, out=fm)
    return ws.stage


def step_exponential(diag: DiagState, dt: float) -> DiagState:
    """One integrating-factor RK4 step in the diagonal variables.

    The linear phase e^{-+ i dt Omega_sys} is applied exactly; W_hat and the
    zero mode are carried through untouched.  At eps = 0 the step is that
    phase alone, on the full lattice.  Otherwise the four stages run the
    stage kernel on the two-thirds band (grid.band_shape), the stepper's
    lattice, in the buffers of the thread's workspace, with the RK
    combinations formed in place as running sums on the stacked pair
    (Z+, Z-); the phases are cached per dt and the rotational part of
    v_hat is formed once per step.  The result is extended with Z+(-xi) =
    conj Z-(xi) into fresh arrays that are 0 off the band, so the step
    reads only the band of diag: the returned state is paired bitwise and
    carries nothing off the band.  A state the step did not make is
    checked once, and one whose movers miss the pairing or carry content
    off the band by more than BAND_TOL relative raises
    ParameterDomainError, so no content is dropped silently.
    """
    grid, p = diag.grid, diag.params
    tab = symbol_table(grid, p)
    t0, h = diag.t, dt
    if p.epsilon == 0.0:
        ep_f = np.exp(-1j * h * tab.Omega)
        return DiagState(t=t0 + h, Zp_hat=ep_f * diag.Zp_hat,
                         Zm_hat=np.conj(ep_f) * diag.Zm_hat, W_hat=diag.W_hat,
                         zero_mode=diag.zero_mode, grid=grid, params=p,
                         checked=diag.checked)
    if not diag.checked:
        _require_on_band(diag)

    ws = _workspace(grid)
    ws.set_rotation(diag)
    e_h, e_f = ws.phase(tab, h)
    z0, acc, tmp = ws.z0, ws.acc, ws.spectra[:2]
    grid.band(diag.Zp_hat, out=z0[0])
    grid.band(diag.Zm_hat, out=z0[1])
    # each k_i lands in ws.stage and is turned there, in place, into the
    # next stage's input; acc sums E_f k1 + 2 E_h k2 + 2 E_h k3 + k4
    k = _stage(diag, tab, ws, z0)
    np.multiply(k, e_f, out=acc)
    k *= h / 2
    k += z0
    k *= e_h
    k = _stage(diag, tab, ws, k)
    acc += np.multiply(np.multiply(k, e_h, out=tmp), 2.0, out=tmp)
    k *= h / 2
    k += np.multiply(z0, e_h, out=tmp)
    k = _stage(diag, tab, ws, k)
    acc += np.multiply(np.multiply(k, e_h, out=tmp), 2.0, out=tmp)
    k *= e_h
    k *= h
    k += np.multiply(z0, e_f, out=tmp)
    k = _stage(diag, tab, ws, k)
    acc += k
    acc *= h / 6
    acc += np.multiply(z0, e_f, out=tmp)

    Zp1, Zm1 = acc
    return DiagState(t=t0 + h, Zp_hat=grid.extend_band(Zp1, Zm1),
                     Zm_hat=grid.extend_band(Zm1, Zp1), W_hat=diag.W_hat,
                     zero_mode=diag.zero_mode, grid=grid, params=p, checked=True)


def _require_on_band(diag: DiagState) -> None:
    """Reject movers that the eps != 0 stage would silently change.

    The stage reads only the two-thirds band of the movers and rebuilds
    the rest from Z+(-xi) = conj Z-(xi), so it evolves extend_band of
    their bands.  The movers must equal that to BAND_TOL relative in
    spectral L2: content off the band (where it is 0) or off the pairing
    raises ParameterDomainError."""
    grid = diag.grid
    Zp, Zm = diag.Zp_hat, diag.Zm_hat
    bp, bm = grid.band(Zp), grid.band(Zm)
    kept = grid.dealias_mask
    unpaired = off_band = total = 0.0
    for Z, seen in ((Zp, grid.extend_band(bp, bm)), (Zm, grid.extend_band(bm, bp))):
        miss = np.abs(np.subtract(Z, seen, out=seen))
        miss *= miss
        unpaired += float(np.sum(miss[kept]))
        off_band += float(np.sum(miss[~kept]))
        total += float(np.sum(Z.real**2 + Z.imag**2))
    if unpaired + off_band > BAND_TOL**2 * total:
        raise ParameterDomainError(
            f"the movers miss Z+(-xi) = conj Z-(xi) by "
            f"{math.sqrt(unpaired / total):.3e} and carry "
            f"{math.sqrt(off_band / total):.3e} off the two-thirds band, relative "
            f"in spectral L2 (limit {BAND_TOL:g} for both together); build "
            f"them with diagonalize from a dealiased state (bfdsim.dealias)")


def default_dt(state: FieldState) -> float:
    """Advective CFL guess: 0.9*dx/(eps*max|v|/gamma + 1).

    IF-RK4 applies the linear phase exactly, so the dispersive frequency
    Omega_sys sets no cap.
    """
    grid = state.grid
    p = state.params
    vmag = np.zeros(grid.n)
    for c in state.v:
        vmag += c.values**2
    vmax = float(np.sqrt(np.max(vmag)))
    return 0.9 * min(grid.dx) / (p.epsilon * vmax / p.gamma + 1.0)


def _step_plan(span: float, dt: float) -> tuple[int, float]:
    """Step count and last step length that land on t0 + span.

    When span/dt is an integer up to roundoff, every step is dt and the
    count is that integer; otherwise a short last step lands on the end.
    """
    ratio = span / dt
    whole = round(ratio)
    if abs(ratio - whole) <= 1e-9 * max(1.0, abs(ratio)):
        return max(0, whole), dt
    full = math.floor(ratio)
    if full < 0:
        return 0, dt
    return full + 1, span - full * dt


def require_no_nyquist(state: FieldState) -> None:
    """Reject a state with content off the two-thirds band, where the
    Nyquist modes k_j = -n_j/2 lie.

    The eps != 0 stepper's lattice is the band, so it would silently drop
    that content.  On the Nyquist modes it would also break the spectrum:
    the odd multipliers (i*xi in rhs_hat, xi/|xi| in diagonalize) see the
    wavenumber -n_j/2 without its mirror image, so one step would make
    the spectrum non-Hermitian, and ifft_real reads only its half lattice.
    """
    grid = state.grid
    off = ~grid.dealias_mask
    content = total = 0.0
    for hat in (state.zeta.hat, *(c.hat for c in state.v)):
        mag = hat.real**2 + hat.imag**2
        content += float(np.sum(mag[off]))
        total += float(np.sum(mag))
    if content > BAND_TOL**2 * total:
        raise ParameterDomainError(
            f"the start state has Nyquist content or other content off the "
            f"two-thirds band, {math.sqrt(content / total):.3e} relative in "
            f"spectral L2 (limit {BAND_TOL:g}); dealias it first (bfdsim.dealias)")


@dataclass
class EvolveSummary:
    final_state: FieldState
    steps: int
    events: list = field(default_factory=list)
    terminated_by: str = "max_t"


def evolve(state: FieldState, cfg: SchemeConfig,
           monitors: Sequence[Callable[[FieldState], None]] = (),
           stop_when: Callable[[FieldState], bool] | None = None) -> EvolveSummary:
    """March to cfg.max_t with IF-RK4, invoking monitors every cfg.cadence
    steps.

    When cfg.dt does not divide the interval, a short last step lands the
    run on cfg.max_t exactly.  A state with content off the two-thirds
    band (the Nyquist modes included) above BAND_TOL relative in
    spectral L2 raises ParameterDomainError (see require_no_nyquist); a
    non-finite one raises BlowUpSignal at its own time, before any
    transform of it.

    The run steps the diagonal variables; monitors receive the primitive
    state, reconstructed for them by undiagonalize.  Raises BlowUpSignal
    when the X^0_mu norm is not within the blow-up threshold, a
    non-finite value included (logged as norm inf); the signal carries t,
    the norm, the step count, and the event log.  An optional stop_when
    predicate ends the run early with terminated_by="threshold".  The
    event log records exceptional happenings only (blow-up, threshold); an
    uneventful run returns an empty log.
    """
    t0 = state.t
    events: list[dict] = []
    if not state.is_finite():
        events.append({"event": "blow-up", "t": t0, "norm": float("inf")})
        raise BlowUpSignal(t0, float("inf"), 0, events)
    require_no_nyquist(state)
    current = diagonalize(state)
    n_steps, last_dt = _step_plan(cfg.max_t - t0, cfg.dt)
    for k in range(n_steps + 1):
        if k > 0:
            h = last_dt if k == n_steps else cfg.dt
            current = step_exponential(current, h)
            current.t = t0 + k * cfg.dt if h == cfg.dt else cfg.max_t
        if k % cfg.cadence != 0 and k != n_steps:
            continue
        snap = undiagonalize(current)
        norm = x_norm_state(snap, 0.0, 1, 1)
        if not norm <= BLOWUP_NORM:
            # a NaN norm fails the test too; it stands for a non-finite field
            norm = norm if norm > BLOWUP_NORM else math.inf
            events.append({"event": "blow-up", "t": snap.t, "norm": norm})
            raise BlowUpSignal(snap.t, norm, k, events)
        for mon in monitors:
            mon(snap)
        if stop_when is not None and stop_when(snap):
            events.append({"event": "threshold", "t": snap.t, "norm": norm})
            return EvolveSummary(final_state=snap, steps=k, events=events,
                                 terminated_by="threshold")
    return EvolveSummary(final_state=snap, steps=n_steps, events=events,
                         terminated_by="max_t")
