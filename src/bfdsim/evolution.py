"""Time integration: exact-phase integrating-factor RK4 (IF-RK4).

The linear flow diagonalizes in every coefficient case: W = |D|^{-1}
curl v is frozen, and the dispersive movers Z+- = zeta +- r (1/(i|D|))
div v, with the impedance r = sqrt(omega1/(g*omega2)), obey
dt Z+- = -(+-) i Omega_sys Z+- + f+- with Omega_sys(xi) =
|xi| sqrt(omega1 omega2 g) (see bfdsim.symbols; g = 1 when b = d) and
the quadratic forcing f+- written out at the stage kernel, _stage.  The
one scheme is an integrating-factor RK4 whose linear part is the exact
phase, so eps = 0 evolution is exact to roundoff.  The movers live on
the rfftn half lattice, which with Z+(-xi) = conj Z-(xi) carries all of
them.  At eps != 0 the stepper's lattice is the two-thirds band
(GridSpec.band_shape: rows |k_0| <= n_0/3 by columns 0..n_1/3 of the half
lattice), which is all a stepped mover holds: every product is truncated
by the two-thirds rule, so the stages transform, multiply and sum 44 % of
the half lattice at 256^2.  The step reads only the band of the movers
and of W_hat, so a state that carries content off it, or breaks the
pairing in column 0, is refused rather than truncated.  One function
decides that, _require_on_band, on the diagonal variables the step
reads: evolve runs it once on its start state, at every eps, and
step_exponential on any state it did not make.  Each stage is one call
of the stage kernel, which writes into the buffers of its thread's
workspace (kept for the last grid shape stepped) and allocates nothing:
it makes one stacked inverse transform of its fields (zeta, v) and one
stacked forward transform of its products (zeta v_j, |v|^2), and
multiplies by each per-mode table in one ufunc call on its band.
The xi = 0 modes decouple, are stored separately, and are conserved
bitwise.  Classical RK4 on the primitive equations
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

    The spectra are rfftn half-lattice arrays (grid.half_shape), half the
    size of the whole lattice.  For a real state the movers pair up as
    Z+(-xi) = conj Z-(xi), so the half lattice carries all of them; both
    xi and -xi lie on it only in the self-conjugate columns 0 and n/2,
    where the pairing is a constraint.  At eps != 0, step_exponential
    reads less: the two-thirds band (grid.band), the stepper's lattice.
    It runs the stage kernel on it in the buffers of the thread's
    workspace and scatters the result into fresh zeroed half-lattice
    arrays, with column 0 paired (GridSpec.pair_columns).  So the movers of
    a returned state never alias a workspace buffer; its W_hat is the
    input's own array, carried through frozen.

    checked marks a state that needs no band check: the outputs of
    step_exponential at eps != 0, paired and on the band by construction,
    and the start state of evolve, which evolve checks (_require_on_band)
    before its first step.  step_exponential checks any other state, a
    diagonalize output included, since diagonalize serves undealiased
    states too.  So a run pays for one check.
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
    proj = np.zeros(grid.half_shape, dtype=np.complex128)
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
    round-trip states with content off it) in one fresh array, with the
    self-conjugate columns made conjugate-symmetric (GridSpec.pair_columns,
    from the rows k_0 > 0), so the fields are real.  They are the fields
    of diag when diag has no content on the Nyquist modes and is paired in
    those columns, as every state step_exponential returns is, and every
    state _require_on_band admits to BAND_TOL.  zeta_hat's slot is the
    scratch of the rotational part before zeta_hat lands in it.
    """
    grid = diag.grid
    tab = symbol_table(grid, diag.params)
    spectra = np.empty((grid.dim + 1,) + grid.half_shape, dtype=np.complex128)
    zhat, vhats = spectra[0], spectra[1:]
    Zp, Zm = diag.Zp_hat, diag.Zm_hat
    np.multiply(np.subtract(Zp, Zm, out=zhat), tab.mover_velocity, out=vhats)
    if diag.W_hat is not None:
        u1, u2 = grid.unit_xi
        for vh, sign, u in ((vhats[0], 1j, u2), (vhats[1], -1j, u1)):
            vh += np.multiply(np.multiply(diag.W_hat, sign, out=zhat), u, out=zhat)
    np.multiply(np.add(Zp, Zm, out=zhat), 0.5, out=zhat)
    origin = (0,) * grid.dim
    zhat[origin] = diag.zero_mode[0]
    vhats[(slice(None),) + origin] = diag.zero_mode[1]
    for f in spectra:
        grid.pair_columns(f, f)
    zeta, *v = (SpectralField(grid, hat=f) for f in spectra)
    return FieldState(t=diag.t, zeta=zeta, v=tuple(v), params=diag.params)


class _Workspace:
    """Scratch buffers of the IF-RK4 stage kernel for one grid shape.

    Each thread holds one workspace (see _workspace); the stage kernel
    and step_exponential write only into its buffers, and every array they
    return to a caller is fresh, so no output aliases a buffer.  Spectra
    live on the two-thirds band (grid.band_shape), the stepper's lattice,
    real arrays on the grid.  A stage transforms its fields and its
    products as stacks, one ifft_real of spectra into values and one
    product_hat of products back into spectra, with fft_work the scratch
    of those band transforms (GridSpec.band_work of dim + 1 fields); each
    +- pair is one stacked (2, ...) array, so one ufunc call updates both
    movers.
    """

    def __init__(self, grid: GridSpec):
        def band(count):
            return np.empty((count,) + grid.band_shape, dtype=np.complex128)

        count = grid.dim + 1
        self.shape = grid.n
        # zeta_hat and the v_hats of a stage, then the spectra of its
        # products; spectra[:2] is also the scratch of the RK combinations
        self.spectra = band(count)
        self.values = np.empty((count,) + grid.n)
        self.products = np.empty((count,) + grid.n)
        self.fft_work = grid.band_work(count)
        # the impedance on the band, gathered from tab.ratio_sqrt each step
        self.impedance = np.empty(grid.band_shape)
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
        u1, u2 = diag.grid.band_unit_xi
        rp, rm = self.rot
        W = diag.grid.band(diag.W_hat, out=rm)
        np.multiply(np.multiply(W, 1j, out=rp), u2, out=rp)
        np.multiply(np.multiply(W, -1j, out=rm), u1, out=rm)

    def phase(self, tab: SymbolTable, h: float):
        """The stacked half-step and full-step phases (e_h, e_f) of the
        movers on the band, e_h = (e^{-i Omega h/2}, e^{+i Omega h/2}) and
        e_f = e_h**2, recomputed only when tab or h changes."""
        if self.phase_key is None or self.phase_key[0] is not tab or self.phase_key[1] != h:
            e_h = self.e_h
            tab.grid.band(tab.Omega, out=e_h[0])
            e_h[0] *= -0.5j * h
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
    np.multiply(zhat, tab.band_mover_velocity, out=vhats)
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
    The fields go through one stacked inverse transform, their products
    through one stacked forward transform (quadratic_products), and the
    impedance r is the band step_exponential gathered into ws.impedance.
    """
    grid = diag.grid
    spectra = _reconstruct(diag, tab, ws, Z)
    grid.ifft_real(spectra, out=ws.values, work=ws.fft_work)
    div_zv, vsq = quadratic_products(ws.values, grid, products=ws.products, out=spectra,
                                     work=ws.fft_work)
    div_zv *= tab.forcing_div
    vsq *= tab.forcing_vsq
    vsq *= ws.impedance
    fp, fm = ws.stage
    np.add(div_zv, vsq, out=fp)
    np.subtract(div_zv, vsq, out=fm)
    return ws.stage


def step_exponential(diag: DiagState, dt: float) -> DiagState:
    """One integrating-factor RK4 step in the diagonal variables.

    The linear phase e^{-+ i dt Omega_sys} is applied exactly; W_hat and the
    zero mode are carried through untouched.  At eps = 0 the step is that
    phase alone, on the half lattice.  Otherwise the four stages run the
    stage kernel on the two-thirds band (grid.band_shape), the stepper's
    lattice, in the buffers of the thread's workspace, with the RK
    combinations formed in place as running sums on the stacked pair
    (Z+, Z-); the phases are cached per dt, and the rotational part of
    v_hat and the band of the impedance (tab.ratio_sqrt) are formed once
    per step.  The result is scattered into fresh
    zeroed half-lattice arrays, and column 0's rows k_0 < 0 are set from
    the partner by Z+(-xi) = conj Z-(xi), so the step reads only the band
    of diag: the returned state is paired bitwise and carries nothing off
    the band.  A state the step did not make is checked once, and one
    whose movers miss the pairing or carry content off the band by more
    than BAND_TOL relative raises ParameterDomainError, so no content is
    dropped silently.
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
    grid.band(tab.ratio_sqrt, out=ws.impedance)
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

    Zp1, Zm1 = movers = np.zeros((2,) + grid.half_shape, dtype=np.complex128)
    for b, f in grid.band_blocks:
        movers[f] = acc[b]
    grid.pair_columns(Zp1, Zm1)
    grid.pair_columns(Zm1, Zp1)
    return DiagState(t=t0 + h, Zp_hat=Zp1, Zm_hat=Zm1, W_hat=diag.W_hat,
                     zero_mode=diag.zero_mode, grid=grid, params=p, checked=True)


def _require_on_band(diag: DiagState) -> None:
    """Reject a state that the eps != 0 step would silently change: the
    one admission check of the stepper (evolve runs it on its start state
    at every eps, step_exponential on any state it did not make).

    The stage reads only the two-thirds band of the movers and of W_hat,
    scatters its result into zeroed half lattices and sets column 0's rows
    k_0 < 0 from the partner by Z+(-xi) = conj Z-(xi); it forms the
    rotational part of v_hat from W_hat's band as that of a real field,
    W(-xi) = conj W(xi).  The three arrays must equal what the stage reads
    to BAND_TOL relative in spectral L2, against their total: content off
    the band (where it is 0, the Nyquist modes included) or off the
    pairing in column 0 raises ParameterDomainError.  The pairing
    constrains nothing else, since off the self-conjugate columns -xi is
    off the half lattice, and column n/2 is off the band.

    The check reads the arrays block by block and makes no half-lattice
    array: column 0's rows k_0 < 0 of the band against the partner's
    mirrored there, and |Z|^2 summed over the kept rows and over the rows
    between them, which are all off the band.  The sums weigh the columns
    the Hermitian way (GridSpec.hermitian_sum), so each is the spectral L2
    of the whole lattice.
    """
    grid = diag.grid
    c = grid.band_shape[-1]
    unpaired = off_band = total = 0.0
    Zp, Zm, W = diag.Zp_hat, diag.Zm_hat, diag.W_hat
    # the movers pair with each other, W_hat (2-D only) with itself
    for Z, P in ((Zp, Zm), (Zm, Zp), (W, W))[:grid.dim + 1]:
        # (re, im) pairs of floats: column 0 is [..., :2], column n/2 [..., -2:]
        re_im = np.ascontiguousarray(Z).view(np.float64)
        if grid.dim == 1:
            rows = ((re_im, True),)
        else:
            k, n0 = grid.n[0] // 3, grid.n[0]
            miss = np.abs(Z[n0 - k:, 0] - np.conjugate(P[k:0:-1, 0]))
            unpaired += float(np.sum(miss * miss))
            rows = ((re_im[:k + 1], True), (re_im[k + 1:n0 - k], False),
                    (re_im[n0 - k:], True))
        for x, kept in rows:
            nyquist = _sq_sum(x[..., -2:])
            sq = 2.0 * _sq_sum(x) - _sq_sum(x[..., :2]) - nyquist
            total += sq
            off_band += 2.0 * _sq_sum(x[..., 2 * c:]) - nyquist if kept else sq
    if unpaired + off_band > BAND_TOL**2 * total:
        raise ParameterDomainError(
            f"the diagonal variables miss Z+(-xi) = conj Z-(xi), W(-xi) = conj W(xi) by "
            f"{math.sqrt(unpaired / total):.3e} and carry "
            f"{math.sqrt(off_band / total):.3e} off the two-thirds band (Nyquist "
            f"content included), relative in spectral L2 (limit {BAND_TOL:g} for "
            f"both together); dealias the state first (bfdsim.dealias)")


def _sq_sum(x: np.ndarray) -> float:
    """Sum of the squares of a real array, with no temporary array
    (np.einsum calls no BLAS)."""
    axes = "ij"[:x.ndim]
    return float(np.einsum(f"{axes},{axes}->", x, x))


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


def _step_plan(t0: float, max_t: float, dt: float) -> tuple[int, float]:
    """Step count and last step length that land on max_t from t0.

    When (max_t - t0)/dt is an integer up to roundoff, every step is dt
    and the count is that integer, 0 for max_t = t0; otherwise a short
    last step lands on the end.  An end before the start raises
    ParameterDomainError.
    """
    span = max_t - t0
    ratio = span / dt
    whole = round(ratio)
    if abs(ratio - whole) <= 1e-9 * max(1.0, abs(ratio)) and whole >= 0:
        return whole, dt
    if ratio < 0:
        raise ParameterDomainError(f"max_t = {max_t} is before the start time t = {t0}")
    full = math.floor(ratio)
    return full + 1, span - full * dt


@dataclass
class EvolveSummary:
    """How a run ended: its last state (None after a blow-up), the steps
    taken, the event log, what ended it, and the step dt it took."""

    final_state: FieldState | None
    steps: int
    events: list = field(default_factory=list)
    terminated_by: str = "max_t"
    dt: float | None = None


def evolve(state: FieldState, cfg: SchemeConfig,
           monitors: Sequence[Callable[[FieldState], None]] = (),
           stop_when: Callable[[FieldState], bool] | None = None) -> EvolveSummary:
    """March to cfg.max_t with IF-RK4, invoking monitors every cfg.cadence
    steps.

    When cfg.dt does not divide the interval, a short last step lands the
    run on cfg.max_t exactly.  A cfg.max_t before state.t raises
    ParameterDomainError; cfg.max_t == state.t, up to the roundoff of a
    resumed run's clock, is a run of 0 steps.  A start state whose
    spectra hold a non-finite value raises BlowUpSignal at its own time,
    before it is diagonalized.  Otherwise the diagonalized start state
    passes the stepper's one admission check, _require_on_band, at every
    eps, before the first step: content off the two-thirds band (the
    Nyquist modes included) or off the pairing in the movers or W_hat
    above BAND_TOL relative in spectral L2 raises ParameterDomainError.

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
    n_steps, last_dt = _step_plan(t0, cfg.max_t, cfg.dt)
    events: list[dict] = []
    if not state.is_finite():
        events.append({"event": "blow-up", "t": t0, "norm": float("inf")})
        raise BlowUpSignal(t0, float("inf"), 0, events)
    current = diagonalize(state)
    _require_on_band(current)
    current.checked = True
    for k in range(n_steps + 1):
        if k > 0:
            h = last_dt if k == n_steps else cfg.dt
            current = step_exponential(current, h)
            # the previous snapshot and its memo go once the step's movers
            # exist: freed before the step, they would sit on top of the
            # heap, and glibc would trim them and fault them back in
            snap = None
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
                                 terminated_by="threshold", dt=cfg.dt)
    return EvolveSummary(final_state=snap, steps=n_steps, events=events,
                         terminated_by="max_t", dt=cfg.dt)
