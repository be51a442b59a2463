"""Time integration: exact-phase integrating-factor RK4 (IF-RK4).

The linear flow diagonalizes in every coefficient case: W = |D|^{-1}
curl v is frozen, and the dispersive movers Z+- = zeta +- r (1/(i|D|))
div v, with the impedance r = sqrt(omega1/(g*omega2)), obey
dt Z+- = -(+-) i Omega_sys Z+- + f+- with Omega_sys(xi) =
|xi| sqrt(omega1 omega2 g) (see bfdsim.symbols; g = 1 when b = d).  The
one scheme is an integrating-factor RK4 whose linear part is the exact
phase, so eps = 0 evolution is exact to roundoff; its stages run on the
rfftn half lattice, since Z+(-xi) = conj Z-(xi).  The xi = 0 modes
decouple, are stored separately, and are conserved bitwise.  Classical
RK4 on the primitive equations (rhs_hat) lives on only as a test oracle.
"""

from __future__ import annotations

import math
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
NYQUIST_TOL = 1e-12

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
    carries all of them: step_exponential and nonlinear_f_pm read only
    that half and rebuild the rest with GridSpec.extend_half.
    """

    t: float
    Zp_hat: np.ndarray
    Zm_hat: np.ndarray
    W_hat: np.ndarray | None
    zero_mode: tuple
    grid: GridSpec
    params: ModelParams

    def copy(self) -> "DiagState":
        return DiagState(t=self.t, Zp_hat=self.Zp_hat.copy(),
                         Zm_hat=self.Zm_hat.copy(),
                         W_hat=None if self.W_hat is None else self.W_hat.copy(),
                         zero_mode=self.zero_mode, grid=self.grid,
                         params=self.params)


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
    Zp = Zp.copy()
    Zm = Zm.copy()
    Zp[origin] = 0.0
    Zm[origin] = 0.0
    return DiagState(t=state.t, Zp_hat=Zp, Zm_hat=Zm, W_hat=W,
                     zero_mode=zero_mode, grid=grid, params=state.params)


def _reconstruct_hats(diag: DiagState, tab: SymbolTable, Zp, Zm, W, part=Ellipsis):
    """Primitive spectra (zeta_hat, v_hats) from the diagonal variables
    Zp, Zm, W and the zero mode of diag.

    The arrays live on the lattice part of a full array: Ellipsis for the
    full lattice, grid.half for the half lattice of the mover stages.
    """
    grid = diag.grid
    unit = [u[part] for u in grid.unit_xi]
    zhat = 0.5 * (Zp + Zm)
    proj = 0.5 * (Zp - Zm) / tab.ratio_sqrt[part]
    vhats = [u * proj for u in unit]
    if W is not None:
        u1, u2 = unit
        vhats[0] = vhats[0] + 1j * u2 * W
        vhats[1] = vhats[1] - 1j * u1 * W
    origin = (0,) * grid.dim
    zhat[origin] = diag.zero_mode[0]
    for vh, v0 in zip(vhats, diag.zero_mode[1]):
        vh[origin] = v0
    return zhat, vhats


def undiagonalize(diag: DiagState) -> FieldState:
    """Rebuild the primitive state; the output fields are real-valued."""
    tab = symbol_table(diag.grid, diag.params)
    zhat, vhats = _reconstruct_hats(diag, tab, diag.Zp_hat, diag.Zm_hat, diag.W_hat)
    return FieldState(t=diag.t,
                      zeta=SpectralField(diag.grid, hat=zhat),
                      v=tuple(SpectralField(diag.grid, hat=vh) for vh in vhats),
                      params=diag.params)


def _forcing_half(diag: DiagState, tab: SymbolTable, Zp, Zm, W):
    """Forcing (f+_hat, f-_hat) of nonlinear_f_pm on the half lattice, from
    half-lattice Zp, Zm, W and the zero mode of diag."""
    grid = diag.grid
    half = grid.half
    zhat, vhats = _reconstruct_hats(diag, tab, Zp, Zm, W, half)
    zr = grid.ifft_real(zhat)
    vr = [grid.ifft_real(vh) for vh in vhats]
    div_zv, vsq = quadratic_products(zr, vr, grid)

    eps, gamma = diag.params.epsilon, diag.params.gamma
    common = eps / gamma * div_zv / tab.helmholtz_b[half]
    split = (eps / (2.0 * gamma) * tab.ratio_sqrt[half] * 1j * grid.abs_xi[half]
             * vsq / tab.helmholtz_d[half])
    return common + split, common - split


def _half_of(diag: DiagState):
    """(Zp, Zm, W) of diag on the half lattice, as views."""
    half = diag.grid.half
    W = None if diag.W_hat is None else diag.W_hat[half]
    return diag.Zp_hat[half], diag.Zm_hat[half], W


def nonlinear_f_pm(diag: DiagState):
    """Quadratic forcing spectra (f+_hat, f-_hat) of the mover equations.

    f+- = (eps/gamma)(1 - b*mu*Lap)^{-1} div(zeta v)
          +- (eps/(2*gamma)) sqrt(omega1/(g*omega2)) i|xi|
             (1 - d*mu*Lap)^{-1} (|v|^2).
    Both terms carry a factor xi, so the xi = 0 component is exactly 0.
    The forcing is computed on the half lattice, as in step_exponential,
    and extended with f+(-xi) = conj f-(xi); so it reads only the half
    lattice of diag and requires Z+(-xi) = conj Z-(xi), which every
    diagonalize output satisfies.  At eps = 0 both spectra are 0.
    """
    grid = diag.grid
    tab = symbol_table(grid, diag.params)
    fp, fm = _forcing_half(diag, tab, *_half_of(diag))
    return grid.extend_half(fp, fm), grid.extend_half(fm, fp)


def step_exponential(diag: DiagState, dt: float) -> DiagState:
    """One integrating-factor RK4 step in the diagonal variables.

    The linear phase e^{-+ i dt Omega_sys} is applied exactly; W_hat and the
    zero mode are carried through untouched.  At eps = 0 the step is that
    phase alone, on the full lattice.  Otherwise the four stages run on the
    rfftn half lattice (last axis 0..n/2) and the result is extended with
    Z+(-xi) = conj Z-(xi), so the step reads only the half lattice of diag
    and requires that symmetry, which every diagonalize output satisfies;
    the returned state satisfies it bitwise.  Precondition: no content on
    the Nyquist modes (evolve checks it), or the step leaves a
    non-Hermitian spectrum.
    """
    grid, p = diag.grid, diag.params
    tab = symbol_table(grid, p)
    t0, h = diag.t, dt
    if p.epsilon == 0.0:
        ep_f = np.exp(-1j * h * tab.Omega)
        return DiagState(t=t0 + h, Zp_hat=ep_f * diag.Zp_hat,
                         Zm_hat=np.conj(ep_f) * diag.Zm_hat, W_hat=diag.W_hat,
                         zero_mode=diag.zero_mode, grid=grid, params=p)

    ep_h = np.exp(-0.5j * h * tab.Omega[grid.half])
    em_h = np.conj(ep_h)
    ep_f = ep_h * ep_h
    em_f = np.conj(ep_f)
    Zp0, Zm0, W = _half_of(diag)

    def nl(Zp, Zm):
        return _forcing_half(diag, tab, Zp, Zm, W)

    k1p, k1m = nl(Zp0, Zm0)
    k2p, k2m = nl(ep_h * (Zp0 + h / 2 * k1p), em_h * (Zm0 + h / 2 * k1m))
    k3p, k3m = nl(ep_h * Zp0 + h / 2 * k2p, em_h * Zm0 + h / 2 * k2m)
    k4p, k4m = nl(ep_f * Zp0 + h * ep_h * k3p, em_f * Zm0 + h * em_h * k3m)

    Zp1 = ep_f * Zp0 + h / 6 * (ep_f * k1p + 2.0 * ep_h * (k2p + k3p) + k4p)
    Zm1 = em_f * Zm0 + h / 6 * (em_f * k1m + 2.0 * em_h * (k2m + k3m) + k4m)

    return DiagState(t=t0 + h, Zp_hat=grid.extend_half(Zp1, Zm1),
                     Zm_hat=grid.extend_half(Zm1, Zp1), W_hat=diag.W_hat,
                     zero_mode=diag.zero_mode, grid=grid, params=p)


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
    """Reject a state with content on the Nyquist modes k_j = -n_j/2.

    The odd multipliers (i*xi in rhs_hat, xi/|xi| in diagonalize) see the
    wavenumber -n_j/2 without its mirror image, so one step would make the
    spectrum non-Hermitian and ifft_real would drop the imaginary part.
    """
    grid = state.grid
    nyquist = np.zeros(grid.n, dtype=bool)
    for axis, m in enumerate(grid.n):
        index = [slice(None)] * grid.dim
        index[axis] = m // 2
        nyquist[tuple(index)] = True
    content = total = 0.0
    for hat in (state.zeta.hat, *(c.hat for c in state.v)):
        mag = hat.real**2 + hat.imag**2
        content += float(np.sum(mag[nyquist]))
        total += float(np.sum(mag))
    if content > NYQUIST_TOL**2 * total:
        raise ParameterDomainError(
            f"the start state has Nyquist content "
            f"{math.sqrt(content / total):.3e} relative in spectral L2 "
            f"(limit {NYQUIST_TOL:g}); dealias it first (bfdsim.dealias)")


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
    run on cfg.max_t exactly.  A state with Nyquist content above
    NYQUIST_TOL relative in spectral L2 raises ParameterDomainError.

    The run steps the diagonal variables; monitors receive the primitive
    state, reconstructed for them by undiagonalize.  Raises BlowUpSignal
    when a non-finite value appears or the X^0_mu norm passes the blow-up
    threshold; the signal carries t, the norm, the step count, and the
    event log.  An optional stop_when predicate ends the run early with
    terminated_by="threshold".  The event log records exceptional
    happenings only (blow-up, threshold); an uneventful run returns an
    empty log.
    """
    require_no_nyquist(state)
    current = diagonalize(state)

    t0 = state.t
    n_steps, last_dt = _step_plan(cfg.max_t - t0, cfg.dt)
    events: list[dict] = []

    def norm_of(snap: FieldState) -> float:
        return x_norm_state(snap, 0.0, 1, 1)

    def check_finite(snap: FieldState, steps_done: int) -> float:
        if not snap.is_finite():
            events.append({"event": "blow-up", "t": snap.t, "norm": float("inf")})
            raise BlowUpSignal(snap.t, float("inf"), steps_done, events)
        norm = norm_of(snap)
        if norm > BLOWUP_NORM:
            events.append({"event": "blow-up", "t": snap.t, "norm": norm})
            raise BlowUpSignal(snap.t, norm, steps_done, events)
        return norm

    def crossed(snap: FieldState, norm: float) -> bool:
        if stop_when is not None and stop_when(snap):
            events.append({"event": "threshold", "t": snap.t, "norm": norm})
            return True
        return False

    snap = undiagonalize(current)
    norm = check_finite(snap, 0)
    for mon in monitors:
        mon(snap)
    if crossed(snap, norm):
        return EvolveSummary(final_state=snap, steps=0, events=events,
                             terminated_by="threshold")

    for k in range(1, n_steps + 1):
        h = last_dt if k == n_steps else cfg.dt
        current = step_exponential(current, h)
        current.t = t0 + k * cfg.dt if h == cfg.dt else cfg.max_t
        if k % cfg.cadence == 0 or k == n_steps:
            snap = undiagonalize(current)
            norm = check_finite(snap, k)
            for mon in monitors:
                mon(snap)
            if crossed(snap, norm):
                return EvolveSummary(final_state=snap, steps=k, events=events,
                                     terminated_by="threshold")

    return EvolveSummary(final_state=snap, steps=n_steps, events=events,
                         terminated_by="max_t")
