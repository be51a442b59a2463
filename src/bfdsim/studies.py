"""Reproducible desk-scale studies: lifespan scaling, conservation,
smallness persistence, and energy-equivalence statistics.

Lifespan, conservation and smallness start from cfg.initial_state (the
snapshot when one is set, read once per config and shared by the sweep's
points); equivalence draws its own random states.  Every evolving run,
simulate's included, goes through run, the one place a blow-up becomes a
result (terminated_by="blow-up") instead of an exception.
Every study is deterministic given (config, seed).  Work runs as
independent jobs (parallelism capped by the BFD_THREADS environment
variable): one per sweep point for lifespan, one per dt for conservation,
and one per random state for equivalence, which scores its state at every
(epsilon, mu) point.  Results are merged in parameter order, and CSV floats
are written with 17 significant digits so re-runs are byte-identical.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .config import RunConfig
from .energy import (
    energy_report,
    equivalence_ratio,
    hamiltonian,
    x_norm_state,
)
from .errors import ConfigError, UnsupportedCaseError
from .evolution import BlowUpSignal, EvolveSummary, SchemeConfig, default_dt, evolve
from .initial_data import make_initial_state
from .params import classify_case
from .spectral import SpectralField
from .symbols import symbol_table
from .system import FieldState


def fmt(x) -> str:
    return format(float(x), ".17g")


def thread_count() -> int:
    raw = os.environ.get("BFD_THREADS", "1")
    try:
        count = int(raw)
    except ValueError as exc:
        raise ConfigError(f"BFD_THREADS must be an integer, got {raw!r}") from exc
    return max(1, count)


def _run_jobs(jobs):
    """Evaluate callables, in parallel when allowed, preserving order."""
    workers = thread_count()
    if workers == 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def _sweep_pairs(cfg: RunConfig):
    if not cfg.epsilons:
        raise ConfigError("study requires a nonempty epsilons list")
    if cfg.mus is None:
        return [(e, e) for e in cfg.epsilons]
    if len(cfg.mus) == len(cfg.epsilons):
        return list(zip(cfg.epsilons, cfg.mus))
    raise ConfigError("mus must be omitted (tied to epsilon) or match epsilons")


def run(cfg: RunConfig, state: FieldState, dt: float | None = None,
        monitors=(), stop_when=None) -> EvolveSummary:
    """Evolve state under cfg's [scheme] settings; a blow-up is a result.

    The step is dt if given, else cfg.dt, else default_dt(state).  A
    BlowUpSignal becomes a summary with terminated_by="blow-up", no final
    state, and the signal's steps and events; every other error of evolve
    (an end before the start, content off the two-thirds band) raises.
    """
    if dt is None:
        dt = cfg.dt if cfg.dt is not None else default_dt(state)
    scheme = SchemeConfig(dt=dt, max_t=cfg.max_t, scheme=cfg.scheme, cadence=cfg.cadence)
    try:
        return evolve(state, scheme, monitors=monitors, stop_when=stop_when)
    except BlowUpSignal as sig:
        return EvolveSummary(final_state=None, steps=sig.steps, events=sig.events,
                             terminated_by="blow-up", dt=dt)


# lifespan ------------------------------------------------------------------


@dataclass
class LifespanRecord:
    epsilon: float
    mu: float
    T_obs: float
    product: float
    terminated_by: str


def _lifespan_point(cfg: RunConfig, eps: float, mu: float) -> LifespanRecord:
    params = cfg.params.replace(epsilon=eps, mu=mu)
    case = classify_case(params, cfg.case_override)
    state = cfg.initial_state(params)
    s = cfg.monitor_s(cfg.grid)
    initial = x_norm_state(state, s, case.k, case.k_prime)
    threshold = cfg.growth_factor * initial

    def crossed(snap: FieldState) -> bool:
        if initial == 0.0:
            return False
        return x_norm_state(snap, s, case.k, case.k_prime) > threshold

    summary = run(cfg, state, stop_when=crossed)
    term = summary.terminated_by
    # a threshold or a blow-up ends the run at the time its event records
    t_obs = cfg.max_t if term == "max_t" else summary.events[-1]["t"]
    return LifespanRecord(epsilon=eps, mu=mu, T_obs=t_obs,
                          product=eps * t_obs, terminated_by=term)


def lifespan_study(cfg: RunConfig) -> list[LifespanRecord]:
    """Observed norm-doubling horizon per epsilon; emits CSV + manifest."""
    pairs = _sweep_pairs(cfg)
    if cfg.snapshot is not None:
        cfg.initial_state()  # reads the snapshot once, before the jobs share it
    records = _run_jobs([
        (lambda e=e, m=m: _lifespan_point(cfg, e, m)) for e, m in pairs
    ])
    rows = [",".join([fmt(r.epsilon), fmt(r.mu), fmt(r.T_obs), fmt(r.product),
                      r.terminated_by]) for r in records]
    cfg.write_csv("lifespan.csv", "epsilon,mu,T_obs,product,terminated_by", rows,
                  plot=("epsilon", ("T_obs", "product"), True))
    cfg.write_manifest()
    return records


# conservation --------------------------------------------------------------


@dataclass
class ConservationResult:
    dts: tuple[float, ...]
    drifts: tuple[float, ...]
    pair_orders: tuple[float, ...]
    order_fit: float


def _drift_for_dt(cfg: RunConfig, dt: float) -> float:
    """Largest relative Hamiltonian drift of a run with step dt; inf when
    the run blows up."""
    state = cfg.initial_state()
    h0 = hamiltonian(state)
    worst = 0.0

    def watch(snap: FieldState):
        nonlocal worst
        h = hamiltonian(snap)
        denom = abs(h0) if h0 != 0.0 else 1.0
        worst = max(worst, abs(h - h0) / denom)

    summary = run(cfg, state, dt, monitors=(watch,))
    return math.inf if summary.terminated_by == "blow-up" else worst


def conservation_study(cfg: RunConfig) -> ConservationResult:
    """Hamiltonian drift over a dt-halving sequence, with order fit."""
    if cfg.params.b != cfg.params.d:
        raise UnsupportedCaseError(
            "conservation study requires b = d "
            f"(got b={cfg.params.b}, d={cfg.params.d})"
        )
    dts = cfg.dts if cfg.dts else ((cfg.dt,) if cfg.dt else ())
    if not dts:
        raise ConfigError("conservation study requires a dts list")
    if cfg.snapshot is not None:
        cfg.initial_state()  # reads the snapshot once, before the jobs share it
    drifts = _run_jobs([(lambda h=h: _drift_for_dt(cfg, h)) for h in dts])
    # an order needs positive, finite drifts: a blow-up's inf reads nan
    usable = [0.0 < d < math.inf for d in drifts]
    pair_orders = [math.nan]
    for i in range(1, len(dts)):
        ratio_dt = dts[i - 1] / dts[i]
        if usable[i - 1] and usable[i] and ratio_dt > 1.0:
            pair_orders.append(math.log(drifts[i - 1] / drifts[i]) / math.log(ratio_dt))
        else:
            pair_orders.append(math.nan)
    if len(dts) >= 2 and all(usable):
        slope = np.polyfit(np.log(np.asarray(dts)), np.log(np.asarray(drifts)), 1)[0]
        order_fit = float(slope)
    else:
        order_fit = math.nan
    rows = [",".join([fmt(h), fmt(dr), fmt(po)])
            for h, dr, po in zip(dts, drifts, pair_orders)]
    cfg.write_csv("conservation.csv", "dt,drift,order_fit", rows,
                  plot=("dt", ("drift",), True))
    cfg.write_manifest({"order_fit": order_fit})
    return ConservationResult(dts=tuple(dts), drifts=tuple(drifts),
                              pair_orders=tuple(pair_orders), order_fit=order_fit)


# smallness -----------------------------------------------------------------


@dataclass
class SmallnessReport:
    epsilon: float
    target: float
    initial_smallness: float
    initial_x0: float
    max_smallness: float
    max_x0: float
    min_noncav: float
    precondition_ok: bool
    invariant_held: bool
    terminated_by: str


def smallness_check(cfg: RunConfig) -> SmallnessReport:
    """Long-horizon run monitoring eps*||zeta||^2_{L2} against 1/2.

    mu is tied to epsilon.  Data are rescaled so the initial smallness
    equals cfg.smallness_target (1/4 by default); a target >= 1/2 is
    reported as a violated precondition but the run still executes.
    """
    violations = []
    if not (cfg.params.b == cfg.params.d and cfg.params.b > 0.0):
        violations.append(f"b = d > 0 (got b={cfg.params.b}, d={cfg.params.d})")
    if not cfg.params.c < 0.0:
        violations.append(f"c < 0 (got c={cfg.params.c})")
    if violations:
        raise UnsupportedCaseError(
            "smallness study requires " + "; ".join(violations))
    eps = cfg.params.epsilon
    if eps <= 0.0:
        raise ConfigError("smallness study requires epsilon > 0")
    params = cfg.params.replace(mu=eps)
    classify_case(params, cfg.case_override)
    state = cfg.initial_state(params)
    grid = cfg.grid
    z_sq = grid.spectral_l2_sq(state.zeta.hat)
    if z_sq > 0.0:
        # Rescale so the initial smallness hits the target; zero data are
        # left alone (the invariant then holds trivially for all time).
        scale = math.sqrt(cfg.smallness_target / (eps * z_sq))
        state = FieldState(t=state.t, zeta=scale * state.zeta,
                           v=tuple(scale * c for c in state.v), params=params)
    initial_small = eps * grid.spectral_l2_sq(state.zeta.hat)

    rows: list[str] = []
    tracker = {"max_small": 0.0, "max_x0": 0.0, "min_noncav": math.inf}
    x0_initial = x_norm_state(state, 0.0, 1, 1)

    def watch(snap: FieldState):
        rep = energy_report(snap, s=0.0)
        tracker["max_small"] = max(tracker["max_small"], rep.smallness)
        tracker["max_x0"] = max(tracker["max_x0"], rep.x0_norm)
        tracker["min_noncav"] = min(tracker["min_noncav"], rep.noncav)
        rows.append(",".join([fmt(snap.t), fmt(rep.smallness), fmt(rep.noncav),
                              fmt(rep.hamiltonian), fmt(rep.x0_norm)]))

    terminated = run(cfg, state, monitors=(watch,)).terminated_by
    cfg.write_csv("smallness.csv", "t,smallness,noncav,hamiltonian,x0_norm", rows,
                  plot=("t", ("smallness", "noncav", "x0_norm")))
    report = SmallnessReport(
        epsilon=eps, target=cfg.smallness_target,
        initial_smallness=initial_small, initial_x0=x0_initial,
        max_smallness=tracker["max_small"], max_x0=tracker["max_x0"],
        min_noncav=tracker["min_noncav"],
        precondition_ok=initial_small < 0.5,
        # a blow-up breaks the invariant, whatever the samples before it read
        invariant_held=terminated == "max_t" and tracker["max_small"] < 0.5,
        terminated_by=terminated,
    )
    cfg.write_manifest(asdict(report))
    return report


# equivalence ---------------------------------------------------------------


@dataclass
class EquivalenceRecord:
    epsilon: float
    mu: float
    case_id: int
    ratio_min: float
    ratio_max: float


def _equivalence_ratios(cfg: RunConfig, i: int, points, s: float) -> list[float]:
    """E_s/calE_s of random state i at every (params, case) point.

    The draw depends on neither epsilon nor mu, so each state is drawn once
    and scored at every point.  The point states come from with_params, so
    they share the fields and the memo: the values, the |hat|^2 and the
    dealiased v_j v_k are formed once per state.
    """
    state = make_initial_state(cfg.grid, cfg.params, profile="random_bandlimited",
                               amplitude=cfg.amplitude,
                               seed=cfg.seed + 1000 * i, velocity="random")
    # Spread the mixture from zeta-dominant to velocity-dominant states;
    # the observed ratio band is then anchored by the per-component
    # extremes rather than by whichever balance the draw happened to hit.
    mix = np.random.default_rng(cfg.seed + 1000 * i + 7)
    weight = 10.0 ** mix.uniform(-2.0, 2.0)
    v = tuple(SpectralField(state.grid, hat=weight * vj.hat) for vj in state.v)
    state = FieldState(t=state.t, zeta=state.zeta, v=v, params=state.params)
    return [equivalence_ratio(state.with_params(params), s, case)[0]
            for params, case in points]


def equivalence_spread_monotone(records: list[EquivalenceRecord],
                                tol: float = 0.05) -> bool:
    """Check that the ratio spread stabilizes as (epsilon, mu) shrink.

    For every pair of records ordered componentwise (q no larger than r in
    both epsilon and mu), the max/min spread at q must not exceed the
    spread at r by more than the noise tolerance.  Records whose bounds
    are not finite (all states degenerate) are ignored.
    """
    finite = [r for r in records
              if math.isfinite(r.ratio_min) and math.isfinite(r.ratio_max)
              and r.ratio_min > 0.0]
    for r in finite:
        spread_r = r.ratio_max / r.ratio_min
        for q in finite:
            if q is r:
                continue
            if (q.epsilon <= r.epsilon and q.mu <= r.mu
                    and (q.epsilon < r.epsilon or q.mu < r.mu)):
                if q.ratio_max / q.ratio_min > spread_r * (1.0 + tol):
                    return False
    return True


def equivalence_study(cfg: RunConfig) -> list[EquivalenceRecord]:
    """Min/max of E_s/calE_s over random states per (epsilon, mu) point.

    When mus is given the sweep is the full Cartesian product, ordered by
    epsilon first (descending lists recommended).  The manifest records
    whether the spread stabilized as the pair shrank.
    """
    if not cfg.epsilons:
        raise ConfigError("equivalence study requires a nonempty epsilons list")
    if cfg.mus is None:
        pairs = [(e, e) for e in cfg.epsilons]
    else:
        pairs = [(e, m) for e in cfg.epsilons for m in cfg.mus]
    points = []
    for e, m in pairs:
        params = cfg.params.replace(epsilon=e, mu=m)
        points.append((params, classify_case(params, cfg.case_override)))
        symbol_table(cfg.grid, params)  # built here, not raced for by the jobs
    s = cfg.monitor_s(cfg.grid)
    # one job per state, scored at every point; min and max do not depend
    # on the order of the states, so any thread count gives the same records
    per_state = _run_jobs([
        (lambda i=i: _equivalence_ratios(cfg, i, points, s))
        for i in range(cfg.num_states)
    ])
    records = []
    for col, ((e, m), (_, case)) in enumerate(zip(pairs, points)):
        ratios = [r[col] for r in per_state if not math.isnan(r[col])]  # NaN: zero energy
        records.append(EquivalenceRecord(
            epsilon=e, mu=m, case_id=case.case_id,
            ratio_min=min(ratios, default=math.inf),
            ratio_max=max(ratios, default=-math.inf)))
    rows = [",".join([fmt(r.epsilon), fmt(r.mu), str(r.case_id),
                      fmt(r.ratio_min), fmt(r.ratio_max)]) for r in records]
    cfg.write_csv("equivalence.csv", "epsilon,mu,case,ratio_min,ratio_max", rows,
                  plot=("epsilon", ("ratio_min", "ratio_max"), True))
    cfg.write_manifest({"spread_monotone": equivalence_spread_monotone(records)})
    return records
