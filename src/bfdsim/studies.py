"""Reproducible desk-scale studies: lifespan scaling, conservation,
smallness persistence, and energy-equivalence statistics.

Lifespan, conservation and smallness start from cfg.initial_state (the
snapshot when one is set, read once per config and shared by the sweep's
points); equivalence draws its own random states.  Every evolving run,
simulate's included, goes through run, the one place a blow-up becomes a
result (terminated_by="blow-up") instead of an exception, and the one
sample path: run keeps what its sample returns at each cadence point, and
each command reduces those samples (a CSV, a maximum, a drift, a
crossing).  Every evolving command then calls write_record once, after a
sweep's points are merged: it writes events.jsonl, each event naming its
sweep point (epsilon and mu for lifespan, dt for conservation), and the
manifest's dt, steps and terminated_by, one value for a single run and a
list in sweep order for a sweep.
Every study is deterministic given (config, seed).  Work runs as
independent jobs (parallelism capped by the BFD_THREADS environment
variable): one per sweep point for lifespan, one per dt for conservation,
and one per random state for equivalence, which scores its state at every
(epsilon, mu) point.  Results are merged in parameter order, and CSV floats
are written with 17 significant digits so re-runs are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial

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
        sample=None, stop_when=None) -> EvolveSummary:
    """Evolve state under cfg's [scheme] settings; a blow-up is a result.

    The step is dt if given, else cfg.dt, else default_dt(state).
    sample(snap) runs at every cadence point, and the summary's samples
    hold its values in time order, those before a blow-up included.
    stop_when(value) reads each sample's value and ends the run with
    terminated_by="threshold" when true.  A BlowUpSignal becomes a summary
    with terminated_by="blow-up", no final state, and the signal's steps
    and events; every other error of evolve (an end before the start,
    content off the two-thirds band) raises.
    """
    if dt is None:
        dt = cfg.dt if cfg.dt is not None else default_dt(state)
    scheme = SchemeConfig(dt=dt, max_t=cfg.max_t, scheme=cfg.scheme, cadence=cfg.cadence)
    samples = []
    monitors = () if sample is None else (lambda snap: samples.append(sample(snap)),)
    stop = None if stop_when is None else (lambda snap: stop_when(samples[-1]))
    try:
        return replace(evolve(state, scheme, monitors=monitors, stop_when=stop), samples=samples)
    except BlowUpSignal as sig:
        return EvolveSummary(final_state=None, steps=sig.steps, events=sig.events,
                             terminated_by="blow-up", dt=dt, samples=samples)


def write_record(cfg: RunConfig, summaries, points=None, derived: dict | None = None) -> None:
    """Write the record of a command's runs: events.jsonl, and each run's
    dt, steps and terminated_by in the manifest beside derived.

    summaries is one summary, or with points a sweep's summaries in
    parameter order, where points[i] (a dict) names point i: its events
    carry those keys, and each run field is a list in sweep order.
    """
    runs = [({}, summaries)] if points is None else list(zip(points, summaries))
    cfg.write_csv("events.jsonl", None, [json.dumps({**point, **e}, sort_keys=True)
                                         for point, s in runs for e in s.events])
    fields = {key: [getattr(s, key) for _, s in runs] for key in ("dt", "steps", "terminated_by")}
    cfg.write_manifest({**(derived or {}),
                        **{key: v if points is not None else v[0] for key, v in fields.items()}})


# lifespan ------------------------------------------------------------------


@dataclass
class LifespanRecord:
    epsilon: float
    mu: float
    T_obs: float
    product: float
    terminated_by: str


def _lifespan_point(cfg: RunConfig, eps: float, mu: float) -> tuple[LifespanRecord, EvolveSummary]:
    """The record and the run of one sweep point, stopped when the
    monitored X^s_{mu^k} norm passes growth_factor times its start; the
    threshold event records that norm and the threshold beside evolve's
    X^0 norm."""
    params = cfg.params.replace(epsilon=eps, mu=mu)
    case = classify_case(params, cfg.case_override)
    state = cfg.initial_state(params)
    norm = partial(x_norm_state, s=cfg.monitor_s(cfg.grid), k=case.k, k_prime=case.k_prime)
    initial = norm(state)
    # zero data never cross
    threshold = cfg.growth_factor * initial if initial != 0.0 else math.inf
    summary = run(cfg, state, sample=norm, stop_when=lambda value: value > threshold)
    term = summary.terminated_by
    if term == "threshold":
        summary.events[-1].update(monitored_norm=summary.samples[-1], threshold=threshold)
    # a threshold or a blow-up ends the run at the time its event records
    t_obs = cfg.max_t if term == "max_t" else summary.events[-1]["t"]
    return LifespanRecord(epsilon=eps, mu=mu, T_obs=t_obs, product=eps * t_obs,
                          terminated_by=term), summary


def lifespan_study(cfg: RunConfig) -> list[LifespanRecord]:
    """Observed norm-doubling horizon per epsilon; emits CSV, events and
    manifest."""
    pairs = _sweep_pairs(cfg)
    if cfg.snapshot is not None:
        cfg.initial_state()  # reads the snapshot once, before the jobs share it
    records, summaries = zip(*_run_jobs([partial(_lifespan_point, cfg, e, m) for e, m in pairs]))
    rows = [",".join([fmt(r.epsilon), fmt(r.mu), fmt(r.T_obs), fmt(r.product),
                      r.terminated_by]) for r in records]
    cfg.write_csv("lifespan.csv", "epsilon,mu,T_obs,product,terminated_by", rows,
                  plot=("epsilon", ("T_obs", "product"), True))
    write_record(cfg, summaries, [{"epsilon": e, "mu": m} for e, m in pairs])
    return list(records)


# conservation --------------------------------------------------------------


@dataclass
class ConservationResult:
    dts: tuple[float, ...]
    drifts: tuple[float, ...]
    pair_orders: tuple[float, ...]
    order_fit: float


def _drift_for_dt(cfg: RunConfig, dt: float) -> tuple[float, EvolveSummary]:
    """Largest relative Hamiltonian drift of a run with step dt (inf when
    the run blows up), and the run."""
    state = cfg.initial_state()
    h0 = hamiltonian(state)
    denom = abs(h0) if h0 != 0.0 else 1.0
    summary = run(cfg, state, dt, sample=hamiltonian)
    worst = max((abs(h - h0) / denom for h in summary.samples), default=0.0)
    return (math.inf if summary.terminated_by == "blow-up" else worst), summary


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
    drifts, summaries = zip(*_run_jobs([partial(_drift_for_dt, cfg, h) for h in dts]))
    # an order needs positive, finite drifts: a blow-up's inf reads nan
    usable = [0.0 < d < math.inf for d in drifts]
    pair_orders = [math.nan]
    for i in range(1, len(dts)):
        ratio_dt = dts[i - 1] / dts[i]
        if usable[i - 1] and usable[i] and ratio_dt > 1.0:
            pair_orders.append(math.log(drifts[i - 1] / drifts[i]) / math.log(ratio_dt))
        else:
            pair_orders.append(math.nan)
    # a fit needs two distinct dts: on one repeated dt polyfit is singular
    if len(set(dts)) >= 2 and all(usable):
        slope = np.polyfit(np.log(np.asarray(dts)), np.log(np.asarray(drifts)), 1)[0]
        order_fit = float(slope)
    else:
        order_fit = math.nan
    rows = [",".join([fmt(h), fmt(dr), fmt(po)])
            for h, dr, po in zip(dts, drifts, pair_orders)]
    cfg.write_csv("conservation.csv", "dt,drift,order_fit", rows,
                  plot=("dt", ("drift",), True))
    write_record(cfg, summaries, [{"dt": h} for h in dts], {"order_fit": order_fit})
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

    summary = run(cfg, state, sample=lambda snap: energy_report(snap, s=0.0))
    reps = summary.samples
    columns = ("t", "smallness", "noncav", "hamiltonian", "x0_norm")
    cfg.write_csv("smallness.csv", ",".join(columns),
                  [",".join(fmt(getattr(r, c)) for c in columns) for r in reps],
                  plot=("t", ("smallness", "noncav", "x0_norm")))
    max_small = max((r.smallness for r in reps), default=0.0)
    report = SmallnessReport(
        epsilon=eps, target=cfg.smallness_target,
        initial_smallness=initial_small, initial_x0=x_norm_state(state, 0.0, 1, 1),
        max_smallness=max_small, max_x0=max((r.x0_norm for r in reps), default=0.0),
        min_noncav=min((r.noncav for r in reps), default=math.inf),
        precondition_ok=initial_small < 0.5,
        # a blow-up breaks the invariant, whatever the samples before it read
        invariant_held=summary.terminated_by == "max_t" and max_small < 0.5,
        terminated_by=summary.terminated_by,
    )
    write_record(cfg, summary, derived=asdict(report))
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
