"""Tests for the packaged studies: lifespan, conservation, smallness,
energy equivalence."""

import ast
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from bfdsim import (
    BlowUpSignal,
    ConfigError,
    GridSpec,
    ModelParams,
    ParameterDomainError,
    SchemeConfig,
    StudyConfig,
    UnsupportedCaseError,
    conservation_study,
    default_dt,
    equivalence_spread_monotone,
    equivalence_study,
    lifespan_study,
    load_state,
    make_initial_state,
    smallness_check,
    write_snapshot,
)
from bfdsim.spectral import TWO_PI
from bfdsim import studies
from bfdsim.studies import EquivalenceRecord, fmt, run, thread_count


def _params(**kw):
    base = dict(gamma=0.9, epsilon=0.1, mu=0.1, mu2=0.1,
                a=0.0, b=5.0 / 24.0, c=-1.0 / 12.0, d=5.0 / 24.0)
    base.update(kw)
    return ModelParams(**base)


# ---------------------------------------------------------------------------
# Formatting and worker plumbing
# ---------------------------------------------------------------------------

def test_fmt_round_trips_doubles():
    for x in (1.0 / 3.0, 1e-17, -0.0, 123456789.123456789, 2.0**-52):
        assert float(fmt(x)) == x


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("BFD_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("BFD_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("BFD_THREADS", "0")
    assert thread_count() == 1
    monkeypatch.setenv("BFD_THREADS", "many")
    with pytest.raises(ConfigError):
        thread_count()


# ---------------------------------------------------------------------------
# The one run path
# ---------------------------------------------------------------------------

def test_run_steps_with_dt_then_cfg_dt_then_the_default():
    cfg = _conservation_cfg(max_t=0.2)
    state = cfg.initial_state()
    assert run(cfg, state, 0.05).dt == 0.05
    assert run(dataclasses.replace(cfg, dt=0.1), state).dt == 0.1
    summary = run(cfg, state)
    assert summary.dt == default_dt(state)
    assert summary.terminated_by == "max_t" and summary.final_state.t == pytest.approx(0.2)


def test_run_turns_a_blow_up_into_a_result():
    cfg = _conservation_cfg(max_t=1.0, amplitude=3e6)
    state = cfg.initial_state()
    with pytest.raises(BlowUpSignal) as sig:
        studies.evolve(state, SchemeConfig(dt=0.1, max_t=1.0))
    summary = run(cfg, state, 0.1)
    assert summary.terminated_by == "blow-up" and summary.final_state is None
    assert (summary.steps, summary.events, summary.dt) == \
        (sig.value.steps, sig.value.events, 0.1)


def test_the_package_has_one_blow_up_handler():
    """Only studies.run catches BlowUpSignal; every evolving command runs
    through it, so none grows its own handler."""
    src = Path(studies.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node.type)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if "BlowUpSignal" in names:
                    found.append(path.name)
    assert found == ["studies.py"]


# ---------------------------------------------------------------------------
# Lifespan
# ---------------------------------------------------------------------------

def _lifespan_cfg(**kw):
    base = dict(
        kind="lifespan",
        params=_params(gamma=0.5),
        grid=GridSpec.square(128, 16 * TWO_PI, dim=1),
        profile="gaussian", amplitude=2.5, width=4.0, seed=3,
        velocity="right-mover", s=3.0, growth_factor=2.0,
        cadence=20, max_t=200.0,
    )
    base.update(kw)
    return StudyConfig(**base)


def test_lifespan_requires_epsilons():
    with pytest.raises(ConfigError):
        lifespan_study(_lifespan_cfg(epsilons=()))


def test_lifespan_mus_length_mismatch():
    with pytest.raises(ConfigError, match="mus"):
        lifespan_study(_lifespan_cfg(epsilons=(0.1, 0.05), mus=(0.1,)))


def test_lifespan_linear_never_crosses():
    """epsilon = 0 conserves the monitored spectrum: horizon = max_t."""
    records = lifespan_study(_lifespan_cfg(epsilons=(0.0,), mus=(0.1,),
                                           max_t=5.0))
    assert len(records) == 1
    rec = records[0]
    assert rec.terminated_by == "max_t"
    assert rec.T_obs == 5.0
    assert rec.product == 0.0


def test_lifespan_zero_amplitude_never_crosses():
    records = lifespan_study(_lifespan_cfg(amplitude=0.0, epsilons=(0.5,),
                                           max_t=5.0))
    assert records[0].terminated_by == "max_t"


def test_lifespan_crossing_and_scaling():
    """Large data cross the doubling threshold; halving epsilon roughly
    doubles the horizon when the depth parameter shrinks along with it."""
    horizons = {}
    for eps in (0.5, 0.25):
        cfg = _lifespan_cfg(params=_params(gamma=0.5, mu2=eps),
                            epsilons=(eps,), max_t=400.0)
        (rec,) = lifespan_study(cfg)
        assert rec.terminated_by == "threshold"
        assert 0.0 < rec.T_obs < cfg.max_t
        assert rec.product == pytest.approx(eps * rec.T_obs)
        horizons[eps] = rec.T_obs
    assert horizons[0.25] > horizons[0.5]


def test_lifespan_horizon_is_the_time_of_the_ending_event(monkeypatch):
    """T_obs at a threshold is the final state's time, and at a blow-up
    the signal's, bitwise."""
    ends, evolve = [], studies.evolve

    def spy(state, *args, **kwargs):
        try:
            summary = evolve(state, *args, **kwargs)
        except BlowUpSignal as sig:
            ends.append(sig.t)
            raise
        ends.append(summary.final_state.t)
        return summary

    monkeypatch.setattr(studies, "evolve", spy)
    records = lifespan_study(_lifespan_cfg(epsilons=(0.5,), max_t=5.0, cadence=1,
                                           growth_factor=1.01))
    assert records[0].terminated_by == "threshold"
    assert records[0].T_obs == ends[-1] and 0.0 < records[0].T_obs < 5.0
    records = lifespan_study(_lifespan_cfg(epsilons=(0.5,), amplitude=3e6))
    assert records[0].terminated_by == "blow-up"
    assert records[0].T_obs == ends[-1]


def _check_lifespan_artifacts(tmp_path, plot_script):
    cfg = _lifespan_cfg(epsilons=(0.5,), max_t=2.0, out_dir=str(tmp_path),
                        plot_script=plot_script)
    lifespan_study(cfg)
    assert (tmp_path / "plot_lifespan.py").exists() == plot_script
    csv = (tmp_path / "lifespan.csv").read_text().splitlines()
    assert csv[0] == "epsilon,mu,T_obs,product,terminated_by"
    assert len(csv) == 2
    manifest = json.loads((tmp_path / "lifespan_manifest.json").read_text())
    assert manifest["command"] == "lifespan"
    assert manifest["config"] == cfg.echo()
    assert manifest["derived"] == {}
    assert "version" in manifest


def test_lifespan_artifacts(tmp_path):
    _check_lifespan_artifacts(tmp_path, plot_script=False)


def test_lifespan_artifacts_with_plot_script(tmp_path):
    _check_lifespan_artifacts(tmp_path, plot_script=True)


def test_lifespan_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        lifespan_study(_lifespan_cfg(epsilons=(0.5,), max_t=2.0,
                                     out_dir=str(out)))
    assert (out_a / "lifespan.csv").read_bytes() == \
        (out_b / "lifespan.csv").read_bytes()


def test_lifespan_threaded_matches_serial(monkeypatch, tmp_path):
    cfg_kw = dict(epsilons=(0.5, 0.4), max_t=2.0)
    monkeypatch.setenv("BFD_THREADS", "1")
    serial = lifespan_study(_lifespan_cfg(**cfg_kw))
    monkeypatch.setenv("BFD_THREADS", "2")
    threaded = lifespan_study(_lifespan_cfg(**cfg_kw))
    assert [(r.epsilon, r.T_obs, r.terminated_by) for r in serial] == \
        [(r.epsilon, r.T_obs, r.terminated_by) for r in threaded]


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------

def _conservation_cfg(**kw):
    base = dict(
        kind="conservation",
        params=_params(gamma=0.5, epsilon=0.3, mu=0.1, mu2=0.1),
        grid=GridSpec.square(32, TWO_PI, dim=1),
        profile="gaussian", amplitude=0.3, width=1.0, seed=1,
        cadence=1, max_t=2.0,
    )
    base.update(kw)
    return StudyConfig(**base)


def test_conservation_rejects_distinct_coefficients():
    cfg = _conservation_cfg(params=_params(b=0.25, d=1.0 / 6.0), dts=(0.1,))
    with pytest.raises(UnsupportedCaseError):
        conservation_study(cfg)


def test_conservation_requires_dts():
    with pytest.raises(ConfigError):
        conservation_study(_conservation_cfg())


def test_conservation_exact_for_linear_flow():
    cfg = _conservation_cfg(params=_params(gamma=0.5, epsilon=0.0),
                            dts=(0.1,))
    result = conservation_study(cfg)
    assert result.drifts[0] <= 1e-12
    assert math.isnan(result.pair_orders[0])
    assert math.isnan(result.order_fit)  # single dt: no fit


def test_conservation_fourth_order_drift(tmp_path):
    cfg = _conservation_cfg(dts=(0.2, 0.1), out_dir=str(tmp_path))
    result = conservation_study(cfg)
    assert result.dts == (0.2, 0.1)
    assert result.drifts[0] > result.drifts[1] > 0.0
    assert math.isnan(result.pair_orders[0])
    assert 3.0 < result.pair_orders[1] < 5.5
    assert result.order_fit == pytest.approx(result.pair_orders[1], rel=1e-12)

    csv = (tmp_path / "conservation.csv").read_text().splitlines()
    assert csv[0] == "dt,drift,order_fit"
    assert len(csv) == 3
    manifest = json.loads((tmp_path / "conservation_manifest.json").read_text())
    assert manifest["derived"]["order_fit"] == result.order_fit


@pytest.mark.parametrize("boom", [0, 1, 2])
def test_conservation_blow_up_reads_inf_drift_and_nan_orders(monkeypatch, boom):
    """A dt whose run blows up has drift inf; every pair order touching it,
    and the fit, read nan; the other pair still has its order."""
    dts = (0.2, 0.1, 0.05)
    evolve = studies.evolve

    def spy(state, scheme, *args, **kwargs):
        if scheme.dt == dts[boom]:
            raise BlowUpSignal(state.t, math.inf, 0, [])
        return evolve(state, scheme, *args, **kwargs)

    monkeypatch.setattr(studies, "evolve", spy)
    result = conservation_study(_conservation_cfg(dts=dts))
    assert result.drifts[boom] == math.inf
    assert all(0.0 < d < math.inf for i, d in enumerate(result.drifts) if i != boom)
    finite = [i for i in (1, 2) if boom not in (i - 1, i)]
    for i in (1, 2):
        assert math.isfinite(result.pair_orders[i]) == (i in finite)
    assert math.isnan(result.pair_orders[0]) and math.isnan(result.order_fit)


def test_conservation_threaded_matches_serial(monkeypatch):
    """Threaded jobs on one grid shape, each with its own dt, step in their
    own workspaces: every drift equals the serial one bitwise."""
    cfg = _conservation_cfg(grid=GridSpec.square(32, TWO_PI, dim=2),
                            dts=(0.05, 0.04, 0.025, 0.02), max_t=1.0)
    monkeypatch.setenv("BFD_THREADS", "1")
    serial = conservation_study(cfg)
    monkeypatch.setenv("BFD_THREADS", "4")
    threaded = conservation_study(cfg)
    assert threaded.drifts == serial.drifts


@pytest.mark.parametrize("threads", ["1", "4"])
def test_sweeps_read_the_snapshot_once(monkeypatch, tmp_path, threads):
    """A lifespan sweep over four epsilons and a conservation sweep over
    four dts each read their snapshot once, serially or on more threads
    than cores with a short switch interval, and start every point from
    the same fields with that point's params."""
    grid = GridSpec.square(32, TWO_PI, dim=1)
    snap = tmp_path / "start.bfd"
    write_snapshot(snap, make_initial_state(grid, _params(gamma=0.5), amplitude=0.3,
                                            width=1.0, t=0.5))
    reads = []

    def counted(path, params):
        reads.append(path)
        return load_state(path, params)

    monkeypatch.setattr("bfdsim.config.load_state", counted)
    monkeypatch.setenv("BFD_THREADS", threads)
    starts, evolve = [], studies.evolve

    def spy(state, *args, **kwargs):
        starts.append(state)
        return evolve(state, *args, **kwargs)

    monkeypatch.setattr(studies, "evolve", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lifespan_study(_lifespan_cfg(grid=grid, snapshot=str(snap), max_t=1.0, cadence=5,
                                     epsilons=(0.2, 0.15, 0.1, 0.05)))
        assert len(reads) == 1
        conservation_study(_conservation_cfg(snapshot=str(snap), max_t=1.0,
                                             dts=(0.1, 0.08, 0.05, 0.04)))
        assert len(reads) == 2
    finally:
        sys.setswitchinterval(interval)
    lifespan, conservation = starts[:4], starts[4:]
    assert sorted(s.params.epsilon for s in lifespan) == [0.05, 0.1, 0.15, 0.2]
    assert len(conservation) == 4
    for group in (lifespan, conservation):
        for state in group:
            assert state.t == 0.5
            assert state.zeta is group[0].zeta and state.v == group[0].v


# ---------------------------------------------------------------------------
# Smallness
# ---------------------------------------------------------------------------

def _smallness_cfg(**kw):
    base = dict(
        kind="smallness",
        params=_params(epsilon=0.05),
        grid=GridSpec.square(32, TWO_PI, dim=2),
        profile="gaussian", amplitude=0.5, width=0.8, seed=11,
        cadence=5, max_t=5.0, smallness_target=0.25,
    )
    base.update(kw)
    return StudyConfig(**base)


def test_smallness_case_requirements():
    with pytest.raises(UnsupportedCaseError, match="b = d"):
        smallness_check(_smallness_cfg(params=_params(b=0.25, d=1.0 / 6.0)))
    with pytest.raises(UnsupportedCaseError, match="c < 0"):
        smallness_check(_smallness_cfg(params=_params(c=0.0)))
    with pytest.raises(ConfigError, match="epsilon"):
        smallness_check(_smallness_cfg(params=_params(epsilon=0.0)))


def test_smallness_zero_data_trivially_holds():
    report = smallness_check(_smallness_cfg(amplitude=0.0, max_t=1.0))
    assert report.initial_smallness == 0.0
    assert report.precondition_ok and report.invariant_held
    assert report.terminated_by == "max_t"


def test_smallness_normal_run(tmp_path):
    cfg = _smallness_cfg(out_dir=str(tmp_path))
    report = smallness_check(cfg)
    assert report.initial_smallness == pytest.approx(0.25, rel=1e-10)
    assert report.precondition_ok
    assert report.invariant_held
    assert report.max_smallness < 0.5
    assert report.min_noncav > 0.0
    assert report.max_x0 >= report.initial_x0 * 0.5
    assert report.terminated_by == "max_t"

    csv = (tmp_path / "smallness.csv").read_text().splitlines()
    assert csv[0] == "t,smallness,noncav,hamiltonian,x0_norm"
    assert len(csv) > 2
    manifest = json.loads((tmp_path / "smallness_manifest.json").read_text())
    assert manifest["derived"]["invariant_held"] is True
    assert manifest["derived"]["max_x0"] == report.max_x0
    assert manifest["derived"]["terminated_by"] == "max_t"


def test_smallness_inflated_data_flagged_but_runs():
    report = smallness_check(_smallness_cfg(smallness_target=10.0, max_t=1.0))
    assert report.initial_smallness == pytest.approx(10.0, rel=1e-10)
    assert not report.precondition_ok
    assert not report.invariant_held
    assert report.terminated_by in ("max_t", "blow-up")


def test_smallness_blow_up_before_any_sample_does_not_hold():
    """Data that blow up at t = 0 leave no monitor sample, so the maximum
    stays 0; the invariant is still not held."""
    report = smallness_check(_smallness_cfg(smallness_target=1e12, max_t=1.0))
    assert report.terminated_by == "blow-up"
    assert report.max_smallness == 0.0
    assert not report.invariant_held


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

def _equivalence_cfg(**kw):
    base = dict(
        kind="equivalence",
        params=_params(gamma=0.5),
        grid=GridSpec.square(16, TWO_PI, dim=2),
        amplitude=0.1, seed=42, s=2.0, num_states=5,
    )
    base.update(kw)
    return StudyConfig(**base)


def test_equivalence_tied_sweep(tmp_path):
    cfg = _equivalence_cfg(epsilons=(0.1, 0.01), out_dir=str(tmp_path))
    records = equivalence_study(cfg)
    assert [(r.epsilon, r.mu) for r in records] == [(0.1, 0.1), (0.01, 0.01)]
    for rec in records:
        assert rec.case_id == 2
        assert 0.0 < rec.ratio_min <= rec.ratio_max

    csv = (tmp_path / "equivalence.csv").read_text().splitlines()
    assert csv[0] == "epsilon,mu,case,ratio_min,ratio_max"
    assert len(csv) == 3
    manifest = json.loads((tmp_path / "equivalence_manifest.json").read_text())
    assert isinstance(manifest["derived"]["spread_monotone"], bool)


def test_equivalence_cartesian_sweep():
    records = equivalence_study(_equivalence_cfg(
        epsilons=(0.1, 0.01), mus=(0.2, 0.02), num_states=2))
    assert [(r.epsilon, r.mu) for r in records] == [
        (0.1, 0.2), (0.1, 0.02), (0.01, 0.2), (0.01, 0.02)]


def test_equivalence_zero_states_excluded():
    records = equivalence_study(_equivalence_cfg(amplitude=0.0,
                                                 epsilons=(0.1,)))
    assert math.isinf(records[0].ratio_min)
    assert equivalence_spread_monotone(records)  # degenerate rows ignored


def test_equivalence_case_override():
    records = equivalence_study(_equivalence_cfg(epsilons=(0.05,),
                                                 case_override=1))
    assert records[0].case_id == 1
    assert 0.0 < records[0].ratio_min <= records[0].ratio_max


def _sweep_3x3(**kw):
    return _equivalence_cfg(epsilons=(0.1, 0.03, 0.01), mus=(0.2, 0.05, 0.02), **kw)


def test_equivalence_threaded_matches_serial(monkeypatch):
    def bits(records):
        return [(r.epsilon, r.mu, r.case_id, r.ratio_min.hex(), r.ratio_max.hex())
                for r in records]

    monkeypatch.setenv("BFD_THREADS", "1")
    serial = equivalence_study(_sweep_3x3())
    monkeypatch.setenv("BFD_THREADS", "2")
    threaded = equivalence_study(_sweep_3x3())
    assert bits(serial) == bits(threaded)


def test_equivalence_draws_each_state_once(monkeypatch):
    """The draw depends on neither epsilon nor mu: num_states draws per
    study, and one ratio through the module global per (state, point)."""
    calls = {"draw": 0, "ratio": 0}

    def counted(name, inner):
        def wrapper(*args, **kw):
            calls[name] += 1
            return inner(*args, **kw)
        return wrapper

    monkeypatch.setattr(studies, "make_initial_state",
                        counted("draw", studies.make_initial_state))
    monkeypatch.setattr(studies, "equivalence_ratio",
                        counted("ratio", studies.equivalence_ratio))
    records = equivalence_study(_sweep_3x3(num_states=4))
    assert len(records) == 9
    assert calls == {"draw": 4, "ratio": 4 * 9}


@pytest.mark.parametrize("coeffs", [dict(b=0.25, d=1.0 / 6.0), dict(b=0.0, d=5.0 / 24.0)],
                         ids=["case1", "case5"])
def test_equivalence_forms_the_vv_products_once_per_state(monkeypatch, coeffs):
    """One state scored at the 9 points of a sweep forms each v_j v_k once:
    one rfftn input holds it and one irfftn output holds its dealiased
    values, though the two symmetrizer variants that read v_j v_k (b != d
    and b = 0) read them at every point.  The last point's transforms are
    one stacked rfftn (its products) and one stacked irfftn (its
    operands)."""
    grid = GridSpec.square(16, TWO_PI, dim=2)
    inputs, outputs, states = [], [], []
    rfftn, irfftn, inner = np.fft.rfftn, np.fft.irfftn, studies.equivalence_ratio

    def forward(a, *args, **kw):
        inputs.append(np.array(a, copy=True))
        return rfftn(a, *args, **kw)

    def inverse(a, *args, **kw):
        out = irfftn(a, *args, **kw)
        outputs.append(out.copy())
        return out

    def probe(state, *args, **kw):
        states.append(state)
        return inner(state, *args, **kw)

    monkeypatch.setattr(np.fft, "rfftn", forward)
    monkeypatch.setattr(np.fft, "irfftn", inverse)
    monkeypatch.setattr(studies, "equivalence_ratio", probe)
    equivalence_study(_sweep_3x3(params=_params(gamma=0.5, **coeffs), num_states=1))
    monkeypatch.undo()
    assert len(states) == 9

    def fields(arrays):
        return [f for a in arrays for f in a.reshape((-1,) + grid.n)]

    v = [c.values for c in states[0].v]
    for j, k in ((0, 0), (0, 1), (1, 1)):
        product = v[j] * v[k]
        dealiased = grid.ifft_real(grid.product_hat(product))
        assert sum(np.array_equal(f, product) for f in fields(inputs)) == 1
        assert sum(np.array_equal(f, dealiased) for f in fields(outputs)) == 1
    # the draw's own transforms come first; the last point's are its two
    assert len(inputs[-1]) > 1 and len(outputs[-1]) > 1


@pytest.mark.parametrize("coeffs", [dict(b=0.25, d=1.0 / 6.0), dict(b=0.25, d=0.25),
                                    dict(b=0.0, d=5.0 / 24.0), dict(b=0.0, d=0.0)],
                         ids=["case1", "case2", "case5", "case7"])
def test_equivalence_on_four_threads_is_the_serial_study_bitwise(monkeypatch, coeffs):
    """Each state's memo is filled and read by its own job, so BFD_THREADS=4
    (more threads than cores, switching often) gives the serial records
    bitwise, in every symmetrizer variant."""
    def bits(records):
        return [(r.epsilon, r.mu, r.case_id, r.ratio_min.hex(), r.ratio_max.hex())
                for r in records]

    cfg = _sweep_3x3(params=_params(gamma=0.5, **coeffs), num_states=8, amplitude=0.5)
    monkeypatch.setenv("BFD_THREADS", "1")
    serial = equivalence_study(cfg)
    monkeypatch.setenv("BFD_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = equivalence_study(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert bits(threaded) == bits(serial)


# (case, epsilon, mu, ratio_min, ratio_max) of a 16^2 sweep, 5 states,
# amplitude 0.5, seed 42, taken when each point drew its own states
PINNED_EQUIVALENCE = [
    (1, 0.1, 0.2, 0.07717590198777483, 3.6582934920505124),
    (1, 0.1, 0.02, 0.06652987518305287, 0.7564496714880878),
    (1, 0.01, 0.2, 0.07716620124286373, 3.303089878989503),
    (1, 0.01, 0.02, 0.06651985759053272, 0.7209663982644855),
    (7, 0.1, 0.2, 0.2085851547498201, 9.494257497650693),
    (7, 0.1, 0.02, 0.24887495269827742, 2.7314120839476157),
    (7, 0.01, 0.2, 0.20855864534963256, 9.505287434799957),
    (7, 0.01, 0.02, 0.24883744777295833, 2.7459627497125094),
]


def test_equivalence_records_are_pinned():
    """Guards the seed-to-state mapping: state i is drawn from seed
    cfg.seed + 1000 i with mixing weight from seed cfg.seed + 1000 i + 7."""
    got = []
    for coeffs in (dict(b=0.25, d=1.0 / 6.0), dict(b=0.0, d=0.0)):
        cfg = _equivalence_cfg(params=_params(gamma=0.5, **coeffs), amplitude=0.5,
                               epsilons=(0.1, 0.01), mus=(0.2, 0.02))
        got += equivalence_study(cfg)
    assert [(r.case_id, r.epsilon, r.mu) for r in got] == \
        [row[:3] for row in PINNED_EQUIVALENCE]
    for r, (*_, lo, hi) in zip(got, PINNED_EQUIVALENCE):
        assert r.ratio_min == pytest.approx(lo, rel=1e-12)
        assert r.ratio_max == pytest.approx(hi, rel=1e-12)


def test_spread_monotone_logic():
    def rec(eps, mu, lo, hi):
        return EquivalenceRecord(epsilon=eps, mu=mu, case_id=2,
                                 ratio_min=lo, ratio_max=hi)

    shrinking = [rec(0.1, 0.1, 1.0, 3.0), rec(0.01, 0.01, 1.0, 2.0)]
    assert equivalence_spread_monotone(shrinking)
    growing = [rec(0.1, 0.1, 1.0, 2.0), rec(0.01, 0.01, 1.0, 3.0)]
    assert not equivalence_spread_monotone(growing)
    # within the 5% noise allowance
    noisy = [rec(0.1, 0.1, 1.0, 2.0), rec(0.01, 0.01, 1.0, 2.08)]
    assert equivalence_spread_monotone(noisy)
    # incomparable pairs (one component larger, the other smaller) ignored
    saddle = [rec(0.1, 0.01, 1.0, 2.0), rec(0.01, 0.1, 1.0, 5.0)]
    assert equivalence_spread_monotone(saddle)
    # degenerate rows ignored
    degenerate = [rec(0.1, 0.1, 1.0, 2.0),
                  rec(0.01, 0.01, math.inf, -math.inf)]
    assert equivalence_spread_monotone(degenerate)


def test_monitor_s_defaults():
    cfg = _equivalence_cfg(s=None)
    assert cfg.monitor_s(GridSpec.square(16, TWO_PI, dim=2)) == 4.0
    assert cfg.monitor_s(GridSpec.square(16, TWO_PI, dim=1)) == 3.0
    assert _equivalence_cfg(s=2.5).monitor_s(cfg.grid) == 2.5
