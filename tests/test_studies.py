"""Tests for the packaged studies: lifespan, conservation, smallness,
energy equivalence."""

import json
import math

import numpy as np
import pytest

from bfdsim import (
    ConfigError,
    GridSpec,
    ModelParams,
    ParameterDomainError,
    StudyConfig,
    UnsupportedCaseError,
    conservation_study,
    equivalence_spread_monotone,
    equivalence_study,
    lifespan_study,
    smallness_check,
)
from bfdsim.spectral import TWO_PI
from bfdsim.studies import EquivalenceRecord, fmt, thread_count


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


def test_lifespan_artifacts(tmp_path):
    cfg = _lifespan_cfg(epsilons=(0.5,), max_t=2.0, out_dir=str(tmp_path))
    lifespan_study(cfg)
    csv = (tmp_path / "lifespan.csv").read_text().splitlines()
    assert csv[0] == "epsilon,mu,T_obs,product,terminated_by"
    assert len(csv) == 2
    manifest = json.loads((tmp_path / "lifespan_manifest.json").read_text())
    assert manifest["command"] == "lifespan"
    assert manifest["config"] == cfg.echo()
    assert manifest["derived"] == {}
    assert "version" in manifest


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
