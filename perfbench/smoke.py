"""Smoke test of the benchmark itself, at tiny problem sizes (a few seconds).

    python3 perfbench/smoke.py

Run it from the root of a bfdsim checkout.  It checks that every metric of
BENCHMARK.json prints with its unit, that self times add up to the span
that contains them, that tracing leaves no wrapper behind, and that an
injected non-finite state is counted as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
for var in ("BFD_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import envinfo  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import WRAPPER_MARK, SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS, Mover256, make_inputs  # noqa: E402

TINY = {
    "mover-256sq": dict(n=16, steps=4),
    "report-64sq": dict(n=16, steps=4),
    "equivalence-32sq": dict(n=8, num_states=2, check_reference=False),
}
WORKDIR = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"


def measure(name, traced=False, **size):
    spec = {"workload": name, "inputs": make_inputs(name.split("+")[0], 3), "mode": "measure",
            "seconds": 0.0, "traced": traced, "workdir": str(WORKDIR / name)}
    return worker.run(spec, **(size or TINY[name]))


def printed_metrics(name, metrics, measures) -> dict:
    measures[-1]["environment"] = envinfo.collect(ROOT)
    attempted = sum(m["checks"]["attempted"] for m in measures)
    failed = sum(m["checks"]["failed"] for m in measures)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(name, 3, {}, metrics, measures, attempted, failed, measures[0]["unit"])
    lines = [ln.split() for ln in buf.getvalue().splitlines() if ln.startswith("metric ")]
    return {parts[1]: (float(parts[2]), parts[3]) for parts in lines}


def test_every_metric_prints_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        plain, traced = measure(name), measure(name, traced=True)
        e2e = printed_metrics(name, run.end_to_end(plain, [plain]), [plain])
        layers = printed_metrics(name, run.per_layer(traced), [traced])
        for group, printed in (("end_to_end", e2e), ("per_layer", layers)):
            for metric in bench[group]:
                assert metric["name"] in printed, f"{name}: {metric['name']} not printed"
                value, unit = printed[metric["name"]]
                assert unit == metric["unit"], f"{name}: {metric['name']} in {unit}"
                assert math.isfinite(value)
        for metric in bench["end_to_end"]:
            assert e2e[metric["name"]][0] > 0.0, f"{name}: {metric['name']} is 0"
        assert e2e["ops_failed_frac"][0] == 0.0, f"{name}: a check failed"


def test_self_times_add_up_to_the_containing_span():
    spans = measure("mover-256sq", traced=True)["tracer"].spans
    st = SpanStats(spans)
    subtree = dict(st.self_time)
    for sid, parent, _, _, _ in spans:  # children end, so are listed, first
        if parent:
            subtree[parent] += subtree[sid]
    for sid, dur in st.duration.items():
        assert abs(subtree[sid] - dur) <= 1e-9 + 1e-9 * dur, (st.info[sid], subtree[sid], dur)
    for fn in ("spectral.fft", "spectral.ifft_real", "symbols.ratio_sqrt"):
        per_step = st.step_calls(fn)
        assert per_step and min(per_step) == max(per_step) > 0, (fn, per_step)


def _bindings():
    import bfdsim

    mods = {n: m for n, m in sys.modules.items()
            if n == "bfdsim" or n.startswith("bfdsim.")}
    out = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
    for cls in (bfdsim.GridSpec, bfdsim.SymbolTable):
        out.update({(cls.__name__, a): v for a, v in vars(cls).items()})
    return out


def test_every_wrapper_is_restored():
    import bfdsim

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert getattr(bfdsim.evolution.symbol_table, WRAPPER_MARK, False)
        assert getattr(bfdsim.studies.energy_report, WRAPPER_MARK, False)
        assert getattr(bfdsim.evolve, WRAPPER_MARK, False)
        assert getattr(bfdsim.SymbolTable.__dict__["ratio_sqrt"].fget, WRAPPER_MARK, False)
        assert getattr(bfdsim.GridSpec.__dict__["fft"], WRAPPER_MARK, False)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed, changed
    assert tracer.leftover_wrappers() == []
    for name in ("report-64sq", "equivalence-32sq"):
        assert measure(name, traced=True)["leftover_wrappers"] == [], name
    assert _bindings().keys() == before.keys()


class NanMover(Mover256):
    def setup(self):
        super().setup()
        B = self.B
        zeta = self.state.zeta.values.copy()
        zeta[0, 0] = math.nan
        self.state = B.FieldState(t=0.0, zeta=B.SpectralField(self.grid, real=zeta),
                                  v=self.state.v, params=self.params)


def test_injected_non_finite_state_counts_as_failed():
    WORKLOADS["mover-256sq+nan"] = NanMover
    try:
        res = measure("mover-256sq+nan", **TINY["mover-256sq"])
    finally:
        del WORKLOADS["mover-256sq+nan"]
    assert res["checks"]["failed"] > 0
    printed = printed_metrics("mover-256sq+nan", run.end_to_end(res, [res]), [res])
    assert printed["ops_failed_frac"][0] > 0.0


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    try:
        for test in tests:
            try:
                test()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {test.__name__}: {exc}")
            else:
                print(f"ok   {test.__name__}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
