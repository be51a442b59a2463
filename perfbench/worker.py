"""Runs one workload in a fresh process and prints its raw result as JSON.

    python3 perfbench/worker.py '<spec as JSON>'

The spec names the workload, its generated inputs, a scratch directory, the
mode and whether to trace.  Mode "setup" does the cold set-up only; mode
"measure" then does one warm-up solution and timed solutions until
``seconds`` have passed.  run.py starts this with bfdsim's ``src`` on
PYTHONPATH and every thread count at 1.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import envinfo
from spans import NullTracer, SpanStats, Tracer, percentile
from workloads import WORKLOADS, Checks

# solutions measured at least, even when one overruns the time budget
MIN_SOLUTIONS = 3


def _state_bytes(diag) -> int:
    arrays = [diag.Zp_hat, diag.Zm_hat, diag.W_hat]
    return sum(a.nbytes for a in arrays if a is not None)


class LayerProbe:
    """Tracer hooks that compute byte counts from array shapes and dtypes."""

    def __init__(self, tracer: Tracer):
        self.fft_bytes: dict[int, int] = {}
        self.tables: dict[int, object] = {}
        self.state_bytes = 0

        def fft(sid, args, result):
            self.fft_bytes[sid] = args[1].nbytes + result.nbytes

        def table(sid, args, result):
            self.tables[id(result)] = result

        def step(sid, args, result):
            self.state_bytes = _state_bytes(result)

        for name in ("spectral.fft", "spectral.ifft_real"):
            tracer.hooks[name] = fft
        tracer.hooks["symbols.symbol_table"] = table
        tracer.hooks["evolution.step_exponential"] = step

    def table_bytes(self) -> int:
        return sum(v.nbytes for tab in self.tables.values()
                   for v in vars(tab).values() if hasattr(v, "nbytes"))


def layer_metrics(spans, probe: LayerProbe, workload) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    st = SpanStats(spans)
    out = {}
    for fn in ("fft", "ifft_real"):
        out[f"spectral.{fn}.calls_per_step"] = (st.calls_per_step(f"spectral.{fn}"), "count")
        out[f"spectral.{fn}.self_ms_per_step"] = (st.self_ms_per_step(f"spectral.{fn}"), "ms")
    step_bytes = sum(b for sid, b in probe.fft_bytes.items() if st.in_step[sid])
    out["spectral.bytes_per_step.computed"] = (step_bytes / st.steps if st.steps else 0.0, "B")

    info = sys.modules["bfdsim.symbols"].symbol_table.cache_info()
    lookups = info.hits + info.misses
    out["symbols.symbol_table.build_ms"] = (st.first_ms("symbols.symbol_table"), "ms")
    out["symbols.symbol_table.hit_ratio"] = (info.hits / lookups if lookups else 0.0, "ratio")
    out["symbols.table_mb.computed"] = (probe.table_bytes() / 2**20, "MB")
    out["symbols.ratio_sqrt.calls_per_step"] = (st.calls_per_step("symbols.ratio_sqrt"), "count")

    out["evolution.step_exponential.ms_p50"] = (st.ms("evolution.step_exponential", 0.5), "ms")
    out["evolution.step_exponential.ms_p90"] = (st.ms("evolution.step_exponential", 0.9), "ms")
    out["evolution.step_exponential.self_ms_per_step"] = (
        st.self_ms_per_step("evolution.step_exponential"), "ms")
    out["evolution.nonlinear_f_pm.calls_per_step"] = (
        st.calls_per_step("evolution.nonlinear_f_pm"), "count")
    out["evolution.nonlinear_f_pm.self_ms_per_step"] = (
        st.self_ms_per_step("evolution.nonlinear_f_pm"), "ms")
    out["evolution.undiagonalize.ms_p50"] = (st.ms("evolution.undiagonalize", 0.5), "ms")
    out["evolution.diagonalize.ms"] = (st.ms("evolution.diagonalize", 0.5), "ms")
    out["evolution.evolve.self_ms_per_step"] = (st.self_ms_per_step("evolution.evolve"), "ms")
    out["evolution.state_mb.computed"] = (probe.state_bytes / 2**20, "MB")

    out["system.noncavitation_margin.ms_p50"] = (st.ms("system.noncavitation_margin", 0.5), "ms")

    out["energy.energy_report.ms_p50"] = (st.ms("energy.energy_report", 0.5), "ms")
    out["energy.energy_report.ms_p90"] = (st.ms("energy.energy_report", 0.9), "ms")
    out["energy.hamiltonian.ms_p50"] = (st.ms("energy.hamiltonian", 0.5), "ms")
    out["energy.energy_Es.ms_p50"] = (st.ms("energy.energy_Es", 0.5), "ms")
    out["energy.symmetrizer_apply.self_ms_per_call"] = (
        st.self_ms_per_call("energy.symmetrizer_apply"), "ms")
    out["energy.calE_s.ms_p50"] = (st.ms("energy.calE_s", 0.5), "ms")
    out["energy.x_norm_state.ms_p50"] = (st.ms("energy.x_norm_state", 0.5), "ms")

    out["initial_data.make_initial_state.ms_p50"] = (
        st.ms("initial_data.make_initial_state", 0.5), "ms")

    out["snapshots.write_snapshot.ms_p50"] = (st.ms("snapshots.write_snapshot", 0.5), "ms")
    row_bytes = getattr(workload, "row_bytes", [])
    out["snapshots.bytes_per_row"] = (float(statistics.median(row_bytes)) if row_bytes else 0.0, "B")
    out["snapshots.load_state.ms"] = (st.ms("snapshots.load_state", 0.5), "ms")

    out["studies.equivalence_study.self_ms"] = (st.self_ms_median("studies.equivalence_study"), "ms")
    return out


def run(spec: dict, **size) -> dict:
    """Set up (and, in measure mode, run) one workload in this process.

    size overrides the workload's problem size; the smoke test uses it.
    """
    clock = time.perf_counter
    traced = bool(spec.get("traced"))
    tracer = Tracer() if traced else NullTracer()
    probe = LayerProbe(tracer) if traced else None
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)

    t0 = clock()
    importlib.import_module("bfdsim")
    if traced:
        tracer.install()
    workload = WORKLOADS[spec["workload"]](spec["inputs"], workdir, tracer.span, **size)
    checks = Checks()
    solutions, intervals = [], []
    # a traced run alternates untraced and traced solutions, so that the
    # tracing overhead is measured under the same machine conditions
    untraced = []
    units = 0
    try:
        with tracer.span("bench.setup"):
            workload.setup()
        setup_s = clock() - t0
        if spec["mode"] == "measure":
            # the untimed warm-up counts against the run's seconds
            deadline = clock() + float(spec["seconds"])
            workload.solve(checks, [])
            while True:
                if traced:
                    tracer.uninstall()
                    s0 = clock()
                    workload.solve(checks, [])
                    untraced.append(clock() - s0)
                    tracer.install()
                marks: list[float] = []
                with tracer.span("bench.solution"):
                    s0 = clock()
                    units += workload.solve(checks, marks)
                    s1 = clock()
                solutions.append(s1 - s0)
                intervals.extend(b - a for a, b in zip(marks, marks[1:]))
                if s1 >= deadline and len(solutions) >= MIN_SOLUTIONS:
                    break
    finally:
        if traced:
            tracer.uninstall()

    result = {
        "workload": spec["workload"],
        "mode": spec["mode"],
        "traced": traced,
        "setup_s": setup_s,
        "unit": workload.unit,
        "solutions_s": solutions,
        "units": units,
        "intervals_ms_p50": 1e3 * percentile(intervals, 0.5),
        "intervals_ms_p90": 1e3 * percentile(intervals, 0.9),
        "intervals": len(intervals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "messages": checks.messages},
    }
    if traced:
        result["layers"] = layer_metrics(tracer.spans, probe, workload)
        result["untraced_solutions_s"] = untraced
        result["spans"] = len(tracer.spans)
        result["leftover_wrappers"] = tracer.leftover_wrappers()
        if spec.get("trace_path"):
            tracer.write(spec["trace_path"])
        result["tracer"] = tracer
    return result


def main(argv) -> int:
    spec = json.loads(argv[1])
    result = run(spec)
    result.pop("tracer", None)
    if spec["mode"] == "measure":
        result["environment"] = envinfo.collect(Path.cwd())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
