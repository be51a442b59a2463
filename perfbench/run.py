"""bfdsim benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload mover-256sq --seed 1 --seconds 40 --trace 0

Run it from the root of a bfdsim checkout; it imports bfdsim from ``src``.
Every measurement runs in a fresh worker process (perfbench/worker.py) with
BFD_THREADS and the BLAS thread variables set to 1.

--trace 0 starts SETUP_REPEATS cold set-up workers, whose median is setup_s,
then one worker that measures solutions for --seconds; it reports the
end-to-end metrics.  --trace 1 starts one worker that alternates untraced
and traced solutions for --seconds; it reports the per-layer metrics of the
traced ones, and the tracing overhead from the pairs.  The spans are written to
.perfbench_work/traces/.  Output checks run in every measuring worker; each
failed check is a failed operation.

Human-readable lines come first; the last line of standard output is the
JSON result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from envinfo import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_REPEATS = 5
# the whole run must end within 180 s; this leaves room to report
BUDGET_S = 170.0

UNIT_NAMES = {"steps": "steps_per_s", "states": "states_per_s"}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class WorkerError(RuntimeError):
    pass


def run_worker(spec: dict, root: Path, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget exhausted")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=root, env=worker_env(root), capture_output=True, text=True,
            timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{spec['mode']} worker timed out") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerError(f"{spec['mode']} worker failed (exit {done.returncode}):\n"
                          + done.stderr[-4000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(measure: dict, setups: list[dict]) -> dict:
    return {
        # a mean, not a median: the machine's speed drifts between regimes
        # within a run, and a median snaps to one of them
        "wall_s": (statistics.fmean(measure["solutions_s"]), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "throughput_per_s": (measure["units"] / sum(measure["solutions_s"]), "1/s"),
        "interval_ms_p50": (measure["intervals_ms_p50"], "ms"),
        "interval_ms_p90": (measure["intervals_ms_p90"], "ms"),
        "peak_rss_mb": (measure["peak_rss_mb"], "MB"),
    }


def per_layer(traced: dict) -> dict:
    out = {name: tuple(v) for name, v in traced["layers"].items()}
    ratio = (statistics.median(traced["solutions_s"])
             / statistics.median(traced["untraced_solutions_s"]))
    out["trace.overhead_frac"] = (ratio - 1.0, "ratio")
    return out


def report(name: str, seed: int, inputs: dict, metrics: dict, measures: list[dict],
           attempted: int, failed: int, unit: str) -> None:
    print(f"workload {name} seed {seed} inputs {json.dumps(inputs, sort_keys=True)}")
    for key, (value, u) in metrics.items():
        note = f"  ({UNIT_NAMES[unit]})" if key == "throughput_per_s" else ""
        print(f"metric {key} {value:.6g} {u}{note}")
    frac = failed / attempted if attempted else 1.0
    print(f"metric ops_failed_frac {frac:.6g} fraction  ({failed} of {attempted} checks failed)")
    for m in measures:
        print(f"worker traced={m['traced']} solutions={len(m['solutions_s'])} "
              f"intervals={m['intervals']} {m['unit']}={m['units']}")
        for msg in m["checks"]["messages"]:
            print(f"check failed: {msg}")
    print(json.dumps({"environment": measures[-1]["environment"]}, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")

    deadline = time.monotonic() + BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "bfdsim" / "__init__.py").is_file():
        print("error: run from the root of a bfdsim checkout (src/bfdsim not found)",
              file=sys.stderr)
        return 2

    inputs = make_inputs(args.workload, args.seed)
    work_root = root / ".perfbench_work"
    workdir = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    base = {"workload": args.workload, "inputs": inputs}
    try:
        if args.trace == 0:
            setups = [run_worker(dict(base, mode="setup", workdir=str(workdir / f"setup{i}")),
                                 root, deadline) for i in range(SETUP_REPEATS)]
            measures = [run_worker(dict(base, mode="measure", seconds=args.seconds,
                                        workdir=str(workdir / "measure")), root, deadline)]
            metrics = end_to_end(measures[0], setups)
        else:
            traces = work_root / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_path = traces / f"{args.workload}-seed{args.seed}.jsonl.gz"
            measures = [run_worker(dict(base, mode="measure", seconds=args.seconds,
                                        traced=True, trace_path=str(trace_path),
                                        workdir=str(workdir / "traced")), root, deadline)]
            if measures[0]["leftover_wrappers"]:
                raise WorkerError(f"wrappers not restored: {measures[0]['leftover_wrappers']}")
            metrics = per_layer(measures[0])
            print(f"spans {measures[0]['spans']} written to {trace_path.relative_to(root)}")
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(m["checks"]["attempted"] for m in measures)
    failed = sum(m["checks"]["failed"] for m in measures)
    report(args.workload, args.seed, inputs, metrics, measures, attempted, failed,
           measures[0]["unit"])
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
