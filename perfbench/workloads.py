"""The three benchmark workloads, driven through bfdsim's public API.

Each workload has fixed physics and an explicit dt.  ``make_inputs`` turns
the benchmark seed into the generated inputs (profile amplitude and width,
or the equivalence study's base seed); the workload itself never sees the
seed.  A workload is set up once per process (``setup``, the cold part that
``setup_s`` measures) and then solved repeatedly (``solve``); one solution is
a fixed amount of work, so its wall time is comparable across runs.

Routed-around defects of bfdsim, kept fixed here so that fixing them later
does not silently change a workload's work:

* ``evolve`` rounds (max_t - t0)/dt, so every dt here divides max_t exactly.
* ``symbol_table`` is an ``lru_cache(maxsize=64)``; equivalence-32sq builds
  18 tables, all of which fit, so its hit ratio reflects reuse, not eviction.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "equivalence_reference.json"

# equivalence-32sq draws its base seed from this many stored variants, so
# that every benchmark seed has reference ratios to be checked against
EQUIV_VARIANTS = 64

GATE05 = dict(gamma=0.9, epsilon=0.05, mu=0.05, mu2=1.0,
              a=0.0, b=5.0 / 24.0, c=-1.0 / 12.0, d=5.0 / 24.0)
CASE1 = dict(a=0.0, b=0.25, c=-1.0 / 12.0, d=1.0 / 6.0)
CASE7 = dict(a=0.0, b=0.0, c=-1.0 / 12.0, d=0.0)


def equivalence_base_seed(seed: int) -> int:
    return 100_000 * (1 + seed % EQUIV_VARIANTS)


def make_inputs(name: str, seed: int) -> dict:
    """Generated inputs of a workload; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if name == "equivalence-32sq":
        return {"base_seed": equivalence_base_seed(seed)}
    # mover-256sq and report-64sq: around the gate-05/09 Gaussian
    return {"amplitude": 0.5 * rng.uniform(0.9, 1.1),
            "width": 0.8 * rng.uniform(0.9, 1.1)}


class Checks:
    """Output checks; a failed one counts as a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)
        return ok


class Workload:
    """Base class.  Subclasses set ``unit`` and implement setup/solve."""

    unit = "steps"

    def __init__(self, inputs: dict, workdir: Path, span, **size):
        self.inputs = inputs
        self.workdir = Path(workdir)
        self.span = span
        self.size = size
        self.B = None

    def import_bfdsim(self):
        self.B = importlib.import_module("bfdsim")
        return self.B

    def setup(self):
        raise NotImplementedError

    def solve(self, checks: Checks, marks: list) -> int:
        """Run one solution, appending a clock reading per monitor call to
        marks; return the number of units (steps or states) done."""
        raise NotImplementedError

    def _evolve(self, state, scheme, monitor, checks: Checks, n_steps: int):
        B = self.B
        try:
            summary = B.evolve(state, scheme, monitors=(monitor,))
        except B.BlowUpSignal as sig:
            checks.expect(False, f"blow-up at t={sig.t:.6g}")
            return None
        checks.expect(summary.steps == n_steps and summary.terminated_by == "max_t",
                      f"ran {summary.steps}/{n_steps} steps, {summary.terminated_by}")
        checks.expect(summary.final_state.is_finite(), "final state not finite")
        return summary


class Mover256(Workload):
    """IF-RK4 on 256^2 with gate-05 physics; Hamiltonian every 5th monitor."""

    def setup(self):
        B = self.import_bfdsim()
        n = self.size.get("n", 256)
        self.n_steps = self.size.get("steps", 20)
        self.dt = 0.01
        self.params = B.ModelParams(**GATE05)
        self.grid = B.GridSpec.square(n, 2.0 * math.pi, dim=2)
        B.symbol_table(self.grid, self.params)
        self.state = B.make_initial_state(
            self.grid, self.params, profile="gaussian",
            amplitude=self.inputs["amplitude"], width=self.inputs["width"],
            velocity="right-mover")
        B.diagonalize(self.state)

    def solve(self, checks, marks):
        B = self.B
        scheme = B.SchemeConfig(dt=self.dt, max_t=self.n_steps * self.dt,
                                scheme="exponential", cadence=1)
        calls = 0
        drift = {"h0": None, "worst": 0.0}

        def monitor(snap):
            nonlocal calls
            marks.append(time.perf_counter())
            with self.span("bench.monitor"):
                if calls % 5 == 0 or calls == self.n_steps:
                    h = B.hamiltonian(snap)
                    if drift["h0"] is None:
                        drift["h0"] = h
                    else:
                        rel = abs(h - drift["h0"]) / abs(drift["h0"])
                        drift["worst"] = max(drift["worst"], rel)
            calls += 1

        if self._evolve(self.state, scheme, monitor, checks, self.n_steps) is not None:
            checks.expect(drift["worst"] <= 1e-8,
                          f"Hamiltonian drift {drift['worst']:.3e} > 1e-8")
        return self.n_steps


class Report64(Workload):
    """IF-RK4 on 64^2 from a BFDv1 snapshot; per step, the work of one
    ``bfdsim simulate`` row: energy_report, a CSV row and write_snapshot."""

    def setup(self):
        B = self.import_bfdsim()
        n = self.size.get("n", 64)
        self.n_steps = self.size.get("steps", 64)
        self.dt = 1.0 / 16.0
        self.params = B.ModelParams(**GATE05)
        self.case = B.classify_case(self.params)
        grid = B.GridSpec.square(n, 2.0 * math.pi, dim=2)
        B.symbol_table(grid, self.params)
        state = B.make_initial_state(
            grid, self.params, profile="gaussian",
            amplitude=self.inputs["amplitude"], width=self.inputs["width"],
            velocity="right-mover")
        # rescale to initial smallness 1/4, as the smallness study does
        eps = self.params.epsilon
        scale = math.sqrt(0.25 / (eps * grid.spectral_l2_sq(state.zeta.hat)))
        state = B.FieldState(t=0.0, zeta=scale * state.zeta,
                             v=tuple(scale * c for c in state.v), params=self.params)
        start = self.workdir / "start.bfd"
        B.write_snapshot(start, state)
        self.state = B.load_state(start, self.params)
        B.diagonalize(self.state)
        self.row_bytes: list[int] = []

    def solve(self, checks, marks):
        B = self.B
        scheme = B.SchemeConfig(dt=self.dt, max_t=self.n_steps * self.dt,
                                scheme="exponential", cadence=1)
        rows: list[str] = []
        last = {}

        def monitor(snap):
            marks.append(time.perf_counter())
            with self.span("bench.monitor"):
                rep = B.energy_report(snap, s=0.0, case=self.case)
                rows.append(rep.csv_row())
                checks.expect(rep.smallness < 0.5,
                              f"smallness {rep.smallness:.4f} >= 1/2 at t={snap.t}")
                # a new file per row, as simulate writes: rewriting one in
                # place makes ext4 flush it on close (auto_da_alloc)
                path = self.workdir / f"row{len(rows):06d}.bfd"
                B.write_snapshot(path, snap)
                if "path" in last:
                    last["path"].unlink()
                last["path"], last["state"] = path, snap

        if self._evolve(self.state, scheme, monitor, checks, self.n_steps) is not None:
            import numpy as np

            self.row_bytes.append(last["path"].stat().st_size)
            t, grid, zeta, v = B.read_snapshot(last["path"])
            snap = last["state"]
            exact = (t == snap.t and grid == snap.grid
                     and np.array_equal(zeta, snap.zeta.values)
                     and all(np.array_equal(a, c.values) for a, c in zip(v, snap.v)))
            checks.expect(exact, "last snapshot does not read back bit-exact")
        if "path" in last:
            last["path"].unlink()
        return self.n_steps


class Equivalence32(Workload):
    """equivalence_study on the gate-07 grid for cases 1 and 7."""

    unit = "states"
    levels = (1e-2, 1e-3, 1e-4)
    cases = {1: CASE1, 7: CASE7}

    def setup(self):
        B = self.import_bfdsim()
        n = self.size.get("n", 32)
        self.num_states = self.size.get("num_states", 20)
        grid = B.GridSpec.square(n, 32.0 * math.pi, dim=2)
        base = self.inputs["base_seed"]
        self.configs = {}
        for case_id, coeffs in self.cases.items():
            params = B.ModelParams(gamma=0.5, epsilon=1e-2, mu=1e-2, mu2=1.0, **coeffs)
            self.configs[case_id] = B.StudyConfig(
                kind="equivalence", params=params, grid=grid, amplitude=0.5,
                seed=base, s=2.0, num_states=self.num_states,
                epsilons=self.levels, mus=self.levels)
        B.symbol_table(grid, self.configs[1].params)
        self.reference = None
        self.tolerance = None
        if self.size.get("check_reference", True):
            doc = json.loads(REFERENCE_FILE.read_text())
            if doc["num_states"] != self.num_states:
                raise ValueError("reference was made with another num_states")
            self.tolerance = doc["rel_tolerance"]
            self.reference = doc["ratios"][str(base)]

    def study(self, case_id):
        return self.B.equivalence_study(self.configs[case_id])

    def _check(self, checks, case_id, records):
        ref = None if self.reference is None else self.reference[str(case_id)]
        for i, r in enumerate(records):
            checks.expect(r.case_id == case_id,
                          f"case {r.case_id} != {case_id} at {r.epsilon}, {r.mu}")
            ok = all(math.isfinite(x) and x > 0.0 for x in (r.ratio_min, r.ratio_max))
            checks.expect(ok, f"case {case_id}: ratio not finite positive")
            if ref is not None:
                want = ref[i]
                close = all(abs(x - w) <= self.tolerance * abs(w)
                            for x, w in zip((r.ratio_min, r.ratio_max), want))
                checks.expect(close, f"case {case_id} at ({r.epsilon}, {r.mu}): "
                                     f"ratios {r.ratio_min!r}, {r.ratio_max!r} "
                                     f"differ from reference {want}")

    def solve(self, checks, marks):
        # one clock reading per state, for interval_ms; patched over whatever
        # is bound now (the tracer's wrapper in a traced solution)
        studies = self.B.studies
        inner = studies.equivalence_ratio

        def probed(*args, **kw):
            marks.append(time.perf_counter())
            return inner(*args, **kw)

        studies.equivalence_ratio = probed
        try:
            for case_id in self.cases:
                self._check(checks, case_id, self.study(case_id))
        finally:
            studies.equivalence_ratio = inner
        return len(self.cases) * len(self.levels) ** 2 * self.num_states


WORKLOADS = {
    "mover-256sq": Mover256,
    "report-64sq": Report64,
    "equivalence-32sq": Equivalence32,
}
