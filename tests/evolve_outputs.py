"""Print a SHA-256 of every run of a fixed evolve set, bit for bit.

Run it against two source trees and compare the outputs byte for byte:

    PYTHONPATH=<tree A>/src python tests/evolve_outputs.py > a.txt
    PYTHONPATH=<tree B>/src python tests/evolve_outputs.py > b.txt
    python tests/evolve_outputs.py --compare a.txt b.txt

Each line labels one run (case, eps, grid) and gives its step count, what
ended it and one SHA-256 over every cadence snapshot's time and spectra
(the final state's among them) and the event log, so equal lines mean
bitwise equal runs.  --compare names the runs whose lines differ, and
exits 1 when any does.  --quick runs only the two smallest grids.

The set covers the coefficient cases 1 (b != d), 2 (b = d) and 7 (b = d
= 0), eps = 0 and 0.1, a 64-point and an 8192-point line and the 2-D
grids 30^2, 64^2, 128^2 and 256^2, so both sides of STACK_MAX_POINTS in
1-D and 2-D.  Each run starts from a random band-limited state with a
random (in 2-D rotational) velocity, steps dt = 0.02 to t = 0.17 (eight
full steps and a short last one) and samples every third step.  It uses
only the public API, so any version of bfdsim since RunConfig runs it.
"""

import hashlib
import json
import math
import sys


def _runs(path: str) -> dict:
    """run label -> the rest of its line."""
    out = {}
    with open(path) as fh:
        for line in fh:
            label, rest = line.rstrip("\n").split(" steps=", 1)
            out[label] = rest
    return out


def compare(path_a: str, path_b: str) -> list[str]:
    """One line per run that differs between the two files (missing from
    one of them included); empty when they agree."""
    a, b = _runs(path_a), _runs(path_b)
    out = [f"differs: {label}" for label in a if label in b and a[label] != b[label]]
    out += [f"only in {path}: {label}" for path, x, y in ((path_a, a, b), (path_b, b, a))
            for label in x if label not in y]
    return out


if __name__ == "__main__" and sys.argv[1:2] == ["--compare"]:
    diffs = compare(*sys.argv[2:4])
    print("\n".join(diffs) if diffs else f"no difference in {len(_runs(sys.argv[2]))} runs")
    sys.exit(1 if diffs else 0)

# --compare reads only the two files, so it runs without bfdsim importable
from bfdsim import (  # noqa: E402
    GridSpec,
    ModelParams,
    SchemeConfig,
    classify_case,
    evolve,
    make_initial_state,
)

B, C, D = 5.0 / 24.0, -1.0 / 12.0, 1.0 / 6.0
# case id -> (b, c, d), the rows of the case table this set runs
CASES = {1: (B, C, D), 2: (B, C, B), 7: (0.0, C, 0.0)}
EPSILONS = (0.0, 0.1)
QUICK_GRIDS = (GridSpec.square(64, 8.0 * math.pi, dim=1), GridSpec.square(30, 8.0 * math.pi))
GRIDS = QUICK_GRIDS + (GridSpec.square(8192, 8.0 * math.pi, dim=1),
                       *(GridSpec.square(n, 8.0 * math.pi) for n in (64, 128, 256)))
DT, MAX_T, CADENCE = 0.02, 0.17, 3


def run_line(grid: GridSpec, case: int, eps: float) -> str:
    b, c, d = CASES[case]
    p = ModelParams(gamma=0.7, epsilon=eps, mu=0.1, mu2=0.2, a=0.0, b=b, c=c, d=d)
    assert classify_case(p).case_id == case
    state = make_initial_state(grid, p, profile="random_bandlimited", amplitude=0.3,
                               seed=11 + case, velocity="random")
    digest = hashlib.sha256()

    def record(snap):
        digest.update(float(snap.t).hex().encode())
        for f in (snap.zeta, *snap.v):
            digest.update(f.hat.tobytes())

    summary = evolve(state, SchemeConfig(dt=DT, max_t=MAX_T, cadence=CADENCE),
                     monitors=[record])
    digest.update(json.dumps(summary.events, sort_keys=True).encode())
    n = "x".join(map(str, grid.n))
    return (f"evolve case={case} eps={eps} n={n} steps={summary.steps} "
            f"terminated_by={summary.terminated_by} sha256={digest.hexdigest()}")


def lines(grids=GRIDS):
    for grid in grids:
        for case in CASES:
            for eps in EPSILONS:
                yield run_line(grid, case, eps)


if __name__ == "__main__":
    for line in lines(QUICK_GRIDS if "--quick" in sys.argv[1:] else GRIDS):
        print(line)
