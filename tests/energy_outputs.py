"""Print every equivalence record and energy_report column, bit for bit.

Run it against two source trees and compare the outputs byte for byte:

    PYTHONPATH=<tree A>/src python tests/energy_outputs.py > a.txt
    PYTHONPATH=<tree B>/src python tests/energy_outputs.py > b.txt
    cmp a.txt b.txt

Each line is a label and float.hex values, so equal files mean bitwise
equal results.  When they are not,

    python tests/energy_outputs.py --compare a.txt b.txt

prints the largest relative change of each family's values between the
two files: the equivalence ratio_min and ratio_max, each energy_report
column and the coercivity form, and whether the gradients' SHA-256 lines
are equal.  It covers the equivalence study of the eight coefficient
cases at 16^2 and 32^2 (s = 2, (eps, mu) in {1e-2, 1e-3, 1e-4}^2), and
energy_report at s = 0, 1.5 and 2, hamiltonian_coercivity_form and a
SHA-256 of the variational_gradients spectra, for random states of every
case on 16^2, 32^2, 64^2, 128^2 and a 64-point line.  It uses only the
public API, so any version of bfdsim since RunConfig runs it.
"""

import hashlib
import math
import sys

from bfdsim import (
    GridSpec,
    ModelParams,
    RunConfig,
    classify_case,
    energy_report,
    equivalence_study,
    hamiltonian_coercivity_form,
    make_initial_state,
    variational_gradients,
)

B, C, D = 5.0 / 24.0, -1.0 / 12.0, 1.0 / 6.0
# case id -> (b, c, d), one row per case of the case table
CASES = {1: (B, C, D), 2: (B, C, B), 3: (B, C, 0.0), 4: (B, 0.0, D),
         5: (0.0, C, B), 6: (0.0, 0.0, B), 7: (0.0, C, 0.0), 8: (0.0, 0.0, 0.0)}
LEVELS = (1e-2, 1e-3, 1e-4)


def _hex(*xs) -> str:
    return " ".join(float(x).hex() for x in xs)


def _params(case: int, **kw) -> ModelParams:
    b, c, d = CASES[case]
    p = ModelParams(**{**dict(gamma=0.5, epsilon=1e-2, mu=1e-2, mu2=1.0,
                              a=0.0, b=b, c=c, d=d), **kw})
    assert classify_case(p).case_id == case
    return p


def equivalence_lines():
    for n in (16, 32):
        grid = GridSpec.square(n, 32.0 * math.pi, dim=2)
        for case in CASES:
            cfg = RunConfig(kind="equivalence", params=_params(case), grid=grid,
                            amplitude=0.5, seed=42, s=2.0, num_states=8,
                            epsilons=LEVELS, mus=LEVELS)
            for r in equivalence_study(cfg):
                yield (f"equivalence n={n} case={case} eps={r.epsilon} mu={r.mu} "
                       f"{r.case_id} {_hex(r.ratio_min, r.ratio_max)}")


def report_lines():
    grids = [GridSpec.square(n, 2.0 * math.pi, dim=2) for n in (16, 32, 64, 128)]
    grids.append(GridSpec.square(64, 2.0 * math.pi, dim=1))
    for grid in grids:
        for case in CASES:
            p = _params(case, gamma=0.7, epsilon=0.2, mu=0.1, mu2=0.2)
            state = make_initial_state(grid, p, profile="random_bandlimited",
                                       amplitude=0.3, seed=7 + case, velocity="random")
            label = f"n={grid.n} case={case}"
            for s in (0.0, 1.5, 2.0):
                rep = energy_report(state, s=s)
                cols = _hex(rep.hamiltonian, rep.E_s, rep.calE_s, rep.ratio,
                            rep.x0_norm, rep.noncav, rep.smallness)
                yield f"report {label} s={s} {cols}"
            yield f"coercivity {label} {_hex(hamiltonian_coercivity_form(state))}"
            dz, dv = variational_gradients(state)
            digest = hashlib.sha256(b"".join(h.tobytes() for h in (dz, *dv)))
            yield f"gradients {label} {digest.hexdigest()}"


# family -> names of the float.hex values that end each of its lines
FAMILIES = {"equivalence": ("ratio_min", "ratio_max"),
            "report": ("hamiltonian", "E_s", "calE_s", "ratio", "x0_norm", "noncav",
                       "smallness"),
            "coercivity": ("coercivity",)}


def _values(path: str) -> dict:
    """label -> values of every line of an output file; a gradients line's
    value is its digest."""
    out = {}
    with open(path) as fh:
        for line in fh:
            family = line.split(" ", 1)[0]
            width = len(FAMILIES.get(family, ("digest",)))
            label, *vals = line.rstrip("\n").rsplit(" ", width)
            out[label] = vals if family == "gradients" else [float.fromhex(v) for v in vals]
    return out


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(path_a: str, path_b: str) -> list[str]:
    a, b = _values(path_a), _values(path_b)
    if a.keys() != b.keys():
        raise SystemExit(f"the files label different lines: {sorted(a.keys() ^ b.keys())[:5]}")
    lines = []
    for family, names in FAMILIES.items():
        labels = [k for k in a if k.startswith(family + " ")]
        for i, name in enumerate(names):
            worst = max((_rel(a[k][i], b[k][i]) for k in labels), default=0.0)
            lines.append(f"{family} {name} max_rel_change {worst:.3g} over {len(labels)} lines")
    labels = [k for k in a if k.startswith("gradients ")]
    equal = sum(a[k] == b[k] for k in labels)
    lines.append(f"gradients sha_equal {equal} of {len(labels)} lines")
    return lines


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        print("\n".join(compare(*sys.argv[2:4])))
    else:
        for line in (*equivalence_lines(), *report_lines()):
            print(line)
