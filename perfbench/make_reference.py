"""Regenerates equivalence_reference.json, the stored ratios that the
equivalence-32sq workload is checked against.

    python3 perfbench/make_reference.py

Run it from the root of a bfdsim checkout, only when the workload's inputs
change (never to make a failing check pass).  It evaluates the workload's
two equivalence studies for each of the EQUIV_VARIANTS base seeds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from spans import NullTracer  # noqa: E402
from workloads import (  # noqa: E402
    EQUIV_VARIANTS,
    REFERENCE_FILE,
    Equivalence32,
    equivalence_base_seed,
)

# relative tolerance of the check: roundoff-level, so a reordered sum passes
# and a wrong ratio does not
REL_TOLERANCE = 1e-9


def main() -> int:
    ratios = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for variant in range(EQUIV_VARIANTS):
            base = equivalence_base_seed(variant)
            wl = Equivalence32({"base_seed": base}, Path(tmp), NullTracer().span,
                               check_reference=False)
            wl.setup()
            ratios[str(base)] = {
                str(case_id): [[r.ratio_min, r.ratio_max] for r in wl.study(case_id)]
                for case_id in wl.cases}
            num_states = wl.num_states
    doc = {"num_states": num_states, "rel_tolerance": REL_TOLERANCE,
           "levels": list(Equivalence32.levels), "ratios": ratios}
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(ratios)} seeds to {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
