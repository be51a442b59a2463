"""Tests for the evolve output hasher, tests/evolve_outputs.py, on its
smallest configuration, and of both output scripts' --compare."""

import os
import subprocess
import sys
from pathlib import Path

import evolve_outputs


def test_quick_set_runs_every_case_and_eps_and_repeats_bitwise():
    """The quick set hashes cases 1, 2 and 7 at eps = 0 and 0.1 on a line
    and a 30^2 grid; every run takes eight full steps and a short last one,
    and a second pass prints the same lines."""
    lines = list(evolve_outputs.lines(evolve_outputs.QUICK_GRIDS))
    assert len(lines) == len(evolve_outputs.QUICK_GRIDS) * 3 * 2
    assert all(" steps=9 terminated_by=max_t sha256=" in line for line in lines)
    assert len({line.rsplit("=", 1)[1] for line in lines}) == len(lines)
    assert list(evolve_outputs.lines(evolve_outputs.QUICK_GRIDS[:1])) == lines[:6]


def test_compare_names_the_runs_that_differ(tmp_path):
    lines = list(evolve_outputs.lines(evolve_outputs.QUICK_GRIDS[:1]))
    a, b, c = (tmp_path / name for name in ("a.txt", "b.txt", "c.txt"))
    a.write_text("\n".join(lines) + "\n")
    changed = lines[3].rsplit("=", 1)[0] + "=" + "0" * 64
    b.write_text("\n".join(lines[:3] + [changed] + lines[4:]) + "\n")
    c.write_text("\n".join(lines[1:]) + "\n")
    assert evolve_outputs.compare(str(a), str(a)) == []
    label = lines[3].split(" steps=")[0]
    assert evolve_outputs.compare(str(a), str(b)) == [f"differs: {label}"]
    assert evolve_outputs.compare(str(a), str(c)) == [
        f"only in {a}: {lines[0].split(' steps=')[0]}"]


def test_both_compares_run_without_bfdsim_importable(tmp_path):
    """--compare of evolve_outputs.py and energy_outputs.py reads only the
    two files, so it runs with no PYTHONPATH to the package."""
    scripts = Path(__file__).parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def compare(script, a, b):
        return subprocess.run([sys.executable, str(scripts / script), "--compare", a, b],
                              cwd=tmp_path, env=env, capture_output=True, text=True)

    run = "evolve case=1 eps=0.0 n=64 steps=9 terminated_by=max_t sha256="
    (tmp_path / "a.txt").write_text(run + "0" * 64 + "\n")
    (tmp_path / "b.txt").write_text(run + "1" * 64 + "\n")
    same, differ = (compare("evolve_outputs.py", "a.txt", x) for x in ("a.txt", "b.txt"))
    assert (same.returncode, same.stdout, same.stderr) == (0, "no difference in 1 runs\n", "")
    assert (differ.returncode, differ.stdout) == (1, "differs: " + run.split(" steps=")[0] + "\n")

    one = (1.0).hex()
    (tmp_path / "e.txt").write_text(
        f"equivalence n=16 case=1 eps=0.01 mu=0.01 1 {one} {one}\n"
        f"report n=(16, 16) case=1 s=0.0 {' '.join([one] * 7)}\n"
        f"gradients n=(16, 16) case=1 {'0' * 64}\n")
    done = compare("energy_outputs.py", "e.txt", "e.txt")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "equivalence ratio_min max_rel_change 0 over 1 lines"
    assert done.stdout.splitlines()[-1] == "gradients sha_equal 1 of 1 lines"
