"""Tests for the evolve output hasher, tests/evolve_outputs.py, on its
smallest configuration."""

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
