"""Every demo runs against the package and leaves its manifests.

Each demo is copied into a temporary directory and run there as a script
with ``PYTHONPATH`` pointing at ``src``, so its artifacts land beside the
copy and nothing is written under the checkout's ``demos/out/``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = REPO / "demos"

# the manifests each demo writes, relative to its own directory
MANIFESTS = {
    "01_dispersion_and_symbols.py": [],
    "02_hamiltonian_conservation.py": ["out/conservation/conservation_manifest.json"],
    "03_lifespan_sweep.py": [f"out/lifespan/eps_{eps}/lifespan_manifest.json"
                             for eps in ("0.1", "0.05", "0.025")],
    "04_energy_equivalence.py": [f"out/equivalence/case_{case}/equivalence_manifest.json"
                                 for case in (1, 7)],
    "05_smallness_persistence.py": ["out/smallness/smallness_manifest.json"],
}


def _tree(path: Path) -> list[str]:
    """Every path under path, relative to it; [] when it does not exist."""
    return sorted(str(p.relative_to(path)) for p in path.rglob("*"))


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(MANIFESTS)


@pytest.mark.parametrize("demo", sorted(MANIFESTS))
def test_demo_runs_and_writes_its_manifests(tmp_path, demo):
    before = _tree(DEMOS / "out")
    script = tmp_path / demo
    shutil.copy(DEMOS / demo, script)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for manifest in MANIFESTS[demo]:
        assert (tmp_path / manifest).is_file(), manifest
    assert _tree(DEMOS / "out") == before
