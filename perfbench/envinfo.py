"""Environment block recorded with every benchmark result.

Everything here is read-only: versions, CPU and cache sizes (getconf or
sysfs), the thread settings the worker ran with, and the source commit when
the checkout is a git repository.  The benchmark changes no machine setting.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("BFD_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

MACHINE_LIMITS = ("no CPU pinning, no frequency-governor change and no cache "
                  "dropping; other tenants of the machine may add noise")


def _run(cmd, cwd=None, env=None) -> str | None:
    try:
        done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = done.stdout.strip()
    return out if done.returncode == 0 and out else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_size(level: int) -> str | None:
    value = _run(["getconf", f"LEVEL{level}_CACHE_SIZE"])
    if value and value != "0":
        return f"{int(value) // 1024}K"
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) == level:
                return (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return None


def _fft_backend(np) -> str:
    fft = np.fft
    inner = "pocketfft" if any(hasattr(fft, n) for n in ("_pocketfft", "_pocketfft_umath")) else "unknown"
    return f"numpy.fft ({inner})"


def collect(root: Path) -> dict:
    """Environment of the current (worker) process; numpy must be imported."""
    import numpy as np

    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "fft_backend": _fft_backend(np),
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        # the ceiling keeps git from reading repositories above the checkout
        "git_commit": _run(["git", "rev-parse", "HEAD"], cwd=root,
                           env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))),
        "machine_controls": MACHINE_LIMITS,
    }
