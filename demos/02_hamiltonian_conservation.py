#!/usr/bin/env python3
"""Hamiltonian drift of the integrating-factor RK4 scheme.

With equal Helmholtz coefficients (b = d) the system conserves a cubic
Hamiltonian.  The integrator does not enforce that conservation, so the
drift of H along a trajectory is an honest global error meter:

  * the integrating-factor scheme treats the stiff linear part exactly and
    keeps the drift near roundoff at practical step sizes;
  * on a coarse dt ladder the drift scales like dt^4 or better, which the
    conservation study fits automatically.

Artifacts (drift CSV + manifest) land in demos/out/conservation/.
"""

from pathlib import Path

import numpy as np

from bfdsim import (
    GridSpec,
    ModelParams,
    SchemeConfig,
    StudyConfig,
    conservation_study,
    evolve,
    hamiltonian,
    make_initial_state,
)


def main():
    params = ModelParams(gamma=0.9, epsilon=0.05, mu=0.05, mu2=1.0,
                         a=0.0, b=5.0 / 24.0, c=-1.0 / 12.0, d=5.0 / 24.0)
    grid = GridSpec.square(32, 2.0 * np.pi, dim=2)
    state = make_initial_state(grid, params, profile="gaussian",
                               amplitude=0.5, seed=7, width=0.8,
                               velocity="right-mover")

    h0 = hamiltonian(state)
    drift = 0.0

    def watch(snap):
        nonlocal drift
        drift = max(drift, abs(hamiltonian(snap) - h0) / abs(h0))

    summary = evolve(state, SchemeConfig(dt=0.01, max_t=10.0, cadence=50),
                     monitors=(watch,))
    print(f"integrating factor, dt=0.01, t in [0, 10]: "
          f"{summary.steps} steps, relative H drift {drift:.3e}")

    out = Path(__file__).parent / "out" / "conservation"
    study = StudyConfig(kind="conservation", params=params, grid=grid,
                        max_t=10.0, profile="gaussian",
                        amplitude=0.5, seed=7, width=0.8,
                        velocity="right-mover", dts=(0.4, 0.2, 0.1),
                        out_dir=str(out))
    result = conservation_study(study)
    print("\ncoarse-step ladder (drift resolves the truncation error):")
    for dt, d in zip(result.dts, result.drifts):
        print(f"  dt={dt:4.2f}  relative drift {d:.3e}")
    print(f"fitted drift order in dt: {result.order_fit:.2f}")
    print(f"wrote {out}/conservation.csv")


if __name__ == "__main__":
    main()
