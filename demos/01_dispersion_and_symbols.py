#!/usr/bin/env python3
"""Dispersion multipliers of the two-layer wave family.

Every linear property of the system is carried by a handful of Fourier
multipliers: the interface operator sigma, the combined transport symbol A,
the Helmholtz ratio g, the quadratic-form weights omega1/omega2, and the
dispersion frequency Omega = Im lambda_plus.  This demo tabulates them on a
1-d grid, checks the two structural facts worth remembering --

  * sigma(0) = 1 and sigma grows like sqrt(mu2)|xi| for large |xi|,
  * the eigenvalues of the linearized system are purely imaginary
    (neutral oscillations, no growth),

and prints the phase speed Omega/|xi| to show the waves are dispersive.
"""

import numpy as np

from bfdsim import GridSpec, ModelParams
from bfdsim.symbols import symbol_table


def main():
    params = ModelParams(gamma=0.9, epsilon=0.1, mu=0.1, mu2=1.0,
                         a=0.0, b=5.0 / 24.0, c=-1.0 / 12.0, d=5.0 / 24.0)
    grid = GridSpec.square(256, 2.0 * np.pi, dim=1)
    tab = symbol_table(grid, params)

    sigma = np.broadcast_to(np.asarray(tab.sigma), grid.half_shape)
    omega = np.broadcast_to(np.asarray(tab.Omega), grid.half_shape)
    xi = grid.abs_xi

    print("dispersion multipliers at gamma=%.1f, mu=%.2f, mu2=%.0f"
          % (params.gamma, params.mu, params.mu2))
    print(f"{'xi':>6} {'sigma':>12} {'A':>12} {'Omega':>12} {'Omega/xi':>12}")
    A = np.broadcast_to(np.asarray(tab.A), grid.half_shape)
    for k in (0, 1, 2, 4, 8, 16, 32, 64, 127):
        speed = omega[k] / xi[k] if xi[k] > 0 else float("nan")
        print(f"{xi[k]:6.1f} {sigma[k]:12.6f} {A[k]:12.6f} "
              f"{omega[k]:12.6f} {speed:12.6f}")

    # structural checks
    s = np.sqrt(params.mu2) * xi
    assert sigma[0] == 1.0
    assert np.all(sigma >= np.maximum(1.0, s))
    print("\nsigma(0) = 1 and sigma >= max(1, sqrt(mu2)|xi|) at every mode")

    lam = np.broadcast_to(np.asarray(tab.lambda_plus), grid.half_shape)
    print("max |Re lambda_plus| =", float(np.max(np.abs(lam.real))),
          "(purely imaginary spectrum)")

    speeds = omega[1:grid.n[0] // 2] / xi[1:grid.n[0] // 2]
    print("phase speed ranges over [%.4f, %.4f] across the spectrum: "
          "dispersive" % (speeds.min(), speeds.max()))


if __name__ == "__main__":
    main()
