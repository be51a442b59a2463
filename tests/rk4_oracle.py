"""Classical RK4 on the Helmholtz-inverted primitive equations: a test oracle.

The package integrates with IF-RK4 only (bfdsim.evolution).  The tests
cross-check it against this independent scheme, which steps rhs_hat on
the full lattice.  RK4 is stable on the imaginary axis up to
dt*max(Omega_sys) <= 2.8, so stable_dt caps the advective default there.
"""

import numpy as np

from bfdsim import FieldState, SpectralField, default_dt, rhs_hat, symbol_table

# RK4's stability bound on the imaginary axis, in units of 1/max(Omega_sys)
RK4_CAP = 2.8


def step(state: FieldState, dt: float) -> FieldState:
    """One RK4 step on the Helmholtz-inverted primitive equations.

    Precondition: no content on the Nyquist modes, or the step leaves a
    non-Hermitian spectrum.
    """
    grid = state.grid
    p = state.params
    tab = symbol_table(grid, p)
    z0 = state.zeta.hat
    v0 = tuple(c.hat for c in state.v)

    def f(zh, vh):
        return rhs_hat(zh, vh, grid, p, table=tab)

    k1z, k1v = f(z0, v0)
    k2z, k2v = f(z0 + dt / 2 * k1z, tuple(a + dt / 2 * b for a, b in zip(v0, k1v)))
    k3z, k3v = f(z0 + dt / 2 * k2z, tuple(a + dt / 2 * b for a, b in zip(v0, k2v)))
    k4z, k4v = f(z0 + dt * k3z, tuple(a + dt * b for a, b in zip(v0, k3v)))

    z1 = z0 + dt / 6 * (k1z + 2 * k2z + 2 * k3z + k4z)
    v1 = tuple(a + dt / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
               for a, b1, b2, b3, b4 in zip(v0, k1v, k2v, k3v, k4v))
    return FieldState(t=state.t + dt,
                      zeta=SpectralField(grid, hat=z1),
                      v=tuple(SpectralField(grid, hat=h) for h in v1),
                      params=p)


def run(state: FieldState, dt: float, steps: int) -> FieldState:
    """state after the given number of RK4 steps of length dt."""
    for _ in range(steps):
        state = step(state, dt)
    return state


def stable_dt(state: FieldState) -> float:
    """default_dt capped at RK4_CAP / max(Omega_sys), with Omega_sys =
    |xi| sqrt(omega1 omega2 g) the frequency of the linear flow."""
    dt = default_dt(state)
    om_max = float(np.max(symbol_table(state.grid, state.params).Omega))
    if om_max > 0.0:
        dt = min(dt, RK4_CAP / om_max)
    return dt
