"""Property tests of one step of each scheme over the eight coefficient cases.

Each property runs on a 16^2 grid and a 64-point line.  Hypothesis draws
the state seed, the amplitude parameter and the step length; it is
derandomized with few examples so the suite stays deterministic and quick.
States are dealiased, as every make_initial_state recipe is, so they carry
no Nyquist content: on an even grid the Nyquist mode is its own mirror
image, and an odd multiplier such as i*xi makes it complex.  Steps stay
inside classical RK4's stability bound dt*max(Omega_sys) <= 2.8.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from bfdsim import (
    FieldState,
    GridSpec,
    ModelParams,
    SpectralField,
    classify_case,
    diagonalize,
    undiagonalize,
)
from bfdsim.evolution import step_classical, step_exponential
from bfdsim.spectral import TWO_PI, dealias
from bfdsim.symbols import symbol_table

B, C, D = 5.0 / 24.0, -1.0 / 12.0, 1.0 / 6.0

# case id -> (b, c, d), one row per case of the case table
CASES = {
    1: (B, C, D),
    2: (B, C, B),
    3: (B, C, 0.0),
    4: (B, 0.0, D),
    5: (0.0, C, B),
    6: (0.0, 0.0, B),
    7: (0.0, C, 0.0),
    8: (0.0, 0.0, 0.0),
}

GRIDS = (GridSpec.square(16, TWO_PI, dim=2), GridSpec.square(64, TWO_PI, dim=1))

# no shrink phase: a failure reports its first example at once
PROPERTY = settings(max_examples=4, derandomize=True, deadline=None,
                    phases=(Phase.explicit, Phase.generate))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
epsilons = st.floats(min_value=0.0, max_value=0.3)
fractions = st.floats(min_value=0.01, max_value=1.0)


def _params(case: int, epsilon: float) -> ModelParams:
    b, c, d = CASES[case]
    p = ModelParams(gamma=0.7, epsilon=epsilon, mu=0.1, mu2=0.2,
                    a=0.0, b=b, c=c, d=d)
    assert classify_case(p).case_id == case
    return p


def _state(grid: GridSpec, params: ModelParams, seed: int) -> FieldState:
    """Dealiased random state with nonzero means."""
    rng = np.random.default_rng(seed)
    band = 1.0 / (1.0 + grid.abs2_xi) ** 2

    def field():
        vals = grid.ifft_real(grid.fft(rng.standard_normal(grid.n)) * band)
        vals = 0.2 * vals / np.max(np.abs(vals)) + rng.uniform(-0.1, 0.1)
        return dealias(SpectralField(grid, real=vals))

    return FieldState(t=0.0, zeta=field(), v=tuple(field() for _ in range(grid.dim)),
                      params=params)


def _one_step(state: FieldState, scheme: str, fraction: float) -> FieldState:
    """One step of fraction * min(0.2, 2.8/max(Omega_sys))."""
    om_max = float(np.max(symbol_table(state.grid, state.params).Omega))
    dt = fraction * min(0.2, 2.8 / om_max)
    if scheme == "exponential":
        return undiagonalize(step_exponential(diagonalize(state), dt))
    return step_classical(state, dt)


def _hats(state: FieldState):
    return [state.zeta.hat] + [c.hat for c in state.v]


@pytest.mark.parametrize("scheme", ["exponential", "classical"])
@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(seed=seeds, epsilon=epsilons, fraction=fractions)
def test_step_conserves_the_zero_mode_bitwise(case, scheme, seed, epsilon, fraction):
    for grid in GRIDS:
        state = _state(grid, _params(case, epsilon), seed)
        after = _one_step(state, scheme, fraction)
        origin = (0,) * grid.dim
        for before_hat, after_hat in zip(_hats(state), _hats(after)):
            assert after_hat[origin] == before_hat[origin]


@pytest.mark.parametrize("scheme", ["exponential", "classical"])
@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(seed=seeds, epsilon=epsilons, fraction=fractions)
def test_step_keeps_spectra_hermitian(case, scheme, seed, epsilon, fraction):
    for grid in GRIDS:
        after = _one_step(_state(grid, _params(case, epsilon), seed), scheme, fraction)
        for hat in _hats(after):
            assert np.all(np.isfinite(hat))
            assert grid.is_hermitian(hat)


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(seed=seeds, dt=st.floats(min_value=1e-3, max_value=5.0))
def test_linear_step_is_the_exact_phase(case, seed, dt):
    """At eps = 0 one IF-RK4 step multiplies Z+- by exp(-+ i Omega_sys dt),
    with Omega_sys = |xi| sqrt(A (1-gamma)(1 - c mu |xi|^2) /
    (gamma (1 + b mu |xi|^2)(1 + d mu |xi|^2))) written out here."""
    for grid in GRIDS:
        p = _params(case, 0.0)
        tab = symbol_table(grid, p)
        omega_sys = np.sqrt(grid.abs2_xi * tab.A * (1.0 - p.gamma) * tab.one_minus_cmu
                            / (p.gamma * tab.helmholtz_b * tab.helmholtz_d))
        diag = diagonalize(_state(grid, p, seed))
        out = step_exponential(diag, dt)
        scale = max(np.max(np.abs(diag.Zp_hat)), np.max(np.abs(diag.Zm_hat)))
        phase = np.exp(-1j * dt * omega_sys)
        assert np.max(np.abs(out.Zp_hat - phase * diag.Zp_hat)) <= 1e-12 * scale
        assert np.max(np.abs(out.Zm_hat - np.conj(phase) * diag.Zm_hat)) <= 1e-12 * scale
