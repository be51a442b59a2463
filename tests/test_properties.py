"""Property tests of one step of each scheme over the eight coefficient
cases, and of the config and snapshot round trips.

Each step property runs on a 16^2 grid and a 64-point line.  Hypothesis
draws the state seed, the amplitude parameter and the step length; it is
derandomized with few examples so the suite stays deterministic and quick.
States are dealiased, as every make_initial_state recipe is, so they carry
no Nyquist content: on an even grid the Nyquist mode is its own mirror
image, and an odd multiplier such as i*xi makes it complex.  Steps stay
inside classical RK4's stability bound dt*max(Omega_sys) <= 2.8.
"""

import tempfile
from pathlib import Path

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
    parse_config,
    read_snapshot,
    undiagonalize,
    write_snapshot,
)
from bfdsim.evolution import step_classical, step_exponential
from bfdsim.initial_data import PROFILES, VELOCITIES
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


# round trips ----------------------------------------------------------------

ROUND_TRIP = settings(max_examples=25, derandomize=True, deadline=None,
                      phases=(Phase.explicit, Phase.generate))


def _floats(lo, hi, **kw):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, **kw)


def _float_list(lo, hi, **kw):
    return st.lists(_floats(lo, hi, **kw), min_size=1, max_size=4)


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


@st.composite
def overrides(draw) -> list[str]:
    """--set overrides for every key, each drawn inside its domain."""
    dim = draw(st.sampled_from([1, 2]))
    sets = {
        "model.gamma": draw(_floats(0.01, 0.99)),
        "model.epsilon": draw(_floats(0.0, 1.0)),
        "model.mu": draw(_floats(1e-3, 10.0)),
        "model.mu2": draw(_floats(1e-3, 10.0)),
        "model.a": draw(_floats(-1.0, 0.0)),
        "model.b": draw(st.just(0.0) | _floats(0.0, 1.0)),
        "model.c": draw(st.just(0.0) | _floats(-1.0, 0.0)),
        "model.d": draw(st.just(0.0) | _floats(0.0, 1.0)),
        "model.case_override": draw(st.none() | st.sampled_from([1, 3, 7, 8])),
        "grid.n": _csv(draw(st.lists(st.integers(2, 256).map(lambda k: 2 * k),
                                     min_size=dim, max_size=dim))),
        "grid.length": _csv(draw(st.lists(_floats(1e-3, 1e3, exclude_min=True),
                                          min_size=dim, max_size=dim))),
        "scheme.scheme": draw(st.sampled_from(["exponential", "classical"])),
        "scheme.dt": draw(st.none() | _floats(1e-6, 1.0)),
        "scheme.max_t": draw(_floats(0.0, 1e4)),
        "scheme.cadence": draw(st.integers(1, 1000)),
        "initial.profile": draw(st.sampled_from(PROFILES)),
        "initial.amplitude": draw(_floats(0.0, 10.0)),
        "initial.seed": draw(st.integers(0, 2**31)),
        "initial.width": draw(st.none() | _floats(1e-3, 100.0)),
        "initial.mode_k": draw(st.none() | st.lists(st.integers(-8, 8), min_size=dim,
                                                    max_size=dim).map(_csv)),
        "initial.velocity": draw(st.sampled_from(VELOCITIES)),
        "initial.snapshot": draw(st.none() | st.sampled_from(["start.bfd", "runs/a b.bfd"])),
        "output.dir": draw(st.sampled_from(["out", "runs/x", "a b"])),
        "output.snapshot_every": draw(st.integers(0, 100)),
        "output.plot_script": draw(st.booleans()),
        "study.epsilons": _csv(draw(_float_list(1e-4, 1.0))),
        "study.mus": draw(st.none() | _float_list(1e-4, 1.0).map(_csv)),
        "study.growth_factor": draw(_floats(1.0, 10.0, exclude_min=True)),
        "study.s": draw(st.none() | _floats(0.0, 8.0)),
        "study.dts": _csv(draw(_float_list(1e-4, 1.0))),
        "study.num_states": draw(st.integers(1, 1000)),
        "study.smallness_target": draw(_floats(1e-3, 10.0)),
    }
    return [f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"
            for key, value in sets.items() if value is not None]


def _ini(echo: dict) -> str:
    """An INI file holding every echoed value (None as an empty value)."""
    lines = []
    for section, keys in echo.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if value is None:
                text = ""
            elif isinstance(value, list):
                text = _csv(value)
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


@ROUND_TRIP
@given(sets=overrides())
def test_config_echo_reparses_to_the_same_config(sets):
    cfg = parse_config(None, sets)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "echo.ini"
        path.write_text(_ini(cfg.echo()))
        assert parse_config(str(path)) == cfg


@ROUND_TRIP
@given(n=st.lists(st.integers(2, 24).map(lambda k: 2 * k), min_size=1, max_size=2),
       lengths=st.lists(_floats(1e-6, 1e6, exclude_min=True), min_size=2, max_size=2),
       t=st.floats(allow_nan=False, allow_infinity=False),
       seed=seeds)
def test_snapshot_round_trip_is_bit_exact(n, lengths, t, seed):
    """Every float64 bit pattern, NaNs and signed zeros included, comes back."""
    grid = GridSpec(n=tuple(n), length=tuple(lengths[:len(n)]))
    rng = np.random.default_rng(seed)
    bits = [rng.integers(0, 2**64, size=grid.n, dtype=np.uint64, endpoint=False)
            for _ in range(grid.dim + 1)]
    state = FieldState.from_arrays(grid, _params(2, 0.1), bits[0].view(np.float64),
                                   [b.view(np.float64) for b in bits[1:]], t=t)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.bfd"
        write_snapshot(path, state)
        t_read, grid_read, zeta, v = read_snapshot(path)
    assert repr(t_read) == repr(t)
    assert grid_read == grid
    for got, want in zip((zeta, *v), bits):
        assert np.array_equal(got.view(np.uint64), want)
