"""Property tests of one step of IF-RK4 and of the classical RK4 oracle over
the eight coefficient cases, of the energy layer's products, and of the
config and snapshot round trips.

Each step property runs on a 16^2 grid and a 64-point line.  Hypothesis
draws the state seed, the amplitude parameter and the step length; it is
derandomized with few examples so the suite stays deterministic and quick.
States are dealiased, as every make_initial_state recipe is, so they carry
no Nyquist content: on an even grid the Nyquist mode is its own mirror
image, and an odd multiplier such as i*xi makes it complex.  Steps stay
inside classical RK4's stability bound dt*max(Omega_sys) <= 2.8.  The
mover step runs on the two-thirds band and the energy layer's products
on the rfftn half lattice.  The band step's bitwise parity with the
half-lattice IF-RK4 oracle (tests/half_lattice_oracle.py), the parity of
that oracle's forcing and of the energy products with full-lattice
oracles, and the bitwise pairing Z+(-xi) = conj Z-(xi) of the returned
movers are checked here too.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
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
from bfdsim import evolution
from bfdsim.energy import (
    _pair,
    hamiltonian,
    sobolev_weight,
    symmetrizer_apply,
    variational_gradients,
)
from bfdsim.evolution import step_exponential
from bfdsim.initial_data import PROFILES, VELOCITIES
from bfdsim.spectral import TWO_PI, dealias
from bfdsim.symbols import multipliers, symbol_table

import half_lattice_oracle
import rk4_oracle
from half_lattice_oracle import extend_half, full_abs2_xi, full_dealias_mask, full_xi_mesh

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
    return rk4_oracle.step(state, dt)


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


# Hermitian-weighted sums against the full lattice ---------------------------

SUM_GRIDS = (GridSpec.square(64, TWO_PI, dim=1), GridSpec.square(16, TWO_PI, dim=2),
             GridSpec(n=(12, 8), length=(TWO_PI, 3.0)))


@PROPERTY
@given(seed=seeds, s=st.floats(min_value=0.0, max_value=3.0),
       k=st.integers(min_value=0, max_value=2))
def test_half_lattice_sums_equal_the_full_lattice_sums(seed, s, k):
    """spectral_l2_sq, abs2_l2_sq and the E_s pairing _pair weigh the half
    lattice's columns the Hermitian way (0 and n/2 once, the rest twice).
    On undealiased real fields, which carry content on columns 0 and n/2,
    they equal the sums over the full lattice that extend_half rebuilds to
    1e-14 relative, and the pairing's imaginary residue is roundoff."""
    for grid in SUM_GRIDS:
        rng = np.random.default_rng(seed)
        f, other = (SpectralField.from_real(grid, rng.standard_normal(grid.n)).hat
                    for _ in range(2))
        g = f + 0.5 * other
        full_f, full_g = _full(grid, f), _full(grid, g)
        assert np.all(f[..., 0] != 0.0) and np.all(f[..., -1] != 0.0)
        weight = sobolev_weight(grid, s, k, 0.1)
        k2 = full_abs2_xi(grid)
        full_weight = (1.0 + k2) ** s * ((1.0 + 0.1**k * k2**k) if k > 0 else 1.0)
        norm = grid.cell_volume / grid.npoints
        for w, fw in ((None, None), (weight, full_weight)):
            want = half_lattice_oracle.full_l2_sq(grid, full_f, fw)
            assert abs(grid.spectral_l2_sq(f, w) - want) <= 1e-14 * want
            abs2 = f.real**2 + f.imag**2
            assert abs(grid.abs2_l2_sq(abs2, w) - want) <= 1e-14 * want
        want = norm * complex(np.sum(full_weight * full_f * np.conj(full_g)))
        got, = _pair(grid, weight, (f,), g[None])
        assert abs(got.real - want.real) <= 1e-14 * abs(want)
        assert abs(got.imag) <= 1e-14 * abs(want) and abs(want.imag) <= 1e-14 * abs(want)


# mover stages against full-lattice oracles ----------------------------------

positive_epsilons = st.floats(min_value=0.01, max_value=0.3)


def _reflect(hat: np.ndarray) -> np.ndarray:
    """hat(-xi) on the full lattice."""
    for ax in range(hat.ndim):
        hat = np.roll(np.flip(hat, axis=ax), 1, axis=ax)
    return hat


def _full(grid, hat: np.ndarray) -> np.ndarray:
    """The full-lattice spectrum of a real field, from its half lattice."""
    return extend_half(grid, hat, hat)


def _forcing_oracle(state: FieldState):
    """f+- of the stage kernel's docstring (bfdsim.evolution._stage) on the
    full lattice: fftn/ifftn, the full two-thirds mask, and the Helmholtz
    factors and the impedance written out here (A from multipliers)."""
    grid, p = state.grid, state.params
    mu, k2 = p.mu, full_abs2_xi(grid)
    A = multipliers(k2, p)["A"]
    helm_b, helm_d = 1.0 + p.b * mu * k2, 1.0 + p.d * mu * k2
    r = np.sqrt(A * helm_d / (p.gamma * (1.0 - p.gamma) * (1.0 - p.c * mu * k2) * helm_b))
    zeta = np.fft.ifftn(_full(grid, state.zeta.hat)).real
    v = [np.fft.ifftn(_full(grid, c.hat)).real for c in state.v]
    mask = full_dealias_mask(grid)
    div_zv = sum(1j * xi * np.fft.fftn(zeta * vj) * mask
                 for xi, vj in zip(full_xi_mesh(grid), v))
    vsq = np.fft.fftn(sum(vj * vj for vj in v)) * mask
    common = p.epsilon / p.gamma * div_zv / helm_b
    split = p.epsilon / (2.0 * p.gamma) * r * 1j * np.sqrt(k2) * vsq / helm_d
    return common + split, common - split


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(seed=seeds, epsilon=positive_epsilons)
def test_half_lattice_forcing_matches_a_full_lattice_oracle(case, seed, epsilon):
    for grid in GRIDS:
        state = _state(grid, _params(case, epsilon), seed)
        for got, want in zip(half_lattice_oracle.forcing(diagonalize(state)),
                             _forcing_oracle(state)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _energy_oracle(state: FieldState, arg_z, arg_v):
    """symmetrizer_apply(state, arg_z, arg_v), hamiltonian(state) and
    variational_gradients(state) on the full lattice: fftn/ifftn, the full
    two-thirds mask, and every formula written out here (A, g and 1 - c mu
    |xi|^2 from multipliers).  arg_z and arg_v are full-lattice spectra."""
    grid, p = state.grid, state.params
    k2 = full_abs2_xi(grid)
    sym = multipliers(k2, p)
    gamma, eps, mu = p.gamma, p.epsilon, p.mu
    gg, omc, A, g = gamma * (1.0 - gamma), sym["one_minus_cmu"], sym["A"], sym["g"]
    helm_d = 1.0 + p.d * mu * k2
    mask = full_dealias_mask(grid)
    zhat, *vhats = (_full(grid, f.hat) for f in (state.zeta, *state.v))
    z = np.fft.ifftn(zhat).real
    v = [np.fft.ifftn(vh).real for vh in vhats]
    dims = range(grid.dim)

    def mult(coeff, hat):
        return np.fft.fftn(coeff * np.fft.ifftn(hat).real) * mask

    def vv(j, k):
        return np.fft.ifftn(np.fft.fftn(v[j] * v[k]) * mask).real

    variant = classify_case(p).variant
    if variant == "b=d":
        out_z = gg * omc * arg_z - eps * sum(mult(v[j], arg_v[j]) for j in dims)
        out_v = [A * arg_v[j] - eps * mult(z, arg_v[j]) - eps * mult(v[j], arg_z)
                 for j in dims]
    elif variant == "b!=d":
        out_z = (gg * gg * omc**2 * g * arg_z
                 - gg * eps * g * sum(mult(v[j], omc * arg_v[j]) for j in dims))
        out_v = [gg * (A * omc * arg_v[j] - eps * mult(z, omc * arg_v[j]))
                 - gg * eps * g * mult(v[j], omc * arg_z)
                 + eps**2 * sum(mult(vv(j, k), (g - 1.0) * arg_v[k]) for k in dims)
                 for j in dims]
    else:
        out_z = (gg * gg * omc**2 * arg_z
                 - gg * eps * sum(mult(v[j], omc * arg_v[j]) for j in dims))
        out_v = [gg * omc * (A * helm_d * arg_v[j] - eps * mult(z, helm_d * arg_v[j]))
                 - gg * eps * mult(v[j], omc * arg_z)
                 - p.d * eps**2 * mu * sum(mult(vv(j, k), k2 * arg_v[k])
                                           for k in dims)
                 for j in dims]

    vsq = sum(vj * vj for vj in v)
    l2_sq = half_lattice_oracle.full_l2_sq
    ham = 0.5 * ((1.0 - gamma) * l2_sq(grid, zhat, weight=omc)
                 + sum(l2_sq(grid, vh, weight=A) for vh in vhats) / gamma
                 - eps / gamma * grid.integral(z * np.fft.ifftn(np.fft.fftn(vsq) * mask).real))
    dz = (1.0 - gamma) * omc * zhat - eps / (2.0 * gamma) * np.fft.fftn(vsq) * mask
    dv = [A / gamma * vh - eps / gamma * np.fft.fftn(z * vj) * mask
          for vh, vj in zip(vhats, v)]
    return (out_z, *out_v), ham, (dz, *dv)


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(seed=seeds, epsilon=positive_epsilons)
def test_energy_products_match_a_full_lattice_oracle(case, seed, epsilon):
    """The energy layer forms its products and sums on the half lattice
    (GridSpec.product_hat, GridSpec.hermitian_sum); every output agrees
    with the full-lattice oracle to 1e-13 relative, in all three
    symmetrizer variants."""
    for grid in GRIDS:
        state = _state(grid, _params(case, epsilon), seed)
        lam = 1.0 + grid.abs2_xi
        arg_z = lam * state.zeta.hat
        arg_v = tuple(lam * c.hat for c in state.v)
        want_s, want_h, want_g = _energy_oracle(
            state, _full(grid, arg_z), tuple(_full(grid, a) for a in arg_v))
        s_z, s_v = symmetrizer_apply(state, SpectralField(grid, hat=arg_z),
                                     tuple(SpectralField(grid, hat=a) for a in arg_v),
                                     classify_case(state.params).variant)
        g_z, g_v = variational_gradients(state)
        for got, want in zip((s_z, *s_v, g_z, *g_v), want_s + want_g):
            half = want[..., :grid.half_shape[-1]]
            assert np.max(np.abs(got - half)) <= 1e-13 * np.max(np.abs(want))
        assert abs(hamiltonian(state) - want_h) <= 1e-13 * abs(want_h)


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(seed=seeds, epsilon=positive_epsilons, fraction=fractions)
def test_step_pairs_the_movers_bitwise(case, seed, epsilon, fraction):
    """One step returns Z+(-xi) = conj Z-(xi) exactly, W_hat and the zero
    mode untouched.  The movers are checked on the whole lattice they
    stand for (half_lattice_oracle.whole), where only the self-conjugate
    columns can break the pairing."""
    for grid in GRIDS:
        state = _state(grid, _params(case, epsilon), seed)
        om_max = float(np.max(symbol_table(grid, state.params).Omega))
        diag = diagonalize(state)
        out = step_exponential(diag, fraction * min(0.2, 2.8 / om_max))
        whole_p = half_lattice_oracle.whole(grid, out.Zp_hat, out.Zm_hat)
        whole_m = half_lattice_oracle.whole(grid, out.Zm_hat, out.Zp_hat)
        assert np.array_equal(_reflect(whole_p), np.conj(whole_m))
        assert out.zero_mode == diag.zero_mode
        if grid.dim == 1:
            assert out.W_hat is None
        else:
            assert np.array_equal(out.W_hat, diag.W_hat)


# the two-thirds band against the half lattice ----------------------------------

ORACLE_GRIDS = (GridSpec.square(32, TWO_PI, dim=2), GridSpec.square(64, TWO_PI, dim=2),
                GridSpec.square(64, TWO_PI, dim=1))


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: "x".join(map(str, g.n)))
@pytest.mark.parametrize("case", sorted(CASES))
def test_band_steps_equal_the_half_lattice_oracle_bitwise(case, grid):
    """From a state built with dealias, 50 steps on the two-thirds band
    equal, bitwise, 50 steps of the half-lattice oracle, and every mover
    is exactly 0 off the band: the band stepper drops only zeros."""
    state = _state(grid, _params(case, 0.2), 40 + case)
    band = oracle = diagonalize(state)
    for _ in range(50):
        band = step_exponential(band, 0.02)
        oracle = half_lattice_oracle.step(oracle, 0.02)
    off = ~grid.dealias_mask
    for got, want in ((band.Zp_hat, oracle.Zp_hat), (band.Zm_hat, oracle.Zm_hat)):
        assert np.array_equal(got, want)
        assert np.all(got[off] == 0.0)


# one workspace for every grid: the stage buffers of step_exponential ----------

REUSE_GRIDS = (GridSpec.square(64, TWO_PI, dim=1), GridSpec.square(16, TWO_PI, dim=2),
               GridSpec(n=(12, 8), length=(TWO_PI, 3.0)))
# (grid, case 2 (b = d) or case 1 (b != d), step h, -h or a short last one);
# the lengths do not depend on the case, so the two cases share them
REUSE_STEPS = [(g, case, h) for g in range(len(REUSE_GRIDS)) for case in (2, 1)
               for h in (0.05, -0.05, 0.02)]
reuse_orders = st.lists(st.integers(0, len(REUSE_STEPS) - 1), min_size=6, max_size=12)


def _reuse_step(index: int, seed: int):
    """The diag and the step length of REUSE_STEPS[index]."""
    g, case, h = REUSE_STEPS[index]
    grid = REUSE_GRIDS[g]
    return diagonalize(_state(grid, _params(case, 0.2), seed + index)), h


@PROPERTY
@example(seed=7, order=[0, 3, 4, 1, 7, 6, 9, 13, 16, 12, 15, 0, 2, 5, 17, 14, 8, 11])
@given(seed=seeds, order=reuse_orders)
def test_interleaved_steps_equal_steps_in_a_fresh_workspace(seed, order):
    """Steps interleaved over grid shapes, parameter sets and step lengths
    equal, bitwise, the same steps each taken first in a fresh workspace.
    A returned state is unchanged by the next step, and mutating it leaves
    that step unchanged, so no output aliases a buffer."""
    fresh = {}
    for index in set(order):
        evolution._LOCAL.ws = None
        fresh[index] = step_exponential(*_reuse_step(index, seed))
    taken = []
    for index in order:
        taken.append((step_exponential(*_reuse_step(index, seed)), index))
        for out, i in taken[-2:]:
            assert np.array_equal(out.Zp_hat, fresh[i].Zp_hat)
            assert np.array_equal(out.Zm_hat, fresh[i].Zm_hat)
        if len(taken) > 1:
            out = taken[-2][0]
            for arr in (out.Zp_hat, out.Zm_hat, out.W_hat):
                if arr is not None:
                    arr.fill(np.nan)


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


# the defaults, and every key set by hand: the alpha family (which echoes
# as a..d), a 2-D grid.n with one grid.length, and grid.dim, none of which
# the strategy draws
EVERY_KEY = [
    "model.gamma=0.5", "model.epsilon=0.2", "model.mu=0.3", "model.mu2=0.4",
    "model.alpha1=0.75", "model.beta=0.25", "model.alpha2=-1.0",
    "model.case_override=1",
    "grid.n=32,16", "grid.length=7.5", "grid.dim=2",
    "scheme.dt=0.01", "scheme.max_t=2.5", "scheme.cadence=3",
    "initial.profile=mode", "initial.amplitude=0.7", "initial.seed=99",
    "initial.width=0.3", "initial.mode_k=2,-1", "initial.velocity=zero",
    "initial.snapshot=start.bfd",
    "output.dir=myout", "output.snapshot_every=2", "output.plot_script=yes",
    "study.epsilons=0.2,0.1", "study.mus=0.3,0.15", "study.growth_factor=3",
    "study.s=2.5", "study.dts=0.4,0.2", "study.num_states=7",
    "study.smallness_target=0.125",
]


@ROUND_TRIP
@given(sets=overrides())
@example(sets=[])
@example(sets=EVERY_KEY)
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
