"""Tests for diagonalization, IF-RK4, and the evolve driver; classical RK4
(tests/rk4_oracle.py) is the independent cross-check."""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from bfdsim import (
    BlowUpSignal,
    FieldState,
    GridSpec,
    ModelParams,
    ParameterDomainError,
    SchemeConfig,
    SpectralField,
    default_dt,
    diagonalize,
    evolve,
    make_initial_state,
    undiagonalize,
)
from bfdsim import evolution
from bfdsim.energy import x_norm_state
from bfdsim.evolution import (
    BLOWUP_NORM,
    DiagState,
    step_exponential,
)
from bfdsim.spectral import TWO_PI, dealias, divergence, gradient
from bfdsim.symbols import symbol_table

import half_lattice_oracle
import rk4_oracle


def _params(**kw):
    base = dict(gamma=0.9, epsilon=0.1, mu=0.1, mu2=0.1,
                a=0.0, b=5.0 / 24.0, c=-1.0 / 12.0, d=5.0 / 24.0)
    base.update(kw)
    return ModelParams(**base)


# (b, c, d) of cases 2 (b = d), 1 (b != d), 3 (d = 0), 5 (b = 0), 7 (b = d = 0)
COEFFS = {
    "case2": (5.0 / 24.0, -1.0 / 12.0, 5.0 / 24.0),
    "case1": (0.25, -1.0 / 12.0, 1.0 / 6.0),
    "case3": (5.0 / 12.0, -1.0 / 12.0, 0.0),
    "case5": (0.0, -1.0 / 12.0, 5.0 / 24.0),
    "case7": (0.0, -1.0 / 12.0, 0.0),
}


def _case_params(case, **kw):
    b, c, d = COEFFS[case]
    return _params(b=b, c=c, d=d, **kw)


def _random_state(grid, params, seed, scale=0.1):
    """Smooth random state, dealiased like every make_initial_state recipe
    (evolve rejects Nyquist content)."""
    rng = np.random.default_rng(seed)
    band = grid.dealias_mask / (1.0 + grid.abs2_xi) ** 2

    def field():
        hat = grid.fft(rng.standard_normal(grid.n)) * band
        f = SpectralField(grid, real=grid.ifft_real(hat))
        peak = np.max(np.abs(f.values))
        return (scale / peak) * f if peak > 0 else f

    return FieldState(t=0.0, zeta=field(),
                      v=tuple(field() for _ in range(grid.dim)), params=params)


def _rotated_gradient(psi: SpectralField):
    """(-d2 psi, d1 psi), a divergence-free planar field."""
    d1, d2 = gradient(psi)
    return (-1.0 * d2, d1)


def _state_diff(a: FieldState, b: FieldState) -> float:
    out = np.max(np.abs(a.zeta.values - b.zeta.values))
    for x, y in zip(a.v, b.v):
        out = max(out, np.max(np.abs(x.values - y.values)))
    return float(out)


# ---------------------------------------------------------------------------
# SchemeConfig
# ---------------------------------------------------------------------------

def test_scheme_config_validation():
    with pytest.raises(ParameterDomainError):
        SchemeConfig(dt=0.1, max_t=1.0, scheme="leapfrog")
    # classical RK4 is a test oracle (rk4_oracle), not a scheme
    with pytest.raises(ParameterDomainError, match="unknown scheme 'classical'"):
        SchemeConfig(dt=0.1, max_t=1.0, scheme="classical")
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterDomainError, match="dt must be finite"):
            SchemeConfig(dt=bad, max_t=1.0)
        with pytest.raises(ParameterDomainError, match="max_t must be finite"):
            SchemeConfig(dt=0.1, max_t=bad)
    with pytest.raises(ParameterDomainError):
        SchemeConfig(dt=0.0, max_t=1.0)
    with pytest.raises(ParameterDomainError):
        SchemeConfig(dt=0.1, max_t=1.0, cadence=0)


# ---------------------------------------------------------------------------
# Diagonalization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_diagonal_round_trip(dim):
    grid = GridSpec.square(16, TWO_PI, dim=dim)
    p = _params()
    for seed in range(20):
        state = _random_state(grid, p, seed, scale=0.5)
        back = undiagonalize(diagonalize(state))
        assert _state_diff(state, back) < 1e-12


def test_diagonalize_accepts_distinct_coefficients():
    grid = GridSpec.square(8, TWO_PI, dim=2)
    for case in ("case1", "case3", "case5"):
        state = _random_state(grid, _case_params(case), 0, scale=0.5)
        back = undiagonalize(diagonalize(state))
        assert _state_diff(state, back) < 1e-12


def test_gradient_velocity_has_no_rotation():
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params()
    rng = np.random.default_rng(3)
    phi = SpectralField(grid, real=rng.standard_normal(grid.n))
    state = FieldState(t=0.0, zeta=SpectralField.zeros(grid),
                       v=gradient(phi), params=p)
    diag = diagonalize(state)
    np.testing.assert_allclose(np.abs(diag.W_hat), 0.0, atol=1e-10)


def test_solenoidal_velocity_is_pure_rotation():
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params()
    rng = np.random.default_rng(4)
    psi = SpectralField(grid, real=rng.standard_normal(grid.n))
    state = FieldState(t=0.0, zeta=SpectralField.zeros(grid),
                       v=_rotated_gradient(psi), params=p)
    diag = diagonalize(state)
    scale = np.max(np.abs(diag.W_hat))
    assert np.max(np.abs(diag.Zp_hat)) < 1e-10 * scale
    assert np.max(np.abs(diag.Zm_hat)) < 1e-10 * scale


@pytest.mark.parametrize("case", list(COEFFS))
def test_right_mover_lives_on_one_branch(case):
    """The paired initial velocity puts the positive half-lattice entirely
    in the forward mover."""
    grid = GridSpec.square(32, TWO_PI, dim=1)
    p = _case_params(case)
    state = make_initial_state(grid, p, profile="random_bandlimited",
                               amplitude=0.2, seed=5, velocity="right-mover")
    diag = diagonalize(state)
    pos = grid.xi_mesh[0] > 0
    scale = np.max(np.abs(diag.Zp_hat))
    assert np.max(np.abs(diag.Zm_hat[pos])) < 1e-12 * scale


def test_undiagonalize_equal_movers():
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params()
    rng = np.random.default_rng(6)
    f = SpectralField(grid, real=rng.standard_normal(grid.n))
    hat = f.hat.copy()
    hat[0, 0] = 0.0
    diag = DiagState(t=0.0, Zp_hat=hat.copy(), Zm_hat=hat.copy(),
                     W_hat=np.zeros(grid.half_shape, dtype=complex),
                     zero_mode=(0.0, (0.0, 0.0)), grid=grid, params=p)
    state = undiagonalize(diag)
    np.testing.assert_allclose(state.zeta.hat, hat, atol=1e-13)
    for comp in state.v:
        np.testing.assert_allclose(comp.values, 0.0, atol=1e-13)


def test_undiagonalize_rotation_only():
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params()
    rng = np.random.default_rng(7)
    W = grid.fft(rng.standard_normal(grid.n))
    W[0, 0] = 0.0
    # no content on the Nyquist lines, like every state evolve accepts
    W[grid.n[0] // 2, :] = 0.0
    W[:, grid.n[1] // 2] = 0.0
    zero = np.zeros(grid.half_shape, dtype=complex)
    diag = DiagState(t=0.0, Zp_hat=zero.copy(), Zm_hat=zero.copy(), W_hat=W,
                     zero_mode=(0.0, (0.0, 0.0)), grid=grid, params=p)
    state = undiagonalize(diag)
    np.testing.assert_allclose(state.zeta.values, 0.0, atol=1e-13)
    div = divergence(state.v)
    assert np.max(np.abs(div.values)) < 1e-13


def test_undiagonalize_zero_mode_only():
    grid = GridSpec.square(16, TWO_PI, dim=2)
    zero = np.zeros(grid.half_shape, dtype=complex)
    diag = DiagState(t=0.0, Zp_hat=zero.copy(), Zm_hat=zero.copy(),
                     W_hat=zero.copy(),
                     zero_mode=(complex(grid.npoints), (0.0, 0.0)),
                     grid=grid, params=_params())
    state = undiagonalize(diag)
    np.testing.assert_allclose(state.zeta.values, 1.0, atol=1e-13)


# ---------------------------------------------------------------------------
# Nonlinear forcing of the movers: the stage of the half-lattice oracle,
# which test_properties ties to the band stage bitwise
# ---------------------------------------------------------------------------

def test_forcing_vanishes_without_velocity():
    grid = GridSpec.square(16, TWO_PI, dim=1)
    p = _params(epsilon=0.5)
    state = FieldState.from_arrays(grid, p, 0.3 * np.cos(grid.x_mesh[0]),
                                   (np.zeros(grid.n),))
    fp, fm = half_lattice_oracle.forcing(diagonalize(state))
    assert np.max(np.abs(fp)) < 1e-15 and np.max(np.abs(fm)) < 1e-15


def test_forcing_vanishes_at_eps_zero():
    grid = GridSpec.square(16, TWO_PI, dim=2)
    state = _random_state(grid, _params(epsilon=0.0), 8)
    fp, fm = half_lattice_oracle.forcing(diagonalize(state))
    assert np.all(fp == 0.0) and np.all(fm == 0.0)


def test_forcing_single_mode_convolution_oracle():
    """zeta = alpha*cos(x), v = beta*cos(x) on 16 points: the quadratic
    products have modes {0, +-2} only, and the +-2 coefficients follow from
    the two-term hand convolution."""
    grid = GridSpec.square(16, TWO_PI, dim=1)
    gamma, eps = 0.5, 0.4
    p = _case_params("case1", gamma=gamma, epsilon=eps)
    alpha, beta = 0.25, 0.4
    x = grid.x_mesh[0]
    state = FieldState.from_arrays(grid, p, alpha * np.cos(x),
                                   (beta * np.cos(x),))
    fp, fm = half_lattice_oracle.forcing(diagonalize(state))

    tab = symbol_table(grid, p)
    n = grid.n[0]
    # fft(cos(2x)) puts n/2 at indices +-2; the products are
    # zeta*v = alpha*beta*(1 + cos 2x)/2 and |v|^2 = beta^2*(1 + cos 2x)/2
    zv_hat2 = alpha * beta / 2.0 * (n / 2.0)
    vsq_hat2 = beta**2 / 2.0 * (n / 2.0)
    xi2 = 2.0
    common = eps / gamma * (1j * xi2 * zv_hat2) / tab.helmholtz_b[2]
    split = (eps / (2 * gamma) * tab.ratio_sqrt[2] * 1j * xi2 * vsq_hat2
             / tab.helmholtz_d[2])
    assert fp[2] == pytest.approx(common + split, rel=1e-12)
    assert fm[2] == pytest.approx(common - split, rel=1e-12)
    # nothing anywhere else except the conjugate mode
    others = np.ones(n, dtype=bool)
    others[[2, n - 2]] = False
    assert np.max(np.abs(fp[others])) < 1e-13
    assert fp[0] == 0.0 and fm[0] == 0.0


# ---------------------------------------------------------------------------
# Stepping: exactness, order, invariants
# ---------------------------------------------------------------------------

def test_exponential_step_exact_at_eps_zero():
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.0)
    diag = diagonalize(_random_state(grid, p, 9, scale=0.5))
    tab = symbol_table(grid, p)
    for dt in (0.05, 0.7, 3.0):
        out = step_exponential(diag, dt)
        np.testing.assert_allclose(out.Zp_hat,
                                   np.exp(-1j * dt * tab.Omega) * diag.Zp_hat,
                                   atol=1e-14)
        np.testing.assert_allclose(out.Zm_hat,
                                   np.exp(1j * dt * tab.Omega) * diag.Zm_hat,
                                   atol=1e-14)
        np.testing.assert_array_equal(out.W_hat, diag.W_hat)
        assert out.zero_mode == diag.zero_mode


def test_linear_dispersion_phase_velocity():
    """A single forward mover accumulates phase Omega(xi)*t within 1e-10."""
    grid = GridSpec.square(32, TWO_PI, dim=1)
    p = _params(epsilon=0.0)
    tab = symbol_table(grid, p)
    k = 3
    Zp = np.zeros(grid.half_shape, dtype=complex)
    Zp[k] = 1.0
    Zm = Zp.copy()
    diag = DiagState(t=0.0, Zp_hat=Zp, Zm_hat=Zm, W_hat=None,
                     zero_mode=(0.0, (0.0,)), grid=grid, params=p)
    t_end, dt = 2.0, 0.125
    for _ in range(int(round(t_end / dt))):
        diag = step_exponential(diag, dt)
    measured = -np.angle(diag.Zp_hat[k])  # phase in (-pi, pi]
    expected = float(tab.Omega[k]) * t_end
    assert measured % (2 * np.pi) == pytest.approx(expected % (2 * np.pi),
                                                   abs=1e-10)


def test_step_rejects_unpaired_movers():
    """At eps != 0 the step sets column 0's rows k_0 < 0 from the partner,
    so a single forward mode there, Z+(-3, 0) = 1 with no Z-(3, 0) to pair
    it, raises instead of silently stepping a different state."""
    grid = GridSpec.square(16, TWO_PI, dim=2)
    Zp = np.zeros(grid.half_shape, dtype=complex)
    Zp[-3, 0] = 1.0
    single = DiagState(t=0.0, Zp_hat=Zp, Zm_hat=np.zeros_like(Zp),
                       W_hat=np.zeros_like(Zp), zero_mode=(0.0, (0.0, 0.0)), grid=grid,
                       params=_params(epsilon=1e-9))
    with pytest.raises(ParameterDomainError, match=r"Z\+\(-xi\) = conj Z-\(xi\)"):
        step_exponential(single, 0.125)


@pytest.mark.parametrize("dim", [1, 2])
def test_step_accepts_hand_built_paired_movers(dim):
    """A hand-built copy of a diagonalize output passes the pairing check
    and steps bitwise like the original."""
    grid = GridSpec.square(16, TWO_PI, dim=dim)
    p = _params()
    diag = diagonalize(_random_state(grid, p, 8, scale=0.5))
    hand = DiagState(t=diag.t, Zp_hat=diag.Zp_hat.copy(), Zm_hat=diag.Zm_hat.copy(),
                     W_hat=diag.W_hat, zero_mode=diag.zero_mode, grid=grid, params=p)
    want, got = step_exponential(diag, 0.05), step_exponential(hand, 0.05)
    np.testing.assert_array_equal(got.Zp_hat, want.Zp_hat)
    np.testing.assert_array_equal(got.Zm_hat, want.Zm_hat)


def test_classical_step_order_four():
    """Halving dt cuts the eps > 0 global error by about 2^4."""
    grid = GridSpec.square(32, TWO_PI, dim=1)
    p = _params(gamma=0.5, epsilon=0.3)
    state = make_initial_state(grid, p, profile="gaussian", amplitude=0.3,
                               width=1.0, seed=1)
    t_end = 0.4

    def run_classical(dt):
        return rk4_oracle.run(state, dt, int(round(t_end / dt)))

    ref = state
    for _ in range(int(round(t_end / 1e-3))):
        ref = step_exponential(diagonalize(ref), 1e-3)
        ref = undiagonalize(ref)

    errs = [_state_diff(run_classical(dt), ref) for dt in (0.02, 0.01)]
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


@pytest.mark.parametrize("case", list(COEFFS))
def test_cross_scheme_agreement(case):
    grid = GridSpec.square(32, TWO_PI, dim=1)
    p = _case_params(case, gamma=0.5, epsilon=0.3)
    state = make_initial_state(grid, p, profile="gaussian", amplitude=0.3,
                               width=1.0, seed=2)
    a = evolve(state, SchemeConfig(dt=1e-3, max_t=0.2)).final_state
    b = rk4_oracle.run(state, 1e-3, 200)
    scale = np.max(np.abs(a.zeta.values))
    assert _state_diff(a, b) < 1e-6 * max(scale, 1.0)


def test_classical_preserves_mover_moduli_linear():
    """eps = 0: RK4 keeps every |Z+-| within 1e-10 per unit time when the
    step resolves the fastest phase."""
    grid = GridSpec.square(16, TWO_PI, dim=1)
    p = _params(epsilon=0.0)
    tab = symbol_table(grid, p)
    dt = min(0.01, 0.01 / float(np.max(tab.Omega)))
    state = _random_state(grid, p, 10, scale=0.5)
    before = diagonalize(state)
    t_end = 1.0
    after = diagonalize(rk4_oracle.run(state, dt, int(round(t_end / dt))))
    drift = max(np.max(np.abs(np.abs(after.Zp_hat) - np.abs(before.Zp_hat))),
                np.max(np.abs(np.abs(after.Zm_hat) - np.abs(before.Zm_hat))))
    scale = max(np.max(np.abs(before.Zp_hat)), np.max(np.abs(before.Zm_hat)))
    assert drift <= 1e-10 * t_end * scale


@pytest.mark.parametrize("scheme", ["exponential", "classical"])
def test_time_reversal_linear(scheme):
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.0)
    state = _random_state(grid, p, 11, scale=0.5)
    dt = 1e-3
    if scheme == "exponential":
        diag = diagonalize(state)
        back = undiagonalize(step_exponential(step_exponential(diag, dt), -dt))
    else:
        back = rk4_oracle.step(rk4_oracle.step(state, dt), -dt)
    assert _state_diff(state, back) < 1e-12


@pytest.mark.parametrize("scheme", ["exponential", "classical"])
def test_means_conserved_bitwise(scheme):
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.4)
    state = _random_state(grid, p, 12, scale=0.4)
    # plant nonzero means
    zvals = state.zeta.values + 0.125
    vvals = [c.values + 0.0625 * (j + 1) for j, c in enumerate(state.v)]
    state = FieldState.from_arrays(grid, p, zvals, vvals)
    z0 = state.zeta.hat[0, 0]
    v0 = [c.hat[0, 0] for c in state.v]

    if scheme == "exponential":
        final = evolve(state, SchemeConfig(dt=0.02, max_t=0.4)).final_state
    else:
        final = rk4_oracle.run(state, 0.02, 20)
    assert final.zeta.hat[0, 0] == z0
    for comp, m in zip(final.v, v0):
        assert comp.hat[0, 0] == m


# the one value SchemeConfig's scheme keyword admits, passed explicitly
@pytest.mark.parametrize("scheme", ["exponential"])
def test_evolve_rejects_nyquist_content(scheme):
    """On an even grid the Nyquist wavenumber -n/2 has no mirror image, so a
    step would leave a non-Hermitian spectrum: evolve refuses such a state,
    and the dealiased state runs."""
    cfg = SchemeConfig(dt=0.01, max_t=0.05, scheme=scheme)
    for grid in (GridSpec.square(16, TWO_PI, dim=2), GridSpec.square(64, TWO_PI, dim=1)):
        rng = np.random.default_rng(21)
        noise = [0.05 * rng.standard_normal(grid.n) for _ in range(grid.dim + 1)]
        state = FieldState.from_arrays(grid, _params(), noise[0], noise[1:])
        with pytest.raises(ParameterDomainError, match="Nyquist content .* dealias"):
            evolve(state, cfg)
        clean = FieldState(t=0.0, zeta=dealias(state.zeta),
                           v=tuple(dealias(c) for c in state.v), params=state.params)
        assert evolve(clean, cfg).terminated_by == "max_t"


@pytest.mark.parametrize("dim", [1, 2])
def test_evolve_rejects_content_just_off_the_band(dim):
    """The eps != 0 stepper runs on the two-thirds band, so evolve refuses
    a state whose only content off the band sits one mode past the cutoff,
    |k| = n/3 + 1, away from the Nyquist modes."""
    grid = GridSpec.square(48 if dim == 1 else 24, TWO_PI, dim=dim)
    k = grid.n[0] // 3 + 1
    x = grid.x_mesh[0]
    zeta = 0.1 * np.cos(x) + 1e-6 * np.cos(k * x)
    state = FieldState.from_arrays(grid, _params(), zeta,
                                   [0.05 * np.sin(x)] + [np.zeros(grid.n)] * (dim - 1))
    with pytest.raises(ParameterDomainError, match="Nyquist content .* dealias"):
        evolve(state, SchemeConfig(dt=0.01, max_t=0.05))


def test_step_rejects_the_diagonalize_output_of_an_undealiased_state():
    """diagonalize keeps content off the band (gates round-trip such
    states), so at eps != 0 step_exponential rejects its output instead
    of dropping that content; at eps = 0 the step is the exact phase on
    the full lattice and takes it."""
    grid = GridSpec.square(16, TWO_PI, dim=2)
    rng = np.random.default_rng(4)
    noise = [0.05 * rng.standard_normal(grid.n) for _ in range(3)]
    for eps in (0.1, 0.0):
        diag = diagonalize(FieldState.from_arrays(grid, _params(epsilon=eps),
                                                  noise[0], noise[1:]))
        if eps == 0.0:
            assert np.any(step_exponential(diag, 0.05).Zp_hat[~grid.dealias_mask] != 0.0)
            continue
        with pytest.raises(ParameterDomainError, match="off the two-thirds band"):
            step_exponential(diag, 0.05)


def test_step_rejects_rotational_content_off_the_band():
    """The stage forms the rotational part of v_hat from the band of W_hat
    alone, so at eps != 0 step_exponential refuses a state whose only
    content off the band is rotational: v = (1e-3 k cos(k y), 0) with k =
    n/3 + 1 on top of on-band data, rotational part included.  Its movers
    are on the band; W_hat is 18 % off it."""
    grid = GridSpec.square(24, TWO_PI, dim=2)
    x, y = grid.x_mesh
    k = grid.n[0] // 3 + 1
    state = FieldState.from_arrays(
        grid, _params(), 0.1 * np.cos(x),
        [0.05 * np.sin(x) + 1e-3 * k * np.cos(k * y), 0.05 * np.sin(x)])
    diag = diagonalize(state)
    evolution._require_on_band(dataclasses.replace(diag, W_hat=np.zeros_like(diag.W_hat)))
    with pytest.raises(ParameterDomainError, match="off the two-thirds band"):
        step_exponential(diag, 0.01)
    with pytest.raises(ParameterDomainError, match="off the two-thirds band"):
        evolve(state, SchemeConfig(dt=0.01, max_t=0.05))


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_evolve_runs_the_band_check_once(monkeypatch, eps):
    """evolve checks its start state once, at every eps, and its steps
    check nothing again."""
    calls = []
    check = evolution._require_on_band

    def counted(diag):
        calls.append(diag.t)
        check(diag)

    monkeypatch.setattr(evolution, "_require_on_band", counted)
    grid = GridSpec.square(16, TWO_PI, dim=2)
    state = _random_state(grid, _params(epsilon=eps), 5)
    assert evolve(state, SchemeConfig(dt=0.01, max_t=0.05, cadence=2)).steps == 5
    assert calls == [0.0]


def _padded_band(grid: GridSpec, Z: np.ndarray) -> np.ndarray:
    """The two-thirds band of Z on a half lattice of zeros."""
    out = np.zeros(grid.half_shape, dtype=complex)
    for b, f in grid.band_blocks:
        out[f] = grid.band(Z)[b]
    return out


def _band_check_oracle(diag: DiagState):
    """(unpaired, off_band, total) of the band check, read off the full
    lattice: each mover, and W_hat in 2-D, as the whole lattice it stands
    for, against the extension of the bands padded with zeros to half
    lattices (the movers paired with each other, W_hat with itself)."""
    grid = diag.grid
    pairs = [(diag.Zp_hat, diag.Zm_hat), (diag.Zm_hat, diag.Zp_hat)]
    if diag.W_hat is not None:
        pairs.append((diag.W_hat, diag.W_hat))
    kept = half_lattice_oracle.full_dealias_mask(grid)
    unpaired = off_band = total = 0.0
    for Z, P in pairs:
        whole = half_lattice_oracle.whole(grid, Z, P)
        seen = half_lattice_oracle.extend_half(grid, _padded_band(grid, Z),
                                               _padded_band(grid, P))
        miss = np.abs(whole - seen) ** 2
        unpaired += float(np.sum(miss[kept]))
        off_band += float(np.sum(miss[~kept]))
        total += float(np.sum(np.abs(whole) ** 2))
    return unpaired, off_band, total


def _band_check_cases(grid: GridSpec):
    """States the band check must accept or reject, by name: a diagonalize
    output, and copies of it with a mover, or in 2-D W_hat, moved off the
    pairing or off the band (in the Nyquist column n/2 too, which the
    Hermitian weights count once), far from the limit and close to it
    (1e-13 and 1e-11 relative)."""
    diag = diagonalize(_random_state(grid, _params(), 8, scale=0.5))
    arrays = {"Zp_hat": diag.Zp_hat, "Zm_hat": diag.Zm_hat, "W_hat": diag.W_hat}
    scale = math.sqrt(sum(float(np.sum(np.abs(a) ** 2))
                          for a in arrays.values() if a is not None))
    c, k = grid.band_shape[-1], grid.n[0] // 3
    nyquist_column = (-2, -1) if grid.dim == 2 else (-1,)
    past_band = (k + 1, 1) if grid.dim == 2 else (c,)
    between_rows = (grid.n[0] // 2, 0) if grid.dim == 2 else (grid.n[0] // 2,)
    column0 = (-k, 0) if grid.dim == 2 else (0,)
    yield "paired", diag
    moves = [("Zp_hat", where) for where in (nyquist_column, past_band, between_rows, column0)]
    if grid.dim == 2:
        moves += [("W_hat", where) for where in (past_band, column0, nyquist_column)]
    for name, where in moves:
        for rel in (1.0, 1e-11, 1e-13):
            moved = arrays[name].copy()
            moved[where] += rel * scale
            yield f"{name} {where} {rel:g}", dataclasses.replace(diag, **{name: moved})


@pytest.mark.parametrize("n", [(64,), (16, 16), (24, 18)], ids=str)
def test_band_check_matches_the_full_lattice_check(n):
    """The band check reads the movers block by block.  It accepts and
    rejects what the full-lattice reading does, and reports the same
    defects to the printed digits."""
    grid = GridSpec(n=n, length=(TWO_PI,) * len(n))
    for name, diag in _band_check_cases(grid):
        unpaired, off_band, total = _band_check_oracle(diag)
        if unpaired + off_band <= evolution.BAND_TOL**2 * total:
            evolution._require_on_band(diag)
            continue
        with pytest.raises(ParameterDomainError) as err:
            evolution._require_on_band(diag)
        assert (f"by {math.sqrt(unpaired / total):.3e} and carry "
                f"{math.sqrt(off_band / total):.3e} off") in str(err.value), name


def test_band_check_allocates_less_than_one_full_lattice_array():
    """At 256^2 the check of a diagonalize output peaks below one
    full-lattice complex array (1 MiB) of traced allocation."""
    grid = GridSpec.square(256, TWO_PI, dim=2)
    diag = diagonalize(_random_state(grid, _params(), 3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evolution._require_on_band(diag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < grid.npoints * np.dtype(np.complex128).itemsize


def test_rotation_frozen_nonlinearly():
    """W = |D|^-1 curl v never moves: bitwise under IF-RK4, to roundoff
    under the classical RK4 oracle."""
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.4)
    rng = np.random.default_rng(13)
    psi = dealias(SpectralField(grid, real=rng.standard_normal(grid.n)))
    zeta = make_initial_state(grid, p, amplitude=0.2, seed=13).zeta
    grad = gradient(zeta)
    rot = _rotated_gradient(psi)
    v = tuple(0.1 * a + 0.05 * b for a, b in zip(grad, rot))
    state = FieldState(t=0.0, zeta=zeta, v=v, params=p)
    W0 = diagonalize(state).W_hat

    exp_final = evolve(state, SchemeConfig(dt=0.02, max_t=0.5)).final_state
    np.testing.assert_allclose(diagonalize(exp_final).W_hat, W0, atol=1e-13)

    cls_final = rk4_oracle.run(state, 0.02, 25)
    np.testing.assert_allclose(diagonalize(cls_final).W_hat, W0, atol=1e-12)


# ---------------------------------------------------------------------------
# default_dt
# ---------------------------------------------------------------------------

def test_default_dt_formulas():
    grid = GridSpec.square(32, TWO_PI, dim=1)
    p = _params(gamma=0.5, epsilon=0.4)
    x = grid.x_mesh[0]
    state = FieldState.from_arrays(grid, p, 0.1 * np.cos(x), (0.5 * np.cos(x),))
    dx = TWO_PI / 32
    expect = 0.9 * dx / (0.4 * 0.5 / 0.5 + 1.0)
    assert default_dt(state) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("b, d", [(0.25, 1.0 / 6.0), (5.0 / 12.0, 0.0)],
                         ids=["case1", "case3"])
def test_default_dt_classical_stable_for_distinct_coefficients(b, d):
    """The RK4 oracle's cap uses the frequency of the primitive system,
    |xi| sqrt(A(1-gamma)(1-c mu|xi|^2) / (gamma(1+b mu|xi|^2)(1+d mu|xi|^2))),
    so a linear run on the capped dt stays finite."""
    grid = GridSpec.square(256, TWO_PI, dim=1)
    p = _params(gamma=0.5, epsilon=0.0, b=b, d=d)
    state = make_initial_state(grid, p, profile="gaussian", amplitude=0.1)
    dt = rk4_oracle.stable_dt(state)
    k2 = grid.abs2_xi
    A = symbol_table(grid, p).A
    om_sys = np.sqrt(k2 * A * (1.0 - p.gamma) * (1.0 - p.c * p.mu * k2)
                     / (p.gamma * (1.0 + p.b * p.mu * k2) * (1.0 + p.d * p.mu * k2)))
    assert dt * np.max(om_sys) <= 2.8 * (1.0 + 1e-12)
    final = rk4_oracle.run(state, dt, 2000)
    assert final.is_finite()
    assert x_norm_state(final, 0.0, 1, 1) <= BLOWUP_NORM


def test_second_step_allocates_little_beyond_its_output():
    """With the stage buffers in place, a repeated 128^2 step allocates its
    two half-lattice output spectra and the transforms' transients: a
    traced peak of at most 3 half-lattice complex arrays (2.04 measured).
    Fresh per-stage temporaries would peak near 24."""
    grid = GridSpec.square(128, TWO_PI, dim=2)
    p = _params(epsilon=0.1)
    diag = step_exponential(diagonalize(_random_state(grid, p, 21)), 0.05)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step_exponential(diag, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 3 * math.prod(grid.half_shape) * np.dtype(np.complex128).itemsize


@pytest.mark.parametrize("n, dim", [(64, 2), (128, 2), (64, 1)])
def test_a_step_transforms_each_stage_as_two_stacks(monkeypatch, n, dim):
    """Each of the four stages makes one ifft_real of its dim + 1 fields and
    one fft (product_hat) of its dim + 1 products, each a stack, so a step
    makes 4 of each; and every step reads the impedance tab.ratio_sqrt the
    same nonzero number of times."""
    grid = GridSpec.square(n, TWO_PI, dim=dim)
    diag = diagonalize(_random_state(grid, _params(epsilon=0.1), 22))
    shapes = {"fft": [], "ifft_real": [], "ratio_sqrt": []}
    for name in ("fft", "ifft_real"):
        inner = getattr(GridSpec, name)

        def counting(self, arr, *args, _inner=inner, _seen=shapes[name], **kw):
            _seen.append(arr.shape)
            return _inner(self, arr, *args, **kw)

        monkeypatch.setattr(GridSpec, name, counting)
    table = type(symbol_table(grid, diag.params))
    impedance = table.ratio_sqrt.fget
    monkeypatch.setattr(table, "ratio_sqrt", property(
        lambda tab: shapes["ratio_sqrt"].append(None) or impedance(tab)))
    reads = []
    for _ in range(3):
        for seen in shapes.values():
            seen.clear()
        diag = step_exponential(diag, 0.05)
        assert shapes["fft"] == [(dim + 1,) + grid.n] * 4
        assert shapes["ifft_real"] == [(dim + 1,) + grid.band_shape] * 4
        reads.append(len(shapes["ratio_sqrt"]))
    assert reads[0] > 0 and reads == [reads[0]] * 3


# ---------------------------------------------------------------------------
# evolve(): monitors, events, termination
# ---------------------------------------------------------------------------

def test_evolve_zero_data_is_quiet():
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.3)
    state = FieldState.from_arrays(grid, p, np.zeros(grid.n),
                                   (np.zeros(grid.n), np.zeros(grid.n)))
    seen = []
    summary = evolve(state, SchemeConfig(dt=0.1, max_t=1.0),
                     monitors=(seen.append,))
    assert summary.events == []
    assert summary.terminated_by == "max_t"
    assert summary.steps == 10
    assert np.all(summary.final_state.zeta.values == 0.0)
    assert all(np.all(s.zeta.values == 0.0) for s in seen)


def test_evolve_monitor_cadence():
    grid = GridSpec.square(16, TWO_PI, dim=1)
    state = _random_state(grid, _params(), 15)
    times = []
    evolve(state, SchemeConfig(dt=0.1, max_t=1.0, cadence=3),
           monitors=(lambda s: times.append(round(s.t, 10)),))
    # initial, every third step, and the final step
    assert times == [0.0, 0.3, 0.6, 0.9, 1.0]


def test_evolve_holds_no_snapshot_past_one_step(monkeypatch):
    """A snapshot the monitors let go of is released once the next step's
    movers exist: between cadence points, every later step starts without
    it.  The final snapshot is still returned."""
    real_step = evolution.step_exponential
    alive_at_steps = []
    last = {}

    def step(diag, dt):
        alive_at_steps.append(last["snap"]() is not None)
        return real_step(diag, dt)

    def monitor(snap):
        last["snap"] = weakref.ref(snap)

    monkeypatch.setattr(evolution, "step_exponential", step)
    grid = GridSpec.square(16, TWO_PI, dim=2)
    summary = evolve(_random_state(grid, _params(), 17),
                     SchemeConfig(dt=0.1, max_t=0.7, cadence=3), monitors=(monitor,))
    # snapshots at steps 0, 3, 6 and 7: each is alive at the next step only
    assert alive_at_steps == [True, False, False, True, False, False, True]
    assert last["snap"]() is summary.final_state and summary.steps == 7


def test_evolve_stop_when_threshold():
    grid = GridSpec.square(16, TWO_PI, dim=1)
    state = _random_state(grid, _params(), 16)
    summary = evolve(state, SchemeConfig(dt=0.1, max_t=5.0),
                     stop_when=lambda s: s.t >= 0.55)
    assert summary.terminated_by == "threshold"
    assert summary.steps == 6  # first cadence point with t >= 0.55
    assert [e["event"] for e in summary.events] == ["threshold"]
    assert summary.events[0]["t"] == pytest.approx(0.6)


def test_evolve_blow_up_on_oversized_data():
    grid = GridSpec.square(16, TWO_PI, dim=1)
    p = _params()
    x = grid.x_mesh[0]
    state = FieldState.from_arrays(grid, p, 2.0 * BLOWUP_NORM * np.cos(x),
                                   (np.zeros(grid.n),))
    with pytest.raises(BlowUpSignal) as err:
        evolve(state, SchemeConfig(dt=0.1, max_t=1.0))
    sig = err.value
    assert sig.steps == 0 and sig.t == 0.0
    assert sig.norm > BLOWUP_NORM
    assert [e["event"] for e in sig.events] == ["blow-up"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evolve_blow_up_on_nonfinite_data():
    """A non-finite start state raises at its own time, before any transform
    of it could warn."""
    grid = GridSpec.square(16, TWO_PI, dim=1)
    bad = np.zeros(grid.n)
    bad[2] = np.inf
    state = FieldState.from_arrays(grid, _params(), bad, (np.zeros(grid.n),), t=0.5)
    with pytest.raises(BlowUpSignal) as err:
        evolve(state, SchemeConfig(dt=0.1, max_t=1.0))
    sig = err.value
    assert math.isinf(sig.norm)
    assert sig.steps == 0 and sig.t == 0.5
    assert sig.events == [{"event": "blow-up", "t": 0.5, "norm": math.inf}]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evolve_blow_up_on_a_nonfinite_step(monkeypatch):
    """A step that returns NaN movers raises at its own step and time, with
    the norm logged as inf and no RuntimeWarning on the way."""
    real_step = evolution.step_exponential
    steps = []

    def step(diag, dt):
        out = real_step(diag, dt)
        steps.append(out.t)
        if len(steps) == 3:
            nan = np.full(out.grid.half_shape, np.nan, dtype=complex)
            out = dataclasses.replace(out, Zp_hat=nan, Zm_hat=nan.copy())
        return out

    monkeypatch.setattr(evolution, "step_exponential", step)
    grid = GridSpec.square(16, TWO_PI, dim=2)
    with pytest.raises(BlowUpSignal) as err:
        evolve(_random_state(grid, _params(), 20), SchemeConfig(dt=0.1, max_t=1.0))
    sig = err.value
    assert len(steps) == 3
    assert sig.steps == 3 and sig.t == 3 * 0.1
    assert math.isinf(sig.norm)
    assert sig.events == [{"event": "blow-up", "t": sig.t, "norm": math.inf}]


def test_evolve_exponential_for_distinct_coefficients():
    grid = GridSpec.square(16, TWO_PI, dim=1)
    p = _params(b=0.25, d=1.0 / 6.0)
    state = _random_state(grid, p, 17)
    summary = evolve(state, SchemeConfig(dt=0.1, max_t=0.5))
    assert summary.terminated_by == "max_t"
    assert summary.final_state.t == 0.5


def test_evolve_starts_from_state_time():
    grid = GridSpec.square(16, TWO_PI, dim=1)
    state = _random_state(grid, _params(), 18)
    state = FieldState(t=1.0, zeta=state.zeta, v=state.v, params=state.params)
    summary = evolve(state, SchemeConfig(dt=0.25, max_t=2.0))
    assert summary.steps == 4
    assert summary.final_state.t == pytest.approx(2.0)


def test_evolve_rejects_an_end_time_before_the_start():
    """max_t is absolute: one before the state's own time is an error naming
    both times, not a silent run of 0 steps.  max_t == t is such a run, also
    when t is off by the roundoff of a clock that summed its steps."""
    grid = GridSpec.square(16, TWO_PI, dim=1)
    state = _random_state(grid, _params(), 18)
    state = FieldState(t=2.0, zeta=state.zeta, v=state.v, params=state.params)
    seen = []
    for max_t in (1.0, -1.0, 1.9):
        with pytest.raises(ParameterDomainError, match="before the start") as err:
            evolve(state, SchemeConfig(dt=0.25, max_t=max_t), monitors=(seen.append,))
        assert f"max_t = {max_t} is before the start time t = 2.0" in str(err.value)
    assert seen == []
    for max_t in (2.0, math.nextafter(2.0, 0.0)):
        summary = evolve(state, SchemeConfig(dt=0.25, max_t=max_t),
                         monitors=(seen.append,))
        assert (summary.steps, summary.terminated_by) == (0, "max_t")
    assert [snap.t for snap in seen] == [2.0, 2.0]


# the one value SchemeConfig's scheme keyword admits, passed explicitly
@pytest.mark.parametrize("scheme", ["exponential"])
def test_evolve_lands_on_max_t_with_a_short_last_step(scheme):
    """dt = 0.3 does not divide [0, 1]: three full steps, then one of 0.1."""
    grid = GridSpec.square(16, TWO_PI, dim=1)
    state = _random_state(grid, _params(), 19)
    times = []
    summary = evolve(state, SchemeConfig(dt=0.3, max_t=1.0, scheme=scheme),
                     monitors=(lambda s: times.append(s.t),))
    assert summary.terminated_by == "max_t"
    assert summary.steps == 4
    assert summary.final_state.t == 1.0
    assert times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-15)

    manual = diagonalize(state)
    for h in (0.3, 0.3, 0.3, 1.0 - 3 * 0.3):
        manual = step_exponential(manual, h)
    manual = undiagonalize(manual)
    assert _state_diff(summary.final_state, manual) == 0.0
