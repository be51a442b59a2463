"""Tests for the primitive right-hand side and the frozen-coefficient algebra."""

import math

import numpy as np
import pytest

from bfdsim import (
    FieldState,
    GridSpec,
    ModelParams,
    ParameterDomainError,
    SpectralField,
    frozen_symbol_matrices,
    hermitian_defect,
    noncavitation_margin,
)
from bfdsim.errors import GridMismatchError
from bfdsim.spectral import TWO_PI
from bfdsim.system import rescale_from_unit, rescale_to_unit, rhs_hat


def _params(**kw):
    base = dict(gamma=0.9, epsilon=0.1, mu=0.1, mu2=0.1,
                a=0.0, b=5.0 / 24.0, c=-1.0 / 12.0, d=5.0 / 24.0)
    base.update(kw)
    return ModelParams(**base)


def _random_state(grid, params, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    band = 1.0 / (1.0 + grid.abs2_xi) ** 2

    def field():
        hat = grid.fft(rng.standard_normal(grid.n)) * band
        f = SpectralField(grid, real=grid.ifft_real(hat))
        peak = np.max(np.abs(f.values))
        return (scale / peak) * f if peak > 0 else f

    return FieldState(t=0.0, zeta=field(),
                      v=tuple(field() for _ in range(grid.dim)), params=params)


def _tendency(state):
    """rhs_hat of the state: spectra (dt zeta_hat, dt v_hats)."""
    return rhs_hat(state.zeta.hat, tuple(c.hat for c in state.v),
                   state.grid, state.params)


# ---------------------------------------------------------------------------
# FieldState mechanics
# ---------------------------------------------------------------------------

def test_state_coerces_and_checks_grids():
    g = GridSpec.square(8, TWO_PI, dim=2)
    p = _params()
    z = SpectralField.zeros(g)
    state = FieldState(t=0.0, zeta=z, v=[SpectralField.zeros(g),
                                         SpectralField.zeros(g)], params=p)
    assert isinstance(state.v, tuple) and state.dim == 2

    with pytest.raises(GridMismatchError):
        FieldState(t=0.0, zeta=z,
                   v=(SpectralField.zeros(GridSpec.square(16, TWO_PI, dim=2)),
                      SpectralField.zeros(g)), params=p)
    with pytest.raises(GridMismatchError):
        FieldState(t=0.0, zeta=z, v=(SpectralField.zeros(g),), params=p)


def test_state_from_arrays_and_copy():
    g = GridSpec.square(8, TWO_PI, dim=1)
    u = np.linspace(-1, 1, 8)
    state = FieldState.from_arrays(g, _params(), u, (2 * u,), t=3.0)
    np.testing.assert_array_equal(state.zeta.values, u)
    np.testing.assert_array_equal(state.v[0].values, 2 * u)
    dup = state.copy()
    assert dup is not state and dup.t == 3.0
    np.testing.assert_array_equal(dup.zeta.values, state.zeta.values)


def test_state_is_finite():
    g = GridSpec.square(8, TWO_PI, dim=1)
    state = _random_state(g, _params(), 1)
    assert state.is_finite()
    bad = np.zeros(g.n)
    bad[3] = np.nan
    nan_state = FieldState.from_arrays(g, _params(), bad, (np.zeros(g.n),))
    assert not nan_state.is_finite()


# ---------------------------------------------------------------------------
# Right-hand side: closed-form single-mode oracle
# ---------------------------------------------------------------------------

def test_rhs_surface_gradient_only():
    """zeta = amp*cos(x), v = 0: only the v-tendency fires, with the
    curvature-corrected pressure gradient divided by the d-side operator."""
    g = GridSpec.square(32, TWO_PI, dim=1)
    gamma, mu, mu2 = 0.5, 0.04, 0.25
    a, b, c, d, eps = -0.1, 0.2, -0.05, 0.3, 0.3
    p = ModelParams(gamma=gamma, epsilon=eps, mu=mu, mu2=mu2, a=a, b=b, c=c, d=d)
    amp = 0.2
    x = g.x_mesh[0]
    state = FieldState.from_arrays(g, p, amp * np.cos(x), (np.zeros(g.n),))

    dz, (dv,) = _tendency(state)
    np.testing.assert_allclose(g.ifft_real(dz), 0.0, atol=1e-15)
    expect = (1 - gamma) * amp * (1 - c * mu) / (1 + d * mu) * np.sin(x)
    np.testing.assert_allclose(g.ifft_real(dv), expect, atol=1e-13)


def test_rhs_velocity_mode_closed_form():
    """zeta = 0, v = amp*cos(x): the surface feels the dispersive flux at
    wavenumber one; the velocity feels only its own quadratic transport,
    which lands at wavenumber two."""
    g = GridSpec.square(32, TWO_PI, dim=1)
    gamma, mu, mu2 = 0.5, 0.04, 0.25
    a, b, c, d, eps = -0.1, 0.2, -0.05, 0.3, 0.3
    p = ModelParams(gamma=gamma, epsilon=eps, mu=mu, mu2=mu2, a=a, b=b, c=c, d=d)
    amp = 0.2
    x = g.x_mesh[0]
    state = FieldState.from_arrays(g, p, np.zeros(g.n), (amp * np.cos(x),))

    dz, (dv,) = _tendency(state)

    # independent sigma evaluation straight from the hyperbolic cotangent
    s = math.sqrt(mu2) * 1.0
    sig = s * math.cosh(s) / math.sinh(s)
    delta = math.sqrt(mu / mu2)
    A1 = 1 - a * mu + delta / gamma * sig + (delta / gamma) ** 2 * sig ** 2
    expect_dz = amp * A1 / (gamma * (1 + b * mu)) * np.sin(x)
    np.testing.assert_allclose(g.ifft_real(dz), expect_dz, atol=1e-13)

    expect_dv = -(eps / (2 * gamma)) * amp ** 2 * np.sin(2 * x) / (1 + 4 * d * mu)
    np.testing.assert_allclose(g.ifft_real(dv), expect_dv, atol=1e-13)


def test_rhs_zero_state_is_fixed_point():
    g = GridSpec.square(16, TWO_PI, dim=2)
    state = FieldState.from_arrays(g, _params(), np.zeros(g.n),
                                   (np.zeros(g.n), np.zeros(g.n)))
    dz, dv = _tendency(state)
    assert np.all(dz == 0.0)
    assert all(np.all(c == 0.0) for c in dv)


def test_rhs_linear_at_eps_zero():
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.0)
    u1 = _random_state(g, p, 5)
    u2 = _random_state(g, p, 6)

    def rhs_vec(state):
        dz, dv = _tendency(state)
        return np.concatenate([dz.ravel()] + [c.ravel() for c in dv])

    summed = FieldState(t=0.0, zeta=u1.zeta + u2.zeta,
                        v=tuple(a + b for a, b in zip(u1.v, u2.v)), params=p)
    np.testing.assert_allclose(rhs_vec(summed), rhs_vec(u1) + rhs_vec(u2),
                               atol=1e-13)
    scaled = FieldState(t=0.0, zeta=3.0 * u1.zeta,
                        v=tuple(3.0 * c for c in u1.v), params=p)
    np.testing.assert_allclose(rhs_vec(scaled), 3.0 * rhs_vec(u1), atol=1e-13)


def test_rhs_conserves_means_exactly():
    """Both tendencies are divergence/gradient-shaped: zero mode never moves."""
    g = GridSpec.square(16, TWO_PI, dim=2)
    for seed in range(20):
        state = _random_state(g, _params(epsilon=0.4), seed, scale=0.5)
        dz, dv = _tendency(state)
        assert dz[0, 0] == 0.0
        assert all(c[0, 0] == 0.0 for c in dv)


def test_rhs_velocity_tendency_is_curl_free():
    g = GridSpec.square(16, TWO_PI, dim=2)
    state = _random_state(g, _params(epsilon=0.4), 9, scale=0.5)
    _, (dv1, dv2) = _tendency(state)
    xi1, xi2 = g.xi_mesh
    # xi2 * dv1_hat == xi1 * dv2_hat is the spectral form of curl = 0
    np.testing.assert_allclose(xi2 * dv1, xi1 * dv2, rtol=0, atol=1e-13)


def test_rhs_rescale_invariance():
    """The unit-parameter rescaling conjugates the dynamics: tendencies of the
    rescaled state equal eps*sqrt(mu) times the original tendencies."""
    g = GridSpec.square(16, TWO_PI, dim=1)
    p = _params(gamma=0.6, epsilon=0.2, mu=0.09, mu2=0.09)
    state = _random_state(g, p, 12, scale=0.3)
    unit = rescale_to_unit(state)

    dz, dv = _tendency(state)
    dz_u, dv_u = _tendency(unit)
    factor = p.epsilon * math.sqrt(p.mu)
    np.testing.assert_allclose(g.ifft_real(dz_u), factor * g.ifft_real(dz), atol=1e-12)
    np.testing.assert_allclose(g.ifft_real(dv_u[0]), factor * g.ifft_real(dv[0]),
                               atol=1e-12)


# ---------------------------------------------------------------------------
# Frozen-coefficient matrices
# ---------------------------------------------------------------------------

def _bridge_probe(grid, params, background, mode, h=1e-2):
    """Columns of the linearization of rhs_hat about a constant background,
    measured at one wavenumber by exact central differences (the nonlinearity
    is quadratic, so the difference quotient has no truncation error)."""
    zbar, vbar = background
    dim = grid.dim
    ncomp = dim + 1
    idx = tuple(mode)

    base_z = np.full(grid.n, zbar)
    base_v = [np.full(grid.n, vb) for vb in vbar]

    phase = np.zeros(grid.n)
    for k, x, L in zip(mode, grid.x_mesh, grid.length):
        phase = phase + TWO_PI * k * x / L
    probe = np.cos(phase)
    probe_hat = grid.fft(probe)[idx]

    J = np.zeros((ncomp, ncomp), dtype=np.complex128)
    for col in range(ncomp):
        plus_z, minus_z = base_z.copy(), base_z.copy()
        plus_v = [c.copy() for c in base_v]
        minus_v = [c.copy() for c in base_v]
        if col == 0:
            plus_z += h * probe
            minus_z -= h * probe
        else:
            plus_v[col - 1] = plus_v[col - 1] + h * probe
            minus_v[col - 1] = minus_v[col - 1] - h * probe

        def tend(z, v):
            dz, dv = rhs_hat(grid.fft(z), tuple(grid.fft(c) for c in v),
                             grid, params)
            return np.array([dz[idx]] + [c[idx] for c in dv])

        J[:, col] = (tend(plus_z, plus_v) - tend(minus_z, minus_v)) / (2 * h)
    return J / probe_hat


@pytest.mark.parametrize("coeffs", [
    dict(b=5.0 / 24.0, d=5.0 / 24.0),   # equal-weight variant
    dict(b=0.25, d=1.0 / 6.0),          # distinct-weight variant
    dict(b=0.0, d=5.0 / 12.0),          # premultiplied variant
])
def test_frozen_matrix_matches_linearized_rhs(coeffs):
    """W dt V + M V = 0 frozen at a constant background reproduces the
    actual linearization of the nonlinear tendency, wavenumber by wavenumber."""
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(gamma=0.6, epsilon=0.4, mu=0.05, mu2=0.2, a=-0.1, **coeffs)
    zbar, vbar = 0.3, (0.2, -0.15)

    for mode in [(1, 0), (0, 2), (2, 1), (3, 3)]:
        xi = tuple(TWO_PI * k / L for k, L in zip(mode, grid.length))
        frozen = frozen_symbol_matrices(xi, zbar, vbar, p)
        abs2 = sum(c * c for c in xi)
        if frozen.variant == "b=0":
            W = 1.0 + p.d * p.mu * abs2
        else:
            W = 1.0 + p.b * p.mu * abs2
        expect = -frozen.M / W
        got = _bridge_probe(grid, p, (zbar, vbar), mode)
        np.testing.assert_allclose(got, expect, atol=1e-9)


def test_frozen_matrix_zero_wavenumber():
    frozen = frozen_symbol_matrices((0.0, 0.0), 0.2, (0.1, 0.1), _params())
    np.testing.assert_array_equal(frozen.M, 0.0)


def test_frozen_matrix_validation():
    p = _params()
    with pytest.raises(ParameterDomainError):
        frozen_symbol_matrices((1.0, 2.0, 3.0), 0.0, (0.0, 0.0, 0.0), p)
    with pytest.raises(ParameterDomainError):
        frozen_symbol_matrices((1.0,), 0.0, (0.0, 0.0), p)
    with pytest.raises(ParameterDomainError):
        frozen_symbol_matrices((1.0,), 0.0, (0.0,), p, variant="b=0")  # b != 0
    with pytest.raises(ParameterDomainError):
        frozen_symbol_matrices((1.0,), 0.0, (0.0,), p, variant="quartic")


def test_symmetrizer_hermitian_and_positive():
    """i S M is Hermitian to machine precision and S stays positive for
    small-amplitude backgrounds, across all three variants."""
    rng = np.random.default_rng(314)
    coeff_menu = [
        dict(b=5.0 / 24.0, d=5.0 / 24.0),
        dict(b=0.25, d=1.0 / 6.0),
        dict(b=1.0 / 6.0, d=0.25),
        dict(b=0.0, d=5.0 / 12.0),
    ]
    for trial in range(200):
        coeffs = coeff_menu[trial % len(coeff_menu)]
        gamma = rng.uniform(0.2, 0.8)
        p = _params(gamma=gamma, epsilon=0.05,
                    mu=rng.uniform(0.01, 0.5), mu2=rng.uniform(0.05, 1.0),
                    a=-rng.uniform(0.0, 0.3), c=-rng.uniform(0.01, 0.3),
                    **coeffs)
        dim = 1 + trial % 2
        xi = tuple(rng.uniform(-10.0, 10.0) for _ in range(dim))
        zbar = rng.uniform(-0.5, 0.5)
        vbar = tuple(rng.uniform(-0.5, 0.5) for _ in range(dim))
        frozen = frozen_symbol_matrices(xi, zbar, vbar, p)
        report = hermitian_defect(frozen.S, frozen.M)
        assert report.defect < 1e-13
        assert report.margin > 0.0


def test_symmetrizer_margin_floor_at_rest():
    """At zero background the margin per unit prefactor is gamma*(1-gamma)
    exactly at xi = 0 and never smaller on the rest of the lattice."""
    for coeffs in [dict(b=5.0 / 24.0, d=5.0 / 24.0),
                   dict(b=0.25, d=1.0 / 6.0),
                   dict(b=0.0, d=5.0 / 12.0)]:
        p = _params(gamma=0.3, epsilon=0.1, **coeffs)
        gg = p.gamma * (1.0 - p.gamma)
        at_zero = frozen_symbol_matrices((0.0, 0.0), 0.0, (0.0, 0.0), p)
        r0 = hermitian_defect(at_zero.S, at_zero.M)
        assert r0.margin / at_zero.prefactor == pytest.approx(gg, rel=1e-12)
        for xi in [(1.0, 0.0), (0.0, 3.0), (2.0, 2.0), (8.0, 1.0)]:
            fr = frozen_symbol_matrices(xi, 0.0, (0.0, 0.0), p)
            rep = hermitian_defect(fr.S, fr.M)
            assert rep.margin / fr.prefactor >= gg - 1e-12


def test_hermitian_defect_reference_values():
    H = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    report = hermitian_defect(np.eye(2, dtype=complex), 1j * H)
    assert report.defect < 1e-15
    assert report.margin == pytest.approx(1.0, rel=1e-12)  # min eig of identity

    skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    bad = hermitian_defect(np.eye(2, dtype=complex) + skew, skew)
    assert bad.defect > 0.1


# ---------------------------------------------------------------------------
# Non-cavitation and rescaling
# ---------------------------------------------------------------------------

def test_noncavitation_margin_single_mode():
    g = GridSpec.square(32, TWO_PI, dim=1)
    p = _params(epsilon=0.5)
    x = g.x_mesh[0]
    state = FieldState.from_arrays(g, p, 0.3 * np.cos(x), (np.zeros(g.n),))
    report = noncavitation_margin(state)
    assert report.margin == pytest.approx(1.0 - 0.5 * 0.3, rel=1e-12)
    # |zeta|_inf + |grad zeta|_inf, velocity contributes nothing
    assert report.eps_w1inf == pytest.approx(0.5 * 0.6, rel=1e-10)


def test_rescale_round_trip():
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(gamma=0.7, epsilon=0.25, mu=0.16, mu2=0.4)
    state = _random_state(g, p, 3, scale=0.2)
    state = FieldState(t=2.0, zeta=state.zeta, v=state.v, params=p)

    unit = rescale_to_unit(state)
    assert unit.params.epsilon == 1.0 and unit.params.mu == 1.0
    assert unit.params.mu2 == pytest.approx(p.mu2 / p.mu)
    assert unit.t == pytest.approx(2.0 / math.sqrt(p.mu))
    assert unit.grid.length[0] == pytest.approx(TWO_PI / math.sqrt(p.mu))

    back = rescale_from_unit(unit, p.epsilon, p.mu)
    assert back.params.epsilon == p.epsilon and back.params.mu == p.mu
    assert back.t == pytest.approx(2.0, rel=1e-14)
    assert back.grid.length == pytest.approx(g.length)
    np.testing.assert_allclose(back.zeta.values, state.zeta.values, atol=1e-15)
    np.testing.assert_allclose(back.v[0].values, state.v[0].values, atol=1e-15)


def test_rescale_requires_positive_epsilon():
    g = GridSpec.square(8, TWO_PI, dim=1)
    state = FieldState.from_arrays(g, _params(epsilon=0.0), np.zeros(g.n),
                                   (np.zeros(g.n),))
    with pytest.raises(ParameterDomainError):
        rescale_to_unit(state)
