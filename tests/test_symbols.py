"""Tests for the dispersion symbols and the cached symbol table."""

import numpy as np
import pytest

from bfdsim import GridSpec, ModelParams
from bfdsim.spectral import TWO_PI
from bfdsim.symbols import sigma_of, symbol_table

# s*coth(s) at s = 1, i.e. (e^2 + 1)/(e^2 - 1), frozen from quadrature-free
# evaluation of the closed form.
COTH_ONE = 1.3130352854993312


def _params(**kw):
    base = dict(gamma=0.9, epsilon=0.1, mu=0.1, mu2=0.1,
                a=0.0, b=5.0 / 24.0, c=-1.0 / 12.0, d=5.0 / 24.0)
    base.update(kw)
    return ModelParams(**base)


# ---------------------------------------------------------------------------
# sigma(s) = s*coth(s)
# ---------------------------------------------------------------------------

def test_sigma_at_zero_is_one():
    assert sigma_of(np.array(0.0)) == 1.0


def test_sigma_at_one_matches_closed_form():
    got = float(sigma_of(np.array(1.0)))
    assert got == pytest.approx(COTH_ONE, rel=1e-15)
    assert got == pytest.approx((np.e**2 + 1) / (np.e**2 - 1), rel=1e-15)


def test_sigma_bounds():
    """max(1, s) <= sigma(s) <= 1 + s over fourteen decades."""
    s = np.logspace(-8, 8, 4001)
    sig = sigma_of(s)
    assert np.all(sig >= np.maximum(1.0, s) - 1e-15)
    assert np.all(sig <= 1.0 + s + 1e-15)


def test_sigma_asymptote():
    s = np.array([100.0, 200.0, 349.0, 351.0, 1e4, 1e8])
    sig = sigma_of(s)
    assert np.all(np.isfinite(sig))
    np.testing.assert_allclose(sig, s, rtol=0, atol=1e-12)


def test_sigma_continuous_across_overflow_cutoff():
    # branch switch lives at 2s = 700; both sides agree to machine precision
    left = float(sigma_of(np.array(349.999)))
    right = float(sigma_of(np.array(350.001)))
    assert left == pytest.approx(349.999, abs=1e-12)
    assert right == pytest.approx(350.001, abs=1e-12)


def test_sigma_small_s_quadratic_departure():
    # s*coth(s) = 1 + s^2/3 + O(s^4)
    s = np.array([1e-4, 1e-3, 1e-2])
    np.testing.assert_allclose(sigma_of(s) - 1.0, s**2 / 3.0, rtol=1e-4)


def test_sigma_preserves_shape():
    s = np.linspace(0.0, 5.0, 12).reshape(3, 4)
    assert sigma_of(s).shape == (3, 4)


# ---------------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------------

def test_table_formulas_componentwise():
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(a=-0.05, b=0.25, c=-1.0 / 12.0, d=1.0 / 6.0, mu=0.3, mu2=0.7)
    tab = symbol_table(grid, p)

    abs2 = grid.abs2_xi
    sig = sigma_of(np.sqrt(p.mu2) * np.sqrt(abs2))
    np.testing.assert_allclose(tab.sigma, sig, rtol=0, atol=0)
    np.testing.assert_allclose(tab.helmholtz_b, 1 + p.b * p.mu * abs2, rtol=1e-15)
    np.testing.assert_allclose(tab.helmholtz_d, 1 + p.d * p.mu * abs2, rtol=1e-15)
    np.testing.assert_allclose(tab.one_minus_cmu, 1 - p.c * p.mu * abs2, rtol=1e-15)
    np.testing.assert_allclose(tab.g, tab.helmholtz_b / tab.helmholtz_d, rtol=1e-15)

    ratio = p.mu / p.mu2
    expect_A = (1 - p.a * p.mu * abs2 + np.sqrt(ratio) / p.gamma * sig
                + ratio / p.gamma**2 * sig**2)
    np.testing.assert_allclose(tab.A, expect_A, rtol=1e-15)
    np.testing.assert_allclose(tab.omega1, tab.A / (p.gamma * tab.helmholtz_b),
                               rtol=1e-15)
    np.testing.assert_allclose(
        tab.omega2, (1 - p.gamma) * tab.one_minus_cmu / tab.helmholtz_b,
        rtol=1e-15)
    # b != d: Omega_sys and the impedance carry both Helmholtz factors
    lin = (1 - p.gamma) * tab.one_minus_cmu / (p.gamma * tab.helmholtz_b * tab.helmholtz_d)
    np.testing.assert_allclose(tab.Omega, np.sqrt(abs2 * tab.A * lin), rtol=1e-14)
    np.testing.assert_allclose(
        tab.ratio_sqrt,
        np.sqrt(tab.A * tab.helmholtz_d / (p.gamma * (1 - p.gamma) * tab.one_minus_cmu
                                           * tab.helmholtz_b)),
        rtol=1e-14)


def test_table_zero_mode_value():
    """A(0) = 1 + delta/gamma + delta^2/gamma^2 with delta = sqrt(mu/mu2)."""
    grid = GridSpec.square(8, TWO_PI, dim=2)
    tab = symbol_table(grid, _params(mu=0.1, mu2=0.1))  # delta = 1
    assert tab.A[0, 0] == pytest.approx(3.3456790123456788, rel=1e-15)
    assert tab.sigma[0, 0] == 1.0
    assert tab.helmholtz_b[0, 0] == 1.0
    assert tab.one_minus_cmu[0, 0] == 1.0


def test_dispersion_relation_shape():
    grid = GridSpec.square(16, TWO_PI, dim=2)
    tab = symbol_table(grid, _params())
    # propagation frequencies are real: lambda_plus is purely imaginary
    assert np.all(tab.lambda_plus.real == 0.0)
    assert np.all(tab.Omega >= 0.0)
    assert tab.Omega[0, 0] == 0.0
    np.testing.assert_allclose(
        tab.Omega, np.sqrt(grid.abs2_xi * tab.omega1 * tab.omega2), atol=1e-14)
    np.testing.assert_allclose(tab.ratio_sqrt, np.sqrt(tab.omega1 / tab.omega2))


def test_table_is_cached():
    grid = GridSpec.square(8, TWO_PI, dim=1)
    p = _params()
    assert symbol_table(grid, p) is symbol_table(grid, p)
    assert symbol_table(grid, p.replace(mu=0.2)) is not symbol_table(grid, p)


def test_sigma_grid_independent():
    """sigma depends on the wavenumber only, not on the grid that samples it."""
    p = _params(mu2=0.5)
    coarse = symbol_table(GridSpec.square(16, TWO_PI, dim=1), p)
    fine = symbol_table(GridSpec.square(32, TWO_PI, dim=1), p)
    for k in range(8):  # wavenumber k sits at index k on both grids
        assert coarse.sigma[k] == fine.sigma[k]
        assert coarse.A[k] == fine.A[k]
