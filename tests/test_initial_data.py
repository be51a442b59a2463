"""Tests for initial-profile construction and velocity recipes."""

import numpy as np
import pytest

from bfdsim import (
    FieldState,
    GridSpec,
    ModelParams,
    ParameterDomainError,
    make_initial_state,
    make_zeta,
    right_mover_velocity,
)
from bfdsim.spectral import TWO_PI
from bfdsim.symbols import symbol_table


def _params(**kw):
    base = dict(gamma=0.9, epsilon=0.1, mu=0.1, mu2=0.1,
                a=0.0, b=5.0 / 24.0, c=-1.0 / 12.0, d=5.0 / 24.0)
    base.update(kw)
    return ModelParams(**base)


def _grid(n=32, dim=2, length=TWO_PI):
    return GridSpec.square(n, length, dim=dim)


# ---------------------------------------------------------------------------
# Surface profiles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("profile", ["gaussian", "mode", "random_bandlimited"])
def test_amplitude_scaling(profile):
    z = make_zeta(_grid(), profile, amplitude=0.37, seed=1)
    assert np.max(np.abs(z.values)) == pytest.approx(0.37, rel=1e-12)


@pytest.mark.parametrize("profile", ["gaussian", "mode", "random_bandlimited"])
def test_zero_amplitude_gives_zero_field(profile):
    z = make_zeta(_grid(), profile, amplitude=0.0, seed=1)
    assert np.all(z.values == 0.0)


def test_gaussian_mean_free_and_centered():
    g = _grid(64, dim=1, length=10.0)
    z = make_zeta(g, "gaussian", amplitude=1.0, width=0.8)
    assert abs(z.hat[0]) < 1e-10 * g.npoints  # zero mode removed
    assert np.argmax(z.values) == g.n[0] // 2  # bump sits at L/2


def test_gaussian_width_controls_spread():
    g = _grid(128, dim=1, length=10.0)
    narrow = make_zeta(g, "gaussian", amplitude=1.0, width=0.3)
    wide = make_zeta(g, "gaussian", amplitude=1.0, width=1.5)
    above = lambda z: np.count_nonzero(z.values > 0.5)
    assert above(narrow) < above(wide)


def test_mode_profile_is_single_mode():
    g = _grid(16, dim=2)
    z = make_zeta(g, "mode", amplitude=0.2, mode_k=(2, 1))
    x, y = g.x_mesh
    np.testing.assert_allclose(z.values, 0.2 * np.cos(2 * x + y), atol=1e-12)


def test_mode_default_is_first_mode():
    g = _grid(16, dim=1)
    z = make_zeta(g, "mode", amplitude=0.5)
    np.testing.assert_allclose(z.values, 0.5 * np.cos(g.x_mesh[0]), atol=1e-12)


def test_random_profile_band_limited_and_seeded():
    g = _grid(32, dim=2)
    z1 = make_zeta(g, "random_bandlimited", amplitude=0.1, seed=77)
    z2 = make_zeta(g, "random_bandlimited", amplitude=0.1, seed=77)
    z3 = make_zeta(g, "random_bandlimited", amplitude=0.1, seed=78)
    np.testing.assert_array_equal(z1.values, z2.values)
    assert np.max(np.abs(z1.values - z3.values)) > 1e-3

    # wavenumbers beyond min(n)/8 never get energy
    k = np.rint(np.fft.fftfreq(32) * 32)
    kx, ky = np.meshgrid(k, k[:g.half_shape[-1]], indexing="ij")
    outside = np.sqrt(kx**2 + ky**2) > 4.0
    assert np.max(np.abs(z1.hat[outside])) < 1e-10
    assert abs(z1.hat[0, 0]) < 1e-12


def test_unknown_profile_rejected():
    with pytest.raises(ParameterDomainError, match="unknown profile"):
        make_zeta(_grid(), "sawtooth", amplitude=0.1)


# ---------------------------------------------------------------------------
# Velocity recipes
# ---------------------------------------------------------------------------

def test_right_mover_matches_impedance_relation():
    """v_j = sign(xi) * unit_xi_j / sqrt(omega1/omega2) * zeta, mode by mode."""
    g = _grid(16, dim=2)
    p = _params()
    z = make_zeta(g, "random_bandlimited", amplitude=0.1, seed=4)
    v = right_mover_velocity(z, p)
    tab = symbol_table(g, p)
    mesh = tab.grid.xi_mesh
    sign = np.sign(np.broadcast_to(mesh[0], g.half_shape)).astype(float)
    sign = np.where(sign == 0.0, np.sign(np.broadcast_to(mesh[1], g.half_shape)), sign)
    for j, unit in enumerate(g.unit_xi):
        expect = sign * unit / tab.ratio_sqrt * z.hat
        np.testing.assert_allclose(v[j].hat, expect, atol=1e-10)


def test_right_mover_velocity_is_real():
    g = _grid(16, dim=1)
    z = make_zeta(g, "gaussian", amplitude=0.3)
    (v,) = right_mover_velocity(z, _params())
    assert g.is_hermitian(v.hat)


def test_make_initial_state_shapes_and_params():
    g = _grid(16, dim=2)
    p = _params()
    state = make_initial_state(g, p, profile="gaussian", amplitude=0.1, t=1.5)
    assert isinstance(state, FieldState)
    assert state.params is p
    assert state.t == 1.5
    assert len(state.v) == 2
    assert state.grid == g


def test_zero_velocity_recipe():
    state = make_initial_state(_grid(16), _params(), velocity="zero")
    for comp in state.v:
        assert np.all(comp.values == 0.0)


def test_random_velocity_recipe_seeded():
    g = _grid(16)
    a = make_initial_state(g, _params(), velocity="random", seed=21,
                           profile="random_bandlimited")
    b = make_initial_state(g, _params(), velocity="random", seed=21,
                           profile="random_bandlimited")
    for x, y in zip(a.v, b.v):
        np.testing.assert_array_equal(x.values, y.values)
    # components draw distinct streams
    assert np.max(np.abs(a.v[0].values - a.v[1].values)) > 1e-3


def test_unknown_velocity_rejected():
    with pytest.raises(ParameterDomainError, match="unknown velocity"):
        make_initial_state(_grid(16), _params(), velocity="leftgoing")
