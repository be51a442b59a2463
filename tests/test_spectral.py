"""Tests for the periodic grid, transforms, and spectral calculus."""

import numpy as np
import pytest

from bfdsim import (
    GridSpec,
    ModelParams,
    ParameterDomainError,
    SchemeConfig,
    SpectralField,
    energy_report,
    equivalence_ratio,
    evolve,
    make_initial_state,
    noncavitation_margin,
    variational_check,
)
from bfdsim.errors import GridMismatchError
from bfdsim.spectral import TWO_PI, dealias, divergence, gradient


def _grid2(n=32, length=TWO_PI):
    return GridSpec.square(n, length, dim=2)


def _random_field(grid, seed, smooth=True):
    rng = np.random.default_rng(seed)
    f = SpectralField.from_real(grid, rng.standard_normal(grid.n))
    if smooth:
        f = SpectralField(grid, hat=f.hat * (1.0 / (1.0 + grid.abs2_xi) ** 2))
    return f


# ---------------------------------------------------------------------------
# GridSpec
# ---------------------------------------------------------------------------

def test_grid_basic_properties():
    g = GridSpec(n=(8, 16), length=(TWO_PI, 2 * TWO_PI))
    assert g.dim == 2
    assert g.npoints == 128
    assert g.dx == pytest.approx((TWO_PI / 8, 2 * TWO_PI / 16))
    assert g.cell_volume == pytest.approx(g.dx[0] * g.dx[1])
    assert g.volume == pytest.approx(TWO_PI * 2 * TWO_PI)


def test_grid_square_and_1d():
    g = GridSpec.square(16, TWO_PI, dim=1)
    assert g.dim == 1 and g.n == (16,)
    assert GridSpec.square(8, 1.0).n == (8, 8)


@pytest.mark.parametrize("kw", [
    dict(n=(8, 8, 8), length=(1.0, 1.0, 1.0)),   # 3-d unsupported
    dict(n=(8,), length=(1.0, 1.0)),             # length mismatch
    dict(n=(7,), length=(1.0,)),                 # odd axis
    dict(n=(2,), length=(1.0,)),                 # too small
    dict(n=(8,), length=(0.0,)),                 # zero length
    dict(n=(8,), length=(-1.0,)),                # negative length
])
def test_grid_rejection(kw):
    with pytest.raises(ParameterDomainError):
        GridSpec(**kw)


def test_wavenumber_layout():
    """xi follows the fft layout scaled by 2*pi/L per axis."""
    g = GridSpec(n=(8,), length=(4.0 * np.pi,))
    expect = np.fft.fftfreq(8, d=1.0 / 8) * (TWO_PI / (4.0 * np.pi))
    np.testing.assert_allclose(g.xi[0], expect, rtol=0, atol=0)
    g2 = _grid2(8)
    np.testing.assert_allclose(g2.xi_mesh[0][:, 0], np.fft.fftfreq(8, d=1.0 / 8))
    np.testing.assert_allclose(
        g2.abs2_xi, g2.xi_mesh[0] ** 2 + g2.xi_mesh[1] ** 2, rtol=0, atol=0)


def test_unit_xi_zero_mode_is_zero():
    g = _grid2(8)
    for comp in g.unit_xi:
        assert comp[0, 0] == 0.0
    nonzero = g.abs2_xi > 0
    norm = sum(c ** 2 for c in g.unit_xi)
    np.testing.assert_allclose(norm[nonzero], 1.0, atol=1e-14)


def test_fft_roundtrip_and_parseval():
    g = _grid2(32, length=5.0)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(g.n)
    hat = g.fft(u)
    np.testing.assert_allclose(g.ifft_real(hat), u, atol=1e-12)
    # Parseval: integral of u^2 equals the normalized spectral sum
    assert g.integral(u ** 2) == pytest.approx(g.spectral_l2_sq(hat), rel=1e-12)


HALF_GRIDS = [GridSpec(n=(16,), length=(TWO_PI,)), GridSpec(n=(64,), length=(3.0,)),
              GridSpec(n=(16, 8), length=(2.0, 3.0)), _grid2(32, length=5.0)]


@pytest.mark.parametrize("g", HALF_GRIDS, ids=lambda g: "x".join(map(str, g.n)))
def test_half_lattice_transforms_match_the_full_ones(g):
    """Both layouts agree with numpy's complex fftn/ifftn: fft(x) is the
    full spectrum and fft(x, half=True) its half lattice, and ifft_real
    inverts either one.  fft(x) is Hermitian bitwise."""
    x = np.random.default_rng(sum(g.n)).standard_normal(g.n)
    want = np.fft.fftn(x)
    full = g.fft(x)
    half = g.fft(x, half=True)
    scale = np.max(np.abs(want))
    assert half.shape == want[g.half].shape
    assert np.max(np.abs(full - want)) <= 1e-13 * scale
    assert np.max(np.abs(half - want[g.half])) <= 1e-13 * scale
    refl = full
    for ax in range(g.dim):
        refl = np.roll(np.flip(refl, axis=ax), 1, axis=ax)
    assert np.array_equal(refl, np.conj(full))
    back = np.fft.ifftn(want).real
    for hat in (full, half):
        np.testing.assert_allclose(g.ifft_real(hat), back, rtol=0, atol=1e-13)


def test_the_package_runs_on_one_transform_pair(monkeypatch):
    """Initial data, a two-step run and every diagnostic of its monitor go
    through with numpy's complex fftn and ifftn made to raise: the package
    transforms with rfftn and irfftn only."""
    def refuse(*args, **kwargs):
        raise AssertionError("a complex n-D transform was called")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    grid = _grid2(16)
    p = ModelParams(gamma=0.7, epsilon=0.2, mu=0.1, mu2=0.2,
                    a=0.0, b=0.25, c=-0.1, d=1.0 / 6.0)
    seen = []

    def monitor(state):
        seen.append((energy_report(state), equivalence_ratio(state, 1.0),
                     variational_check(state), noncavitation_margin(state)))

    for velocity in ("random", "right-mover"):
        state = make_initial_state(grid, p, profile="random_bandlimited",
                                   seed=3, velocity=velocity)
        summary = evolve(state, SchemeConfig(dt=0.05, max_t=0.1), monitors=(monitor,))
        assert summary.steps == 2
    assert len(seen) == 6


@pytest.mark.parametrize("g", HALF_GRIDS, ids=lambda g: "x".join(map(str, g.n)))
def test_extend_half_pairs_two_spectra_bitwise(g):
    """P = extend_half(hp, hm) and M = extend_half(hm, hp) satisfy
    P(-xi) = conj M(xi) exactly wherever -xi != xi, and P keeps hp on
    the half lattice outside the self-conjugate columns' rows k_1 < 0."""
    rng = np.random.default_rng(7)
    shape = g.fft(np.zeros(g.n), half=True).shape
    hp, hm = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for _ in range(2))
    P, M = g.extend_half(hp, hm), g.extend_half(hm, hp)
    refl, self_conj = P, np.ones(g.n, dtype=bool)
    for ax, m in enumerate(g.n):
        refl = np.roll(np.flip(refl, axis=ax), 1, axis=ax)
        k = np.arange(m).reshape([-1 if a == ax else 1 for a in range(g.dim)])
        self_conj = self_conj & (k % (m // 2) == 0)
    assert np.array_equal(refl[~self_conj], np.conj(M)[~self_conj])
    kept = P[g.half] == hp
    if g.dim == 2:
        kept[g.n[0] // 2 + 1:, ::g.n[1] // 2] = True
    assert kept.all()


def test_integral_of_constant():
    g = GridSpec(n=(16, 8), length=(2.0, 3.0))
    assert g.integral(np.full(g.n, 1.5)) == pytest.approx(1.5 * 6.0)


def test_spectral_l2_weighted():
    g = GridSpec.square(16, TWO_PI, dim=1)
    u = np.cos(g.x_mesh[0])
    hat = g.fft(u)
    # |xi|=1 mode: weighted norm multiplies by the weight at +-1
    w = 1.0 + g.abs2_xi
    assert g.spectral_l2_sq(hat, weight=w) == pytest.approx(
        2.0 * g.spectral_l2_sq(hat), rel=1e-12)


def test_is_hermitian_detects_asymmetry():
    g = GridSpec.square(8, TWO_PI, dim=1)
    u = np.cos(g.x_mesh[0])
    hat = g.fft(u)
    assert g.is_hermitian(hat)
    hat = hat.astype(complex)
    hat[1] += 1.0j * 0.5  # breaks conjugate symmetry
    assert not g.is_hermitian(hat)


# ---------------------------------------------------------------------------
# Dealiasing
# ---------------------------------------------------------------------------

def test_dealias_mask_two_thirds_cutoff():
    g = GridSpec.square(16, TWO_PI, dim=1)
    mask = g.dealias_mask
    k = np.fft.fftfreq(16, d=1.0 / 16).astype(int)
    kept = sorted(abs(int(kk)) for kk in k[mask])
    dropped = sorted(set(abs(int(kk)) for kk in k[~mask]))
    assert max(kept) == 5          # |k| <= 16/3
    assert dropped == [6, 7, 8]


def test_dealias_idempotent():
    g = _grid2(16)
    f = _random_field(g, 3, smooth=False)
    once = dealias(f)
    twice = dealias(once)
    np.testing.assert_allclose(once.hat, twice.hat, rtol=0, atol=0)
    assert np.all(once.hat[~g.dealias_mask] == 0)


def test_dealiased_product_matches_fine_grid():
    """fft(u*w) after dealiasing == exact product of band-limited factors.

    The oracle computes the pointwise product on a grid twice as fine
    (padding in spectral space), where no aliasing can occur, then
    restricts back.  This is the multiplication pattern every quadratic
    term in the right-hand sides uses.
    """
    g = GridSpec.square(32, TWO_PI, dim=1)
    fine = GridSpec.square(64, TWO_PI, dim=1)

    def bandlimited(seed):
        rng = np.random.default_rng(seed)
        hat = np.zeros(32, dtype=complex)
        for k in range(1, 6):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            hat[k] = c
            hat[-k] = np.conj(c)
        return SpectralField.from_spectral(g, hat)

    for seed in range(5):
        u = bandlimited(10 + seed)
        w = bandlimited(20 + seed)
        # pad both to the fine grid, multiply exactly, restrict
        pad_u = np.zeros(64, dtype=complex)
        pad_w = np.zeros(64, dtype=complex)
        pad_u[:16], pad_u[-16:] = u.hat[:16] * 2, u.hat[-16:] * 2
        pad_w[:16], pad_w[-16:] = w.hat[:16] * 2, w.hat[-16:] * 2
        exact = fine.fft(fine.ifft_real(pad_u) * fine.ifft_real(pad_w))
        restrict = np.zeros(32, dtype=complex)
        restrict[:16], restrict[-16:] = exact[:16] / 2, exact[-16:] / 2
        restrict = restrict * g.dealias_mask

        got = g.fft(u.values * w.values) * g.dealias_mask
        np.testing.assert_allclose(got, restrict, atol=1e-12)


# ---------------------------------------------------------------------------
# Calculus operators
# ---------------------------------------------------------------------------

def test_gradient_exact_on_modes():
    g = _grid2(16)
    x, y = g.x_mesh
    f = SpectralField.from_real(g, np.sin(3 * x) * np.cos(2 * y))
    gx, gy = gradient(f)
    np.testing.assert_allclose(gx.values, 3 * np.cos(3 * x) * np.cos(2 * y), atol=1e-12)
    np.testing.assert_allclose(gy.values, -2 * np.sin(3 * x) * np.sin(2 * y), atol=1e-12)


def test_laplacian_and_divergence_consistency():
    """div grad f is the Laplacian, the multiplier -|xi|^2."""
    g = _grid2(16)
    f = _random_field(g, 5)
    lap = SpectralField(g, hat=-g.abs2_xi * f.hat)
    div_grad = divergence(gradient(f))
    np.testing.assert_allclose(lap.values, div_grad.values, atol=1e-11)


def test_curl_of_gradient_vanishes():
    """xi2 * (d1 f)_hat == xi1 * (d2 f)_hat, the spectral form of curl = 0."""
    g = _grid2(16)
    f = _random_field(g, 6)
    g1, g2 = gradient(f)
    xi1, xi2 = g.xi_mesh
    np.testing.assert_allclose(xi2 * g1.hat, xi1 * g2.hat, atol=1e-12)


def test_divergence_of_perp_gradient_vanishes():
    g = _grid2(16)
    f = _random_field(g, 7)
    d1, d2 = gradient(f)
    div = divergence((-1.0 * d2, d1))
    np.testing.assert_allclose(div.values, 0.0, atol=1e-12)


def test_gradient_1d():
    g = GridSpec.square(32, TWO_PI, dim=1)
    f = SpectralField.from_real(g, np.sin(4 * g.x_mesh[0]))
    (gx,) = gradient(f)
    np.testing.assert_allclose(gx.values, 4 * np.cos(4 * g.x_mesh[0]), atol=1e-11)


# ---------------------------------------------------------------------------
# SpectralField mechanics
# ---------------------------------------------------------------------------

def test_field_exactly_one_representation():
    g = _grid2(8)
    with pytest.raises(ValueError):
        SpectralField(g)
    with pytest.raises(ValueError):
        SpectralField(g, real=np.zeros(g.n), hat=np.zeros(g.n, dtype=complex))


def test_field_shape_mismatch():
    g = _grid2(8)
    with pytest.raises(GridMismatchError):
        SpectralField(g, real=np.zeros((4, 4)))


def test_field_lazy_sync():
    g = _grid2(8)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(g.n)
    f = SpectralField.from_real(g, u)
    np.testing.assert_allclose(f.values, u)
    np.testing.assert_allclose(
        SpectralField.from_spectral(g, f.hat).values, u, atol=1e-12)


def test_field_arithmetic_and_copy():
    g = _grid2(8)
    f = _random_field(g, 10)
    h = _random_field(g, 11)
    np.testing.assert_allclose((f + h).values, f.values + h.values, atol=1e-12)
    np.testing.assert_allclose((f - h).values, f.values - h.values, atol=1e-12)
    np.testing.assert_allclose((2.5 * f).values, 2.5 * f.values, atol=1e-12)
    c = f.copy()
    np.testing.assert_allclose(c.values, f.values, rtol=0, atol=0)


def test_cross_grid_arithmetic_rejected():
    f = _random_field(_grid2(8), 12)
    h = _random_field(_grid2(16), 13)
    with pytest.raises(GridMismatchError):
        _ = f + h
