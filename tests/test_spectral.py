"""Tests for the periodic grid, transforms, and spectral calculus."""

import numpy as np
import pytest

from bfdsim import (
    GridSpec,
    ModelParams,
    ParameterDomainError,
    SchemeConfig,
    SpectralField,
    diagonalize,
    energy_report,
    equivalence_ratio,
    evolve,
    make_initial_state,
    noncavitation_margin,
    symbol_table,
    undiagonalize,
    variational_check,
)
from bfdsim.energy import sobolev_weight
from bfdsim.errors import GridMismatchError
from bfdsim.evolution import step_exponential
from bfdsim.spectral import (
    STACK_MAX_POINTS,
    TWO_PI,
    dealias,
    divergence,
    field_values,
    gradient,
)

from half_lattice_oracle import extend_half


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


def test_grid_square_and_1d():
    g = GridSpec.square(16, TWO_PI, dim=1)
    assert g.dim == 1 and g.n == (16,)
    assert GridSpec.square(8, 1.0).n == (8, 8)
    # scalars are taken as one axis
    scalar = GridSpec(n=16, length=TWO_PI)
    assert scalar.n == (16,) and scalar.length == (TWO_PI,) and scalar == g


@pytest.mark.parametrize("kw", [
    dict(n=(8, 8, 8), length=(1.0, 1.0, 1.0)),   # 3-d unsupported
    dict(n=(8,), length=(1.0, 1.0)),             # length mismatch
    dict(n=(7,), length=(1.0,)),                 # odd axis
    dict(n=(2,), length=(1.0,)),                 # too small
    dict(n=(8,), length=(0.0,)),                 # zero length
    dict(n=(8,), length=(-1.0,)),                # negative length
    dict(n=(16,), length=(float("nan"),)),       # non-finite length
    dict(n=(8, 8), length=(1.0, float("inf"))),
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
    """The half lattice agrees with numpy's complex fftn/ifftn: fft(x) and
    SpectralField.hat are its last-axis modes 0..n/2, and ifft_real
    inverts either one.  The field's spectrum, extended to the full
    lattice by the test oracle, is Hermitian bitwise: its self-conjugate
    columns are paired bitwise."""
    x = np.random.default_rng(sum(g.n)).standard_normal(g.n)
    want = np.fft.fftn(x)
    half = g.fft(x)
    field = SpectralField.from_real(g, x).hat
    scale = np.max(np.abs(want))
    cols = g.half_shape[-1]
    for hat in (half, field):
        assert hat.shape == g.half_shape == want[..., :cols].shape
        assert np.max(np.abs(hat - want[..., :cols])) <= 1e-13 * scale
    full = extend_half(g, field, field)
    assert np.array_equal(full[..., :cols], field)
    refl = full
    for ax in range(g.dim):
        refl = np.roll(np.flip(refl, axis=ax), 1, axis=ax)
    assert np.array_equal(refl, np.conj(full))
    back = np.fft.ifftn(want).real
    for hat in (half, field):
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
    """The full-lattice oracle of the tests (half_lattice_oracle): P =
    extend_half(hp, hm) and M = extend_half(hm, hp) satisfy P(-xi) =
    conj M(xi) exactly wherever -xi != xi, and P keeps hp on the half
    lattice outside the self-conjugate columns' rows k_0 < 0."""
    rng = np.random.default_rng(7)
    shape = g.fft(np.zeros(g.n)).shape
    hp, hm = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for _ in range(2))
    P, M = extend_half(g, hp, hm), extend_half(g, hm, hp)
    refl, self_conj = P, np.ones(g.n, dtype=bool)
    for ax, m in enumerate(g.n):
        refl = np.roll(np.flip(refl, axis=ax), 1, axis=ax)
        k = np.arange(m).reshape([-1 if a == ax else 1 for a in range(g.dim)])
        self_conj = self_conj & (k % (m // 2) == 0)
    assert np.array_equal(refl[~self_conj], np.conj(M)[~self_conj])
    kept = P[..., :g.half_shape[-1]] == hp
    if g.dim == 2:
        kept[g.n[0] // 2 + 1:, ::g.n[1] // 2] = True
    assert kept.all()


BAND_GRIDS = [GridSpec(n=(64,), length=(TWO_PI,)), GridSpec(n=(256,), length=(3.0,)),
              _grid2(16), _grid2(256, length=5.0), GridSpec(n=(12, 8), length=(2.0, 3.0))]


def _band_limited_half(g, seed):
    """Half-lattice spectrum of a random real field, zero off the band."""
    x = np.random.default_rng(seed).standard_normal(g.n)
    return np.fft.rfftn(x) * g.dealias_mask


@pytest.mark.parametrize("g", BAND_GRIDS, ids=lambda g: "x".join(map(str, g.n)))
def test_band_transforms_are_numpys_bitwise(g):
    """On the two-thirds band, ifft_real is bitwise irfftn of the band
    limited half lattice, and fft is bitwise the band of the masked rfftn,
    with fresh scratch and with scratch reused across calls: the band
    transforms run numpy's own sequence of 1-D passes."""
    work = g.band_work()
    for seed in range(3):
        hat = _band_limited_half(g, seed)
        band = g.band(hat)
        assert band.shape == g.band_shape
        want = np.fft.irfftn(hat, s=g.n, axes=tuple(range(g.dim)))
        assert np.array_equal(g.ifft_real(band), want)
        out = np.empty(g.n)
        assert g.ifft_real(band, out=out, work=work) is out
        assert np.array_equal(out, want)

        x = np.random.default_rng(seed + 10).standard_normal(g.n)
        masked = np.fft.rfftn(x) * g.dealias_mask
        got = g.fft(x, out=np.empty(g.band_shape, dtype=complex), work=work)
        assert np.array_equal(got, g.band(masked))
        assert np.array_equal(g.product_hat(x, out=np.empty_like(got)), got)


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
    """On the half lattice only the self-conjugate columns 0 and n/2 hold
    both xi and -xi: an imaginary mean in 1D, or a column-0 mode without
    its conjugate at -xi in 2D, breaks conjugate symmetry; content inside
    (0, n/2) does not."""
    for g, where, mirror in ((GridSpec.square(8, TWO_PI, dim=1), (0,), None),
                             (GridSpec.square(8, TWO_PI, dim=2), (1, 0), (-1, 0))):
        assert g.is_hermitian(np.zeros(g.half_shape, dtype=complex))
        hat = SpectralField.from_real(g, np.cos(g.x_mesh[0])).hat.copy()
        assert g.is_hermitian(hat)
        hat[(1,) * g.dim] += 1.0j * 0.5  # inside (0, n/2): still a real field
        assert g.is_hermitian(hat)
        hat[where] += 1.0j * 0.5  # breaks conjugate symmetry
        assert not g.is_hermitian(hat)
        if mirror is not None:
            hat[mirror] -= 1.0j * 0.5  # its conjugate at -xi mends it
            assert g.is_hermitian(hat)


# ---------------------------------------------------------------------------
# Dealiasing
# ---------------------------------------------------------------------------

def test_dealias_mask_two_thirds_cutoff():
    g = GridSpec.square(16, TWO_PI, dim=1)
    mask = g.dealias_mask
    k = np.fft.fftfreq(16, d=1.0 / 16).astype(int)[:g.half_shape[-1]]
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
        hat = np.zeros(17, dtype=complex)
        for k in range(1, 6):
            hat[k] = rng.standard_normal() + 1j * rng.standard_normal()
        return SpectralField(g, hat=hat)

    for seed in range(5):
        u = bandlimited(10 + seed)
        w = bandlimited(20 + seed)
        # pad both to the fine grid's half lattice, multiply exactly, restrict
        pad_u = np.zeros(33, dtype=complex)
        pad_w = np.zeros(33, dtype=complex)
        pad_u[:16] = u.hat[:16] * 2
        pad_w[:16] = w.hat[:16] * 2
        exact = fine.fft(fine.ifft_real(pad_u) * fine.ifft_real(pad_w))
        restrict = np.zeros(17, dtype=complex)
        restrict[:16] = exact[:16] / 2
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
    with pytest.raises(GridMismatchError):
        divergence((d1,))  # a 2-D grid needs two components


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


@pytest.mark.parametrize("dim", [1, 2])
def test_every_spectrum_lives_on_the_half_lattice(dim):
    """Field spectra, fft, the movers and W_hat of diagonalize, of both
    steps and of undiagonalize, every per-mode symbol-table array and the
    norm weights have the rfftn half lattice's shape; the IF-RK4 forcing
    multipliers have the band's.  A full-lattice spectrum is refused."""
    g = GridSpec.square(12, TWO_PI, dim=dim)
    half = g.half_shape
    p = ModelParams(gamma=0.7, epsilon=0.2, mu=0.1, mu2=0.2,
                    a=0.0, b=0.25, c=-0.1, d=1.0 / 6.0)
    state = make_initial_state(g, p, profile="random_bandlimited", seed=3,
                               velocity="random")
    assert g.fft(state.zeta.values).shape == half
    assert all(f.hat.shape == half for f in (state.zeta, *state.v))
    diag = diagonalize(state)
    for d in (diag, step_exponential(diag, 0.01),
              step_exponential(diagonalize(state.with_params(p.replace(epsilon=0.0))), 0.01)):
        assert d.Zp_hat.shape == d.Zm_hat.shape == half
        assert (d.W_hat is None) if dim == 1 else (d.W_hat.shape == half)
    assert all(f.hat.shape == half for f in (undiagonalize(diag).zeta, *undiagonalize(diag).v))
    tab = symbol_table(g, p)
    for name in ("A", "g", "Omega", "impedance", "helmholtz_b", "helmholtz_d",
                 "one_minus_cmu", "sigma", "omega1", "omega2", "ratio_sqrt", "lambda_plus"):
        assert getattr(tab, name).shape == half, name
    assert tab.mover_velocity.shape == (dim,) + half
    assert tab.forcing_div.shape == tab.forcing_vsq.shape == g.band_shape
    for arr in (g.abs2_xi, g.abs_xi, g.dealias_mask, sobolev_weight(g, 1.5, 1, 0.1),
                *g.unit_xi):
        assert arr.shape == half
    with pytest.raises(GridMismatchError):
        SpectralField(g, hat=np.zeros(g.n, dtype=complex))


def test_field_lazy_sync():
    g = _grid2(8)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(g.n)
    f = SpectralField.from_real(g, u)
    np.testing.assert_allclose(f.values, u)
    np.testing.assert_allclose(SpectralField(g, hat=f.hat).values, u, atol=1e-12)


def test_field_arithmetic_and_copy():
    g = _grid2(8)
    f = _random_field(g, 10)
    h = _random_field(g, 11)
    np.testing.assert_allclose((f + h).values, f.values + h.values, atol=1e-12)
    np.testing.assert_allclose((f - h).values, f.values - h.values, atol=1e-12)
    np.testing.assert_allclose((2.5 * f).values, 2.5 * f.values, atol=1e-12)
    # from_real copies its input, so the field does not see later writes to it
    u = f.values.copy()
    c = SpectralField.from_real(g, u)
    u[:] = 0.0
    np.testing.assert_array_equal(c.values, f.values)


def test_cross_grid_arithmetic_rejected():
    f = _random_field(_grid2(8), 12)
    h = _random_field(_grid2(16), 13)
    with pytest.raises(GridMismatchError):
        _ = f + h


# ---------------------------------------------------------------------------
# Stacked transforms
# ---------------------------------------------------------------------------

# both sides of STACK_MAX_POINTS (64^2), in 2D and 1D
STACK_GRIDS = [GridSpec.square(n, TWO_PI, dim=2) for n in (16, 32, 64, 128, 256)]
STACK_GRIDS += [GridSpec.square(n, TWO_PI, dim=1) for n in (64, 4096, 8192)]


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=lambda g: "x".join(map(str, g.n)))
def test_stacked_transforms_equal_per_field_calls_bitwise(grid):
    """fft, ifft_real and product_hat of a stack (one leading axis), one
    call at most STACK_MAX_POINTS points and one call per field above it,
    equal per-field calls bitwise."""
    assert {g.npoints <= STACK_MAX_POINTS for g in STACK_GRIDS} == {True, False}
    rng = np.random.default_rng(grid.npoints)
    values = rng.standard_normal((3,) + grid.n)
    hats = grid.product_hat(values)
    assert hats.shape == (3,) + grid.half_shape
    spectra = grid.fft(values)
    for field, hat, spectrum in zip(values, hats, spectra):
        assert np.array_equal(hat, grid.product_hat(field))
        assert np.array_equal(spectrum, grid.fft(field))
    got = grid.ifft_real(hats)
    assert got.shape == (3,) + grid.n and got.dtype == np.float64
    for one, hat in zip(got, hats):
        assert np.array_equal(one, grid.ifft_real(hat))


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=lambda g: "x".join(map(str, g.n)))
def test_stacked_band_transforms_equal_per_field_calls_bitwise(grid):
    """On the band, fft and ifft_real with out= and work= take a stack of
    three fields, in one call at most STACK_MAX_POINTS points and one call
    per field above it (band_work sizes the scratch to match), and equal
    per-field calls bitwise.  Two rounds share one work, the inverse after
    the forward each time, so the forward passes' writes past the band
    are shown not to reach the inverse's zero padding."""
    work = grid.band_work(3)
    stacked = grid.npoints <= STACK_MAX_POINTS
    assert work.shape == ((3,) if stacked else ()) + grid.half_shape
    for seed in range(2):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((3,) + grid.n)
        spectra = np.empty((3,) + grid.band_shape, dtype=complex)
        assert grid.fft(values, out=spectra, work=work) is spectra
        halves = [_band_limited_half(grid, 3 * seed + i) for i in range(3)]
        bands = np.stack([grid.band(h) for h in halves])
        got = np.empty((3,) + grid.n)
        assert grid.ifft_real(bands, out=got, work=work) is got
        assert np.array_equal(grid.ifft_real(bands), got)
        for field, spectrum, band, half, one in zip(values, spectra, bands, halves, got):
            want = grid.fft(field, out=np.empty(grid.band_shape, dtype=complex))
            assert np.array_equal(spectrum, want)
            assert np.array_equal(spectrum, grid.band(np.fft.rfftn(field)))
            assert np.array_equal(one, grid.ifft_real(band))
            assert np.array_equal(one, np.fft.irfftn(half, s=grid.n,
                                                     axes=tuple(range(grid.dim))))


def test_field_values_fills_the_uncached_fields_bitwise():
    """field_values fills the uncached fields' values in one stacked call,
    bitwise what .values gives, and leaves cached values as they are."""
    grid = _grid2(16)
    cached = SpectralField.from_real(grid, np.cos(grid.x_mesh[0]))
    fresh = [SpectralField(grid, hat=_random_field(grid, s).hat) for s in (1, 2)]
    want = [grid.ifft_real(f.hat) for f in fresh]
    got = field_values([cached, *fresh])
    assert got[0] is cached.values
    for g, w, f in zip(got[1:], want, fresh):
        assert np.array_equal(g, w) and g is f.values


@pytest.mark.parametrize("n, calls", [(64, 1), (128, 3)])
def test_field_values_stacks_only_up_to_the_threshold(monkeypatch, n, calls):
    """Up to STACK_MAX_POINTS the uncached fields take one stacked
    ifft_real call; above it each field's .values transforms it, with no
    stack built, and both are bitwise .values."""
    grid = _grid2(n)
    fresh = [SpectralField(grid, hat=_random_field(grid, s).hat) for s in (1, 2, 3)]
    want = [grid.ifft_real(f.hat) for f in fresh]
    shapes = []
    inner = GridSpec.ifft_real

    def counting(self, hat, *args, **kw):
        shapes.append(hat.shape)
        return inner(self, hat, *args, **kw)

    monkeypatch.setattr(GridSpec, "ifft_real", counting)
    got = field_values(fresh)
    assert len(shapes) == calls
    assert all(len(shape) == (3 if calls == 1 else 2) for shape in shapes)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
