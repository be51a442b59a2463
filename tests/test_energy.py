"""Tests for norms, symmetrizer energies, and the conserved functional."""

import dataclasses
import math

import numpy as np
import pytest

from bfdsim import (
    FieldState,
    GridSpec,
    ModelParams,
    ParameterDomainError,
    SchemeConfig,
    SpectralField,
    classify_case,
    energy_Es,
    energy_report,
    equivalence_ratio,
    evolve,
    frozen_symbol_matrices,
    hamiltonian,
    make_initial_state,
    variational_check,
    x_norm,
)
from bfdsim.energy import (
    REPORT_COLUMNS,
    bessel_weight,
    calE_s,
    csv_header,
    sobolev_weight,
    symmetrizer_apply,
    variational_gradients,
    x_norm_state,
)
from bfdsim.spectral import TWO_PI
from bfdsim.symbols import multipliers, symbol_table

import symmetrizer_oracle
from energy_outputs import CASES, LEVELS
from half_lattice_oracle import extend_half, full_abs2_xi, full_dealias_mask


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


# ---------------------------------------------------------------------------
# Weighted norms
# ---------------------------------------------------------------------------

def test_x_norm_single_mode_closed_forms():
    g = GridSpec.square(32, TWO_PI, dim=2)
    u = SpectralField.from_real(g, np.cos(g.x_mesh[0]))
    two_pi_sq = 2.0 * np.pi**2

    assert x_norm(u, 0.0, 0, 0.1) ** 2 == pytest.approx(two_pi_sq, rel=1e-12)
    assert x_norm(u, 0.0, 1, 0.04) ** 2 == pytest.approx(
        two_pi_sq * 1.04, rel=1e-12)
    assert x_norm(u, 2.0, 0, 0.1) ** 2 == pytest.approx(
        4.0 * two_pi_sq, rel=1e-12)
    assert x_norm(u, 1.0, 2, 0.3) ** 2 == pytest.approx(
        2.0 * (1 + 0.3**2) * two_pi_sq, rel=1e-12)


def test_x_norm_zero_field():
    g = GridSpec.square(8, TWO_PI, dim=1)
    assert x_norm(SpectralField.zeros(g), 3.0, 2, 0.1) == 0.0


def test_x_norm_rejects_negative_orders():
    g = GridSpec.square(8, TWO_PI, dim=1)
    u = SpectralField.zeros(g)
    with pytest.raises(ParameterDomainError):
        x_norm(u, -1.0, 0, 0.1)
    with pytest.raises(ParameterDomainError):
        x_norm(u, 0.0, -1, 0.1)
    state = FieldState(t=0.0, zeta=u, v=(u,), params=_params())
    for s, k, k_prime in ((-1.0, 0, 0), (0.0, -1, 0), (0.0, 0, -1)):
        with pytest.raises(ParameterDomainError):
            x_norm_state(state, s, k, k_prime)


def test_x_norm_state_combines_components():
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(mu=0.25)
    x = g.x_mesh[0]
    state = FieldState.from_arrays(g, p, np.cos(x),
                                   (np.cos(x), 2.0 * np.cos(x)))
    got = x_norm_state(state, 0.0, 1, 1)
    single = math.sqrt(2.0 * np.pi**2 * 1.25)
    assert got == pytest.approx(single + math.sqrt(5.0) * single, rel=1e-12)


def test_bessel_weight_formula():
    g = GridSpec.square(8, TWO_PI, dim=2)
    lam = bessel_weight(g, 3.0)
    np.testing.assert_allclose(lam, (1.0 + g.abs2_xi) ** 1.5, rtol=1e-15)
    assert bessel_weight(g, 3.0) is lam
    with pytest.raises(ValueError):
        lam[0, 0] = 2.0


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("s", [0.0, 1.5, 2.0])
def test_x_norm_weight_is_a_cached_read_only_formula(s, k):
    """x_norm weighs |u_hat|^2 by sobolev_weight, which is the written-out
    (1 + |xi|^2)^s (1 + mu^k |xi|^{2k}) (no second factor at k = 0), one
    read-only array per (grid, s, k, mu)."""
    g = GridSpec.square(16, 3.0, dim=2)
    mu = 0.3
    weight = sobolev_weight(g, s, k, mu)
    want = (1.0 + g.abs2_xi) ** s
    if k > 0:
        want = want * (1.0 + mu**k * g.abs2_xi**k)
    np.testing.assert_allclose(weight, want, rtol=1e-15)
    assert sobolev_weight(g, s, k, mu) is weight
    with pytest.raises(ValueError):
        weight[1, 1] = 0.0
    u = _random_state(g, _params(), 7).zeta
    assert x_norm(u, s, k, mu) == pytest.approx(
        math.sqrt(g.spectral_l2_sq(u.hat, weight=want)), rel=1e-14)


# ---------------------------------------------------------------------------
# Hamiltonian: closed forms
# ---------------------------------------------------------------------------

def test_hamiltonian_zero_state():
    g = GridSpec.square(8, TWO_PI, dim=2)
    state = FieldState.from_arrays(g, _params(), np.zeros(g.n),
                                   (np.zeros(g.n), np.zeros(g.n)))
    assert hamiltonian(state) == 0.0


def test_hamiltonian_surface_only():
    """zeta = cos(x), v = 0 on the 2-d torus: the quadratic surface terms."""
    g = GridSpec.square(32, TWO_PI, dim=2)
    gamma, c, mu = 0.5, -1.0 / 6.0, 0.04
    p = _params(gamma=gamma, c=c, mu=mu, mu2=mu, b=0.2, d=0.2)
    state = FieldState.from_arrays(g, p, np.cos(g.x_mesh[0]),
                                   (np.zeros(g.n), np.zeros(g.n)))
    expect = 0.5 * (1 - gamma) * (1 + abs(c) * mu) * 2.0 * np.pi**2
    assert hamiltonian(state) == pytest.approx(expect, rel=1e-12)


def test_hamiltonian_velocity_only():
    """zeta = 0, v = (cos(x), 0): kinetic terms with the dispersive weight."""
    g = GridSpec.square(32, TWO_PI, dim=2)
    gamma, a, mu, mu2 = 0.5, -0.1, 0.04, 0.25
    p = _params(gamma=gamma, a=a, mu=mu, mu2=mu2, b=0.2, d=0.2, c=-0.05)
    state = FieldState.from_arrays(g, p, np.zeros(g.n),
                                   (np.cos(g.x_mesh[0]), np.zeros(g.n)))
    s = math.sqrt(mu2)
    sig1 = s * math.cosh(s) / math.sinh(s)  # sigma at |xi| = 1
    bracket = (1 / gamma + abs(a) * mu / gamma
               + math.sqrt(mu / mu2) / gamma**2 * sig1
               + (mu / mu2) / gamma**3 * sig1**2)
    expect = 0.5 * bracket * 2.0 * np.pi**2
    assert hamiltonian(state) == pytest.approx(expect, rel=1e-12)


def test_hamiltonian_cubic_term():
    """zeta = alpha*cos(2x), v = beta*cos(x) in 1-d: the only cubic
    contribution is -(eps/2gamma) * alpha*beta^2 * pi/2 * 2."""
    g = GridSpec.square(64, TWO_PI, dim=1)
    gamma, a, c, mu, mu2, eps = 0.5, -0.1, -0.05, 0.04, 0.25, 0.3
    p = ModelParams(gamma=gamma, epsilon=eps, mu=mu, mu2=mu2,
                    a=a, b=0.2, c=c, d=0.2)
    alpha, beta = 0.2, 0.3
    x = g.x_mesh[0]
    state = FieldState.from_arrays(g, p, alpha * np.cos(2 * x),
                                   (beta * np.cos(x),))

    s = math.sqrt(mu2)
    sig1 = s * math.cosh(s) / math.sinh(s)
    quad_z = 0.5 * (1 - gamma) * (alpha**2 * np.pi
                                  + abs(c) * mu * 4 * alpha**2 * np.pi)
    quad_v = 0.5 * beta**2 * np.pi * (1 / gamma + abs(a) * mu / gamma
                                      + math.sqrt(mu / mu2) / gamma**2 * sig1
                                      + (mu / mu2) / gamma**3 * sig1**2)
    # integral of cos(2x)cos^2(x) over one period is pi/2
    cubic = -0.5 * eps / gamma * alpha * beta**2 * (np.pi / 2.0)
    assert hamiltonian(state) == pytest.approx(quad_z + quad_v + cubic,
                                               rel=1e-12)


# ---------------------------------------------------------------------------
# Variational structure
# ---------------------------------------------------------------------------

def test_variational_residual_linear():
    g = GridSpec.square(32, TWO_PI, dim=2)
    state = _random_state(g, _params(epsilon=0.0), 1)
    assert variational_check(state) < 1e-12


def test_variational_residual_nonlinear():
    g = GridSpec.square(32, TWO_PI, dim=2)
    for seed in range(5):
        state = _random_state(g, _params(epsilon=0.05), seed, scale=0.2)
        assert variational_check(state) < 1e-11


def test_variational_residual_zero_state():
    g = GridSpec.square(16, TWO_PI, dim=2)
    state = FieldState.from_arrays(g, _params(), np.zeros(g.n),
                                   (np.zeros(g.n), np.zeros(g.n)))
    assert variational_check(state) == 0.0


def test_gradients_match_finite_differences():
    """H(U + h dU) - H(U) - h <grad H, dU> = O(h^2), order >= 1.95."""
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(gamma=0.6, epsilon=0.3, mu=0.05, mu2=0.2, a=-0.1)
    state = _random_state(g, p, 7, scale=0.3)
    direction = _random_state(g, p, 8, scale=1.0)

    gz, gv = variational_gradients(state)
    gz_vals = g.ifft_real(gz)
    gv_vals = [g.ifft_real(c) for c in gv]
    pairing = g.integral(gz_vals * direction.zeta.values)
    pairing += sum(g.integral(c * d.values)
                   for c, d in zip(gv_vals, direction.v))

    h0 = hamiltonian(state)
    hs = np.array([1e-2, 1e-3, 1e-4])
    remainders = []
    for h in hs:
        shifted = FieldState(
            t=0.0, zeta=state.zeta + float(h) * direction.zeta,
            v=tuple(a + float(h) * b for a, b in zip(state.v, direction.v)),
            params=p)
        remainders.append(abs(hamiltonian(shifted) - h0 - h * pairing))
    fit = np.polyfit(np.log(hs), np.log(remainders), 1)[0]
    assert fit >= 1.95


# ---------------------------------------------------------------------------
# Symmetrizer energies: independent oracles
# ---------------------------------------------------------------------------

def _diag_oracle(state, s, zeta_coef, v_coef):
    """Dense per-mode sum with explicit diagonal weights."""
    grid = state.grid
    w = (1.0 + grid.abs2_xi) ** s
    total = grid.spectral_l2_sq(state.zeta.hat, weight=w * zeta_coef)
    for c in state.v:
        total += grid.spectral_l2_sq(c.hat, weight=w * v_coef)
    return total


def test_energy_diagonal_oracle_equal_weights():
    """eps = 0, b = d: per mode the energy is
    gg*(1-c*mu*|xi|^2)*(1+b*mu*|xi|^2)|zeta|^2 + A*(1+b*mu*|xi|^2)|v|^2."""
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.0, gamma=0.4, mu=0.2, mu2=0.5)
    state = _random_state(g, p, 11)
    tab = symbol_table(g, p)
    gg = p.gamma * (1 - p.gamma)
    expect = _diag_oracle(state, 1.5,
                          gg * tab.one_minus_cmu * tab.helmholtz_b,
                          tab.A * tab.helmholtz_b)
    assert energy_Es(state, 1.5) == pytest.approx(expect, rel=1e-12)


def test_energy_diagonal_oracle_distinct_weights():
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.0, gamma=0.4, mu=0.2, mu2=0.5, b=0.25, d=1.0 / 6.0)
    state = _random_state(g, p, 12)
    tab = symbol_table(g, p)
    gg = p.gamma * (1 - p.gamma)
    expect = _diag_oracle(
        state, 2.0,
        gg**2 * tab.one_minus_cmu**2 * tab.g * tab.helmholtz_b,
        gg * tab.A * tab.one_minus_cmu * tab.helmholtz_b)
    assert energy_Es(state, 2.0) == pytest.approx(expect, rel=1e-12)


def test_energy_diagonal_oracle_b_zero():
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.0, gamma=0.4, mu=0.2, mu2=0.5, b=0.0, d=5.0 / 12.0)
    state = _random_state(g, p, 13)
    tab = symbol_table(g, p)
    gg = p.gamma * (1 - p.gamma)
    expect = _diag_oracle(
        state, 1.0,
        gg**2 * tab.one_minus_cmu**2 * tab.helmholtz_d,
        gg * tab.one_minus_cmu * tab.A * tab.helmholtz_d**2)
    assert energy_Es(state, 1.0) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("b, d", [(5.0 / 24.0, 5.0 / 24.0), (0.25, 1.0 / 6.0),
                                  (0.0, 1.0 / 6.0)], ids=["b=d", "b!=d", "b=0"])
def test_energy_Es_rejects_a_pairing_with_an_imaginary_residue(b, d):
    """On the half lattice the E_s pairing can leave an imaginary residue
    only in the self-conjugate columns, which hold both xi and -xi.  A
    state whose column 0 breaks conjugate symmetry there raises
    ArithmeticError; the same change inside (0, n/2) is still a real
    field, and its energy is real."""
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.3, b=b, d=d)
    state = _random_state(g, p, 12, scale=0.3)
    scale = float(np.max(np.abs(state.zeta.hat)))

    def with_zeta_mode(where):
        hat = state.zeta.hat.copy()
        hat[where] += 0.5j * scale
        return FieldState(t=0.0, zeta=SpectralField(g, hat=hat), v=state.v, params=p)

    assert np.isfinite(energy_Es(with_zeta_mode((2, 3)), 1.0))
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        energy_Es(with_zeta_mode((2, 0)), 1.0)


def _circulant_2d(grid, w_vals):
    """Dense spectral matrix of pointwise multiplication by w."""
    n1, n2 = grid.n
    what = np.fft.fftn(w_vals)
    N = grid.npoints
    C = np.zeros((N, N), dtype=complex)
    for k1 in range(n1):
        for k2 in range(n2):
            for l1 in range(n1):
                for l2 in range(n2):
                    C[k1 * n2 + k2, l1 * n2 + l2] = (
                        what[(k1 - l1) % n1, (k2 - l2) % n2] / N)
    return C


def test_energy_dense_matrix_oracle():
    """Nonlinear energy, b = d = 0 case, on an 8x8 grid: the symmetrizer
    applied through dense circulant matrices on the full lattice agrees
    with the fft path."""
    g = GridSpec.square(8, TWO_PI, dim=2)
    p = _params(gamma=0.6, epsilon=0.4, mu=0.3, mu2=0.3, a=0.0,
                b=0.0, c=-1.0 / 12.0, d=0.0)
    state = _random_state(g, p, 21, scale=0.4)
    s = 0.5

    k2 = full_abs2_xi(g)
    sym = multipliers(k2, p)
    lam = (1.0 + k2) ** (s / 2.0)
    D = np.diag(full_dealias_mask(g).ravel().astype(float))
    OMC = np.diag(sym["one_minus_cmu"].ravel())
    A = np.diag(sym["A"].ravel())
    Cz = _circulant_2d(g, state.zeta.values)
    Cv = [_circulant_2d(g, c.values) for c in state.v]
    gg = p.gamma * (1 - p.gamma)

    arg_z = (lam * extend_half(g, state.zeta.hat, state.zeta.hat)).ravel()
    arg_v = [(lam * extend_half(g, c.hat, c.hat)).ravel() for c in state.v]

    out_z = gg * OMC @ arg_z
    for j in range(2):
        out_z = out_z - p.epsilon * D @ Cv[j] @ arg_v[j]
    out_v = []
    for j in range(2):
        comp = A @ arg_v[j] - p.epsilon * D @ Cz @ arg_v[j]
        comp = comp - p.epsilon * D @ Cv[j] @ arg_z
        out_v.append(comp)

    norm = g.cell_volume / g.npoints
    dense = norm * np.vdot(out_z, arg_z).real
    for j in range(2):
        dense += norm * np.vdot(out_v[j], arg_v[j]).real

    assert energy_Es(state, s) == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("b, d", [(5.0 / 24.0, 5.0 / 24.0), (0.25, 1.0 / 6.0),
                                  (0.0, 1.0 / 6.0), (0.0, 0.0)],
                         ids=["b=d", "b!=d", "b=0", "b=d=0"])
def test_symmetrizer_apply_is_the_frozen_symmetrizer(b, d):
    """On a constant background (zeta_bar, v_bar) every product with a
    band-limited argument is exact, so symmetrizer_apply is the frozen
    S(xi) of frozen_symbol_matrices, applied mode by mode."""
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.4, b=b, d=d)
    zbar, vbar = 0.3, (0.2, -0.15)
    state = FieldState.from_arrays(g, p, np.full(g.n, zbar),
                                   tuple(np.full(g.n, c) for c in vbar))
    rng = np.random.default_rng(5)
    args = np.stack([g.fft(rng.standard_normal(g.n)) * g.dealias_mask
                     for _ in range(3)])
    variant = classify_case(p).variant
    fields = [SpectralField(g, hat=a) for a in args]
    s_z, s_v = symmetrizer_apply(state, fields[0], tuple(fields[1:]), variant)
    got = np.stack((s_z, *s_v))
    want = np.empty_like(got)
    for idx in np.ndindex(g.half_shape):
        xi = tuple(float(g.xi[axis][i]) for axis, i in enumerate(idx))
        S = frozen_symbol_matrices(xi, zbar, vbar, p, variant=variant).S
        want[(slice(None),) + idx] = S @ args[(slice(None),) + idx]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _oracle_inputs(grid: GridSpec, p: ModelParams, seed: int):
    """Spectra of a random state and of a Bessel-weighted argument; the
    fields are built from them afresh for each side of a comparison."""
    state = make_initial_state(grid, p, profile="random_bandlimited", amplitude=0.3,
                               seed=seed, velocity="random")
    spectra = [f.hat for f in (state.zeta, *state.v)]
    lam = bessel_weight(grid, 1.5)
    return spectra, [lam * h for h in spectra]


def _fields(grid: GridSpec, spectra):
    return [SpectralField(grid, hat=h) for h in spectra]


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("b, d", [(5.0 / 24.0, 5.0 / 24.0), (0.25, 1.0 / 6.0),
                                  (0.0, 1.0 / 6.0)], ids=["b=d", "b!=d", "b=0"])
def test_symmetrizer_apply_equals_the_per_field_oracle_bitwise(n, b, d):
    """The stacked symmetrizer (one inverse transform of its operands, one
    forward transform of its products, v_j v_k from the memo) equals the
    one-call-per-field oracle bitwise, at 32^2 (stacked calls) and 128^2
    (one call per field of a stack), on a fresh state and again on the
    same state with its memo filled."""
    grid = GridSpec.square(n, TWO_PI, dim=2)
    p = _params(epsilon=0.2, b=b, d=d)
    variant = classify_case(p).variant
    spectra, args = _oracle_inputs(grid, p, n)
    zeta, *v = _fields(grid, spectra)
    oracle_state = FieldState(t=0.0, zeta=zeta, v=tuple(v), params=p)
    arg_z, *arg_v = _fields(grid, args)
    want = symmetrizer_oracle.symmetrizer_apply(oracle_state, arg_z, tuple(arg_v), variant)
    zeta, *v = _fields(grid, spectra)
    state = FieldState(t=0.0, zeta=zeta, v=tuple(v), params=p)
    for _ in range(2):
        arg_z, *arg_v = _fields(grid, args)
        s_z, s_v = symmetrizer_apply(state, arg_z, tuple(arg_v), variant)
        for got, w in zip((s_z, *s_v), (want[0], *want[1])):
            assert np.array_equal(got, w)


def test_with_params_shares_the_memo_and_other_fields_do_not():
    """A with_params state keeps the fields and the memo, so the v_j v_k,
    the |hat|^2, the Bessel-weighted fields, the eps-free pairings of E_s
    and the X^s norms (per s, k, k' and mu) that one point forms serve the
    next; a state with other v, a new FieldState of the same fields, or a
    dataclasses.replace of another field starts empty."""
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.2, b=0.25, d=1.0 / 6.0)
    state = make_initial_state(grid, p, profile="random_bandlimited", amplitude=0.3,
                               seed=4, velocity="random")
    point = state.with_params(p.replace(epsilon=0.1, mu=0.05))
    assert point.memo is state.memo
    assert point.zeta is state.zeta and point.v is state.v and point.t == state.t
    energy_Es(point, 1.5)
    es_key = ("es", 1.5, "b!=d", p.replace(epsilon=0.0, mu=0.05))
    assert set(state.memo) == {"vv", ("bessel", 1.5), es_key}
    calE_s(state, 1.5)
    x_key = ("x", 1.5, 3, 3, 0.1)
    assert set(point.memo) == {"vv", ("bessel", 1.5), es_key, "abs2", x_key}
    filled = dict(state.memo)
    vv = filled["vv"]
    energy_report(point, s=1.5)
    assert set(state.memo) == set(filled) | {("x", 1.5, 3, 3, 0.05), ("x", 0.0, 1, 1, 0.05)}
    assert all(state.memo[k] is v for k, v in filled.items())
    energy_report(state, s=1.5)
    assert set(state.memo) == set(filled) | {("x", 1.5, 3, 3, 0.05), ("x", 0.0, 1, 1, 0.05),
                                             ("x", 0.0, 1, 1, 0.1),
                                             ("es", 1.5, "b!=d", p.replace(epsilon=0.0))}

    doubled = FieldState(t=state.t, zeta=state.zeta, v=tuple(2.0 * c for c in state.v),
                         params=p)
    same_fields = FieldState(t=state.t, zeta=state.zeta, v=state.v, params=p)
    others = (doubled, same_fields, dataclasses.replace(state, t=1.0))
    for other in others:
        assert other.memo is not state.memo and other.memo == {}
    energy_Es(doubled, 1.5)
    np.testing.assert_allclose(doubled.memo["vv"][0][1], 4.0 * vv[0][1],
                               rtol=1e-12, atol=1e-14)


def test_evolve_and_energy_report_share_one_x_norm_evaluation(monkeypatch):
    """evolve's blow-up test reads a snapshot's X^0_{mu} norms, and the
    energy_report of that snapshot reads them again as x0_norm and (case 7,
    k = k' = 1, s = 0) as calE_s: one evaluation serves all three, that
    is two sobolev_weight calls (zeta's and v's) per snapshot."""
    from bfdsim import energy

    calls = []
    inner = energy.sobolev_weight
    monkeypatch.setattr(energy, "sobolev_weight",
                        lambda grid, *args: calls.append(args) or inner(grid, *args))
    grid = GridSpec.square(16, 8.0 * math.pi, dim=2)
    p = _params(b=0.0, c=-1.0 / 12.0, d=0.0)
    assert classify_case(p).case_id == 7
    state = make_initial_state(grid, p, profile="random_bandlimited", amplitude=0.3,
                               seed=5, velocity="random")
    per_snapshot = []

    def report(snap):
        rep = energy_report(snap, s=0.0)
        assert rep.x0_norm == x_norm_state(snap, 0.0, 1, 1)
        per_snapshot.append(len(calls))

    summary = evolve(state, SchemeConfig(dt=0.05, max_t=0.2), monitors=[report])
    assert summary.steps == 4
    assert np.diff([0] + per_snapshot).tolist() == [2] * 5
    assert set(calls) == {(0.0, 1, p.mu)}


def _fresh_copy(state: FieldState, params: ModelParams) -> FieldState:
    """The state's fields rebuilt from their spectra, under params, with a
    memo of its own."""
    zeta, *v = (SpectralField(state.grid, hat=f.hat.copy()) for f in (state.zeta, *state.v))
    return FieldState(t=state.t, zeta=zeta, v=tuple(v), params=params)


def _es_keys(state: FieldState) -> list:
    return [k for k in state.memo if isinstance(k, tuple) and k[0] == "es"]


@pytest.mark.parametrize("dim", [2, 1], ids=["16sq", "64line"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_memo_scores_every_sweep_point_as_a_fresh_state(dim, case):
    """E_s = c0 + eps*c1 + eps^2*c2 with c_i free of eps, kept in the memo
    once per mu: at every point of a 3x3 (eps, mu) sweep of one
    with_params-shared state, E_s equals energy_Es of a fresh state (its
    own fields and memo) to 1e-13 relative, for every coefficient case."""
    grid = GridSpec.square(16 if dim == 2 else 64, TWO_PI, dim=dim)
    b, c, d = CASES[case]
    p = _params(gamma=0.7, epsilon=0.2, mu=0.1, mu2=0.2, b=b, c=c, d=d)
    state = make_initial_state(grid, p, profile="random_bandlimited", amplitude=0.3,
                               seed=60 + case, velocity="random")
    for eps in (0.2, *LEVELS[:2]):
        for mu in (0.1, *LEVELS[:2]):
            q = p.replace(epsilon=eps, mu=mu)
            kind = classify_case(q)
            assert kind.case_id == case
            shared = energy_Es(state.with_params(q), 1.5, kind)
            fresh = energy_Es(_fresh_copy(state, q), 1.5, kind)
            assert shared == pytest.approx(fresh, rel=1e-13, abs=0.0), (eps, mu)
    assert len(_es_keys(state)) == 3


@pytest.mark.parametrize("b, d, want", [
    (0.25, 1.0 / 6.0, {"ifft_real": 4, "fft": 7}),
    (5.0 / 24.0, 5.0 / 24.0, {"ifft_real": 1, "fft": 6}),
], ids=["b!=d", "b=d"])
def test_a_sweep_runs_the_symmetrizer_once_per_mu(monkeypatch, b, d, want):
    """A 9-point, 3-mu sweep of one 16^2 state runs the symmetrizer chain 3
    times.  Besides the 3 spectra of the state's own fields, b != d forms
    the v_j v_k once (1 fft, 1 ifft_real) and per mu 1 inverse transform
    of its operands and 1 forward transform of its products; b = d reads
    the Bessel-weighted argument's values once (1 ifft_real) and per mu
    forms 1 forward transform.  Scored at every point, they were 10 and 13
    calls for b != d and 1 and 12 for b = d."""
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.2, b=b, d=d)
    state = make_initial_state(grid, p, profile="random_bandlimited", amplitude=0.3,
                               seed=9, velocity="random")
    points = [p.replace(epsilon=e, mu=m) for e in LEVELS for m in LEVELS]
    counts = dict.fromkeys(want, 0)

    def counting(name):
        inner = getattr(GridSpec, name)

        def call(self, *args, **kw):
            counts[name] += 1
            return inner(self, *args, **kw)
        return call

    for name in counts:
        monkeypatch.setattr(GridSpec, name, counting(name))
    for q in points:
        energy_Es(state.with_params(q), 2.0)
    assert counts == want
    assert len(_es_keys(state)) == 3


def test_the_memo_recomputes_for_another_gamma_mu2_or_variant():
    """The memo key of E_s holds every parameter but eps, and the variant:
    a state sharing the memo that differs from its entry only in gamma, in
    mu2 or in the forced variant scores as a fresh state does, not as the
    entry."""
    grid = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.2, b=5.0 / 24.0, d=5.0 / 24.0)
    state = make_initial_state(grid, p, profile="random_bandlimited", amplitude=0.3,
                               seed=11, velocity="random")
    base = energy_Es(state, 1.5)
    others = [(p.replace(gamma=0.6), None), (p.replace(mu2=0.3), None),
              (p, classify_case(p, case_override=1))]
    assert others[2][1].variant != classify_case(p).variant
    for q, case in others:
        got = energy_Es(state.with_params(q), 1.5, case)
        assert got == energy_Es(_fresh_copy(state, q), 1.5, case)
        assert abs(got - base) > 1e-6 * abs(base)
    assert len(_es_keys(state)) == 4


def test_equivalence_ratio_zero_state_is_nan():
    g = GridSpec.square(8, TWO_PI, dim=2)
    state = FieldState.from_arrays(g, _params(), np.zeros(g.n),
                                   (np.zeros(g.n), np.zeros(g.n)))
    ratio, k, kp = equivalence_ratio(state, 2.0)
    assert math.isnan(ratio)
    assert (k, kp) == (2, 2)  # b = d > 0, c < 0 row


def test_equivalence_ratio_consistency():
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.01, mu=0.01, mu2=0.01)
    state = _random_state(g, p, 30)
    ratio, k, kp = equivalence_ratio(state, 2.0)
    case = classify_case(p)
    assert ratio == pytest.approx(
        energy_Es(state, 2.0, case) / calE_s(state, 2.0, case), rel=1e-12)
    assert ratio > 0.0


def test_forced_case_energy_stays_comparable():
    """Forcing the two-weight machinery onto b = d coefficients gives a
    different but equivalent energy (the cross-check the overrides exist for)."""
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.05, mu=0.05, mu2=0.05)
    state = _random_state(g, p, 31)
    native = equivalence_ratio(state, 2.0)[0]
    forced = equivalence_ratio(state, 2.0, classify_case(p, case_override=1))[0]
    assert native > 0 and forced > 0
    assert 0.01 < forced / native < 100.0


# ---------------------------------------------------------------------------
# Coercivity and reports
# ---------------------------------------------------------------------------

def _coercivity_bracket(state):
    """||zeta||^2 + mu||grad zeta||^2 + ||v||^2 + 2*mu*(1 - eps*||zeta||^2)||grad v||^2,
    the lower-bound bracket that gauges H's positivity."""
    grid, p = state.grid, state.params
    z_abs2, *v_abs2 = (f.hat.real**2 + f.hat.imag**2 for f in (state.zeta, *state.v))
    z_l2 = grid.abs2_l2_sq(z_abs2)
    v_l2 = sum(grid.abs2_l2_sq(a) for a in v_abs2)
    grad_v = sum(grid.abs2_l2_sq(a, grid.abs2_xi) for a in v_abs2)
    return (z_l2 + p.mu * grid.abs2_l2_sq(z_abs2, grid.abs2_xi) + v_l2
            + 2.0 * p.mu * (1.0 - p.epsilon * z_l2) * grad_v)


def test_coercivity_form_closed_form():
    g = GridSpec.square(32, TWO_PI, dim=1)
    p = _params(gamma=0.5, epsilon=0.2, mu=0.3)
    alpha, beta = 0.4, 0.7
    x = g.x_mesh[0]
    state = FieldState.from_arrays(g, p, alpha * np.cos(x),
                                   (beta * np.cos(x),))
    z2 = alpha**2 * np.pi
    v2 = beta**2 * np.pi
    expect = z2 * (1 + p.mu) + v2 + 2 * p.mu * (1 - p.epsilon * z2) * v2
    assert _coercivity_bracket(state) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("gamma,c3", [(0.9, 0.35), (0.5, 0.90)])
def test_hamiltonian_coercive_at_small_data(gamma, c3):
    """H >= c3 * (coercivity bracket); c3 measured once per parameter set
    and frozen here."""
    g = GridSpec.square(32, TWO_PI, dim=2)
    p = _params(gamma=gamma, epsilon=0.05, mu=0.05, mu2=1.0)
    for seed in range(20):
        state = _random_state(g, p, seed, scale=0.3)
        assert hamiltonian(state) >= c3 * _coercivity_bracket(state)


def test_energy_report_row_and_header():
    assert csv_header() == "t,hamiltonian,E_s,calE_s,ratio,x0_norm,noncav,smallness"
    g = GridSpec.square(16, TWO_PI, dim=2)
    p = _params(epsilon=0.2)
    state = _random_state(g, p, 40, scale=0.3)
    rep = energy_report(state, s=1.0)
    row = rep.csv_row()
    parts = row.split(",")
    assert len(parts) == len(REPORT_COLUMNS)
    # 17 significant digits round-trip doubles exactly
    for col, tok in zip(REPORT_COLUMNS, parts):
        assert float(tok) == getattr(rep, col)
    assert rep.smallness == pytest.approx(
        p.epsilon * g.spectral_l2_sq(state.zeta.hat), rel=1e-12)
    assert rep.noncav == pytest.approx(
        1.0 - p.epsilon * np.max(state.zeta.values), rel=1e-12)
    assert rep.ratio == pytest.approx(rep.E_s / rep.calE_s, rel=1e-12)


def test_energy_report_at_s0_reuses_the_cached_values(monkeypatch):
    """At s = 0 on a 2-D b = d state with cached values, one energy_report
    forms 4 rfftn (the dealiased products) and 1 irfftn (the Hamiltonian's
    dealiased |v|^2): no argument transform, no gradient of the steepness
    proxy."""
    g = GridSpec.square(16, TWO_PI, dim=2)
    state = _random_state(g, _params(epsilon=0.2), 41, scale=0.3)
    for f in (state.zeta, *state.v):
        f.values
    energy_report(state, s=0.0)  # symbol table and weights built outside the count
    counts = {"rfftn": 0, "irfftn": 0}

    def counting(name):
        inner = getattr(np.fft, name)

        def call(*args, **kw):
            counts[name] += 1
            return inner(*args, **kw)
        return call

    for name in counts:
        monkeypatch.setattr(np.fft, name, counting(name))
    energy_report(state, s=0.0)
    assert counts["rfftn"] <= 4 and counts["irfftn"] <= 1, counts


# energy_report columns (hamiltonian, E_s, calE_s, ratio, x0_norm, noncav,
# smallness) of _random_state(grid, params, 50 + dim, scale=0.3) with
# epsilon = 0.2, recorded from an implementation that inverse-transformed
# the s = 0 arguments and rebuilt the Sobolev weights at every call
REPORT_PINS = {
    ("b=d", 1, 0.0): (
        0.46218726928410553, 0.8568423622479736, 0.48428400616106, 1.7692972539816039,
        0.9949035739009696, 0.9956514773518675, 0.04847387675500661),
    ("b=d", 1, 1.5): (
        0.46218726928410553, 1.1877297164192486, 1.1287676805785651, 1.0522357583895932,
        0.9949035739009696, 0.9956514773518675, 0.04847387675500661),
    ("b=d", 2, 0.0): (
        2.3110298689212443, 4.1839189196051505, 2.472334443552546, 1.692294879649533,
        2.2772141456551473, 0.94, 0.2516685164591949),
    ("b=d", 2, 1.5): (
        2.3110298689212443, 15.373259367827442, 7.58433267850342, 2.026975875069469,
        2.2772141456551473, 0.94, 0.2516685164591949),
    ("b!=d", 1, 0.0): (
        0.46218726928410553, 0.07731539170471714, 0.4846920823551579, 0.15951445158550026,
        0.9949035739009696, 0.9956514773518675, 0.04847387675500661),
    ("b!=d", 1, 1.5): (
        0.46218726928410553, 0.10853339446500843, 2.97655729295711, 0.03646272649339269,
        0.9949035739009696, 0.9956514773518675, 0.04847387675500661),
    ("b!=d", 2, 0.0): (
        2.3110298689212443, 0.38208733045144927, 2.465527346528312, 0.15497184851324533,
        2.2772141456551473, 0.94, 0.2516685164591949),
    ("b!=d", 2, 1.5): (
        2.3110298689212443, 1.4585966218452233, 11.844563327128604, 0.1231448202488374,
        2.2772141456551473, 0.94, 0.2516685164591949),
    ("b=0", 1, 0.0): (
        0.46218726928410553, 0.07740553951255143, 0.4854753554040655, 0.15944277840453117,
        0.9949035739009696, 0.9956514773518675, 0.04847387675500661),
    ("b=0", 1, 1.5): (
        0.46218726928410553, 0.10999706628426618, 4.620514229725071, 0.023806239049459915,
        0.9949035739009696, 0.9956514773518675, 0.04847387675500661),
    ("b=0", 2, 0.0): (
        2.3110298689212443, 0.38600834427573205, 2.502448511530707, 0.15425226233310874,
        2.2772141456551473, 0.94, 0.2516685164591949),
    ("b=0", 2, 1.5): (
        2.3110298689212443, 1.5338122807462669, 28.926720304443887, 0.053024064415302344,
        2.2772141456551473, 0.94, 0.2516685164591949),
}
VARIANT_COEFFS = {"b=d": (5.0 / 24.0, 5.0 / 24.0), "b!=d": (0.25, 1.0 / 6.0),
                  "b=0": (0.0, 1.0 / 6.0)}


@pytest.mark.parametrize("key", sorted(REPORT_PINS), ids=str)
def test_energy_report_columns_are_pinned(key):
    variant, dim, s = key
    b, d = VARIANT_COEFFS[variant]
    g = GridSpec.square(32 if dim == 1 else 16, TWO_PI, dim=dim)
    state = _random_state(g, _params(epsilon=0.2, b=b, d=d), 50 + dim, scale=0.3)
    rep = energy_report(state, s=s)
    got = (rep.hamiltonian, rep.E_s, rep.calE_s, rep.ratio, rep.x0_norm,
           rep.noncav, rep.smallness)
    for col, x, want in zip(REPORT_COLUMNS[1:], got, REPORT_PINS[key]):
        assert x == pytest.approx(want, rel=1e-13), col


def test_energy_report_and_evolve_call_no_blas(monkeypatch):
    """np.vdot and np.dot go through BLAS, whose thread hand-off at the
    default thread count can cost several times the sum itself, and the
    benchmark pins that count to 1, so it cannot see this.  The report (all
    three symmetrizer variants) and a 3-step evolve of a 2-D state call
    neither."""
    def blas(*args, **kwargs):
        raise AssertionError("BLAS call")

    monkeypatch.setattr(np, "vdot", blas)
    monkeypatch.setattr(np, "dot", blas)
    g = GridSpec.square(16, TWO_PI, dim=2)
    for b, d in VARIANT_COEFFS.values():
        state = make_initial_state(g, _params(b=b, d=d), profile="random_bandlimited",
                                   seed=3)
        energy_report(state, s=1.5)
        assert evolve(state, SchemeConfig(dt=0.05, max_t=0.15)).steps == 3
