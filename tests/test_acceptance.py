"""Acceptance gate: one test per shipped guarantee, one printed line each.

Each criterion below is a quantitative promise the package makes; every
test measures it at the stated tolerance, prints a single
``ACCEPTANCE NN name: PASS/FAIL (detail)`` line, and asserts the result.
Run ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; the long-horizon checks (05 conservation, 09 smallness) take tens
of seconds each.
"""

import math

import numpy as np

from bfdsim import (
    FieldState,
    GridSpec,
    ModelParams,
    SchemeConfig,
    SpectralField,
    StudyConfig,
    conservation_study,
    diagonalize,
    equivalence_study,
    evolve,
    frozen_symbol_matrices,
    hamiltonian,
    hermitian_defect,
    lifespan_study,
    make_initial_state,
    smallness_check,
    undiagonalize,
    variational_check,
)
from bfdsim.energy import variational_gradients
from bfdsim.evolution import DiagState, step_exponential
from bfdsim.spectral import TWO_PI
from bfdsim.symbols import symbol_table


def _line(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


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
                      v=tuple(field() for _ in range(grid.dim)),
                      params=params)


def _state_l2(grid, zeta_vals, v_vals) -> float:
    total = grid.integral(zeta_vals**2)
    for comp in v_vals:
        total += grid.integral(comp**2)
    return math.sqrt(total)


def test_01_symbol_correctness():
    """sigma(0) = 1; sigma >= max(1, sqrt(mu2)|xi|) at every mode; the
    large-frequency asymptote is reached within 1e-12 for |xi| >= 100."""
    grid = GridSpec.square(512, TWO_PI, dim=1)
    p = _params(mu2=1.0)
    tab = symbol_table(grid, p)
    sigma = np.broadcast_to(np.asarray(tab.sigma), grid.half_shape)
    s = math.sqrt(p.mu2) * grid.abs_xi

    sigma0 = float(sigma[grid.abs_xi == 0.0][0])
    bound_gap = float(np.min(sigma - np.maximum(1.0, s)))
    tail = grid.abs_xi >= 100.0
    tail_dev = float(np.max(np.abs(sigma[tail] / s[tail] - 1.0)))

    ok = sigma0 == 1.0 and bound_gap >= 0.0 and tail_dev <= 1e-12
    assert _line(1, "symbol-correctness", ok,
                 f"sigma(0)={sigma0}, min(sigma-max(1,s))={bound_gap:.3e}, "
                 f"tail deviation={tail_dev:.3e} <= 1e-12")


def test_02_frozen_symbol_structure():
    """All three symmetrizer variants at rest: Hermitian defect <= 1e-13 and
    symmetric-part margin per unit prefactor >= gamma*(1-gamma) at every
    mode of a 64^2 grid."""
    grid = GridSpec.square(64, TWO_PI, dim=2)
    gamma = 0.3
    floor = gamma * (1.0 - gamma)
    menus = (dict(b=5.0 / 24.0, d=5.0 / 24.0),   # equal coefficients
             dict(b=0.25, d=1.0 / 6.0),          # distinct, b > d
             dict(b=0.0, d=5.0 / 12.0))          # premultiplied variant
    worst_defect, worst_margin = 0.0, math.inf
    for coeffs in menus:
        p = _params(gamma=gamma, mu2=1.0, **coeffs)
        for x1 in grid.xi[0]:
            for x2 in grid.xi[1]:
                fr = frozen_symbol_matrices((float(x1), float(x2)),
                                            0.0, (0.0, 0.0), p)
                rep = hermitian_defect(fr.S, fr.M)
                worst_defect = max(worst_defect, rep.defect)
                worst_margin = min(worst_margin, rep.margin / fr.prefactor)

    ok = worst_defect <= 1e-13 and worst_margin >= floor * (1.0 - 1e-9)
    assert _line(2, "frozen-symbol-structure", ok,
                 f"max defect={worst_defect:.3e} <= 1e-13, "
                 f"min margin/prefactor={worst_margin:.12f} >= "
                 f"gamma(1-gamma)={floor}")


def test_03_diagonalization_round_trip():
    """undiag(diag(state)) returns the state to 1e-12 relative in L2 over
    100 random band-limited states in one and two dimensions."""
    p = _params()
    grids = (GridSpec.square(64, TWO_PI, dim=1),
             GridSpec.square(32, TWO_PI, dim=2))
    worst = 0.0
    for i in range(100):
        grid = grids[i % 2]
        state = _random_state(grid, p, seed=3000 + i, scale=0.5)
        back = undiagonalize(diagonalize(state))
        num = _state_l2(grid, back.zeta.values - state.zeta.values,
                        [b.values - a.values for a, b in zip(state.v, back.v)])
        den = _state_l2(grid, state.zeta.values, [c.values for c in state.v])
        worst = max(worst, num / den)

    ok = worst <= 1e-12
    assert _line(3, "diagonalization-round-trip", ok,
                 f"max relative L2 error={worst:.3e} <= 1e-12 on 100 states")


def test_04_linear_exactness_and_dispersion():
    """Without nonlinearity the exponential path multiplies each mover by
    exp(-/+ i t Omega) exactly (<= 1e-12 per mode), and a planted single
    mode accumulates the dispersion phase to 1e-10 relative."""
    grid = GridSpec.square(32, TWO_PI, dim=2)
    p = _params(epsilon=0.0)
    tab = symbol_table(grid, p)
    diag0 = diagonalize(_random_state(grid, p, seed=41, scale=0.5))
    diag, t_end = diag0, 1.0
    for _ in range(10):
        diag = step_exponential(diag, 0.1)

    def mode_err(now, start, sign):
        err = np.abs(now - start * np.exp(sign * 1j * tab.Omega * t_end))
        mag = np.abs(start)
        return float(np.max(np.where(mag > 0.0, err / np.where(mag > 0, mag, 1.0),
                                     0.0)))

    worst_mode = max(mode_err(diag.Zp_hat, diag0.Zp_hat, -1.0),
                     mode_err(diag.Zm_hat, diag0.Zm_hat, +1.0))

    grid1 = GridSpec.square(64, TWO_PI, dim=1)
    tab1 = symbol_table(grid1, p)
    k = 3
    Zp = np.zeros(grid1.half_shape, dtype=complex)
    Zm = np.zeros(grid1.half_shape, dtype=complex)
    Zp[k] = Zm[k] = 1.0
    single = DiagState(t=0.0, Zp_hat=Zp, Zm_hat=Zm, W_hat=None,
                       zero_mode=(0.0, (0.0,)), grid=grid1, params=p)
    t1, dt = 2.0, 0.125
    for _ in range(int(round(t1 / dt))):
        single = step_exponential(single, dt)
    total = float(tab1.Omega[k]) * t1
    measured = (-np.angle(single.Zp_hat[k])) % (2 * np.pi)
    expected = total % (2 * np.pi)
    wrapped = min(abs(measured - expected), 2 * np.pi - abs(measured - expected))
    rel_phase = wrapped / total

    ok = worst_mode <= 1e-12 and rel_phase <= 1e-10
    assert _line(4, "linear-exactness-dispersion", ok,
                 f"max per-mode mover error={worst_mode:.3e} <= 1e-12, "
                 f"single-mode phase error={rel_phase:.3e} relative <= 1e-10")


def test_05_hamiltonian_conservation():
    """Equal-coefficient run at eps = mu = 0.05 on 64^2: relative
    Hamiltonian drift <= 1e-8 over t in [0, 100] at dt = 0.01, and the
    drift order in dt fits >= 3.8 on a coarse-step ladder."""
    p = _params(gamma=0.9, epsilon=0.05, mu=0.05, mu2=1.0)
    grid = GridSpec.square(64, TWO_PI, dim=2)
    state = make_initial_state(grid, p, profile="gaussian", amplitude=0.5,
                               seed=7, width=0.8, velocity="right-mover")
    h0 = hamiltonian(state)
    worst = 0.0

    def watch(snap):
        nonlocal worst
        worst = max(worst, abs(hamiltonian(snap) - h0) / abs(h0))

    evolve(state, SchemeConfig(dt=0.01, max_t=100.0, scheme="exponential",
                               cadence=100), monitors=(watch,))

    study = StudyConfig(kind="conservation", params=p, grid=grid,
                        scheme="exponential", max_t=20.0, profile="gaussian",
                        amplitude=0.5, seed=7, width=0.8,
                        velocity="right-mover", dts=(0.4, 0.2, 0.1))
    order = conservation_study(study).order_fit

    ok = worst <= 1e-8 and order >= 3.8
    assert _line(5, "hamiltonian-conservation", ok,
                 f"max relative drift={worst:.3e} <= 1e-8 over t=100, "
                 f"drift order fit={order:.2f} >= 3.8")


def test_06_variational_identity():
    """The tendency equals the constrained Hamiltonian gradient (residual
    <= 1e-11 on random smooth states) and the gradients pass a
    finite-difference directional test at order >= 1.95."""
    grids = (GridSpec.square(64, TWO_PI, dim=1),
             GridSpec.square(16, TWO_PI, dim=2))
    p = _params(epsilon=0.05)
    worst = 0.0
    for i in range(10):
        state = _random_state(grids[i % 2], p, seed=600 + i, scale=0.1)
        worst = max(worst, variational_check(state))

    g = GridSpec.square(16, TWO_PI, dim=2)
    pfd = _params(gamma=0.6, epsilon=0.3, mu=0.05, mu2=0.2, a=-0.1,
                  b=0.2, c=-0.05, d=0.3)
    state = _random_state(g, pfd, 7, scale=0.3)
    direction = _random_state(g, pfd, 8, scale=1.0)
    gz, gv = variational_gradients(state)
    pairing = g.integral(g.ifft_real(gz) * direction.zeta.values)
    pairing += sum(g.integral(g.ifft_real(c) * d.values)
                   for c, d in zip(gv, direction.v))
    h0 = hamiltonian(state)
    hs = np.array([1e-2, 1e-3, 1e-4])
    remainders = []
    for h in hs:
        shifted = FieldState(
            t=0.0, zeta=state.zeta + float(h) * direction.zeta,
            v=tuple(a + float(h) * b for a, b in zip(state.v, direction.v)),
            params=pfd)
        remainders.append(abs(hamiltonian(shifted) - h0 - h * pairing))
    order = float(np.polyfit(np.log(hs), np.log(remainders), 1)[0])

    ok = worst <= 1e-11 and order >= 1.95
    assert _line(6, "variational-identity", ok,
                 f"max residual={worst:.3e} <= 1e-11 on 10 states, "
                 f"finite-difference order={order:.3f} >= 1.95")


def test_07_energy_equivalence():
    """For coefficient cases 1, 3 and 7 the ratio of the symmetrizer energy
    to the flat weighted norm over 100 random states stays inside the band
    [1/C, C] anchored at the largest (eps, mu) as both shrink."""
    grid = GridSpec.square(32, 32.0 * math.pi, dim=2)
    menus = {1: dict(b=0.25, d=1.0 / 6.0),
             3: dict(b=5.0 / 12.0, d=0.0),
             7: dict(b=0.0, d=0.0)}
    levels = (1e-2, 1e-3, 1e-4)
    details, all_ok = [], True
    for case_id, coeffs in menus.items():
        p = _params(gamma=0.5, epsilon=1e-2, mu=1e-2, mu2=1.0, **coeffs)
        cfg = StudyConfig(kind="equivalence", params=p, grid=grid,
                          amplitude=0.5, seed=42, s=2.0, num_states=100,
                          epsilons=levels, mus=levels)
        records = equivalence_study(cfg)
        assert all(r.case_id == case_id for r in records)
        anchor = next(r for r in records if r.epsilon == 1e-2 and r.mu == 1e-2)
        band = max(anchor.ratio_max, 1.0 / anchor.ratio_min) * 1.01
        inside = all(math.isfinite(r.ratio_min) and r.ratio_min > 0.0
                     and r.ratio_max <= band and r.ratio_min >= 1.0 / band
                     for r in records)
        all_ok = all_ok and inside
        details.append(f"case {case_id}: C={band:.3f} holds={inside}")

    assert _line(7, "energy-equivalence", all_ok, "; ".join(details))


def test_08_lifespan_scaling():
    """Fixed right-mover data in one dimension with mu = mu2 = eps: the
    product eps * T_obs varies by less than a factor 2 over
    eps in {0.1, 0.05, 0.025} and every run reaches the growth threshold."""
    base = _params(gamma=0.5)
    grid = GridSpec.square(256, 32.0 * math.pi, dim=1)
    epsilons = (0.1, 0.05, 0.025)
    products, horizons, crossed = [], [], True
    for eps in epsilons:
        p = base.replace(epsilon=eps, mu=eps, mu2=eps)
        cfg = StudyConfig(kind="lifespan", params=p, grid=grid,
                          profile="gaussian", amplitude=2.5, width=4.0,
                          seed=3, velocity="right-mover", s=3.0,
                          growth_factor=2.0, cadence=20, max_t=1500.0,
                          epsilons=(eps,), mus=(eps,))
        rec = lifespan_study(cfg)[0]
        products.append(rec.product)
        horizons.append(rec.T_obs)
        crossed = crossed and rec.terminated_by == "threshold"

    spread = max(products) / min(products)
    lengthening = all(horizons[i] <= horizons[i + 1] * 1.05
                      for i in range(len(horizons) - 1))
    ok = crossed and spread < 2.0 and lengthening
    assert _line(8, "lifespan-scaling", ok,
                 f"eps*T_obs={[round(x, 3) for x in products]}, "
                 f"spread factor={spread:.3f} < 2, horizons non-decreasing "
                 f"as eps shrinks={lengthening}")


def test_09_smallness_persistence():
    """With initial eps*||zeta||^2 = 1/4, the monitored smallness stays
    below 1/2 and the flat norm below 3x its initial value to t = 1000."""
    p = _params(gamma=0.9, epsilon=0.05, mu=0.05, mu2=1.0)
    grid = GridSpec.square(64, TWO_PI, dim=2)
    cfg = StudyConfig(kind="smallness", params=p, grid=grid,
                      profile="gaussian", amplitude=0.5, width=0.8, seed=11,
                      velocity="right-mover", max_t=1000.0, cadence=50,
                      smallness_target=0.25)
    rep = smallness_check(cfg)

    norm_ratio = rep.max_x0 / rep.initial_x0
    ok = (rep.precondition_ok and rep.invariant_held
          and rep.max_smallness < 0.5 and norm_ratio <= 3.0
          and rep.terminated_by == "max_t")
    assert _line(9, "smallness-persistence", ok,
                 f"initial={rep.initial_smallness:.3f}, "
                 f"max smallness={rep.max_smallness:.4f} < 0.5, "
                 f"norm growth={norm_ratio:.4f}x <= 3x, "
                 f"terminated_by={rep.terminated_by}")


def test_10_determinism(tmp_path):
    """Identical config + seed reproduce studies byte for byte."""
    p = _params()
    grid = GridSpec.square(32, TWO_PI, dim=1)
    blobs = {"lifespan.csv": [], "equivalence.csv": []}
    for name in ("first", "second"):
        out = tmp_path / name
        life = StudyConfig(kind="lifespan", params=p, grid=grid,
                           amplitude=0.1, max_t=2.0, cadence=5,
                           epsilons=(0.1, 0.05), out_dir=str(out))
        lifespan_study(life)
        equiv = StudyConfig(kind="equivalence", params=p, grid=grid,
                            amplitude=0.5, num_states=5, epsilons=(0.1,),
                            mus=(0.1,), out_dir=str(out))
        equivalence_study(equiv)
        for csv_name in blobs:
            blobs[csv_name].append((out / csv_name).read_bytes())

    same = {name: pair[0] == pair[1] for name, pair in blobs.items()}
    ok = all(same.values())
    assert _line(10, "determinism", ok,
                 f"byte-identical CSVs on repeat runs: {same}")
