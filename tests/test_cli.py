"""End-to-end tests of the command-line front end.

Every run goes through ``bfdsim.cli.main`` with ``--set`` overrides and a
per-test output directory; the tests check exit codes, the one-line error
contract on stderr, and the artifact set each subcommand leaves behind.
"""

import csv
import json
import math

import numpy as np
import pytest

from bfdsim import FieldState, GridSpec, __version__, parse_config
from bfdsim.cli import main
from bfdsim.evolution import evolve
from bfdsim.snapshots import load_state, write_snapshot
from bfdsim.spectral import TWO_PI

# The full key registry as promised to users via --help.  Kept as a
# literal list (not derived from the config module) so that renaming or
# dropping a key fails this test.
HELP_KEYS = [
    "gamma", "epsilon", "mu", "mu2", "a", "b", "c", "d",
    "alpha1", "beta", "alpha2", "case_override",
    "n", "length", "dim",
    "dt", "max_t", "cadence",
    "profile", "amplitude", "seed", "width", "mode_k", "velocity", "snapshot",
    "dir", "snapshot_every", "plot_script",
    "epsilons", "mus", "growth_factor", "s", "dts", "num_states",
    "smallness_target",
]

SUBCOMMANDS = ["simulate", "lifespan", "conserve", "smallness",
               "equivalence", "symbols"]


def run(*argv):
    return main(list(argv))


def sets(out_dir, *pairs):
    args = ["--set", f"output.dir={out_dir}"]
    for pair in pairs:
        args += ["--set", pair]
    return args


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_top_level_help_lists_commands_and_keys(capsys):
    with pytest.raises(SystemExit) as stop:
        run("--help")
    assert stop.value.code == 0
    out = capsys.readouterr().out
    for name in SUBCOMMANDS:
        assert name in out
    for key in HELP_KEYS:
        assert f"    {key:<16} default " in out


def test_subcommand_help_carries_the_registry(capsys):
    with pytest.raises(SystemExit) as stop:
        run("lifespan", "--help")
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert "configuration keys" in out
    assert "SECTION.KEY=VALUE" in out


@pytest.mark.parametrize("argv", [[], ["bogus"]])
def test_missing_or_unknown_command_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        run(*argv)
    assert stop.value.code == 2
    capsys.readouterr()


def test_simulate_writes_the_full_artifact_set(tmp_path, capsys):
    out = tmp_path / "run"
    overrides = ["grid.n=32", "scheme.dt=0.1", "scheme.max_t=0.5",
                 "scheme.cadence=2", "output.snapshot_every=1",
                 "initial.amplitude=0.05"]
    rc = run("simulate", *sets(out, *overrides))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "simulate: 5 steps, terminated by max_t" in stdout

    assert (out / "initial.bfd").is_file()
    assert (out / "final.bfd").is_file()
    # monitors fire at steps 0, 2, 4 and the final step 5
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0].startswith("t,hamiltonian")
    assert len(lines) == 1 + 4
    for i in (1, 2, 3):
        assert (out / f"snap_{i:06d}.bfd").is_file()
    assert not (out / "snap_000004.bfd").exists()
    assert (out / "events.jsonl").read_text() == ""

    manifest = json.loads((out / "simulate_manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["version"] == __version__
    assert manifest["derived"] == {"dt": 0.1, "steps": 5, "terminated_by": "max_t"}
    echo = parse_config(None, [f"output.dir={out}"] + overrides).echo()
    assert manifest["config"] == echo

    cfg = parse_config(None, [f"output.dir={out}"] + overrides)
    final = load_state(out / "final.bfd", cfg.params)
    assert final.t == pytest.approx(0.5)


def test_simulate_blow_up_is_a_result_not_a_failure(tmp_path, capsys):
    out = tmp_path / "boom"
    rc = run("simulate", *sets(out, "grid.n=32", "scheme.dt=0.1",
                               "scheme.max_t=1.0", "initial.amplitude=3e6"))
    assert rc == 0
    assert "terminated by blow-up" in capsys.readouterr().out
    manifest = json.loads((out / "simulate_manifest.json").read_text())
    assert manifest["derived"]["terminated_by"] == "blow-up"
    assert manifest["derived"]["steps"] == 0
    events = [json.loads(line) for line in
              (out / "events.jsonl").read_text().splitlines()]
    assert len(events) == 1
    assert events[0]["event"] == "blow-up"
    assert (out / "initial.bfd").is_file()
    assert not (out / "final.bfd").exists()


# data whose X^0 norm is past the blow-up threshold at t = 0
BLOW_UP = ["grid.n=32", "scheme.dt=0.1", "scheme.max_t=1.0", "initial.amplitude=3e6"]


@pytest.mark.parametrize("command, extra", [
    ("simulate", []),
    ("lifespan", ["study.epsilons=0.1,0.05"]),
    ("conserve", ["study.dts=0.1,0.05"]),
    ("smallness", ["study.smallness_target=1e12"]),
])
def test_a_blow_up_is_a_result_in_every_evolving_command(tmp_path, capsys,
                                                          command, extra):
    out = tmp_path / command
    assert run(command, *sets(out, *BLOW_UP, *extra)) == 0
    assert capsys.readouterr().err == ""
    derived = json.loads((out / f"{command}_manifest.json").read_text())["derived"]
    if command == "lifespan":
        rows = read_rows(out / "lifespan.csv")
        assert [r["terminated_by"] for r in rows] == ["blow-up", "blow-up"]
    elif command == "conserve":
        rows = read_rows(out / "conservation.csv")
        assert [(r["drift"], r["order_fit"]) for r in rows] == [("inf", "nan")] * 2
        assert derived["order_fit"] == "nan"
    else:
        assert derived["terminated_by"] == "blow-up"
    if command == "smallness":
        assert derived["invariant_held"] is False


@pytest.mark.parametrize("start", ["max_t", "off-band"])
def test_a_rejected_simulate_leaves_no_file(tmp_path, capsys, start):
    """evolve's admission checks run before simulate writes anything: an
    end before the start, or a snapshot with content off the two-thirds
    band, exits 2 and leaves output.dir without initial.bfd."""
    overrides = ["grid.n=16", "scheme.dt=0.1"]
    if start == "max_t":
        overrides.append("scheme.max_t=-1")
    else:
        grid = GridSpec.square(16, TWO_PI, dim=1)
        rng = np.random.default_rng(7)
        state = FieldState.from_arrays(grid, parse_config().params,
                                       0.05 * rng.standard_normal(grid.n),
                                       (0.05 * rng.standard_normal(grid.n),))
        write_snapshot(tmp_path / "noisy.bfd", state)
        overrides += ["scheme.max_t=0.2", f"initial.snapshot={tmp_path / 'noisy.bfd'}"]
    out = tmp_path / "out"
    assert run("simulate", *sets(out, *overrides)) == 2
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not (out / "initial.bfd").exists()
    assert not out.exists() or not any(out.iterdir())


def test_simulate_resumes_from_a_snapshot(tmp_path, capsys):
    first = tmp_path / "first"
    rc = run("simulate", *sets(first, "grid.n=32", "scheme.dt=0.1",
                               "scheme.max_t=0.3", "initial.amplitude=0.05"))
    assert rc == 0
    second = tmp_path / "second"
    rc = run("simulate", *sets(second, "grid.n=32", "scheme.dt=0.1",
                               "scheme.max_t=0.3", "initial.amplitude=0.05",
                               f"initial.snapshot={first / 'final.bfd'}"))
    assert rc == 0
    capsys.readouterr()
    # resuming at t = max_t leaves nothing to do
    manifest = json.loads((second / "simulate_manifest.json").read_text())
    assert manifest["derived"]["steps"] == 0
    assert manifest["derived"]["terminated_by"] == "max_t"
    assert (second / "initial.bfd").read_bytes() == \
        (first / "final.bfd").read_bytes()


def _resume_on_a_different_grid(tmp_path, capsys, command):
    first = tmp_path / "first"
    rc = run("simulate", *sets(first, "grid.n=32", "scheme.dt=0.1",
                               "scheme.max_t=0.1", "initial.amplitude=0.05"))
    assert rc == 0
    capsys.readouterr()
    second = tmp_path / "second"
    rc = run(command, *sets(second, "grid.n=16", "scheme.dt=0.1",
                            "scheme.max_t=0.2",
                            f"initial.snapshot={first / 'final.bfd'}"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert "n=(32,)" in err and "n=(16,)" in err
    assert not (second / f"{command}_manifest.json").exists()
    assert not (second / "final.bfd").exists()


def test_simulate_resume_rejects_a_different_grid(tmp_path, capsys):
    _resume_on_a_different_grid(tmp_path, capsys, "simulate")


def test_lifespan_resume_rejects_a_different_grid(tmp_path, capsys):
    _resume_on_a_different_grid(tmp_path, capsys, "lifespan")


def test_resume_with_an_end_time_before_the_snapshot_exits_two(tmp_path, capsys):
    """max_t is absolute: a lifespan resumed at t = 2 with max_t = 1 is an
    error, not a sweep of horizons before its own start."""
    first = tmp_path / "first"
    rc = run("simulate", *sets(first, "grid.n=16", "scheme.dt=0.1", "scheme.max_t=2"))
    assert rc == 0
    capsys.readouterr()
    second = tmp_path / "second"
    rc = run("lifespan", *sets(second, "grid.n=16", "scheme.max_t=1",
                               f"initial.snapshot={first / 'final.bfd'}"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "before the start time" in err
    assert not (second / "lifespan.csv").exists()
    assert not (second / "lifespan_manifest.json").exists()
    rc = run("simulate", *sets(tmp_path / "third", "grid.n=16", "scheme.max_t=-1"))
    assert rc == 2
    assert "max_t = -1.0 is before the start time t = 0.0" in capsys.readouterr().err
    assert not (tmp_path / "third" / "final.bfd").exists()


STUDY_RUNS = {
    "lifespan": ["scheme.dt=0.1", "study.epsilons=0.1,0.05"],
    "conserve": ["study.dts=0.1,0.05"],
    "smallness": ["scheme.dt=0.05"],
}


@pytest.mark.parametrize("command", sorted(STUDY_RUNS))
def test_studies_start_from_the_snapshot(tmp_path, capsys, monkeypatch, command):
    first = tmp_path / "first"
    rc = run("simulate", *sets(first, "grid.n=32", "scheme.dt=0.1",
                               "scheme.max_t=0.2", "initial.amplitude=0.05"))
    assert rc == 0
    snap = load_state(first / "final.bfd", parse_config().params)
    starts = []

    def spy(state, *args, **kwargs):
        starts.append(state)
        return evolve(state, *args, **kwargs)

    monkeypatch.setattr("bfdsim.studies.evolve", spy)
    rc = run(command, *sets(tmp_path / "second", "grid.n=32", "scheme.max_t=0.4",
                            f"initial.snapshot={first / 'final.bfd'}",
                            *STUDY_RUNS[command]))
    assert rc == 0
    capsys.readouterr()
    assert len(starts) == (1 if command == "smallness" else 2)
    for state in starts:
        assert state.t == snap.t == pytest.approx(0.2)
        # smallness rescales the data to its target smallness
        scale = 1.0
        if command == "smallness":
            scale = np.linalg.norm(state.zeta.values) / np.linalg.norm(snap.zeta.values)
        for got, ref in zip((state.zeta, *state.v), (snap.zeta, *snap.v)):
            np.testing.assert_allclose(got.values, scale * ref.values, rtol=0, atol=1e-15)


@pytest.mark.parametrize("command", sorted(STUDY_RUNS))
def test_missing_snapshot_exits_four(tmp_path, capsys, command):
    rc = run(command, *sets(tmp_path / "x", "grid.n=32", "scheme.max_t=0.2",
                            f"initial.snapshot={tmp_path / 'missing.bfd'}",
                            *STUDY_RUNS[command]))
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: io: ") and "missing.bfd" in err
    assert not (tmp_path / "x" / f"{command}_manifest.json").exists()


def _corrupt(kind, blob):
    header, payload = blob.split(b"\n", 1)
    tokens = header.split()
    if kind == "magic":
        tokens[0] = b"BFDv0"
    elif kind == "truncated":
        payload = payload[:-8]
    elif kind == "nan-time":
        tokens[-1] = b"nan"
    else:  # nan-length
        tokens[3] = b"nan"
    return b" ".join(tokens) + b"\n" + payload


@pytest.mark.parametrize("kind", ["magic", "truncated", "nan-time", "nan-length"])
def test_malformed_snapshot_exits_four(tmp_path, capsys, kind):
    first = tmp_path / "first"
    rc = run("simulate", *sets(first, "grid.n=16", "scheme.dt=0.1",
                               "scheme.max_t=0.1", "initial.amplitude=0.05"))
    assert rc == 0
    capsys.readouterr()
    snap = tmp_path / "bad.bfd"
    snap.write_bytes(_corrupt(kind, (first / "final.bfd").read_bytes()))
    rc = run("simulate", *sets(tmp_path / "x", "grid.n=16", "scheme.dt=0.1",
                               "scheme.max_t=0.2", f"initial.snapshot={snap}"))
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: io: {snap}: ")
    assert not (tmp_path / "x" / "initial.bfd").exists()


def test_simulate_resume_rejects_nyquist_content(tmp_path, capsys):
    """A snapshot of an undealiased state carries content on the Nyquist
    modes, which no step can evolve with a real spectrum: exit 2."""
    grid = GridSpec.square(16, TWO_PI, dim=1)
    rng = np.random.default_rng(5)
    state = FieldState.from_arrays(grid, parse_config().params,
                                   0.05 * rng.standard_normal(grid.n),
                                   (0.05 * rng.standard_normal(grid.n),))
    snap = tmp_path / "noisy.bfd"
    write_snapshot(snap, state)
    out = tmp_path / "out"
    rc = run("simulate", *sets(out, "grid.n=16", "scheme.dt=0.1",
                               "scheme.max_t=0.2", f"initial.snapshot={snap}"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert "Nyquist" in err and "dealias" in err
    assert not (out / "simulate_manifest.json").exists()
    assert not (out / "final.bfd").exists()
    assert not (out / "initial.bfd").exists()


def test_simulate_is_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = run("simulate", *sets(out, "grid.n=32", "scheme.dt=0.1",
                                   "scheme.max_t=0.5", "initial.amplitude=0.05",
                                   "initial.profile=random_bandlimited"))
        assert rc == 0
        outs.append(out)
    capsys.readouterr()
    for name in ("initial.bfd", "final.bfd", "report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_symbols_dumps_the_nonnegative_ray(tmp_path, capsys):
    out = tmp_path / "sym"
    rc = run("symbols", *sets(out, "grid.n=16", "model.mu2=1.0"))
    assert rc == 0
    assert "symbols: 8 rows" in capsys.readouterr().out
    lines = (out / "symbols.csv").read_text().splitlines()
    assert lines[0] == "xi,sigma,A,g,omega1,omega2,im_lambda_plus"
    rows = read_rows(out / "symbols.csv")
    assert len(rows) == 8
    xi = [float(r["xi"]) for r in rows]
    assert xi == sorted(xi)
    assert xi[0] == 0.0
    assert xi[-1] == pytest.approx(7.0)
    assert float(rows[0]["sigma"]) == 1.0
    assert float(rows[0]["im_lambda_plus"]) == 0.0
    # with mu2 = 1 the row at xi = 1 carries sigma = coth(1)
    assert float(rows[1]["sigma"]) == pytest.approx(
        math.cosh(1.0) / math.sinh(1.0), rel=1e-13)
    manifest = json.loads((out / "symbols_manifest.json").read_text())
    assert manifest["derived"] == {"rows": 8}


def test_symbols_prints_the_system_frequency(tmp_path, capsys):
    """For b != d the im_lambda_plus column is Omega_sys = |xi|
    sqrt(omega1 omega2 g), the frequency the primitive system oscillates at."""
    out = tmp_path / "sym"
    rc = run("symbols", *sets(out, "grid.n=16", "model.b=0.25",
                              "model.d=0.1666666666666667"))
    assert rc == 0
    capsys.readouterr()
    last = read_rows(out / "symbols.csv")[-1]
    col = {k: float(v) for k, v in last.items()}
    expected = abs(col["xi"]) * math.sqrt(col["omega1"] * col["omega2"] * col["g"])
    assert col["im_lambda_plus"] == pytest.approx(expected, rel=1e-12)
    assert col["g"] != 1.0


def test_symbols_two_dimensional_grid_uses_the_first_axis(tmp_path, capsys):
    out = tmp_path / "sym2"
    rc = run("symbols", *sets(out, "grid.n=8,8"))
    assert rc == 0
    capsys.readouterr()
    rows = read_rows(out / "symbols.csv")
    assert [float(r["xi"]) for r in rows] == pytest.approx([0.0, 1.0, 2.0, 3.0])


def test_lifespan_command_writes_sweep_and_manifest(tmp_path, capsys):
    out = tmp_path / "life"
    rc = run("lifespan", *sets(out, "grid.n=64", "scheme.max_t=0.5",
                               "scheme.cadence=5", "study.epsilons=0.1",
                               "study.mus=0.1", "initial.amplitude=0.1"))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "lifespan: epsilon=0.1" in stdout
    rows = read_rows(out / "lifespan.csv")
    assert len(rows) == 1
    assert rows[0]["terminated_by"] == "max_t"
    manifest = json.loads((out / "lifespan_manifest.json").read_text())
    assert manifest["command"] == "lifespan"
    assert manifest["config"]["study"]["epsilons"] == [0.1]


def test_conserve_command_writes_drift_table(tmp_path, capsys):
    out = tmp_path / "cons"
    rc = run("conserve", *sets(out, "grid.n=32", "scheme.max_t=0.4",
                               "study.dts=0.1,0.05", "initial.amplitude=0.05"))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "conserve: dt=0.1 drift=" in stdout
    assert "order fit" in stdout
    rows = read_rows(out / "conservation.csv")
    assert [float(r["dt"]) for r in rows] == [0.1, 0.05]
    # one manifest, named after the command, not after the study
    assert not (out / "conservation_manifest.json").exists()
    manifest = json.loads((out / "conserve_manifest.json").read_text())
    assert manifest["command"] == "conserve"
    assert "order_fit" in manifest["derived"]


def test_manifests_are_strict_json(tmp_path, capsys):
    """A single dt has no order fit: the manifest writes it as the CSV
    token "nan", not the bare NaN that strict JSON parsers reject."""
    out = tmp_path / "cons"
    assert run("conserve", *sets(out, "grid.n=16", "scheme.max_t=0.2", "study.dts=0.1")) == 0

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    text = (out / "conserve_manifest.json").read_text()
    assert json.loads(text, parse_constant=reject)["derived"]["order_fit"] == "nan"


def test_smallness_command_reports_the_invariant(tmp_path, capsys):
    out = tmp_path / "small"
    rc = run("smallness", *sets(out, "grid.n=32", "scheme.dt=0.05",
                                "scheme.max_t=0.3", "scheme.cadence=2"))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "smallness: initial=0.25" in stdout
    assert "invariant_held=True" in stdout
    rows = read_rows(out / "smallness.csv")
    assert rows and float(rows[0]["smallness"]) == pytest.approx(0.25)
    manifest = json.loads((out / "smallness_manifest.json").read_text())
    assert manifest["derived"]["invariant_held"] is True
    assert manifest["derived"]["precondition_ok"] is True
    assert manifest["derived"]["max_smallness"] < 0.5
    assert manifest["derived"]["max_x0"] > 0.0
    assert manifest["derived"]["terminated_by"] == "max_t"


def test_equivalence_command_reports_ratio_bounds(tmp_path, capsys):
    out = tmp_path / "equiv"
    rc = run("equivalence", *sets(out, "grid.n=32", "study.num_states=4",
                                  "study.epsilons=0.1", "study.mus=0.1",
                                  "initial.amplitude=0.5"))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "equivalence: epsilon=0.1 mu=0.1 case=2 ratio in [" in stdout
    rows = read_rows(out / "equivalence.csv")
    assert len(rows) == 1
    assert 0.0 < float(rows[0]["ratio_min"]) <= float(rows[0]["ratio_max"])
    manifest = json.loads((out / "equivalence_manifest.json").read_text())
    assert isinstance(manifest["derived"]["spread_monotone"], bool)


@pytest.mark.parametrize("command, overrides", [
    ("simulate", ["grid.n=32", "scheme.dt=0.1", "scheme.max_t=0.2"]),
    ("lifespan", ["grid.n=32", "scheme.dt=0.1", "scheme.max_t=0.2",
                  "study.epsilons=0.1"]),
    ("conserve", ["grid.n=32", "scheme.max_t=0.2", "study.dts=0.1,0.05"]),
    ("smallness", ["grid.n=32", "scheme.dt=0.05", "scheme.max_t=0.1"]),
    ("equivalence", ["grid.n=16", "study.num_states=2", "study.epsilons=0.1"]),
    ("symbols", ["grid.n=16"]),
])
def test_each_command_leaves_one_manifest(tmp_path, capsys, command, overrides):
    out = tmp_path / command
    assert run(command, *sets(out, *overrides)) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.glob("*manifest*")) == \
        [f"{command}_manifest.json"]
    manifest = json.loads((out / f"{command}_manifest.json").read_text())
    assert sorted(manifest) == ["command", "config", "derived", "version"]
    assert manifest["command"] == command
    assert manifest["config"] == \
        parse_config(None, [f"output.dir={out}"] + overrides).echo()


PLOT_RUNS = [
    ("simulate", ["grid.n=16", "scheme.dt=0.1", "scheme.max_t=0.2"], "report"),
    ("lifespan", ["grid.n=16", "scheme.dt=0.1", "scheme.max_t=0.2",
                  "study.epsilons=0.1"], "lifespan"),
    ("conserve", ["grid.n=16", "scheme.max_t=0.2", "study.dts=0.1"], "conservation"),
    ("smallness", ["grid.n=16", "scheme.dt=0.05", "scheme.max_t=0.1"], "smallness"),
    ("equivalence", ["grid.n=16", "study.num_states=2", "study.epsilons=0.1"],
     "equivalence"),
    ("symbols", ["grid.n=16"], "symbols"),
]


def _emit_plot_script(tmp_path, capsys, command, overrides, stem):
    out = tmp_path / "plots"
    rc = run(command, *sets(out, *overrides, "output.plot_script=true"))
    assert rc == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.glob("plot_*")) == [f"plot_{stem}.py"]
    script = (out / f"plot_{stem}.py").read_text()
    assert "matplotlib" in script
    assert f"{stem}.csv" in script
    compile(script, f"plot_{stem}.py", "exec")


def test_plot_script_emission(tmp_path, capsys):
    _emit_plot_script(tmp_path, capsys, *PLOT_RUNS[-1])


@pytest.mark.parametrize("command, overrides, stem", PLOT_RUNS[:-1],
                         ids=[command for command, _, _ in PLOT_RUNS[:-1]])
def test_every_command_emits_its_plot_script(tmp_path, capsys, command,
                                             overrides, stem):
    _emit_plot_script(tmp_path, capsys, command, overrides, stem)


def test_config_error_exits_two(tmp_path, capsys):
    rc = run("simulate", *sets(tmp_path / "x", "scheme.cadence=0"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert "scheme.cadence must be >= 1" in err


@pytest.mark.parametrize("override", ["scheme.max_t=inf", "scheme.max_t=nan",
                                      "scheme.dt=inf"])
def test_non_finite_value_exits_two(tmp_path, capsys, override):
    rc = run("simulate", *sets(tmp_path / "x", "grid.n=16", override))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert f"{override.split('=')[0]} must be a finite number" in err
    assert not (tmp_path / "x").exists()


def test_domain_error_exits_two(tmp_path, capsys):
    rc = run("symbols", *sets(tmp_path / "x", "model.a=0.1"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert "a > 0" in err


def test_unsupported_case_exits_three(tmp_path, capsys):
    rc = run("conserve", *sets(tmp_path / "x", "model.d=0.125"))
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unsupported-case: ")
    assert "b = d" in err


def test_missing_config_file_exits_four(tmp_path, capsys):
    rc = run("symbols", str(tmp_path / "missing.ini"))
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: io: ")


def test_unexpected_failure_exits_five(tmp_path, capsys, monkeypatch):
    def boom(cfg):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr("bfdsim.cli.lifespan_study", boom)
    rc = run("lifespan", *sets(tmp_path / "x"))
    assert rc == 5
    assert capsys.readouterr().err == "error: internal: wires crossed\n"
