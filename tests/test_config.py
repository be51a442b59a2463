"""Tests for the INI configuration layer: registry, overrides, validation."""

import dataclasses
import math

import pytest

from bfdsim import (ConfigError, GridSpec, ModelParams, ParameterDomainError, RunConfig,
                    parse_config)
from bfdsim.config import CONFIG_KEYS, config_help


def cfg_from(*overrides, path=None):
    return parse_config(path, list(overrides))


def test_defaults_resolve_without_any_input():
    cfg = cfg_from()
    p = cfg.params
    assert p.gamma == 0.9
    assert p.epsilon == 0.1
    assert p.mu == 0.1
    assert p.mu2 == 0.1  # ties to mu when unset
    assert p.a == 0.0
    assert p.b == 5.0 / 24.0
    assert p.c == -1.0 / 12.0
    assert p.d == 5.0 / 24.0
    assert cfg.case.case_id == 2
    assert cfg.grid.n == (256,)
    assert cfg.grid.length == (2.0 * math.pi,)
    assert cfg.grid.dim == 1
    assert cfg.scheme == "exponential"
    assert cfg.dt is None
    assert cfg.max_t == 10.0
    assert cfg.cadence == 10
    assert cfg.profile == "gaussian"
    assert cfg.amplitude == 0.1
    assert cfg.seed == 1234
    assert cfg.width is None
    assert cfg.mode_k is None
    assert cfg.velocity == "right-mover"
    assert cfg.snapshot is None
    assert cfg.out_dir == "out"
    assert cfg.snapshot_every == 0
    assert cfg.plot_script is False
    assert cfg.epsilons == (0.1, 0.05, 0.025)
    assert cfg.mus is None
    assert cfg.growth_factor == 2.0
    assert cfg.s is None
    assert cfg.dts == (0.1, 0.05, 0.025, 0.0125)
    assert cfg.num_states == 100
    assert cfg.smallness_target == 0.25
    assert cfg.case_override is None


def test_run_config_is_frozen():
    cfg = cfg_from()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_t = 99.0


def test_ini_file_sets_every_section(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[model]\n"
        "gamma = 0.5\nepsilon = 0.2\nmu = 0.3\nmu2 = 0.4\n"
        "a = -0.1\nb = 0.25\nc = -0.2\nd = 0.125\n"
        "[grid]\n"
        "n = 32, 64\nlength = 7.0, 8.0\ndim = 2\n"
        "[scheme]\n"
        "dt = 0.01\nmax_t = 2.5\ncadence = 3\n"
        "[initial]\n"
        "profile = mode\namplitude = 0.7\nseed = 99\nmode_k = 2, -1\n"
        "velocity = zero\n"
        "[output]\n"
        "dir = myout\nsnapshot_every = 2\nplot_script = yes\n"
        "[study]\n"
        "epsilons = 0.2, 0.1\nmus = 0.3, 0.15\ngrowth_factor = 3\ns = 2.5\n"
        "dts = 0.4, 0.2\nnum_states = 7\nsmallness_target = 0.125\n"
    )
    cfg = parse_config(str(ini))
    p = cfg.params
    assert (p.gamma, p.epsilon, p.mu, p.mu2) == (0.5, 0.2, 0.3, 0.4)
    assert (p.a, p.b, p.c, p.d) == (-0.1, 0.25, -0.2, 0.125)
    assert cfg.case.case_id == 1  # b != d with c < 0
    assert cfg.grid.n == (32, 64)
    assert cfg.grid.length == (7.0, 8.0)
    assert cfg.dt == 0.01
    assert cfg.max_t == 2.5
    assert cfg.cadence == 3
    assert cfg.profile == "mode"
    assert cfg.amplitude == 0.7
    assert cfg.seed == 99
    assert cfg.mode_k == (2, -1)
    assert cfg.velocity == "zero"
    assert cfg.out_dir == "myout"
    assert cfg.snapshot_every == 2
    assert cfg.plot_script is True
    assert cfg.epsilons == (0.2, 0.1)
    assert cfg.mus == (0.3, 0.15)
    assert cfg.growth_factor == 3.0
    assert cfg.s == 2.5
    assert cfg.dts == (0.4, 0.2)
    assert cfg.num_states == 7
    assert cfg.smallness_target == 0.125


def test_override_beats_file_value(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\ngamma = 0.5\n")
    cfg = parse_config(str(ini), ["model.gamma=0.8"])
    assert cfg.params.gamma == 0.8


def test_overrides_work_without_a_file():
    cfg = cfg_from("model.gamma=0.3", "grid.n=16", "initial.width=0.5")
    assert cfg.params.gamma == 0.3
    assert cfg.grid.n == (16,)
    assert cfg.width == 0.5


def test_empty_value_means_unset():
    cfg = cfg_from("model.mu=0.7", "model.mu2=", "scheme.dt=", "study.mus=")
    assert cfg.params.mu2 == 0.7
    assert cfg.dt is None
    assert cfg.mus is None


def test_unknown_section_rejected_by_name():
    with pytest.raises(ConfigError, match=r"unknown section \[foo\]") as err:
        cfg_from("foo.bar=1")
    assert "model, grid, scheme, initial, output, study" in str(err.value)


def test_default_override_is_an_unknown_section():
    """configparser reserves [DEFAULT]; an override of it is still an
    unknown section, not an internal error."""
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\] \(known: "):
        cfg_from("DEFAULT.gamma=0.5")


@pytest.mark.parametrize("body", ["[DEFAULT]\ngamma = 0.5\n", "[DEFAULT]\n"],
                         ids=["with-a-key", "empty"])
def test_default_section_in_a_file_is_an_unknown_section(tmp_path, body):
    """A [DEFAULT] section would otherwise fill every section and be
    reported as an unknown key of some other section."""
    ini = tmp_path / "run.ini"
    ini.write_text(body + "[output]\ndir = out\n")
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\] \(known: "):
        parse_config(str(ini))


@pytest.mark.parametrize("body, line, message", [
    ("[]\ngamma = 0.5\n", 1, "'[]' is neither a [section] header"),
    ("gamma = 0.5\n", 1, "'gamma = 0.5' is neither a [section] header"),
    ("[model]\ngamma = 0.5\ngamma = 0.6\n", 3, "'gamma = 0.6' repeats a key of its section"),
    ("[model]\ngamma = 0.5\n[model]\n", 3, "'[model]' repeats a section"),
    ("[model]\ngamma\n", 2, "'gamma' is neither a [section] header"),
], ids=["empty-header", "no-header", "key-twice", "section-twice", "no-value"])
def test_unparsable_file_is_a_config_error(tmp_path, body, line, message):
    """What configparser cannot read is a ConfigError (exit 2) on one line
    naming the file and the line."""
    ini = tmp_path / "bad.ini"
    ini.write_text(body)
    with pytest.raises(ConfigError) as err:
        parse_config(str(ini))
    assert str(err.value).startswith(f"{ini}, line {line}: {message}")
    assert "\n" not in str(err.value)


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="unknown key model.zeta") as err:
        cfg_from("model.zeta=1")
    assert "known:" in str(err.value)
    # two-thirds dealiasing is always on; the old switch is gone
    with pytest.raises(ConfigError, match="unknown key scheme.dealias"):
        cfg_from("scheme.dealias=true")
    # IF-RK4 is the one integrator, so there is no scheme switch
    with pytest.raises(ConfigError, match="unknown key scheme.scheme"):
        cfg_from("scheme.scheme=exponential")


@pytest.mark.parametrize("bad", ["model.gamma", "gamma=0.5", "=0.5"])
def test_malformed_override_rejected(bad):
    with pytest.raises(ConfigError, match="override must look like section.key=value"):
        cfg_from(bad)


def test_coefficient_families_are_exclusive():
    with pytest.raises(ConfigError, match="model coefficients are exclusive") as err:
        cfg_from("model.b=0.2", "model.alpha1=0.6")
    assert "got b, alpha1" in str(err.value)


def test_alpha_family_requires_all_three():
    with pytest.raises(ConfigError, match="alpha family needs all of") as err:
        cfg_from("model.alpha1=0.6", "model.beta=0.25")
    assert "missing alpha2" in str(err.value)


def test_alpha_family_builds_coefficients():
    cfg = cfg_from("model.alpha1=0.75", "model.beta=0.25", "model.alpha2=-1.0")
    p = cfg.params
    assert p.a == (1.0 - 0.75 - 3 * 0.25) / 3.0
    assert p.b == 0.75 / 3.0
    assert p.c == 0.25 * -1.0
    assert p.d == 0.25 * (1.0 - -1.0)


def test_length_singleton_broadcasts_to_two_axes():
    cfg = cfg_from("grid.n=32,64", "grid.length=6.0")
    assert cfg.grid.length == (6.0, 6.0)


def test_length_count_mismatch_rejected():
    with pytest.raises(ConfigError, match="grid.length has 2 entries for 1"):
        cfg_from("grid.n=32", "grid.length=1.0,2.0")


def test_dim_must_match_axis_count():
    with pytest.raises(ConfigError, match="grid.dim = 2 does not match"):
        cfg_from("grid.dim=2")
    cfg = cfg_from("grid.n=16,16", "grid.dim=2")
    assert cfg.grid.dim == 2


def test_grid_domain_violations_surface_from_grid_layer():
    with pytest.raises(ParameterDomainError):
        cfg_from("grid.n=15")  # odd axis size


def test_model_domain_violations_surface_from_model_layer():
    with pytest.raises(ParameterDomainError):
        cfg_from("model.gamma=1.5")
    with pytest.raises(ParameterDomainError, match="a > 0"):
        cfg_from("model.a=0.1")


@pytest.mark.parametrize(
    "override, message",
    [
        ("scheme.max_t=inf", "scheme.max_t must be a finite number"),
        ("scheme.max_t=nan", "scheme.max_t must be a finite number"),
        ("scheme.dt=inf", "scheme.dt must be a finite number"),
        ("model.epsilon=nan", "model.epsilon must be a finite number"),
        ("model.mu=inf", "model.mu must be a finite number"),
        ("grid.length=nan", "grid.length must be a finite number"),
        ("grid.length=1.0,inf", "grid.length must be a finite number"),
        ("initial.amplitude=nan", "initial.amplitude must be a finite number"),
        ("initial.amplitude=inf", "initial.amplitude must be a finite number"),
        ("initial.width=inf", "initial.width must be a finite number"),
        ("study.epsilons=nan", "study.epsilons must be a finite number"),
        ("study.dts=0.1,inf", "study.dts must be a finite number"),
        ("study.s=inf", "study.s must be a finite number"),
        ("scheme.dt=0", "scheme.dt must be > 0"),
        ("scheme.cadence=0", "scheme.cadence must be >= 1"),
        ("output.plot_script=maybe", "plot_script must be a boolean"),
        ("initial.profile=blob", "initial.profile must be one of"),
        ("initial.amplitude=-0.5", "initial.amplitude must be >= 0"),
        ("initial.width=0", "initial.width must be > 0"),
        ("initial.velocity=spin", "initial.velocity must be one of"),
        ("initial.mode_k=1,2", "initial.mode_k needs 1 entries, got 2"),
        ("initial.seed=1.5", "initial.seed must be an integer"),
        ("initial.seed=-5", "initial.seed must be >= 0, got -5"),
        ("model.gamma=abc", "model.gamma must be a number"),
        ("output.snapshot_every=-1", "output.snapshot_every must be >= 0"),
        ("study.epsilons=,", "must be a nonempty comma-separated list"),
        ("study.growth_factor=1", "study.growth_factor must be > 1"),
        ("study.s=-1", "study.s must be >= 0"),
        ("study.dts=0.1,0", "study.dts entries must be > 0"),
        ("study.num_states=0", "study.num_states must be >= 1"),
        ("study.smallness_target=0", "study.smallness_target must be a positive"),
        ("study.smallness_target=inf", "study.smallness_target must be a finite number"),
    ],
)
def test_value_validation(override, message):
    with pytest.raises(ConfigError, match=message):
        cfg_from(override)


# each value passed the parent's RunConfig when built in Python, and then
# went wrong in the study that read it
@pytest.mark.parametrize(
    "field, value, message",
    [
        # a lifespan T_obs of 0.0 with terminated_by="threshold"
        ("growth_factor", 0.5, "study.growth_factor must be > 1, got 0.5"),
        # equivalence ratio_min = inf and ratio_max = -inf
        ("num_states", 0, "study.num_states must be >= 1, got 0"),
        # ValueError: math domain error in the smallness check
        ("smallness_target", -1.0, "study.smallness_target must be a positive number"),
        # ValueError from numpy's default_rng in the random profiles and the
        # equivalence study
        ("seed", -5, "initial.seed must be >= 0, got -5"),
    ],
    ids=["growth_factor", "num_states", "smallness_target", "seed"],
)
def test_run_config_built_in_python_runs_the_cli_checks(field, value, message):
    params = ModelParams(gamma=0.9, epsilon=0.1, mu=0.1, mu2=0.1,
                         a=0.0, b=5.0 / 24.0, c=-1.0 / 12.0, d=5.0 / 24.0)
    grid = GridSpec.square(16, 2.0 * math.pi, dim=1)
    library = RunConfig(params=params, grid=grid)
    assert (library.epsilons, library.dts, library.out_dir) == ((), (), None)
    with pytest.raises(ConfigError, match=message):
        RunConfig(params=params, grid=grid, **{field: value})


def test_case_override_flows_through():
    cfg = cfg_from("model.case_override=1")
    assert cfg.case_override == 1
    assert cfg.case.case_id == 1
    assert cfg.case.variant == "b!=d"
    assert cfg.echo()["model"]["case_override"] == 1


def test_case_override_out_of_range_rejected():
    with pytest.raises(ParameterDomainError):
        cfg_from("model.case_override=0")


def test_missing_config_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_config(str(tmp_path / "nope.ini"))


def test_echo_covers_the_whole_registry():
    echo = cfg_from().echo()
    assert set(echo) == set(CONFIG_KEYS)
    for section, keys in CONFIG_KEYS.items():
        assert set(echo[section]) == {key.name for key in keys}


def test_echo_default_values():
    echo = cfg_from().echo()
    assert echo["model"] == {
        "gamma": 0.9, "epsilon": 0.1, "mu": 0.1, "mu2": 0.1,
        "a": 0.0, "b": 5.0 / 24.0, "c": -1.0 / 12.0, "d": 5.0 / 24.0,
        "alpha1": None, "beta": None, "alpha2": None, "case_override": None,
    }
    assert echo["grid"] == {"n": [256], "length": [2.0 * math.pi], "dim": 1}
    assert echo["scheme"] == {"dt": None, "max_t": 10.0, "cadence": 10}
    assert echo["initial"] == {"profile": "gaussian", "amplitude": 0.1,
                               "seed": 1234, "width": None, "mode_k": None,
                               "velocity": "right-mover", "snapshot": None}
    assert echo["output"] == {"dir": "out", "snapshot_every": 0,
                              "plot_script": False}
    assert echo["study"] == {"epsilons": [0.1, 0.05, 0.025], "mus": None,
                             "growth_factor": 2.0, "s": None,
                             "dts": [0.1, 0.05, 0.025, 0.0125],
                             "num_states": 100, "smallness_target": 0.25}


def test_library_defaults_match_the_cli_defaults_but_four():
    """RunConfig's own defaults are the CLI's except the four the README
    names: max_t, epsilons, dts and out_dir."""
    cli = cfg_from()
    library = RunConfig(params=cli.params, grid=cli.grid)
    differ = {f.name for f in dataclasses.fields(RunConfig)
              if getattr(library, f.name) != getattr(cli, f.name)}
    assert differ == {"max_t", "epsilons", "dts", "out_dir"}


def test_config_help_lists_every_key():
    text = config_help()
    for section, keys in CONFIG_KEYS.items():
        assert f"  [{section}]" in text
        for key in keys:
            assert f"    {key.name:<16} default " in text
