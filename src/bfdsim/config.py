"""Run configuration: INI files with a fixed key registry.

A run is described by a sectioned key-value file (configparser syntax)
plus optional ``section.key=value`` overrides.  Every key lives in the
registry below; unknown sections or keys are rejected by name, the two
coefficient families (a,b,c,d vs alpha1,beta,alpha2) are mutually
exclusive, and all resolved values (defaults included) are echoed into
the output manifest so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .errors import ConfigError
from .initial_data import PROFILES, VELOCITIES, make_initial_state
from .params import CaseClass, ModelParams, classify_case, params_from_alphas
from .evolution import SCHEME_EXPONENTIAL, SchemeConfig, default_dt
from .snapshots import load_state
from .spectral import TWO_PI, GridSpec
from .system import FieldState


# the matplotlib script that write_csv puts beside a CSV when plot_script is set
_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot {csv}; generated alongside the data.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).parent
with open(here / {csv!r}) as fh:
    rows = list(csv.DictReader(fh))
xs = [float(r[{x!r}]) for r in rows]
for col in {ys!r}:
    plt.plot(xs, [float(r[col]) for r in rows], label=col)
{logy}plt.xlabel({x!r})
plt.legend()
plt.tight_layout()
plt.savefig(here / {png!r}, dpi=150)
"""


class Key(NamedTuple):
    name: str
    default: str
    help: str


CONFIG_KEYS: dict[str, tuple[Key, ...]] = {
    "model": (
        Key("gamma", "0.9", "density ratio, in (0, 1)"),
        Key("epsilon", "0.1", "amplitude parameter, >= 0"),
        Key("mu", "0.1", "shallowness parameter, > 0"),
        Key("mu2", "(= mu)", "second-layer shallowness parameter, > 0"),
        Key("a", "0", "dispersion coefficient a, <= 0"),
        Key("b", "5/24", "dispersion coefficient b, >= 0"),
        Key("c", "-1/12", "dispersion coefficient c, <= 0"),
        Key("d", "5/24", "dispersion coefficient d, >= 0"),
        Key("alpha1", "(unset)", "alternative family: b = alpha1/3, >= 0"),
        Key("beta", "(unset)", "alternative family: c + d = beta, >= 0"),
        Key("alpha2", "(unset)", "alternative family: c = beta*alpha2, <= 1"),
        Key("case_override", "(unset)", "force the energy machinery of case 1..8"),
    ),
    "grid": (
        Key("n", "256", "comma-separated axis sizes (1 or 2, even, >= 4)"),
        Key("length", "6.283185307179586", "comma-separated axis lengths"),
        Key("dim", "(= len(n))", "dimension, 1 or 2; must match n"),
    ),
    "scheme": (
        Key("dt", "(auto)", "time step; empty = advective CFL guess"),
        Key("max_t", "10", "final time"),
        Key("cadence", "10", "steps between diagnostic rows"),
    ),
    "initial": (
        Key("profile", "gaussian", "surface profile: " + " | ".join(PROFILES)),
        Key("amplitude", "0.1", "max |zeta| of the initial surface"),
        Key("seed", "1234", "random seed for the random profiles"),
        Key("width", "(auto)", "gaussian width; empty = min(length)/16"),
        Key("mode_k", "1 per axis", "integer mode numbers for profile=mode"),
        Key("velocity", "right-mover", "velocity recipe: " + " | ".join(VELOCITIES)),
        Key("snapshot", "(unset)", "BFDv1 file to start from; its grid must match [grid]"),
    ),
    "output": (
        Key("dir", "out", "output directory"),
        Key("snapshot_every", "0",
            "snapshots per diagnostic point in simulate (0 = endpoints only)"),
        Key("plot_script", "false", "also emit a matplotlib script per CSV"),
    ),
    "study": (
        Key("epsilons", "0.1,0.05,0.025", "epsilon sweep, descending"),
        Key("mus", "(tied)", "mu sweep; empty ties mu = epsilon; lifespan pairs "
            "it with epsilons (same length), equivalence sweeps their product"),
        Key("growth_factor", "2", "lifespan threshold multiplier, > 1"),
        Key("s", "(auto)", "Sobolev index of the monitored norm; empty = 4 in 2D, 3 in 1D"),
        Key("dts", "0.1,0.05,0.025,0.0125", "dt sweep for the conservation study"),
        Key("num_states", "100", "random states per equivalence point, >= 1"),
        Key("smallness_target", "0.25", "initial eps*||zeta||^2_{L2} after scaling"),
    ),
}

_ABCD_KEYS = ("a", "b", "c", "d")
_ALPHA_KEYS = ("alpha1", "beta", "alpha2")

_BOOL_STATES = {"1": True, "yes": True, "true": True, "on": True,
                "0": False, "no": False, "false": False, "off": False}


def config_help() -> str:
    """Human-readable registry of every config key with its default."""
    lines = ["configuration keys (file sections or --set section.key=value):"]
    for section, keys in CONFIG_KEYS.items():
        lines.append(f"  [{section}]")
        for key in keys:
            lines.append(f"    {key.name:<16} default {key.default:<22} {key.help}")
    return "\n".join(lines)


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where} must be a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {raw!r}")
    return value


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where} must be an integer, got {raw!r}") from exc


def _parse_bool(raw: str, where: str) -> bool:
    try:
        return _BOOL_STATES[raw.strip().lower()]
    except KeyError as exc:
        raise ConfigError(f"{where} must be a boolean, got {raw!r}") from exc


def _parse_list(raw: str, where: str, conv) -> tuple:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"{where} must be a nonempty comma-separated list")
    return tuple(conv(piece, where) for piece in items)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one run: a CLI command or a study call.

    parse_config builds one from the key registry; library callers build
    one by keyword, where every field but params and grid has a default.
    Either way the range checks of [scheme], [initial], [output] and
    [study] run here and raise ConfigError naming the key.  kind is the
    command name and names the manifest.  scheme is not a config key: it
    names the one integrator, and SchemeConfig admits only "exponential".
    """

    params: ModelParams
    grid: GridSpec
    kind: str = "run"
    scheme: str = SCHEME_EXPONENTIAL
    dt: float | None = None
    max_t: float = 100.0
    cadence: int = 10
    profile: str = "gaussian"
    amplitude: float = 0.1
    seed: int = 1234
    width: float | None = None
    mode_k: tuple[int, ...] | None = None
    velocity: str = "right-mover"
    snapshot: str | None = None
    out_dir: str | None = None
    snapshot_every: int = 0
    plot_script: bool = False
    epsilons: tuple[float, ...] = ()
    mus: tuple[float, ...] | None = None
    growth_factor: float = 2.0
    s: float | None = None
    dts: tuple[float, ...] = ()
    num_states: int = 100
    smallness_target: float = 0.25
    case_override: int | None = None

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0.0:
            raise ConfigError(f"scheme.dt must be > 0, got {self.dt}")
        if self.cadence < 1:
            raise ConfigError(f"scheme.cadence must be >= 1, got {self.cadence}")
        if self.profile not in PROFILES:
            raise ConfigError(f"initial.profile must be one of {', '.join(PROFILES)}, "
                              f"got {self.profile!r}")
        if self.amplitude < 0.0:
            raise ConfigError(f"initial.amplitude must be >= 0, got {self.amplitude}")
        if self.width is not None and not self.width > 0.0:
            raise ConfigError(f"initial.width must be > 0, got {self.width}")
        if self.mode_k is not None and len(self.mode_k) != self.grid.dim:
            raise ConfigError(f"initial.mode_k needs {self.grid.dim} entries, "
                              f"got {len(self.mode_k)}")
        if self.velocity not in VELOCITIES:
            raise ConfigError(f"initial.velocity must be one of {', '.join(VELOCITIES)}, "
                              f"got {self.velocity!r}")
        if self.snapshot_every < 0:
            raise ConfigError(f"output.snapshot_every must be >= 0, got {self.snapshot_every}")
        if not self.growth_factor > 1.0:
            raise ConfigError(f"study.growth_factor must be > 1, got {self.growth_factor}")
        if self.s is not None and self.s < 0.0:
            raise ConfigError(f"study.s must be >= 0, got {self.s}")
        for h in self.dts:
            if not h > 0.0:
                raise ConfigError(f"study.dts entries must be > 0, got {h}")
        if self.num_states < 1:
            raise ConfigError(f"study.num_states must be >= 1, got {self.num_states}")
        if not self.smallness_target > 0.0:
            raise ConfigError(f"study.smallness_target must be a positive number, "
                              f"got {self.smallness_target}")

    @property
    def case(self) -> CaseClass:
        """Coefficient case of params, or the one case_override forces."""
        return classify_case(self.params, self.case_override)

    def monitor_s(self, grid: GridSpec) -> float:
        """Sobolev index of the monitored norm: s, else 4 in 2D and 3 in 1D."""
        if self.s is not None:
            return self.s
        return 4.0 if grid.dim == 2 else 3.0

    def initial_state(self, params: ModelParams | None = None) -> FieldState:
        """The snapshot file if set (it must lie on grid), else the [initial]
        recipe on grid; with params (default self.params).

        The snapshot is read once per config: every call wraps the same
        fields (see _snapshot_fields) with its own params."""
        params = self.params if params is None else params
        if self.snapshot is not None:
            t, zeta, v = self._snapshot_fields
            return FieldState(t=t, zeta=zeta, v=v, params=params)
        return make_initial_state(self.grid, params, profile=self.profile,
                                  amplitude=self.amplitude, seed=self.seed,
                                  width=self.width, mode_k=self.mode_k,
                                  velocity=self.velocity)

    @cached_property
    def _snapshot_fields(self) -> tuple:
        """(t, zeta, v) of the snapshot file, read on first use.

        A sweep's points share these fields, so both representations of
        each are filled here: no point fills one lazily, and the threaded
        studies read the snapshot before they dispatch their jobs."""
        state = load_state(self.snapshot, self.params)
        if state.grid != self.grid:
            raise ConfigError(f"snapshot {self.snapshot} is on {state.grid}, "
                              f"but [grid] is {self.grid}")
        for field in (state.zeta, *state.v):
            field.hat  # fills the cached spectrum
        return state.t, state.zeta, state.v

    def scheme_config(self, state: FieldState, dt: float | None = None) -> SchemeConfig:
        """The [scheme] settings for a run from state.

        The step is dt if given, else self.dt, else default_dt(state).
        """
        if dt is None:
            dt = self.dt if self.dt is not None else default_dt(state)
        return SchemeConfig(dt=dt, max_t=self.max_t, scheme=self.scheme,
                            cadence=self.cadence)

    def echo(self) -> dict:
        """Every key of the registry with its resolved value (for manifests)."""
        p = self.params
        return {
            "model": {"gamma": p.gamma, "epsilon": p.epsilon, "mu": p.mu,
                      "mu2": p.mu2, "a": p.a, "b": p.b, "c": p.c, "d": p.d,
                      "alpha1": None, "beta": None, "alpha2": None,
                      "case_override": self.case_override},
            "grid": {"n": list(self.grid.n), "length": list(self.grid.length),
                     "dim": self.grid.dim},
            "scheme": {"dt": self.dt, "max_t": self.max_t, "cadence": self.cadence},
            "initial": {"profile": self.profile, "amplitude": self.amplitude,
                        "seed": self.seed, "width": self.width,
                        "mode_k": None if self.mode_k is None else list(self.mode_k),
                        "velocity": self.velocity, "snapshot": self.snapshot},
            "output": {"dir": self.out_dir, "snapshot_every": self.snapshot_every,
                       "plot_script": self.plot_script},
            "study": {"epsilons": list(self.epsilons),
                      "mus": None if self.mus is None else list(self.mus),
                      "growth_factor": self.growth_factor, "s": self.s,
                      "dts": list(self.dts), "num_states": self.num_states,
                      "smallness_target": self.smallness_target},
        }

    def output_path(self, name: str) -> Path | None:
        """out_dir/name, creating out_dir; None when out_dir is None."""
        if self.out_dir is None:
            return None
        out = Path(self.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return out / name

    def write_csv(self, name: str, header: str | None, rows,
                  plot: tuple | None = None) -> Path | None:
        """Write header (None for none) and rows, one a line, to out_dir/name.

        Returns the path, or None when out_dir is None.  If plot_script is
        set, plot = (x, ys[, logy]) adds plot_<stem>.py, drawing ys against x.
        """
        path = self.output_path(name)
        if path is None:
            return None
        lines = rows if header is None else [header, *rows]
        path.write_text("".join(line + "\n" for line in lines))
        if plot is not None and self.plot_script:
            x, ys, *logy = plot
            path.with_name(f"plot_{path.stem}.py").write_text(_PLOT_SCRIPT.format(
                csv=name, x=x, ys=ys, png=f"{path.stem}.png",
                logy="plt.xscale('log'); plt.yscale('log')\n" if any(logy) else ""))
        return path

    def write_manifest(self, derived: dict | None = None) -> Path | None:
        """Write <kind>_manifest.json into out_dir and return its path.

        The document holds the command, the echo of every key, the results
        the run derived, and the package version.  Nothing is written when
        out_dir is None.
        """
        path = self.output_path(f"{self.kind}_manifest.json")
        if path is None:
            return None
        doc = {"command": self.kind, "config": self.echo(),
               "derived": derived or {}, "version": __version__}
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return path


# The name the study API has always used for the same settings.
StudyConfig = RunConfig


def _check_registry(cp: configparser.ConfigParser):
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            known = ", ".join(CONFIG_KEYS)
            raise ConfigError(f"unknown section [{section}] (known: {known})")
        allowed = {key.name for key in CONFIG_KEYS[section]}
        for name in cp[section]:
            if name not in allowed:
                raise ConfigError(f"unknown key {section}.{name} "
                                  f"(known: {', '.join(sorted(allowed))})")


def _apply_overrides(cp: configparser.ConfigParser, overrides):
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key] = value.strip()


def _build_params(get) -> tuple[ModelParams, int | None]:
    gamma = _parse_float(get("model", "gamma", "0.9"), "model.gamma")
    epsilon = _parse_float(get("model", "epsilon", "0.1"), "model.epsilon")
    mu = _parse_float(get("model", "mu", "0.1"), "model.mu")
    mu2_raw = get("model", "mu2", None)
    mu2 = mu if mu2_raw is None else _parse_float(mu2_raw, "model.mu2")

    abcd_given = [k for k in _ABCD_KEYS if get("model", k, None) is not None]
    alpha_given = [k for k in _ALPHA_KEYS if get("model", k, None) is not None]
    if abcd_given and alpha_given:
        raise ConfigError(
            "model coefficients are exclusive: supply a,b,c,d or "
            f"alpha1,beta,alpha2 (got {', '.join(abcd_given + alpha_given)})"
        )
    if alpha_given:
        if len(alpha_given) != len(_ALPHA_KEYS):
            missing = sorted(set(_ALPHA_KEYS) - set(alpha_given))
            raise ConfigError(f"alpha family needs all of alpha1, beta, alpha2 "
                              f"(missing {', '.join(missing)})")
        params = params_from_alphas(
            gamma, epsilon, mu, mu2,
            _parse_float(get("model", "alpha1", None), "model.alpha1"),
            _parse_float(get("model", "beta", None), "model.beta"),
            _parse_float(get("model", "alpha2", None), "model.alpha2"),
        )
    else:
        a = _parse_float(get("model", "a", "0"), "model.a")
        b = _parse_float(get("model", "b", str(5.0 / 24.0)), "model.b")
        c = _parse_float(get("model", "c", str(-1.0 / 12.0)), "model.c")
        d = _parse_float(get("model", "d", str(5.0 / 24.0)), "model.d")
        params = ModelParams(gamma=gamma, epsilon=epsilon, mu=mu, mu2=mu2,
                             a=a, b=b, c=c, d=d)

    override_raw = get("model", "case_override", None)
    override = None if override_raw is None else _parse_int(override_raw,
                                                            "model.case_override")
    return params, override


def _build_grid(get) -> GridSpec:
    n = _parse_list(get("grid", "n", "256"), "grid.n", _parse_int)
    length = _parse_list(get("grid", "length", repr(TWO_PI)), "grid.length",
                         _parse_float)
    if len(length) == 1 and len(n) == 2:
        length = length * 2
    if len(length) != len(n):
        raise ConfigError(f"grid.length has {len(length)} entries for "
                          f"{len(n)} axis sizes")
    dim_raw = get("grid", "dim", None)
    if dim_raw is not None:
        dim = _parse_int(dim_raw, "grid.dim")
        if dim != len(n):
            raise ConfigError(f"grid.dim = {dim} does not match n with "
                              f"{len(n)} entries")
    return GridSpec(n=n, length=length)


def parse_config(path: str | None = None, overrides=()) -> RunConfig:
    """Read, override, validate, and resolve a configuration.

    Raises ConfigError for unknown keys, malformed values, or violated
    exclusivity, and RunConfig raises it for out-of-range values;
    parameter-domain violations (including the well-posedness signs)
    surface from the model layer with their bounds.
    """
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=str(path))
    _apply_overrides(cp, overrides)
    _check_registry(cp)

    def get(section: str, key: str, default):
        if cp.has_option(section, key):
            raw = cp.get(section, key).strip()
            if raw != "":
                return raw
        return default

    params, case_override = _build_params(get)
    classify_case(params, case_override)  # reject a bad case up front
    grid = _build_grid(get)

    dt_raw = get("scheme", "dt", None)
    dt = None if dt_raw is None else _parse_float(dt_raw, "scheme.dt")
    max_t = _parse_float(get("scheme", "max_t", "10"), "scheme.max_t")
    cadence = _parse_int(get("scheme", "cadence", "10"), "scheme.cadence")

    profile = get("initial", "profile", "gaussian")
    amplitude = _parse_float(get("initial", "amplitude", "0.1"), "initial.amplitude")
    seed = _parse_int(get("initial", "seed", "1234"), "initial.seed")
    width_raw = get("initial", "width", None)
    width = None if width_raw is None else _parse_float(width_raw, "initial.width")
    mode_raw = get("initial", "mode_k", None)
    mode_k = None if mode_raw is None else _parse_list(mode_raw, "initial.mode_k",
                                                       _parse_int)
    velocity = get("initial", "velocity", "right-mover")
    snapshot = get("initial", "snapshot", None)

    out_dir = get("output", "dir", "out")
    snapshot_every = _parse_int(get("output", "snapshot_every", "0"),
                                "output.snapshot_every")
    plot_script = _parse_bool(get("output", "plot_script", "false"),
                              "output.plot_script")

    epsilons = _parse_list(get("study", "epsilons", "0.1,0.05,0.025"),
                           "study.epsilons", _parse_float)
    mus_raw = get("study", "mus", None)
    mus = None if mus_raw is None else _parse_list(mus_raw, "study.mus", _parse_float)
    growth_factor = _parse_float(get("study", "growth_factor", "2"),
                                 "study.growth_factor")
    s_raw = get("study", "s", None)
    s = None if s_raw is None else _parse_float(s_raw, "study.s")
    dts = _parse_list(get("study", "dts", "0.1,0.05,0.025,0.0125"),
                      "study.dts", _parse_float)
    num_states = _parse_int(get("study", "num_states", "100"), "study.num_states")
    smallness_target = _parse_float(get("study", "smallness_target", "0.25"),
                                    "study.smallness_target")

    return RunConfig(
        params=params, grid=grid,
        dt=dt, max_t=max_t, cadence=cadence,
        profile=profile, amplitude=amplitude, seed=seed, width=width,
        mode_k=mode_k, velocity=velocity, snapshot=snapshot,
        out_dir=out_dir, snapshot_every=snapshot_every, plot_script=plot_script,
        epsilons=epsilons, mus=mus, growth_factor=growth_factor, s=s, dts=dts,
        num_states=num_states, smallness_target=smallness_target,
        case_override=case_override,
    )
