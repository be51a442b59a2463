"""Run configuration: INI files with a fixed key registry.

A run is described by a sectioned key-value file (configparser syntax)
plus optional ``section.key=value`` overrides.  CONFIG_KEYS holds one
Key row per key, the one place that key is written.  A row holds:

- its name, the default as ``--help`` prints it, and its help text;
- the raw text an unset key parses from (None leaves it None);
- its parser, which names the key in its errors;
- the RunConfig field it fills (a path such as ``params.gamma``);
- its range check, a predicate plus the requirement it states.

parse_config is one loop over the rows followed by the rules that span
keys: the two coefficient families (a,b,c,d vs alpha1,beta,alpha2) are
mutually exclusive, mu2 ties to mu, grid.length broadcasts and grid.dim
must match, and case_override must name a case.  RunConfig runs the range
checks over the same rows, and echo() writes every resolved value
(defaults included) into the output manifest, so a run can be reproduced
from its artifacts alone.  Unknown sections or keys are rejected by name.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from . import __version__
from .errors import ConfigError
from .initial_data import PROFILES, VELOCITIES, make_initial_state
from .params import CaseClass, ModelParams, classify_case, params_from_alphas
from .evolution import SCHEME_EXPONENTIAL
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
    """One config key, the one place it is written.

    default is the text --help prints; raw is the text an unset key parses
    from (None leaves the value None); parse(raw, "section.name") gives
    the value; field is the RunConfig attribute path it fills and the
    manifest echoes (None: the key echoes None); check, if any, is
    (predicate, requirement) and runs in RunConfig on the value, or on
    each entry of a tuple value.
    """

    name: str
    default: str
    help: str
    raw: str | None
    parse: Callable[[str, str], Any]
    field: str | None
    check: tuple[Callable[[Any], bool], str] | None = None


def _value(key: Key, cfg: RunConfig):
    """The value key holds in cfg; None for a key that fills no field."""
    return None if key.field is None else attrgetter(key.field)(cfg)


def _float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where} must be a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {raw!r}")
    return value


def _int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where} must be an integer, got {raw!r}") from exc


def _bool(raw: str, where: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError as exc:
        raise ConfigError(f"{where} must be a boolean, got {raw!r}") from exc


def _text(raw: str, where: str) -> str:
    return raw


def _list(conv):
    def parse(raw: str, where: str) -> tuple:
        items = [piece.strip() for piece in raw.split(",") if piece.strip()]
        if not items:
            raise ConfigError(f"{where} must be a nonempty comma-separated list")
        return tuple(conv(piece, where) for piece in items)
    return parse


_floats, _ints = _list(_float), _list(_int)


def _above(bound, text=None):
    return (lambda value: value > bound), text or f"must be > {bound}"


def _at_least(bound):
    return (lambda value: value >= bound), f"must be >= {bound}"


def _one_of(names):
    return (lambda value: value in names), f"must be one of {', '.join(names)}"


CONFIG_KEYS: dict[str, tuple[Key, ...]] = {
    "model": (
        Key("gamma", "0.9", "density ratio, in (0, 1)", "0.9", _float, "params.gamma"),
        Key("epsilon", "0.1", "amplitude parameter, >= 0", "0.1", _float, "params.epsilon"),
        Key("mu", "0.1", "shallowness parameter, > 0", "0.1", _float, "params.mu"),
        Key("mu2", "(= mu)", "second-layer shallowness parameter, > 0",
            None, _float, "params.mu2"),
        Key("a", "0", "dispersion coefficient a, <= 0", "0", _float, "params.a"),
        Key("b", "5/24", "dispersion coefficient b, >= 0",
            str(5.0 / 24.0), _float, "params.b"),
        Key("c", "-1/12", "dispersion coefficient c, <= 0",
            str(-1.0 / 12.0), _float, "params.c"),
        Key("d", "5/24", "dispersion coefficient d, >= 0",
            str(5.0 / 24.0), _float, "params.d"),
        # the alpha family resolves into a..d, so the manifest echoes it unset
        Key("alpha1", "(unset)", "alternative family: b = alpha1/3, >= 0",
            None, _float, None),
        Key("beta", "(unset)", "alternative family: c + d = beta, >= 0",
            None, _float, None),
        Key("alpha2", "(unset)", "alternative family: c = beta*alpha2, <= 1",
            None, _float, None),
        Key("case_override", "(unset)", "force the energy machinery of case 1..8",
            None, _int, "case_override"),
    ),
    "grid": (
        Key("n", "256", "comma-separated axis sizes (1 or 2, even, >= 4)",
            "256", _ints, "grid.n"),
        Key("length", "6.283185307179586", "comma-separated axis lengths",
            repr(TWO_PI), _floats, "grid.length"),
        Key("dim", "(= len(n))", "dimension, 1 or 2; must match n", None, _int, "grid.dim"),
    ),
    "scheme": (
        Key("dt", "(auto)", "time step; empty = advective CFL guess",
            None, _float, "dt", _above(0)),
        Key("max_t", "10", "final time", "10", _float, "max_t"),
        Key("cadence", "10", "steps between diagnostic rows",
            "10", _int, "cadence", _at_least(1)),
    ),
    "initial": (
        Key("profile", "gaussian", "surface profile: " + " | ".join(PROFILES),
            "gaussian", _text, "profile", _one_of(PROFILES)),
        Key("amplitude", "0.1", "max |zeta| of the initial surface",
            "0.1", _float, "amplitude", _at_least(0)),
        Key("seed", "1234", "random seed for the random profiles",
            "1234", _int, "seed", _at_least(0)),
        Key("width", "(auto)", "gaussian width; empty = min(length)/16",
            None, _float, "width", _above(0)),
        Key("mode_k", "1 per axis", "integer mode numbers for profile=mode",
            None, _ints, "mode_k"),
        Key("velocity", "right-mover", "velocity recipe: " + " | ".join(VELOCITIES),
            "right-mover", _text, "velocity", _one_of(VELOCITIES)),
        Key("snapshot", "(unset)", "BFDv1 file to start from; its grid must match [grid]",
            None, _text, "snapshot"),
    ),
    "output": (
        Key("dir", "out", "output directory", "out", _text, "out_dir"),
        Key("snapshot_every", "0",
            "snapshots per diagnostic point in simulate (0 = endpoints only)",
            "0", _int, "snapshot_every", _at_least(0)),
        Key("plot_script", "false", "also emit a matplotlib script per CSV",
            "false", _bool, "plot_script"),
    ),
    "study": (
        Key("epsilons", "0.1,0.05,0.025", "epsilon sweep, descending",
            "0.1,0.05,0.025", _floats, "epsilons"),
        Key("mus", "(tied)", "mu sweep; empty ties mu = epsilon; lifespan pairs "
            "it with epsilons (same length), equivalence sweeps their product",
            None, _floats, "mus"),
        Key("growth_factor", "2", "lifespan threshold multiplier, > 1",
            "2", _float, "growth_factor", _above(1)),
        Key("s", "(auto)", "Sobolev index of the monitored norm; empty = 4 in 2D, 3 in 1D",
            None, _float, "s", _at_least(0)),
        Key("dts", "0.1,0.05,0.025,0.0125", "dt sweep for the conservation study",
            "0.1,0.05,0.025,0.0125", _floats, "dts", _above(0, "entries must be > 0")),
        Key("num_states", "100", "random states per equivalence point, >= 1",
            "100", _int, "num_states", _at_least(1)),
        Key("smallness_target", "0.25", "initial eps*||zeta||^2_{L2} after scaling",
            "0.25", _float, "smallness_target", _above(0, "must be a positive number")),
    ),
}

_ABCD_KEYS = ("a", "b", "c", "d")
_ALPHA_KEYS = ("alpha1", "beta", "alpha2")


# (section, Key) for every key, in registry order
_ROWS = tuple((section, key) for section, keys in CONFIG_KEYS.items() for key in keys)


def config_help() -> str:
    """Human-readable registry of every config key with its default."""
    lines = ["configuration keys (file sections or --set section.key=value):"]
    for section, keys in CONFIG_KEYS.items():
        lines.append(f"  [{section}]")
        for key in keys:
            lines.append(f"    {key.name:<16} default {key.default:<22} {key.help}")
    return "\n".join(lines)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one run: a CLI command or a study call.

    parse_config builds one from the key registry; library callers build
    one by keyword, where every field but params and grid has a default.
    Either way the range checks of the registry rows (and the length of
    mode_k, which reads the grid) run here and raise ConfigError naming
    the key.  kind is the command name and names the manifest.  scheme is
    not a config key: it names the one integrator, and SchemeConfig
    admits only "exponential".
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
        for section, key in _ROWS:
            if key.check is None:
                continue
            holds, requirement = key.check
            value = _value(key, self)
            for item in value if isinstance(value, tuple) else (value,):
                if item is not None and not holds(item):
                    raise ConfigError(f"{section}.{key.name} {requirement}, got {item!r}")
        if self.mode_k is not None and len(self.mode_k) != self.grid.dim:
            raise ConfigError(f"initial.mode_k needs {self.grid.dim} entries, "
                              f"got {len(self.mode_k)}")

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

    def echo(self) -> dict:
        """Every key of the registry with its resolved value (for manifests)."""
        doc = {section: {} for section in CONFIG_KEYS}
        for section, key in _ROWS:
            value = _value(key, self)
            doc[section][key.name] = list(value) if isinstance(value, tuple) else value
        return doc

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
        out_dir is None.  The document is strict JSON: a non-finite float
        of derived is written as the token the CSVs use ("nan", "inf",
        "-inf"), and any other non-finite value raises ValueError.
        """
        path = self.output_path(f"{self.kind}_manifest.json")
        if path is None:
            return None
        doc = {"command": self.kind, "config": self.echo(), "version": __version__,
               "derived": {key: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                           for key, v in (derived or {}).items()}}
        path.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
        return path


# The name the study API has always used for the same settings.
StudyConfig = RunConfig


def _require_section(section: str):
    if section not in CONFIG_KEYS:
        raise ConfigError(f"unknown section [{section}] (known: {', '.join(CONFIG_KEYS)})")


def _check_registry(cp: configparser.ConfigParser):
    for section in cp.sections():
        _require_section(section)
        allowed = {key.name for key in CONFIG_KEYS[section]}
        for name in cp[section]:
            if name not in allowed:
                raise ConfigError(f"unknown key {section}.{name} "
                                  f"(known: {', '.join(sorted(allowed))})")


def _apply_overrides(cp: configparser.ConfigParser, overrides):
    for item in overrides:
        target, equals, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not (equals and dot):
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        section, key = section.strip(), key.strip()
        _require_section(section)
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key] = value.strip()


def _read_error(path, exc: configparser.Error) -> ConfigError:
    """What configparser found wrong reading path, on one line naming the
    file, the line and its text."""
    # read_file raises a ParsingError, whose errors hold (line number,
    # text), or an error that carries lineno itself
    lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
    line = Path(path).read_text(encoding="utf-8").splitlines()[lineno - 1].strip()
    what = {configparser.DuplicateOptionError: "repeats a key of its section",
            configparser.DuplicateSectionError: "repeats a section"}.get(
        type(exc), "is neither a [section] header nor a key = value line under one")
    return ConfigError(f"{path}, line {lineno}: {line!r} {what}")


def parse_config(path: str | None = None, overrides=()) -> RunConfig:
    """Read, override, validate, and resolve a configuration.

    Every key parses from its text, or from its row's raw default when it
    is unset or empty; then the rules that span keys run.  Raises
    ConfigError for unknown keys, malformed values, or violated
    exclusivity, and RunConfig raises it for out-of-range values;
    parameter-domain violations (including the well-posedness signs)
    surface from the model layer with their bounds.
    """
    # no section is special: [DEFAULT] is an unknown section like any other
    # ("" cannot be written as a section header)
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                cp.read_file(fh, source=str(path))
            except configparser.Error as exc:
                raise _read_error(path, exc) from exc
    _apply_overrides(cp, overrides)
    _check_registry(cp)

    values, given = {}, set()
    for section, key in _ROWS:
        raw = cp.get(section, key.name, fallback="").strip()
        if raw:
            given.add(key.name)
        else:
            raw = key.raw
        values[key.name] = None if raw is None else key.parse(raw, f"{section}.{key.name}")

    abcd_given = [k for k in _ABCD_KEYS if k in given]
    alpha_given = [k for k in _ALPHA_KEYS if k in given]
    if abcd_given and alpha_given:
        raise ConfigError(
            "model coefficients are exclusive: supply a,b,c,d or "
            f"alpha1,beta,alpha2 (got {', '.join(abcd_given + alpha_given)})"
        )
    if values["mu2"] is None:
        values["mu2"] = values["mu"]
    shared = [values[k] for k in ("gamma", "epsilon", "mu", "mu2")]
    if alpha_given:
        if len(alpha_given) != len(_ALPHA_KEYS):
            missing = sorted(set(_ALPHA_KEYS) - set(alpha_given))
            raise ConfigError(f"alpha family needs all of alpha1, beta, alpha2 "
                              f"(missing {', '.join(missing)})")
        params = params_from_alphas(*shared, *(values[k] for k in _ALPHA_KEYS))
    else:
        params = ModelParams(*shared, *(values[k] for k in _ABCD_KEYS))
    classify_case(params, values["case_override"])  # reject a bad case up front

    n, length = values["n"], values["length"]
    if len(length) == 1 and len(n) == 2:
        length = length * 2
    if len(length) != len(n):
        raise ConfigError(f"grid.length has {len(length)} entries for "
                          f"{len(n)} axis sizes")
    if values["dim"] is not None and values["dim"] != len(n):
        raise ConfigError(f"grid.dim = {values['dim']} does not match n with "
                          f"{len(n)} entries")

    # the [model] and [grid] rows fill params and grid, built above
    fields = {key.field: values[key.name] for _, key in _ROWS
              if key.field is not None and "." not in key.field}
    return RunConfig(params=params, grid=GridSpec(n=n, length=length), **fields)
