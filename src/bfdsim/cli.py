"""Command-line front end.

Subcommands: simulate (single run with snapshots and a diagnostic CSV),
lifespan / conserve / smallness / equivalence (the studies), and symbols
(dump the dispersion multipliers along the nonnegative frequency ray).
Configuration comes from an INI file and/or repeatable
``--set section.key=value`` overrides; ``--help`` lists every key.

Exit codes: 0 success, 2 configuration error, 3 unsupported coefficient
case, 4 I/O error, 5 internal failure.  Failures print one line
``error: <slug>: <detail>`` to stderr.  A blow-up during simulate is a
result, not a failure: it is recorded in the event log and exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, config_help, parse_config
from .energy import csv_header, energy_report
from .errors import ConfigError, ParameterDomainError, UnsupportedCaseError
from .evolution import BlowUpSignal, evolve
from .snapshots import load_state, write_snapshot
from .studies import (
    conservation_study,
    equivalence_study,
    fmt,
    lifespan_study,
    smallness_check,
)
from .symbols import symbol_table

_EPILOG = config_help()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfdsim",
        description="Pseudo-spectral studies of the abcd-type "
                    "full-dispersion internal wave systems.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    specs = (
        ("simulate", "run one simulation, writing snapshots and diagnostics"),
        ("lifespan", "sweep epsilon and record the norm-doubling horizon"),
        ("conserve", "measure Hamiltonian drift over a dt sweep (b = d)"),
        ("smallness", "long run monitoring eps*||zeta||^2 against 1/2"),
        ("equivalence", "energy-ratio statistics over random states"),
        ("symbols", "dump the dispersion multipliers to CSV"),
    )
    for name, blurb in specs:
        p = sub.add_parser(name, help=blurb, description=blurb, epilog=_EPILOG,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("config", nargs="?", default=None,
                       help="INI configuration file (optional; defaults apply)")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       dest="overrides", help="override one configuration key")
        p.set_defaults(func=_COMMANDS[name])
    return parser


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config, args.overrides)
    return dataclasses.replace(cfg, kind=args.command)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _plot_script(csv_name: str, xcol: str, ycols: tuple[str, ...],
                 logy: bool = False) -> str:
    stem = csv_name.rsplit(".", 1)[0]
    lines = [
        "#!/usr/bin/env python3",
        f'"""Plot {csv_name}; generated alongside the data."""',
        "import csv",
        "from pathlib import Path",
        "",
        "import matplotlib.pyplot as plt",
        "",
        f"here = Path(__file__).parent",
        f"with open(here / {csv_name!r}) as fh:",
        "    rows = list(csv.DictReader(fh))",
        f"xs = [float(r[{xcol!r}]) for r in rows]",
        f"for col in {ycols!r}:",
        "    plt.plot(xs, [float(r[col]) for r in rows], label=col)",
    ]
    if logy:
        lines.append("plt.xscale('log'); plt.yscale('log')")
    lines += [
        f"plt.xlabel({xcol!r})",
        "plt.legend()",
        "plt.tight_layout()",
        f"plt.savefig(here / {stem + '.png'!r}, dpi=150)",
    ]
    return "\n".join(lines) + "\n"


def _maybe_plot(cfg: RunConfig, out: Path, csv_name: str, xcol: str,
                ycols: tuple[str, ...], logy: bool = False) -> None:
    if cfg.plot_script:
        stem = csv_name.rsplit(".", 1)[0]
        (out / f"plot_{stem}.py").write_text(
            _plot_script(csv_name, xcol, ycols, logy=logy))


def _initial_state(cfg: RunConfig):
    if cfg.snapshot is not None:
        state = load_state(cfg.snapshot, cfg.params)
        if state.grid != cfg.grid:
            raise ConfigError(
                f"snapshot {cfg.snapshot} is on the grid n={state.grid.n}, "
                f"length={state.grid.length}, but [grid] is n={cfg.grid.n}, "
                f"length={cfg.grid.length}")
        return state
    return cfg.initial_state()


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    state = _initial_state(cfg)
    scheme = cfg.scheme_config(state)

    case = cfg.case
    rows: list[str] = []
    calls = {"n": 0}

    def report_monitor(snap):
        rows.append(energy_report(snap, s=0.0, case=case).csv_row())

    def snap_monitor(snap):
        i = calls["n"]
        calls["n"] += 1
        if cfg.snapshot_every > 0 and i > 0 and i % cfg.snapshot_every == 0:
            write_snapshot(out / f"snap_{i:06d}.bfd", snap)

    write_snapshot(out / "initial.bfd", state)
    try:
        summary = evolve(state, scheme, monitors=(report_monitor, snap_monitor))
        events = summary.events
        terminated_by = summary.terminated_by
        steps = summary.steps
        write_snapshot(out / "final.bfd", summary.final_state)
    except BlowUpSignal as sig:
        events = sig.events
        terminated_by = "blow-up"
        steps = sig.steps

    (out / "report.csv").write_text("\n".join([csv_header()] + rows) + "\n")
    (out / "events.jsonl").write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in events))
    cfg.write_manifest({"dt": scheme.dt, "steps": steps, "terminated_by": terminated_by})
    _maybe_plot(cfg, out, "report.csv", "t",
                ("hamiltonian", "x0_norm", "noncav", "smallness"))
    print(f"simulate: {steps} steps, terminated by {terminated_by}; wrote {out}")
    return 0


def _cmd_lifespan(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    records = lifespan_study(cfg)
    for r in records:
        print(f"lifespan: epsilon={r.epsilon:g} T_obs={r.T_obs:g} "
              f"product={r.product:g} ({r.terminated_by})")
    _maybe_plot(cfg, out, "lifespan.csv", "epsilon", ("T_obs", "product"), logy=True)
    print(f"lifespan: wrote {out}")
    return 0


def _cmd_conserve(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    result = conservation_study(cfg)
    for h, drift in zip(result.dts, result.drifts):
        print(f"conserve: dt={h:g} drift={drift:.3e}")
    print(f"conserve: order fit {result.order_fit:.2f}; wrote {out}")
    _maybe_plot(cfg, out, "conservation.csv", "dt", ("drift",), logy=True)
    return 0


def _cmd_smallness(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    report = smallness_check(cfg)
    print(f"smallness: initial={report.initial_smallness:g} "
          f"max={report.max_smallness:g} invariant_held={report.invariant_held} "
          f"precondition_ok={report.precondition_ok} ({report.terminated_by})")
    _maybe_plot(cfg, out, "smallness.csv", "t", ("smallness", "noncav", "x0_norm"))
    return 0


def _cmd_equivalence(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    records = equivalence_study(cfg)
    for r in records:
        print(f"equivalence: epsilon={r.epsilon:g} mu={r.mu:g} case={r.case_id} "
              f"ratio in [{r.ratio_min:.6g}, {r.ratio_max:.6g}]")
    _maybe_plot(cfg, out, "equivalence.csv", "epsilon",
                ("ratio_min", "ratio_max"), logy=True)
    print(f"equivalence: wrote {out}")
    return 0


def _cmd_symbols(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    grid = cfg.grid
    table = symbol_table(grid, cfg.params)

    def ray(arr: np.ndarray) -> np.ndarray:
        full = np.broadcast_to(np.asarray(arr), grid.n)
        return full[:, 0] if grid.dim == 2 else full

    xi1 = ray(grid.xi_mesh[0])
    keep = xi1 >= 0.0
    order = np.argsort(xi1[keep])
    columns = {
        "xi": xi1, "sigma": ray(table.sigma), "A": ray(table.A),
        "g": ray(table.g), "omega1": ray(table.omega1),
        "omega2": ray(table.omega2), "im_lambda_plus": ray(table.Omega),
    }
    names = list(columns)
    data = [col[keep][order] for col in columns.values()]
    lines = [",".join(names)]
    for i in range(data[0].size):
        lines.append(",".join(fmt(col[i]) for col in data))
    (out / "symbols.csv").write_text("\n".join(lines) + "\n")
    cfg.write_manifest({"rows": int(data[0].size)})
    _maybe_plot(cfg, out, "symbols.csv", "xi",
                ("sigma", "A", "g", "omega1", "omega2", "im_lambda_plus"))
    print(f"symbols: {data[0].size} rows; wrote {out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "lifespan": _cmd_lifespan,
    "conserve": _cmd_conserve,
    "smallness": _cmd_smallness,
    "equivalence": _cmd_equivalence,
    "symbols": _cmd_symbols,
}


def _fail(code: int, slug: str, exc: BaseException) -> int:
    print(f"error: {slug}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(2, "config", exc)
    except ParameterDomainError as exc:
        return _fail(2, "config", exc)
    except UnsupportedCaseError as exc:
        return _fail(3, "unsupported-case", exc)
    except OSError as exc:
        return _fail(4, "io", exc)
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(5, "internal", exc)


if __name__ == "__main__":
    sys.exit(main())
