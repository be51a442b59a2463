"""Command-line front end.

Subcommands: simulate (single run with snapshots and a diagnostic CSV),
lifespan / conserve / smallness / equivalence (the studies), and symbols
(dump the dispersion multipliers along the nonnegative frequency ray).
Configuration comes from an INI file and/or repeatable
``--set section.key=value`` overrides; ``--help`` lists every key.

Exit codes: 0 success, 2 configuration error, 3 unsupported coefficient
case, 4 I/O error or malformed snapshot, 5 internal failure.  Failures
print one line ``error: <slug>: <detail>`` to stderr.  A blow-up is a
result, not a failure, in every command that evolves a state (simulate,
lifespan, conserve, smallness): each runs through studies.run, records the
blow-up in its artifacts and exits 0.  Each of the four writes its record
through studies.write_record: events.jsonl, and dt, steps and
terminated_by in the manifest's derived (a list per sweep point for
lifespan and conserve).  Every command writes through its RunConfig
(write_csv, write_manifest), which also gives the start state of a run.
simulate writes initial.bfd after its run, so a start that evolve rejects
(exit 2) leaves no file behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, config_help, parse_config
from .energy import csv_header, energy_report
from .errors import ConfigError, ParameterDomainError, SnapshotFormatError, UnsupportedCaseError
from .snapshots import write_snapshot
from .studies import (
    conservation_study,
    equivalence_study,
    fmt,
    lifespan_study,
    run,
    smallness_check,
    write_record,
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
    for name, (func, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb, description=blurb, epilog=_EPILOG,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("config", nargs="?", default=None,
                       help="INI configuration file (optional; defaults apply)")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       dest="overrides", help="override one configuration key")
        p.set_defaults(func=func)
    return parser


def _cmd_simulate(cfg: RunConfig) -> int:
    state = cfg.initial_state()
    case = cfg.case
    index = itertools.count()

    def sample(snap):
        row = energy_report(snap, s=0.0, case=case).csv_row()
        i = next(index)
        if cfg.snapshot_every > 0 and i > 0 and i % cfg.snapshot_every == 0:
            write_snapshot(cfg.output_path(f"snap_{i:06d}.bfd"), snap)
        return row

    summary = run(cfg, state, sample=sample)
    write_snapshot(cfg.output_path("initial.bfd"), state)
    if summary.final_state is not None:
        write_snapshot(cfg.output_path("final.bfd"), summary.final_state)
    cfg.write_csv("report.csv", csv_header(), summary.samples,
                  plot=("t", ("hamiltonian", "x0_norm", "noncav", "smallness")))
    write_record(cfg, summary)
    print(f"simulate: {summary.steps} steps, terminated by {summary.terminated_by}; "
          f"wrote {Path(cfg.out_dir)}")
    return 0


def _cmd_lifespan(cfg: RunConfig) -> int:
    records = lifespan_study(cfg)
    for r in records:
        print(f"lifespan: epsilon={r.epsilon:g} T_obs={r.T_obs:g} "
              f"product={r.product:g} ({r.terminated_by})")
    print(f"lifespan: wrote {Path(cfg.out_dir)}")
    return 0


def _cmd_conserve(cfg: RunConfig) -> int:
    result = conservation_study(cfg)
    for h, drift in zip(result.dts, result.drifts):
        print(f"conserve: dt={h:g} drift={drift:.3e}")
    print(f"conserve: order fit {result.order_fit:.2f}; wrote {Path(cfg.out_dir)}")
    return 0


def _cmd_smallness(cfg: RunConfig) -> int:
    report = smallness_check(cfg)
    print(f"smallness: initial={report.initial_smallness:g} "
          f"max={report.max_smallness:g} invariant_held={report.invariant_held} "
          f"precondition_ok={report.precondition_ok} ({report.terminated_by})")
    return 0


def _cmd_equivalence(cfg: RunConfig) -> int:
    records = equivalence_study(cfg)
    for r in records:
        print(f"equivalence: epsilon={r.epsilon:g} mu={r.mu:g} case={r.case_id} "
              f"ratio in [{r.ratio_min:.6g}, {r.ratio_max:.6g}]")
    print(f"equivalence: wrote {Path(cfg.out_dir)}")
    return 0


def _cmd_symbols(cfg: RunConfig) -> int:
    grid = cfg.grid
    table = symbol_table(grid, cfg.params)

    def ray(arr: np.ndarray) -> np.ndarray:
        half = np.broadcast_to(np.asarray(arr), grid.half_shape)
        return half[:, 0] if grid.dim == 2 else half

    xi1 = ray(grid.xi_mesh[0])
    keep = xi1 >= 0.0
    order = np.argsort(xi1[keep])
    columns = {
        "xi": xi1, "sigma": ray(table.sigma), "A": ray(table.A),
        "g": ray(table.g), "omega1": ray(table.omega1),
        "omega2": ray(table.omega2), "im_lambda_plus": ray(table.Omega),
    }
    names = tuple(columns)
    data = [col[keep][order] for col in columns.values()]
    rows = [",".join(map(fmt, row)) for row in zip(*data)]
    cfg.write_csv("symbols.csv", ",".join(names), rows, plot=(names[0], names[1:]))
    cfg.write_manifest({"rows": len(rows)})
    print(f"symbols: {len(rows)} rows; wrote {Path(cfg.out_dir)}")
    return 0


# name: (handler, help line), in the order --help lists them
_COMMANDS = {
    "simulate": (_cmd_simulate, "run one simulation, writing snapshots and diagnostics"),
    "lifespan": (_cmd_lifespan, "sweep epsilon and record the norm-doubling horizon"),
    "conserve": (_cmd_conserve, "measure Hamiltonian drift over a dt sweep (b = d)"),
    "smallness": (_cmd_smallness, "long run monitoring eps*||zeta||^2 against 1/2"),
    "equivalence": (_cmd_equivalence, "energy-ratio statistics over random states"),
    "symbols": (_cmd_symbols, "dump the dispersion multipliers to CSV"),
}


def _fail(code: int, slug: str, exc: BaseException) -> int:
    print(f"error: {slug}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
        return args.func(dataclasses.replace(cfg, kind=args.command))
    except (ConfigError, ParameterDomainError) as exc:
        return _fail(2, "config", exc)
    except UnsupportedCaseError as exc:
        return _fail(3, "unsupported-case", exc)
    except (OSError, SnapshotFormatError) as exc:
        return _fail(4, "io", exc)
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(5, "internal", exc)


if __name__ == "__main__":
    sys.exit(main())
