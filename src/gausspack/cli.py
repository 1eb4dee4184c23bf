"""Command-line interface: evolve, fractions, figure, and validate.

Every command is deterministic — identical inputs produce byte-identical
output files.  Exit codes: 0 success, 1 validation or constraint
failure, 2 numerical non-convergence or a non-finite value in an output
table, 64 usage error.
"""

import argparse
import sys

import numpy as np

from ._textio import dumps_stable, render_csv
from .errors import (
    AccuracyError,
    BoundaryError,
    GausspackError,
    NonFiniteError,
    ResolutionError,
    ScenarioError,
    UnknownPresetError,
)
from .figures import _GRID_COLUMNS, figure_tables, render_figure
from .kedensity import EnergySplit, fractions_series
from .quantities import _require_positive
from .scenarios import PRESET_NAMES, _scenario_dict, load_scenario, preset
from .validation import _REPORT_KEYS, report, run_checks

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_float(text):
    try:
        return _require_positive("value", float(text))
    except ValueError:  # not a number, or ParameterError
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}"
        ) from None


def _add_source_options(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", metavar="FILE",
                       help="scenario file (JSON) or an inline JSON document")
    group.add_argument("--preset", metavar="NAME",
                       help=f"built-in scenario, one of: {', '.join(PRESET_NAMES)}")
    sub.add_argument("--lax", action="store_true",
                     help="permit unknown fields in the scenario document")


def _build_parser():
    parser = _Parser(prog="gausspack",
                     description="Gaussian wave packet kinetic-energy toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_evolve = sub.add_parser(
        "evolve", help="tabulate the wavefunction and probability density")
    _add_source_options(p_evolve)
    p_evolve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_evolve.add_argument("--out", default="-", metavar="PATH")
    p_evolve.add_argument(
        "--combined", action="store_true",
        help="emit a single CSV with a leading t column instead of one file per time")
    p_evolve.set_defaults(func=cmd_evolve)

    p_frac = sub.add_parser(
        "fractions", help="tabulate kinetic energy halves and fractions over time")
    _add_source_options(p_frac)
    p_frac.add_argument("--format", choices=("csv", "json"), default="csv")
    p_frac.add_argument("--out", default="-", metavar="PATH")
    p_frac.set_defaults(func=cmd_fractions)

    p_fig = sub.add_parser("figure", help="render a figure (SVG) or its data tables")
    _add_source_options(p_fig)
    p_fig.add_argument("--format", choices=("svg", "csv", "json"), default="svg")
    p_fig.add_argument("--out", default="-", metavar="PATH")
    p_fig.set_defaults(func=cmd_figure)

    p_val = sub.add_parser(
        "validate", help="run the analytic-versus-oracle check suite")
    p_val.add_argument("--filter", default=None, metavar="NAME",
                       help="run only checks whose name contains this substring")
    p_val.add_argument("--rel-tol", type=_positive_float, default=None,
                       metavar="TOL", help="override every check's tolerance")
    p_val.add_argument("--format", choices=("json", "csv"), default="json")
    p_val.add_argument("--out", default="-", metavar="PATH")
    p_val.set_defaults(func=cmd_validate)

    return parser


def _load(args):
    if args.preset is not None:
        return preset(args.preset)
    return load_scenario(args.scenario, lax=args.lax)


def _emit(text, path):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _table_paths(path, count):
    if count == 1:
        return [path]
    if path == "-":
        raise ScenarioError(
            "multiple output tables cannot go to standard output; "
            "pass --out or (for evolve) --combined"
        )
    stem, dot, suffix = path.rpartition(".")
    if not dot or "/" in suffix:
        stem, suffix = path, ""
    else:
        suffix = "." + suffix
    return [f"{stem}_{i:03d}{suffix}" for i in range(count)]


def _write(args, command, body, tables):
    """Write one JSON document, body after the version and command keys,
    or each (columns, rows) table as one CSV file at _table_paths' paths."""
    if args.format == "json":
        _emit(dumps_stable({"version": 1, "command": command, **body}), args.out)
        return
    for (columns, rows), path in zip(tables, _table_paths(args.out, len(tables))):
        _emit(render_csv(columns, rows), path)


def _grids(scenario, tables):
    """The JSON body and the CSV tables of figure_tables output."""
    body = {"scenario": _scenario_dict(scenario),
            "tables": [{"t": t, "columns": columns, "rows": rows}
                       for t, columns, rows in tables]}
    return body, [(columns, rows) for _, columns, rows in tables]


def cmd_evolve(args):
    scenario = _load(args)
    tables = figure_tables(scenario, list(_GRID_COLUMNS))
    body, csv_tables = _grids(scenario, tables)
    if args.combined and args.format == "csv":
        stacked = np.vstack([np.column_stack((np.full(len(rows), t), rows))
                             for t, _, rows in tables])
        csv_tables = [(["t", *_GRID_COLUMNS], stacked)]
    _write(args, "evolve", body, csv_tables)
    return EXIT_OK


def cmd_fractions(args):
    scenario = _load(args)
    splits = fractions_series(scenario.system, scenario.params, scenario.times)
    columns, rows = list(EnergySplit._fields), np.array(splits, dtype=float)
    body = {"scenario": _scenario_dict(scenario), "columns": columns, "rows": rows}
    _write(args, "fractions", body, [(columns, rows)])
    return EXIT_OK


def cmd_figure(args):
    scenario = _load(args)
    if args.format == "svg":
        _emit(render_figure(scenario), args.out)
    else:
        _write(args, "figure", *_grids(scenario, figure_tables(scenario)))
    return EXIT_OK


def _csv_cell(value):
    """A check record value as a CSV cell: the params and pass as JSON text."""
    if isinstance(value, (dict, bool)):
        return dumps_stable(value).rstrip("\n")
    return value


def cmd_validate(args):
    results = run_checks(name_filter=args.filter, rel_tol=args.rel_tol)
    if not results:
        print(f"gausspack: error: --filter {args.filter!r} matches no check",
              file=sys.stderr)
        return EXIT_USAGE
    body = report(results)
    rows = [map(_csv_cell, r) for r in results]  # cells made only if the CSV is written
    _write(args, "validate", body, [(list(_REPORT_KEYS), rows)])
    return EXIT_OK if body["all_pass"] else EXIT_FAILURE


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (UnknownPresetError, ScenarioError) as exc:
        print(f"gausspack: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AccuracyError, ResolutionError, BoundaryError, NonFiniteError) as exc:
        print(f"gausspack: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GausspackError as exc:
        print(f"gausspack: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"gausspack: i/o error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
