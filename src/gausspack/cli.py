"""Command-line interface: evolve, fractions, figure, and validate.

Every command is deterministic — identical inputs produce byte-identical
output files.  Exit codes: 0 success, 1 validation or constraint
failure, 2 numerical non-convergence or a non-finite value in an output
table, 64 usage error.
"""

import argparse
import json
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
from .figures import figure_tables, render_figure
from .kedensity import fractions_series
from .quantities import _require_positive
from .scenarios import PRESET_NAMES, load_scenario, preset, serialize_scenario
from .validation import _REPORT_KEYS, report, run_checks

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64

_FRACTION_COLUMNS = ("t", "total", "plus", "minus", "r_plus", "r_minus")
_EVOLVE_COLUMNS = ("x", "re_psi", "im_psi", "abs_psi", "prob")


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


def _scenario_doc(scenario):
    return json.loads(serialize_scenario(scenario))


def _write_tables(tables, scenario, args, command):
    """Shared CSV/JSON emission for the evolve and figure data tables."""
    if args.format == "json":
        doc = {
            "version": 1,
            "command": command,
            "scenario": _scenario_doc(scenario),
            "tables": [
                {"t": t, "columns": columns, "rows": rows}
                for t, columns, rows in tables
            ],
        }
        _emit(dumps_stable(doc), args.out)
        return EXIT_OK
    if command == "evolve" and args.combined:
        columns = ["t"] + tables[0][1]
        rows = np.vstack([
            np.column_stack((np.full(len(trows), t), trows))
            for t, _, trows in tables
        ])
        _emit(render_csv(columns, rows), args.out)
        return EXIT_OK
    paths = _table_paths(args.out, len(tables))
    for (t, columns, rows), path in zip(tables, paths):
        _emit(render_csv(columns, rows), path)
    return EXIT_OK


def cmd_evolve(args):
    scenario = _load(args)
    tables = figure_tables(scenario, list(_EVOLVE_COLUMNS))
    return _write_tables(tables, scenario, args, "evolve")


def cmd_fractions(args):
    scenario = _load(args)
    splits = fractions_series(scenario.system, scenario.params, scenario.times)
    rows = np.array(splits, dtype=float)
    if args.format == "json":
        doc = {
            "version": 1,
            "command": "fractions",
            "scenario": _scenario_doc(scenario),
            "columns": list(_FRACTION_COLUMNS),
            "rows": rows,
        }
        _emit(dumps_stable(doc), args.out)
    else:
        _emit(render_csv(list(_FRACTION_COLUMNS), rows), args.out)
    return EXIT_OK


def cmd_figure(args):
    scenario = _load(args)
    if args.format == "svg":
        _emit(render_figure(scenario), args.out)
        return EXIT_OK
    return _write_tables(figure_tables(scenario), scenario, args, "figure")


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
    doc = {"version": 1, "command": "validate"}
    doc.update(report(results))
    if args.format == "json":
        _emit(dumps_stable(doc), args.out)
    else:
        rows = [[_csv_cell(value) for value in r] for r in results]
        _emit(render_csv(list(_REPORT_KEYS), rows), args.out)
    return EXIT_OK if doc["all_pass"] else EXIT_FAILURE


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
