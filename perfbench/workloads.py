"""The four workloads: their operations, how each runs, and its output check.

A workload turns its seeded input document (inputs.build) into a list of
operations.  run(i, opdir, inprocess) performs operation i and returns its
output; items(i) is the work it does in the workload's unit; digest()
fingerprints an output; check() verifies it and returns how close the
closest tolerance check came to failing (measured error / tolerance), or
raises CheckFailed.

Every gausspack function is looked up on its module at call time
(``gausspack.state_at``, ``cli.main``), so the tracer's wrappers apply.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np

import gausspack
from gausspack import cli, figures

__all__ = ["CheckFailed", "OpFailed", "make", "warm_up"]

GOLDEN_SVG = os.path.join("tests", "golden", "fig2-middle.svg")
IDENTITY_RTOL = 1e-9      # general PacketState energy identities
TRAPEZOID_RTOL = 1e-5     # trapezoid sums on grids down to 64 points
# Results over t arrays are checked at every 4th time, spread over the whole
# array, so checking stays well below the cost of the work it checks.
BATCH_CHECK_STRIDE = 4
SPLITSTEP_TOL = 1e-6      # validation suite tolerances
HALVES_TOL = 1e-8
DOMAIN_SIGMAS = 12.0      # split-step domain margin around the trajectory
N_VALIDATE_CHECKS = 18
CLI_TIMEOUT_S = 60

_EVOLVE_COLUMNS = ["x", "re_psi", "im_psi", "abs_psi", "prob"]
_FRACTION_COLUMNS = ["t", "total", "plus", "minus", "r_plus", "r_minus"]


class OpFailed(Exception):
    """An operation did not complete (exception or nonzero exit code)."""


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _sha(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()


def _digest_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _load(args):
    """The Scenario a CLI argv refers to, loaded in-process."""
    if "--preset" in args:
        return gausspack.preset(args[args.index("--preset") + 1])
    return gausspack.load_scenario(args[args.index("--scenario") + 1])


def _phase_step(system, params, t, window, n):
    """Largest phase advance between neighbouring grid points, in radians.

    The phase of psi is l*x - Im(a)*(x - center)**2 + const, so its slope
    l - 2*Im(a)*(x - center) is largest in magnitude at a window end.
    """
    state = gausspack.state_at(system, params, t)
    lo, hi = window
    slope = max(abs(state.lin_phase - 2.0 * state.quad_coeff.imag * (x - state.center))
                for x in (lo, hi))
    return slope * (hi - lo) / (n - 1)


def _alias_ratio(scenario):
    """Worst phase step of the scenario's grids as a share of pi."""
    worst = 0.0
    for t in scenario.times:
        window = scenario.window.resolve(scenario.system, scenario.params, t)
        step = _phase_step(scenario.system, scenario.params, t, window, scenario.grid_n)
        _require(step <= math.pi, f"aliased grid at t={t!r}: phase step {step:.3g} > pi")
        worst = max(worst, step / math.pi)
    return worst


def _grid_rows(scenario, columns):
    """Expected (t, rows) per time, from this commit's library functions."""
    system, params = scenario.system, scenario.params
    for t in scenario.times:
        window = scenario.window.resolve(system, params, t)
        grid = gausspack.sample_grid(system, params, t, window, scenario.grid_n)
        cols = {
            "x": grid.xs, "re_psi": grid.psi.real, "im_psi": grid.psi.imag,
            "abs_psi": np.abs(grid.psi), "prob": grid.prob,
        }
        if "kedensity" in columns:
            cols["kedensity"] = gausspack.kinetic_density(system, params, grid.xs, t)
        if "scaled" in columns:
            cols["scaled"] = gausspack.scaled_density(system, params, grid.xs, t)
        yield t, np.column_stack([cols[c] for c in columns]).tolist()


def _fraction_rows(scenario):
    rows = []
    for t in scenario.times:
        s = gausspack.half_energies(scenario.system, scenario.params, float(t))
        rows.append([s.t, s.total, s.plus, s.minus, s.r_plus, s.r_minus])
    return rows


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _parse_csv(text):
    lines = text.split("\n")
    _require(len(lines) >= 2 and lines[-1] == "", "CSV must end with a newline")
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:-1]]


def _table_files(out, count):
    """The file names the CLI writes for `count` tables sent to `out`."""
    if count == 1:
        return [out]
    stem, _, suffix = out.rpartition(".")
    return [f"{stem}_{i:03d}.{suffix}" for i in range(count)]


def _check_files(opdir, expected):
    found = sorted(os.listdir(opdir))
    _require(found == sorted(expected), f"output files {found} != {sorted(expected)}")


def _format(args):
    """The --format a CLI argv asks for, or the command's default."""
    if "--format" in args:
        return args[args.index("--format") + 1]
    return "svg" if args[0] == "figure" else "csv"


def _check_cli_output(args, out, opdir, root):
    """Compare a CLI command's output files with the library's own values.

    Numbers are parsed back and compared exactly (the CLI writes 17
    significant digits, which round-trips every double).  Returns the
    worst aliasing phase step as a share of pi (0 for fractions).
    """
    command, fmt = args[0], _format(args)
    scenario = _load(args)
    json_head = {"version": 1, "command": command,
                 "scenario": json.loads(gausspack.serialize_scenario(scenario))}
    if command == "fractions":
        _check_files(opdir, [out])
        text = _read(os.path.join(opdir, out))
        expected = _fraction_rows(scenario)
        if fmt == "json":
            _require(json.loads(text) == {**json_head, "columns": _FRACTION_COLUMNS,
                                          "rows": expected}, "fractions JSON differs")
        else:
            header, rows = _parse_csv(text)
            _require(header == _FRACTION_COLUMNS, "fractions header differs")
            _require(rows == expected, "fractions values differ")
        return 0.0

    ratio = _alias_ratio(scenario)
    if command == "figure" and fmt == "svg":
        _check_files(opdir, [out])
        with open(os.path.join(opdir, out), "rb") as fh:
            svg = fh.read()
        if args[1:3] == ["--preset", "fig2-middle"]:
            with open(os.path.join(root, GOLDEN_SVG), "rb") as fh:
                _require(svg == fh.read(), "fig2-middle.svg differs from the golden file")
        else:
            _require(svg == figures.render_figure(scenario).encode(),
                     "SVG differs from render_figure")
        return ratio

    columns = figures.figure_columns(scenario) if command == "figure" else _EVOLVE_COLUMNS
    tables = list(_grid_rows(scenario, columns))
    if fmt == "json":
        _check_files(opdir, [out])
        expected = {**json_head, "tables": [{"t": t, "columns": columns, "rows": rows}
                                            for t, rows in tables]}
        _require(json.loads(_read(os.path.join(opdir, out))) == expected,
                 f"{command} JSON differs")
    elif "--combined" in args:
        _check_files(opdir, [out])
        header, rows = _parse_csv(_read(os.path.join(opdir, out)))
        _require(header == ["t"] + columns, "combined CSV header differs")
        _require(rows == [[t] + row for t, trows in tables for row in trows],
                 "combined CSV values differ")
    else:
        names = _table_files(out, len(tables))
        _check_files(opdir, names)
        for name, (t, expected) in zip(names, tables):
            header, rows = _parse_csv(_read(os.path.join(opdir, name)))
            _require(header == columns, f"{name}: header differs")
            _require(rows == expected, f"{name}: values differ at t={t!r}")
    return ratio


def _values_written(args, scenario):
    """Numbers a CLI command writes: table cells, or SVG polyline coordinates."""
    command, fmt = args[0], _format(args)
    n_times = len(scenario.times)
    if command == "fractions":
        return n_times * len(_FRACTION_COLUMNS)
    if fmt == "svg":
        out = scenario.outputs
        curves = 3 * ("psi" in out) + ("prob" in out) + ("scaled" in out)
        return n_times * scenario.grid_n * curves * 2
    columns = figures.figure_columns(scenario) if command == "figure" else _EVOLVE_COLUMNS
    return n_times * scenario.grid_n * (len(columns) + ("--combined" in args))


def _run_cli(args, out, opdir, inprocess):
    argv = [*args, "--out", os.path.join(opdir, out)]
    if inprocess:
        code, stderr = cli.main(argv), ""
    else:
        proc = subprocess.run(
            [sys.executable, "-m", "gausspack", *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
        )
        code, stderr = proc.returncode, proc.stderr.decode(errors="replace").strip()
    if code != 0:
        raise OpFailed(f"gausspack {args[0]} exited with {code} {stderr[-300:]}")


class CliWorkload:
    """A sequence of gausspack commands, each writing files into its own directory.

    cli-startup runs each command as a fresh ``python -m gausspack``
    subprocess (items: commands); bulk-export calls ``cli.main`` in-process
    (items: numbers written).  Traced runs replay both in-process.
    """

    def __init__(self, name, doc, root):
        self.name = name
        self.root = root
        self.commands = doc["commands"]
        self.subprocess = name == "cli-startup"
        self._items = [
            1 if self.subprocess else _values_written(c["args"], _load(c["args"]))
            for c in self.commands
        ]

    def __len__(self):
        return len(self.commands)

    def items(self, i):
        return self._items[i]

    def run(self, i, opdir, inprocess):
        command = self.commands[i]
        _run_cli(command["args"], command["out"], opdir, inprocess or not self.subprocess)
        return opdir

    def digest(self, i, output):
        return _digest_dir(output)

    def check(self, i, output):
        command = self.commands[i]
        return _check_cli_output(command["args"], command["out"], output, self.root)

    def peak_rss_kb(self, self_kb, children_kb):
        return children_kb if self.subprocess else self_kb


def _scenario_of(doc):
    return gausspack.load_scenario(json.dumps(doc))


def _packet_at(doc):
    """(system, params, first time) of a scenario document."""
    scenario = _scenario_of(doc)
    return scenario.system, scenario.params, scenario.times[0]


def _trajectory_domain(system, params, t, samples=9):
    """Split-step domain: the packet's path over [0, t], +-12 widths."""
    lo, hi = math.inf, -math.inf
    for k in range(samples):
        m = gausspack.moments_at(system, params, t * k / (samples - 1))
        half = DOMAIN_SIGMAS * math.sqrt(m.var_x)
        lo, hi = min(lo, m.mean_x - half), max(hi, m.mean_x + half)
    return lo, hi


class OracleWorkload:
    """One ``gausspack validate`` run, then seeded oracle cross-checks.

    Cross-checks run split-step propagation against eval_psi in L2, or
    quadrature of the kinetic density over the upper half-window against
    half_energies().plus, with the suite's tolerances.  Items: checks.
    """

    def __init__(self, name, doc, root):
        self.name = name
        self.root = root
        self.validate = doc["validate"]
        self.checks = []
        for check in doc["checks"]:
            if check["check"] == "splitstep":
                system, params, t = _packet_at(check["scenario"])
                spec = gausspack.PropagatorSpec(
                    system=system, constants=params.constants,
                    domain=_trajectory_domain(system, params, t),
                    dt=t / check["steps"], n_grid=check["n_grid"])
                xs = spec.grid()
                self.checks.append(("splitstep", system, params, t, spec, xs,
                                    gausspack.eval_psi(system, params, xs, 0.0)))
            else:
                packets = [_packet_at(doc) for doc in check["scenarios"]]
                self.checks.append(("halves", [
                    (system, params, t, gausspack.half_windows(system, params, t)[1])
                    for system, params, t in packets]))

    def __len__(self):
        return 1 + len(self.checks)

    def items(self, i):
        if i == 0:
            return N_VALIDATE_CHECKS
        return 1 if self.checks[i - 1][0] == "splitstep" else len(self.checks[i - 1][1])

    def run(self, i, opdir, inprocess):
        """Validate writes a report; a cross-check returns its (error, tolerance) pairs."""
        if i == 0:
            _run_cli(self.validate["args"], self.validate["out"], opdir, inprocess)
            return opdir
        kind, *args = self.checks[i - 1]
        if kind == "splitstep":
            system, params, t, spec, xs, psi0 = args
            numeric = gausspack.propagate(psi0, spec, t)
            exact = gausspack.eval_psi(system, params, xs, t)
            distance = math.sqrt(float(np.sum(np.abs(numeric - exact) ** 2) * (xs[1] - xs[0])))
            return [(distance, SPLITSTEP_TOL)]
        errors = []
        for system, params, t, window in args[0]:
            value = gausspack.integrate(
                lambda x: gausspack.kinetic_density(system, params, x, t), window).value
            analytic = gausspack.half_energies(system, params, t).plus
            errors.append((abs(value - analytic) / abs(analytic), HALVES_TOL))
        return errors

    def digest(self, i, output):
        return _digest_dir(output) if i == 0 else _sha(repr(output))

    def check(self, i, output):
        if i == 0:
            _check_files(output, [self.validate["out"]])
            report = json.loads(_read(os.path.join(output, self.validate["out"])))
            _require(report["all_pass"] is True, "validate report has failures")
            _require(report["n_checks"] == N_VALIDATE_CHECKS,
                     f"validate ran {report['n_checks']} checks")
            return max(c["rel_err"] / c["tol"] for c in report["checks"])
        for err, tol in output:
            _require(err <= tol, f"{self.checks[i - 1][0]} cross-check error {err:.3g} > {tol:g}")
        return max(err / tol for err, tol in output)

    def peak_rss_kb(self, self_kb, children_kb):
        return max(self_kb, children_kb)


def _kinetic(state, params):
    """T = (hbar^2/2m)(l^2 + 2|a|^2 w^2) from a PacketState."""
    a, l, w = state.quad_coeff, state.lin_phase, state.width
    return params.hbar**2 / (2.0 * params.mass) * (l * l + 2.0 * abs(a) ** 2 * w * w)


def _split_ratio(system, params, t, split):
    """Error of an EnergySplit against the PacketState identities, in tolerances."""
    state = gausspack.state_at(system, params, t)
    total = _kinetic(state, params)
    delta = params.hbar**2 / (params.mass * math.sqrt(math.pi)) \
        * state.lin_phase * state.quad_coeff.imag * state.width
    err = max(abs(split.total - total), abs(split.plus - (total / 2.0 - delta)),
              abs(split.minus - (total / 2.0 + delta)))
    return err / (IDENTITY_RTOL * total)


def _worst(times, ratios, what):
    """Largest error ratio of a batch; raises at the first one above 1."""
    ratios = list(ratios)
    for t, ratio in zip(times, ratios, strict=True):
        if not ratio <= 1.0:
            raise CheckFailed(f"{what} off by {ratio:.3g} tolerances at t={t!r}")
    return max(ratios)


def _window_integrals(state, params, lo, hi):
    """Probability and kinetic energy of a PacketState inside [lo, hi].

    With u = x - center, z = u/w and P = exp(-z**2)/(sqrt(pi) w), the
    Gaussian moments over [z_lo, z_hi] are
    M0 = (erf z_hi - erf z_lo)/2, M1 = w (e^-z_lo^2 - e^-z_hi^2)/(2 sqrt(pi)),
    M2 = w^2 M0/2 - w^2 (z_hi e^-z_hi^2 - z_lo e^-z_lo^2)/(2 sqrt(pi)),
    and T(x) = (hbar^2/2m)(l^2 - 4 l Im(a) u + 4|a|^2 u^2) P.
    """
    w, a, l = state.width, state.quad_coeff, state.lin_phase
    z_lo, z_hi = (lo - state.center) / w, (hi - state.center) / w
    g_lo, g_hi = math.exp(-z_lo * z_lo), math.exp(-z_hi * z_hi)
    m0 = (math.erf(z_hi) - math.erf(z_lo)) / 2.0
    m1 = w * (g_lo - g_hi) / (2.0 * math.sqrt(math.pi))
    m2 = w * w * m0 / 2.0 - w * w * (z_hi * g_hi - z_lo * g_lo) / (2.0 * math.sqrt(math.pi))
    scale = params.hbar**2 / (2.0 * params.mass)
    return m0, scale * (l * l * m0 - 4.0 * l * a.imag * m1 + 4.0 * abs(a) ** 2 * m2)


def _corrected_trapezoid(f, dx):
    """Trapezoid sum minus its leading end error (dx^2/12)(f'(b) - f'(a)).

    The window cuts the packet where the integrand is not yet negligible,
    so the plain sum is only O(dx^2) accurate on coarse grids.
    """
    da = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    db = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return float(np.trapezoid(f, dx=dx)) - dx * dx / 12.0 * (db - da)


class LibraryWorkload:
    """In-process library calls over all four systems.

    Batches of state_at / moments_at / half_energies over t arrays,
    fractions_series over long t arrays, and sample_grid /
    kinetic_density / scaled_density at 64 .. 131072 points.
    Items: evaluated points (times or grid points).
    """

    def __init__(self, name, doc, root):
        self.name = name
        self.ops = []
        for op in doc["ops"]:
            scenario = _scenario_of(op["scenario"])
            prepared = {"fn": op["fn"], "system": scenario.system,
                        "params": scenario.params, "times": scenario.times}
            if "n" in op:
                t = scenario.times[0]
                window = gausspack.RelativeWindow(op["halfwidth"]).resolve(
                    scenario.system, scenario.params, t)
                prepared.update(t=t, window=window, n=op["n"])
                if op["fn"] != "sample_grid":
                    prepared["xs"] = np.linspace(window[0], window[1], op["n"])
            self.ops.append(prepared)

    def __len__(self):
        return len(self.ops)

    def items(self, i):
        op = self.ops[i]
        return op.get("n", len(op["times"]))

    def run(self, i, opdir, inprocess):
        op = self.ops[i]
        fn, system, params = op["fn"], op["system"], op["params"]
        if fn in ("state_at", "moments_at", "half_energies"):
            call = getattr(gausspack, fn)
            return [call(system, params, t) for t in op["times"]]
        if fn == "fractions_series":
            return gausspack.fractions_series(system, params, op["times"])
        if fn == "sample_grid":
            return gausspack.sample_grid(system, params, op["t"], op["window"], op["n"])
        return getattr(gausspack, fn)(system, params, op["xs"], op["t"])

    def digest(self, i, output):
        if isinstance(output, np.ndarray):
            return _sha(output.tobytes())
        if isinstance(output, gausspack.GridResult):
            return _sha(output.xs.tobytes(), output.psi.tobytes(), output.prob.tobytes())
        return _sha(repr(output))

    def check(self, i, output):
        op = self.ops[i]
        fn, system, params = op["fn"], op["system"], op["params"]
        if fn in ("state_at", "moments_at", "half_energies", "fractions_series"):
            _require(len(output) == len(op["times"]), "wrong number of results")
            times = op["times"][::BATCH_CHECK_STRIDE]
            output = output[::BATCH_CHECK_STRIDE]
        if fn == "state_at":
            return _worst(times, (
                abs(_kinetic(state, params) - total) / (IDENTITY_RTOL * total)
                for state, total in zip(
                    output, (gausspack.total_kinetic(system, params, t) for t in times))),
                "kinetic identity")
        if fn == "moments_at":
            return _worst(times, (
                abs(_kinetic(gausspack.state_at(system, params, t), params) - m.kinetic)
                / (IDENTITY_RTOL * m.kinetic) for t, m in zip(times, output)),
                "kinetic identity")
        if fn in ("half_energies", "fractions_series"):
            _require(all(s.t == t for s, t in zip(output, times)), "energy split times differ")
            return _worst(times, (_split_ratio(system, params, t, s)
                                  for t, s in zip(times, output)), "energy split identity")

        t, (lo, hi), n = op["t"], op["window"], op["n"]
        alias = _phase_step(system, params, t, op["window"], n) / math.pi
        _require(alias <= 1.0, f"aliased grid: phase step {alias * math.pi:.3g} > pi")
        mass, kinetic = _window_integrals(gausspack.state_at(system, params, t), params, lo, hi)
        if fn == "sample_grid":
            _require(output.xs[0] == lo and output.xs[-1] == hi and output.xs.size == n,
                     "grid does not span the window")
            values, expected = output.prob, mass
        elif fn == "kinetic_density":
            values, expected = output, kinetic
        else:
            values = output
            expected = kinetic / gausspack.half_energies(system, params, t).total
        integral = _corrected_trapezoid(values, (hi - lo) / (n - 1))
        ratio = abs(integral - expected) / (TRAPEZOID_RTOL * abs(expected))
        _require(ratio <= 1.0, f"{fn} integrates to {integral!r}, expected {expected!r}")
        return max(alias, ratio)

    def peak_rss_kb(self, self_kb, children_kb):
        return self_kb


_KINDS = {
    "cli-startup": CliWorkload,
    "bulk-export": CliWorkload,
    "oracle-validate": OracleWorkload,
    "library-scan": LibraryWorkload,
}


def make(doc, root):
    """The workload object for an input document from inputs.build."""
    name = doc["workload"]
    return _KINDS[name](name, doc, root)


def warm_up(tmpdir):
    """Touch every traced code path once with small inputs."""
    for args, out in (
        (["evolve", "--preset", "fig1", "--format", "json"], "e.json"),
        (["figure", "--preset", "fig2-middle", "--format", "svg"], "f.svg"),
        (["fractions", "--preset", "fig3", "--format", "csv"], "r.csv"),
    ):
        _run_cli(args, out, tmpdir, inprocess=True)
    system, params = gausspack.harmonic_oscillator(1.0), gausspack.make_params(p0=0.5)
    gausspack.moments_at(system, params, 0.3)
    gausspack.fractions_series(system, params, (0.1, 0.2))
    spec = gausspack.PropagatorSpec(system=system, constants=params.constants,
                                    domain=(-12.0, 12.0), dt=0.01, n_grid=256)
    gausspack.propagate(gausspack.eval_psi(system, params, spec.grid(), 0.0), spec, 0.1)
    gausspack.integrate(lambda x: gausspack.kinetic_density(system, params, x, 0.3),
                        gausspack.half_windows(system, params, 0.3)[1])
