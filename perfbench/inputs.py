"""Seeded inputs for the four perfbench workloads.

Every input is plain JSON data drawn from ``random.Random(seed)``, so one
seed always gives byte-identical inputs (compare ``dumps(build(w, s))``).
gausspack only ever sees the generated scenario documents, argv lists and
numbers.  Draws stay in the regime the presets and the validation cases
already use:

* free and accelerated packets up to 10 t0, |x0| <= 2, |p0| <= 4 dp0,
  alpha in [0.5, 2], forces up to 0.25 dp0/t0;
* harmonic oscillator up to tau/4, omega and beta/beta0 in [0.5, 2];
* inverted oscillator up to |omega_tilde t| = 1.5;
* x0 = 0 for both oscillators.

No draw is filtered by any check's verdict.  Two fixed rules tie sizes to
the regime instead: a library grid of n < 1024 points samples only the
first n/1024 of the time range, because the packet's chirp outgrows a
coarse grid at late times; and the split-step cross-checks keep drifting
packets within 4 t0 and all packets within |p0| <= 2 dp0, |x0| <= 1, where
the fixed 2048-point, 4000-step propagation resolves them.  Output checks still count any table whose phase step per
grid spacing exceeds pi as a failed operation.

Work per operation is fixed by the workload, not by the seed (the same
grid sizes, time counts and step counts for every seed), so figures from
different seeds are comparable.
"""

import json
import math
import random

__all__ = ["WORKLOADS", "SYSTEMS", "build", "dumps"]

WORKLOADS = ("cli-startup", "bulk-export", "oracle-validate", "library-scan")
SYSTEMS = ("free", "accel", "sho", "inverted")
# Spelled out rather than read from gausspack, so inputs never change with it.
PRESETS = ("fig1", "fig2-top", "fig2-middle", "fig2-bottom", "fig3", "fig4")

# Upper end of each system's time range, in the unit _times_field uses.
_TIME_RANGE = {"free": 10.0, "accel": 10.0, "sho": 0.25, "inverted": 1.4999}
_FULL_RANGE_GRID = 1024

# Split-step cross-check resolution (see module docstring).
SPLITSTEP_GRID = 2048
SPLITSTEP_STEPS = 4000
_SPLITSTEP_DRIFT_T0 = 4.0
_SPLITSTEP_PER_SYSTEM = 2
_HALVES_BATCHES = 2

# bulk-export shapes: (command, format, grid_n, n_times, outputs, combined).
# fractions shapes use n_times as the series length.
# The shapes cost about 0.4 s (three), 0.9 s (three alike) and 1.4-1.8 s
# (two), so op_p50_ms falls inside the middle group on every seed.
_BULK_SHAPES = (
    ("evolve", "json", 2**15, 1, ("psi", "prob"), False),
    ("figure", "svg", 2**15, 1, ("psi", "prob", "scaled"), False),
    ("fractions", "json", 512, 20_000, ("fractions",), False),
    ("figure", "csv", 2**15, 2, ("psi", "prob", "kedensity", "scaled"), False),
    ("figure", "csv", 2**15, 2, ("psi", "prob", "kedensity", "scaled"), False),
    ("figure", "csv", 2**15, 2, ("psi", "prob", "kedensity", "scaled"), False),
    ("evolve", "csv", 2**15, 4, ("psi", "prob"), False),
    ("evolve", "csv", 2**17, 1, ("psi", "prob"), True),
)

_LIB_BATCH = 250          # times per state_at / moments_at / half_energies op
_LIB_BATCHES = 8          # such ops per function and system
_LIB_SERIES = 10_000      # times per fractions_series op
_LIB_GRIDS = tuple(2**k for k in range(6, 18))   # 64 .. 131072 points


def dumps(inputs):
    """Canonical bytes of an input document."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


def _r(value):
    """Six significant digits, so documents stay short and exact."""
    return float(f"{value:.6g}")


def _log_uniform(rng, lo, hi):
    return _r(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _packet(rng, system, p0_max=4.0, x0_max=2.0):
    """System and packet fields of a scenario document."""
    doc = {"version": 1, "name": f"gen-{system}", "system": system}
    if system in ("free", "accel"):
        alpha = _log_uniform(rng, 0.5, 2.0)
        doc["alpha"] = alpha
        doc["x0"] = _r(rng.uniform(-x0_max, x0_max))
        if system == "accel":
            # dp0/t0 = 1/(sqrt(2)*alpha**3) when hbar = m = 1.
            doc["force"] = _r(
                rng.uniform(-0.25, 0.25) / (math.sqrt(2.0) * alpha**3))
    else:
        field = "omega" if system == "sho" else "omega_tilde"
        doc[field] = _r(rng.uniform(0.5, 2.0))
        doc["beta_over_beta0"] = _r(rng.uniform(0.5, 2.0))
    doc["p0_over_dp0"] = _r(rng.uniform(-p0_max, p0_max))
    return doc


def _times_field(doc, values):
    """A scenario 'times' object for values given in the system's unit."""
    system = doc["system"]
    if system in ("free", "accel"):
        return {"unit": "t0", "values": values}
    if system == "sho":
        return {"unit": "tau", "values": values}
    return {"unit": "abs", "values": [_r(v / doc["omega_tilde"]) for v in values]}


def _draw_times(rng, system, count, cap=1.0):
    hi = _TIME_RANGE[system] * cap
    return sorted(_r(rng.uniform(0.0, hi)) for _ in range(count))


def _series_field(doc, count):
    system = doc["system"]
    hi = _TIME_RANGE[system]
    if system == "inverted":
        return {"unit": "abs", "linspace": [0.0, _r(hi / doc["omega_tilde"]), count]}
    unit = "tau" if system == "sho" else "t0"
    return {"unit": unit, "linspace": [0.0, hi, count]}


def _scenario(rng, system, n_times, grid_n, outputs, name):
    doc = _packet(rng, system)
    doc["name"] = name
    doc["times"] = _times_field(doc, _draw_times(rng, system, n_times))
    doc["window"] = {"unit": "dx_t", "halfwidth": _r(rng.uniform(4.0, 6.0))}
    doc["outputs"] = list(outputs)
    doc["grid_n"] = grid_n
    return doc


def _inline(doc):
    return json.dumps(doc, separators=(",", ":"))


def _cli_startup(rng):
    commands = [{"args": ["figure", "--preset", "fig2-middle"], "out": "fig.svg"}]
    kinds = ["evolve", "fractions", "figure"]
    kinds += [rng.choice(kinds) for _ in range(2)]
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds, start=1):
        fmt = rng.choice(("svg", "csv", "json") if kind == "figure" else ("csv", "json"))
        if rng.random() < 0.3:
            source = ["--preset", rng.choice(PRESETS)]
        else:
            outputs = ["psi", "prob"]
            if rng.random() < 0.5:
                outputs.append("scaled")
            if kind == "figure" and fmt != "svg" and rng.random() < 0.5:
                outputs.append("kedensity")
            doc = _scenario(rng, rng.choice(SYSTEMS), rng.randint(1, 5),
                            rng.choice((512, 1024)), outputs, f"cli-{i}")
            source = ["--scenario", _inline(doc)]
        args = [kind, *source, "--format", fmt]
        if kind == "evolve" and fmt == "csv" and rng.random() < 0.5:
            args.append("--combined")
        commands.append({"args": args, "out": f"out.{fmt}"})
    return {"commands": commands}


def _bulk_export(rng):
    commands = []
    for i, (kind, fmt, grid_n, n_times, outputs, combined) in enumerate(_BULK_SHAPES):
        system = rng.choice(SYSTEMS)
        if kind == "fractions":
            doc = _packet(rng, system)
            doc["name"] = f"bulk-{i}"
            doc["times"] = _series_field(doc, n_times)
            doc["outputs"] = list(outputs)
            doc["grid_n"] = grid_n
        else:
            doc = _scenario(rng, system, n_times, grid_n, outputs, f"bulk-{i}")
        args = [kind, "--scenario", _inline(doc), "--format", fmt]
        if combined:
            args.append("--combined")
        commands.append({"args": args, "out": f"out.{fmt}"})
    return {"commands": commands}


def _oracle_validate(rng):
    # Eight fixed-cost split-step checks make up most operations, so
    # op_p50_ms is a split-step time; quadrature checks come in batches of
    # two packets per system, whose cost varies less than one packet's.
    checks = []
    for system in SYSTEMS:
        for _ in range(_SPLITSTEP_PER_SYSTEM):
            doc = _packet(rng, system, p0_max=2.0, x0_max=1.0)
            hi = _SPLITSTEP_DRIFT_T0 if system in ("free", "accel") else _TIME_RANGE[system]
            doc["times"] = _times_field(doc, [_r(rng.uniform(0.05 * hi, hi))])
            checks.append({"check": "splitstep", "scenario": doc,
                           "n_grid": SPLITSTEP_GRID, "steps": SPLITSTEP_STEPS})
    for _ in range(_HALVES_BATCHES):
        batch = []
        for system in SYSTEMS:
            for _ in range(2):
                doc = _packet(rng, system)
                doc["times"] = _times_field(doc, _draw_times(rng, system, 1))
                batch.append(doc)
        checks.append({"check": "halves", "scenarios": batch})
    rng.shuffle(checks)
    return {"validate": {"args": ["validate", "--format", "json"], "out": "report.json"},
            "checks": checks}


def _library_scan(rng):
    ops = []
    for system in SYSTEMS:
        packet = _packet(rng, system)
        for fn in ("state_at", "moments_at", "half_energies"):
            for _ in range(_LIB_BATCHES):
                times = _times_field(packet, _draw_times(rng, system, _LIB_BATCH))
                ops.append({"fn": fn, "scenario": dict(packet, times=times)})
        ops.append({"fn": "fractions_series",
                    "scenario": dict(packet, times=_series_field(packet, _LIB_SERIES))})
        for n in _LIB_GRIDS:
            cap = min(1.0, n / _FULL_RANGE_GRID)
            times = _times_field(packet, _draw_times(rng, system, 1, cap))
            halfwidth = _r(rng.uniform(4.0, 6.0))
            for fn in ("sample_grid", "kinetic_density", "scaled_density"):
                ops.append({"fn": fn, "scenario": dict(packet, times=times),
                            "halfwidth": halfwidth, "n": n})
    rng.shuffle(ops)
    return {"ops": ops}


_BUILDERS = {
    "cli-startup": _cli_startup,
    "bulk-export": _bulk_export,
    "oracle-validate": _oracle_validate,
    "library-scan": _library_scan,
}


def build(workload, seed, pass_index=0):
    """Input document of one pass of `workload` for `seed` (plain JSON data).

    Every pass of a run draws fresh inputs, so no pass repeats the work of
    an earlier one and a result cache could not pass for a speed-up.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    doc = _BUILDERS[workload](rng)
    doc.update(workload=workload, seed=seed, pass_index=pass_index)
    return doc
