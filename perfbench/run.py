#!/usr/bin/env python3
"""gausspack benchmark: four seeded workloads, end to end and module by module.

Run from the repository root (the package need not be installed):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client, in one process, with no
extra threads; inputs come only from --seed (perfbench/inputs.py):

  cli-startup      short ``python -m gausspack`` commands, each a fresh
                   subprocess: interpreter start plus import dominate.
  bulk-export      in-process ``cli.main`` calls writing 2^15..2^17-point
                   grids and a 20 000-row fraction series as CSV/JSON/SVG:
                   emission (_textio, row building) dominates.
  oracle-validate  ``gausspack validate`` as a subprocess, then seeded
                   split-step and quadrature cross-checks: the oracle
                   dominates.
  library-scan     in-process state_at / moments_at / half_energies /
                   fractions_series over t arrays and sample_grid /
                   kinetic_density / scaled_density at 64..131072 points:
                   only analytic and kedensity work.

With --trace 0 the run prints, per workload, wall_s (fastest pass),
items_per_s, op_p50_ms, op_p90_ms (where >= 100 operations give ten samples
beyond it), peak_rss_mb, setup_s (median of three fresh set-ups),
fail_ratio, worst_check_ratio (oracle-validate) and an output digest.
The last line is the JSON result; its "metrics" hold the end-to-end
metrics BENCHMARK.json lists, which carry a regression bound.  Those are
the ones whose run-to-run spread stays inside 0.25 on a 2-core VM whose
speed drifts by up to a third over minutes: the work rate items_per_s,
peak_rss_mb and setup_s.  wall_s and op_p50_ms follow single passes or
operations and spread further, so they are printed only.  With --trace 1
a separate traced run prints every per-module metric BENCHMARK.json lists
instead (see LAYER_MAP).

Every output is checked (perfbench/workloads.py); a wrong output counts as
a failed operation.  Run files go to .perfbench/ under the repository root.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 3
STARTUP_REPS = 3
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# Which end-to-end metric each module's per-module metrics should move.
LAYER_MAP = (
    ("startup.*", "op_p50_ms, wall_s on cli-startup; setup_s on the in-process "
                  "workloads; not oracle-validate, which needs scipy anyway"),
    ("textio.*, cli.main, figures.*", "wall_s, items_per_s, peak_rss_mb on "
                                       "bulk-export; not library-scan"),
    ("analytic.*, kedensity.*", "wall_s, op_p50_ms, op_p90_ms on library-scan; "
                                "not bulk-export"),
    ("oracle.*, validation.*", "wall_s, worst_check_ratio on oracle-validate; "
                               "nothing else"),
    ("scenarios.load", "negligible everywhere; shows a parsing regression"),
    ("trace.overhead_s", "traced minus untraced wall time of the same pass"),
)

ITEMS = {
    "cli-startup": "commands",
    "bulk-export": "numbers written",
    "oracle-validate": "checks",
    "library-scan": "evaluated points",
}

_IMPORT_PROBES = {
    "startup.import_numpy_s": ("", "numpy"),
    "startup.import_scipy_integrate_s": ("import numpy", "scipy.integrate"),
    "startup.import_gausspack_s": ("", "gausspack"),
}


def pinned_env():
    """Environment for every worker and subprocess."""
    env = dict(os.environ)
    env.pop("GAUSSPACK_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run(cmd, env, timeout, stdout=None):
    """Run cmd in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def _worker(env, args, tmp, extra):
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--tmp", tmp, *extra]
    return _run(cmd, env, WORKER_TIMEOUT_S, stdout=sys.stderr)


def measure_setup(env, args):
    """Median wall time of fresh set-ups: start, import, inputs, warm-up."""
    times = []
    for k in range(SETUP_PROBES):
        start = time.perf_counter()
        code = _worker(env, args, os.path.join(WORK, "tmp", f"setup-{os.getpid()}-{k}"),
                       ["--setup-only"])
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up exited with {code}")
    return statistics.median(times)


def measure_imports(env):
    """Median import time of numpy, scipy.integrate and gausspack, each fresh."""
    out = {}
    for name, (pre, module) in _IMPORT_PROBES.items():
        code = (f"{pre}\nimport time\nt = time.perf_counter()\nimport {module}\n"
                f"print(time.perf_counter() - t)")
        samples = []
        for _ in range(STARTUP_REPS):
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                                  check=True)
            samples.append(float(proc.stdout))
        out[name] = statistics.median(samples)
    return out


def provenance():
    """Commit (when run in a git checkout), source digest and platform."""
    src = sorted(glob.glob(os.path.join(ROOT, "src", "gausspack", "*.py")))
    h = hashlib.sha256()
    for path in src:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or "none"
    return {"commit": commit, "src_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version()}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_lines(args, result, spec):
    """Human-readable lines printed above the JSON result."""
    m, n = result["metrics"], result["attempted"]
    lines = [f"perfbench {args.workload} trace={args.trace} "
             + " ".join(f"{k}={v}" for k, v in result["provenance"].items())]
    if args.trace:
        lines += [f"  {module:34s} -> {moves}" for module, moves in LAYER_MAP]
        rows = [(e["name"], e["unit"], "") for e in spec["per_layer"]]
    else:
        rows = [
            ("wall_s", "s", f"fastest of {result['passes']} passes of "
                            f"{result['ops_per_pass']} operations"),
            ("items_per_s", "items/s", f"{ITEMS[args.workload]} per second"),
            ("op_p50_ms", "ms", f"n={n} operations"),
            ("op_p90_ms", "ms", f"n={n} operations" if m["op_p90_ms"] is not None
             else f"not defined: fewer than ten of the n={n} operations lie beyond it"),
            ("peak_rss_mb", "MB", "peak resident memory of the process doing the work"),
            ("setup_s", "s", f"median of {SETUP_PROBES} fresh set-ups"),
            ("fail_ratio", "ratio", f"{result['failed']}/{n} operations failed"),
        ]
        if args.workload == "oracle-validate":
            rows.append(("worst_check_ratio", "ratio", "largest error/tolerance of any check"))
    for name, unit, note in rows:
        value = m[name]
        lines.append(f"{name:42s} {'-' if value is None else _fmt(value):>14s} "
                     f"{unit:8s} {note}".rstrip())
    lines.append(f"digest {result['digest']}")
    lines += [f"error: {e}" for e in result["errors"]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gausspack", "__init__.py")):
        print("perfbench: no gausspack sources at src/gausspack", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    env = pinned_env()
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    result_path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)

    setup_s = None if args.trace else measure_setup(env, args)
    code = _worker(env, args, os.path.join(WORK, "tmp", f"run-{os.getpid()}"),
                   ["--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--result", result_path])
    if code != 0:
        print(f"perfbench: worker exited with {code}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["provenance"] = {"seed": args.seed, **provenance(), **result.pop("versions")}
    metrics = result["metrics"]
    if args.trace:
        metrics.update(measure_imports(env))
        wanted = spec["per_layer"]
    else:
        metrics["setup_s"] = setup_s
        wanted = spec["end_to_end"]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for line in report_lines(args, result, spec):
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
