"""One benchmark run in a fresh process: set up, timed passes, output checks.

run.py starts this module with a pinned environment (PYTHONPATH=src, one
BLAS/OpenMP thread, GAUSSPACK_THREADS unset) from the repository root:

    python -m perfbench.worker --workload W --seed N --tmp DIR --setup-only
    python -m perfbench.worker --workload W --seed N --tmp DIR --seconds S \
        --trace 0|1 --result PATH

Set-up imports gausspack, compiles the rest of its bytecode, generates the
first pass's inputs and warms every code path with small calls.  An
untraced run then repeats the workload's operation sequence (one "pass",
with fresh inputs each time) while another pass still fits in --seconds,
always at least once.  Only the operations are timed; a pass's wall time is
the sum of its operations' latencies, and wall_s is the fastest pass: this
machine's speed drifts by tens of percent over tens of seconds, and the
fastest pass varies least from run to run.  A traced run does one untraced and
one traced in-process pass over the same inputs and reports per-module
figures from the traced one.  Every output is checked (see Ledger).
"""

import argparse
import compileall
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy
import scipy

from perfbench import inputs, workloads
from perfbench.tracing import VALIDATION_FAMILIES, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_ERRORS_REPORTED = 5
P90_MIN_SAMPLES = 100     # p90 needs >= 10 samples beyond it


def _workload(workload, seed, pass_index):
    return workloads.make(inputs.build(workload, seed, pass_index), ROOT)


def _setup(workload, seed, tmp):
    """Compile the rest of gausspack's bytecode, build the first pass, warm up."""
    compileall.compile_dir(os.path.join(ROOT, "src", "gausspack"), quiet=1)
    wl = _workload(workload, seed, 0)
    warm = os.path.join(tmp, "warm-up")
    os.makedirs(warm)
    workloads.warm_up(warm)
    return wl


def _run_pass(wl, passdir, inprocess, after, tracer=None):
    """Run every operation once, calling after(i, output, error) untimed
    after each; returns the operations' latencies in seconds."""
    latencies = []
    for i in range(len(wl)):
        opdir = os.path.join(passdir, f"op{i:03d}")
        os.makedirs(opdir)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(i, opdir, inprocess)
            else:
                out = tracer.root(i, wl.run, i, opdir, inprocess)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"op {i}: {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        after(i, out, error)
    return latencies


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _versions():
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Ledger:
    """Checks, failures and digests of one run.

    Outputs held in memory are checked right after their operation;
    output directories are checked after the timed passes, so parsing them
    counts towards neither the timing nor the peak memory.  The digest of a
    run is that of its first pass, whose inputs depend on the seed alone.
    """

    check_errors = (workloads.CheckFailed, KeyError, ValueError, TypeError, OSError)

    def __init__(self):
        self.digests = []
        self.deferred = []
        self.messages = []
        self.failed = 0
        self.worst = 0.0
        self.items = 0

    def recorder(self, wl, keep_digest):
        """The after(i, output, error) callback for one pass of `wl`."""
        def record(i, out, error):
            if keep_digest:
                self.digests.append(None if error else wl.digest(i, out))
            if error is not None:
                self.fail(error)
                return
            self.items += wl.items(i)
            if isinstance(out, str):
                self.deferred.append((wl, i, out))
            else:
                self._check(wl, i, out)
        return record

    def fail(self, message):
        self.failed += 1
        self.messages.append(message)

    def _check(self, wl, i, out):
        try:
            self.worst = max(self.worst, wl.check(i, out))
        except self.check_errors as exc:
            self.fail(f"op {i}: check failed: {type(exc).__name__}: {exc}")

    def finish(self):
        """Run the deferred checks; returns the number of failed operations."""
        for wl, i, out in self.deferred:
            self._check(wl, i, out)
            shutil.rmtree(out)
        self.deferred.clear()
        return self.failed

    def digest(self):
        return hashlib.sha256("".join(d or "-" for d in self.digests).encode()).hexdigest()


def measure(wl, seconds, tmp, next_pass):
    """Untraced passes until another would take the operations' total time
    past `seconds`; end-to-end figures.  Pass k > 0 runs next_pass(k)."""
    ledger = Ledger()
    first, walls, latencies = wl, [], []
    while True:
        if walls:
            wl = next_pass(len(walls))
        gc.collect()
        passdir = os.path.join(tmp, f"pass{len(walls)}")
        lat = _run_pass(wl, passdir, False, ledger.recorder(wl, keep_digest=not walls))
        walls.append(sum(lat))
        latencies.extend(lat)
        if sum(walls) + statistics.fmean(walls) > seconds:
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failed = ledger.finish()

    attempted = len(latencies)
    p90 = _percentile(latencies, 0.9) * 1e3 if attempted >= P90_MIN_SAMPLES else None
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": ledger.messages[:MAX_ERRORS_REPORTED],
        "passes": len(walls),
        "ops_per_pass": len(first),
        "metrics": {
            "wall_s": min(walls),
            "items_per_s": ledger.items / sum(walls),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": p90,
            "peak_rss_mb": first.peak_rss_kb(self_kb, children_kb) / 1024.0,
            "fail_ratio": failed / attempted,
            "worst_check_ratio": ledger.worst,
        },
        "digest": ledger.digest(),
    }


def measure_traced(wl, tmp, spans_path):
    """One untraced and one traced in-process pass over the same inputs.

    Both replay subprocess commands through cli.main, so the difference of
    their wall times is the tracing overhead.  The traced pass must
    reproduce the untraced pass's digests.
    """
    ledger = Ledger()
    gc.collect()
    wall_u = sum(_run_pass(wl, os.path.join(tmp, "untraced"), True,
                           ledger.recorder(wl, keep_digest=True)))
    tracer = Tracer()
    traced = []
    gc.collect()
    tracer.install()
    try:
        # Only collect outputs here: digests and checks call traced functions.
        wall_t = sum(_run_pass(wl, os.path.join(tmp, "traced"), True,
                               lambda i, out, error: traced.append((i, out, error)),
                               tracer))
    finally:
        tracer.uninstall()
    for i, out, error in traced:
        if error is not None:
            ledger.fail(error)
        elif wl.digest(i, out) != ledger.digests[i]:
            ledger.fail(f"op {i}: traced output differs from the untraced one")
    del traced
    failed = ledger.finish()

    spans, counts = tracer.summary()
    metrics = {}
    for name, s in spans.items():
        metrics[f"{name}.calls"] = s["calls"]
        metrics[f"{name}.self_s"] = s["self_s"]
        metrics[f"{name}.failed"] = s["failed"]
    for family in VALIDATION_FAMILIES:
        metrics[f"validation.{family}_s"] = spans[f"validation.{family}"]["total_s"]
    metrics.update(counts)
    steps = counts["oracle.propagate.point_steps"]
    metrics["oracle.propagate.ns_per_point_step"] = (
        spans["oracle.propagate"]["total_s"] / steps * 1e9 if steps else 0.0)
    metrics["trace.wall_s"] = wall_t
    metrics["trace.overhead_s"] = wall_t - wall_u
    metrics["trace.self_share"] = sum(s["self_s"] for s in spans.values()) / wall_t
    metrics["worst_check_ratio"] = ledger.worst
    tracer.write_spans(spans_path)
    return {
        "attempted": 2 * len(wl),
        "failed": failed,
        "errors": ledger.messages[:MAX_ERRORS_REPORTED],
        "passes": 1,
        "ops_per_pass": len(wl),
        "metrics": metrics,
        "digest": ledger.digest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result")
    args = parser.parse_args(argv)

    os.makedirs(args.tmp)
    try:
        wl = _setup(args.workload, args.seed, args.tmp)
        if args.setup_only:
            return 0
        if args.trace:
            result = measure_traced(wl, args.tmp, args.result + ".spans.csv")
        else:
            result = measure(wl, args.seconds, args.tmp,
                             lambda k: _workload(args.workload, args.seed, k))
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
    result["versions"] = _versions()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
