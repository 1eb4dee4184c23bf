"""Span tracing of gausspack's public functions from outside the package.

Tracer.install() replaces every module attribute that refers to one of the
traced functions with a wrapper, under the name each consumer module
imported it by (``gausspack.cli.sample_grid``, ``gausspack.kedensity
.state_at``, the package namespace, ...), so calls between gausspack's own
modules are traced without editing ``src/``.  uninstall() restores them.

Each call records a span ``[name, start, end, parent, op]``; spans stay in
memory until write_spans().  A span's self time is its duration minus the
time its direct children cover.  Some functions also record counts
(rows, bytes, points, integrand evaluations, split-step point-steps).
"""

import functools
import importlib
import time
from collections import defaultdict

__all__ = ["Tracer", "SPAN_NAMES", "COUNTERS", "VALIDATION_FAMILIES"]

ROOT_SPAN = "bench.op"
VALIDATION_FAMILIES = ("normalization", "ibp", "halves", "splitstep", "reduction")

# span name -> (defining module, attribute).  Names are "<module>.<function>",
# with _textio written textio so every metric name starts with a letter.
_TARGETS = {
    "cli.main": ("cli", "main"),
    "scenarios.load": ("scenarios", "load_scenario"),
    "textio.render_csv": ("_textio", "render_csv"),
    "textio.dumps_stable": ("_textio", "dumps_stable"),
    "figures.figure_tables": ("figures", "figure_tables"),
    "figures.render_figure": ("figures", "render_figure"),
    "analytic.state_at": ("analytic", "state_at"),
    "analytic.moments_at": ("analytic", "moments_at"),
    "analytic.sample_grid": ("analytic", "sample_grid"),
    "kedensity.half_energies": ("kedensity", "half_energies"),
    "kedensity.fractions_series": ("kedensity", "fractions_series"),
    "kedensity.kinetic_density": ("kedensity", "kinetic_density"),
    "kedensity.scaled_density": ("kedensity", "scaled_density"),
    "oracle.propagate": ("oracle", "propagate"),
    "oracle.integrate": ("oracle", "integrate"),
}
# preset() is the other way a scenario gets loaded.
_EXTRA_TARGETS = {("scenarios", "preset"): "scenarios.load"}
for _family in VALIDATION_FAMILIES:
    _TARGETS[f"validation.{_family}"] = ("validation", f"_check_{_family}")

SPAN_NAMES = (ROOT_SPAN, *_TARGETS)

COUNTERS = (
    "textio.render_csv.rows", "textio.render_csv.bytes",
    "textio.dumps_stable.rows", "textio.dumps_stable.bytes",
    "figures.render_figure.bytes",
    "analytic.sample_grid.points",
    "kedensity.fractions_series.times",
    "kedensity.kinetic_density.points", "kedensity.scaled_density.points",
    "oracle.propagate.point_steps",
    "oracle.integrate.evals",
)

# Every gausspack module that defines or imports a traced function.
_MODULES = ("", ".analytic", ".kedensity", ".oracle", ".validation", ".figures",
            ".scenarios", ".cli", "._textio")


def _json_rows(doc):
    """Table rows inside a CLI JSON document (evolve/figure/fractions/validate)."""
    if not isinstance(doc, dict):
        return 0
    if "tables" in doc:
        return sum(len(table["rows"]) for table in doc["tables"])
    return len(doc.get("rows", doc.get("checks", ())))


def _size(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    n = 1
    for d in shape:
        n *= d
    return n


def _point_steps(spec, t_final):
    # propagate takes max(1, round(t_final/dt)) steps, none when t_final == 0.
    steps = max(1, round(t_final / spec.dt)) if t_final > 0 else 0
    return spec.n_grid * steps


# Counts recorded per call, from the call's result and arguments.  CLI
# output text is ASCII, so its length in characters is its size in bytes.
_COUNTS = {
    "textio.render_csv":
        lambda r, columns, rows: {"rows": len(rows), "bytes": len(r)},
    "textio.dumps_stable":
        lambda r, obj: {"rows": _json_rows(obj), "bytes": len(r)},
    "figures.render_figure": lambda r, scenario: {"bytes": len(r)},
    "analytic.sample_grid":
        lambda r, system, params, t, window, n: {"points": n},
    "kedensity.fractions_series":
        lambda r, system, params, times: {"times": len(r)},
    "kedensity.kinetic_density":
        lambda r, system, params, x, t: {"points": _size(x)},
    "kedensity.scaled_density":
        lambda r, system, params, x, t: {"points": _size(x)},
    "oracle.propagate":
        lambda r, psi0, spec, t_final: {"point_steps": _point_steps(spec, t_final)},
}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans = []
        self.current = -1
        self.op = -1
        self.counts = defaultdict(int)
        self.max_err_est = 0.0
        self.failed = defaultdict(int)
        self._patches = []

    # -- recording --------------------------------------------------------
    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            record = [name, 0.0, 0.0, parent, tracer.op]
            tracer.current = len(tracer.spans)
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.failed[name] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                tracer.current = parent
            if count is not None:
                for key, amount in count(result, *args, **kwargs).items():
                    tracer.counts[f"{name}.{key}"] += amount
            return result

        return traced

    def root(self, op, fn, *args):
        """Run fn(*args) as operation `op`, inside a root span."""
        self.op = op
        return self.wrap(ROOT_SPAN, fn)(*args)

    def _integrate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted_integrate(f, *args, **kwargs):
            def integrand(x):
                tracer.counts["oracle.integrate.evals"] += 1
                return f(x)

            result = fn(integrand, *args, **kwargs)
            tracer.max_err_est = max(tracer.max_err_est, float(result.error))
            return result

        return counted_integrate

    # -- patching ---------------------------------------------------------
    def install(self):
        """Wrap every reference to the traced functions in gausspack's modules."""
        modules = [importlib.import_module("gausspack" + m) for m in _MODULES]
        by_module = {m.__name__.rpartition(".")[2]: m for m in modules}
        wrappers = {}
        targets = {(mod, attr): name for name, (mod, attr) in _TARGETS.items()}
        targets.update(_EXTRA_TARGETS)
        for (mod, attr), name in targets.items():
            original = getattr(by_module[mod], attr)
            fn = self._integrate(original) if name == "oracle.integrate" else original
            wrappers[id(original)] = (original, self.wrap(name, fn, _COUNTS.get(name)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def summary(self):
        """Per-name calls, self_s, total_s (inclusive) and failed, and the counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "failed": self.failed[n]}
               for n in SPAN_NAMES}
        for (name, start, end, _, _), child_time in zip(self.spans, covered):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time
        counts = {c: self.counts[c] for c in COUNTERS}
        counts["oracle.integrate.max_err_est"] = self.max_err_est
        return out, counts

    def write_spans(self, path):
        """Write every span as CSV: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op}\n")
