"""Byte-deterministic CSV and JSON writers.

write_json and write_csv write a document into a text stream, a bounded
chunk at a time, so this process never holds the text of a large table
whole; dumps_stable and render_csv return the same text as a string.  Every
number has 17 significant digits, enough to round-trip any double.  A
numeric table is a 2-D float64 block: after one np.isfinite check, one
%-format of a repeated row template renders each chunk of rows with the
bytes of fmt_float, and a list of Python floats is a one-column block.
From 2^16 values on, forked helpers, one per spare usable CPU, format equal
later row ranges while this process formats the first, and the text is
passed on in row order: the bytes do not change, and nothing needs setting.
It stays serial without os.fork, with one usable CPU, or while another
Python thread runs.  Other scalars, JSON containers and mixed-type CSV rows
(the validate report, whose JSON params cell needs the quoting of
csv.writer) go through fmt_float one value at a time.  JSON keys keep
insertion order, with no whitespace; the standard encoder gives no control
over float formatting.
"""

import csv
import io
import json
import math
import os
import signal
import threading
import warnings

import numpy as np

from .errors import NonFiniteError

__all__ = ["fmt_float", "format_rows", "write_json", "write_csv", "dumps_stable",
           "render_csv"]

# Rows rendered per %-format; bounds the temporary tuple and string.
_CHUNK_ROWS = 4096
_PARALLEL_MIN_VALUES = 2**16  # per forked helper: twice the measured break-even


def fmt_float(value):
    """17-significant-digit decimal rendering of a finite float."""
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteError(f"cannot render non-finite value {value!r}")
    return format(value, ".17g")


def _is_block(rows):
    """A non-empty 2-D float64 array, which is formatted in bulk."""
    return (isinstance(rows, np.ndarray) and rows.ndim == 2
            and rows.dtype == np.float64 and rows.size > 0)


def _require_finite(block):
    finite = np.isfinite(block)
    if not finite.all():
        bad = block[~finite][0]
        raise NonFiniteError(f"cannot render non-finite value {float(bad)!r}")


def _is_float_list(obj):
    """A list or tuple of Python floats only, which is formatted as a block."""
    return isinstance(obj, (list, tuple)) and set(map(type, obj)) == {float}


def _chunks(block, row_fmt, row_sep, lo, hi):
    """Text of rows lo:hi a bounded chunk at a time, led by row_sep if lo > 0."""
    for start in range(lo, hi, _CHUNK_ROWS):
        chunk = block[start:min(start + _CHUNK_ROWS, hi)]
        text = row_sep.join([row_fmt] * len(chunk)) % tuple(chunk.ravel().tolist())
        yield row_sep + text if start else text


def format_rows(block, value_fmt, value_sep, row_sep):
    """Yield the text of a 2-D float array's rows, a bounded chunk at a time.

    Each value is rendered with the %-format `value_fmt`; values in a row
    are joined by `value_sep` and rows by `row_sep`.  The chunks are
    consecutive slices of one string, so ``"".join`` gives the whole
    table.  A NaN or infinity in the block raises NonFiniteError before any
    fork.  A helper's rows are formatted here if it fails before sending any.
    """
    _require_finite(block)
    row_fmt = value_sep.join([value_fmt] * block.shape[1])
    helpers = 0  # serial without os.fork, with one usable CPU or beside other threads
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        helpers = min(len(os.sched_getaffinity(0)) - 1, block.size // _PARALLEL_MIN_VALUES)
    bounds = [len(block) * k // (helpers + 1) for k in range(1, helpers + 2)]
    started = []
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            rfd, wfd = os.pipe()
            with warnings.catch_warnings():
                # From Python 3.12 fork() warns when other OS threads exist, such
                # as numpy's idle BLAS pool; the helper calls no BLAS.
                warnings.filterwarnings("ignore", ".* use of fork", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # a helper: send rows lo:hi once all are formatted
                try:
                    with open(wfd, "w", encoding="utf-8", newline="") as pipe:
                        pipe.write("".join(_chunks(block, row_fmt, row_sep, lo, hi)))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(wfd)
            started.append((pid, open(rfd, encoding="utf-8", newline="")))
        yield from _chunks(block, row_fmt, row_sep, 0, bounds[0])
        for (pid, pipe), lo, hi in zip(started, bounds, bounds[1:]):
            sent = False  # any text from this helper, for the died-while-sending test
            while piece := pipe.read(2**20):  # a bounded piece at a time, not all
                sent = True
                yield piece
                del piece  # not held while the next piece is read
            status = os.waitpid(pid, 0)[1]
            pipe.close()
            if status and sent:
                raise OSError(f"formatting helper {pid} died while sending its rows")
            yield from _chunks(block, row_fmt, row_sep, lo, hi) if status else ()
    finally:
        for pid, pipe in started:
            if not pipe.closed:  # not reaped: an exception or an early close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pipe.close()


def _write(obj, out):
    if isinstance(obj, dict):
        out.write("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.write(",")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.write(json.dumps(key))
            out.write(":")
            _write(value, out)
        out.write("}")
    elif _is_block(obj):
        out.write("[[")
        out.writelines(format_rows(obj, "%.17g", ",", "],["))
        out.write("]]")
    elif _is_float_list(obj):  # a one-column block, each row one value
        out.write("[")
        out.writelines(format_rows(np.array(obj)[:, None], "%.17g", "", ","))
        out.write("]")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        out.write("[")
        for i, value in enumerate(obj):
            if i:
                out.write(",")
            _write(value, out)
        out.write("]")
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(fmt_float(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(obj, out):
    """Write obj as compact JSON with deterministic float and key rendering,
    then a newline, into the text stream out."""
    _write(obj, out)
    out.write("\n")


def write_csv(columns, rows, out):
    """Write RFC 4180 CSV with LF line endings into the text stream out;
    floats to 17 digits.

    `rows` is either a 2-D float64 array, written as one block, or a
    sequence of rows mixing floats with cells csv.writer quotes itself.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    if _is_block(rows):
        out.writelines(format_rows(rows, "%.17g", ",", "\n"))
        out.write("\n")
        return
    for row in rows:
        writer.writerow([
            fmt_float(v) if isinstance(v, (float, np.floating)) else v
            for v in row
        ])


def dumps_stable(obj):
    """Compact JSON text with deterministic float and key rendering."""
    out = io.StringIO()
    write_json(obj, out)
    return out.getvalue()


def render_csv(columns, rows):
    """The text write_csv writes, as a string."""
    out = io.StringIO()
    write_csv(columns, rows, out)
    return out.getvalue()
