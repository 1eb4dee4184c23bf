"""Byte-deterministic CSV and JSON rendering.

Every number the CLI writes is rendered with 17 significant digits
(enough to round-trip any double exactly).  Numeric tables travel as 2-D
float64 arrays: after one np.isfinite check over the whole block, rows
are rendered a bounded chunk at a time by a single %-format of a
repeated row template, which gives the same bytes as fmt_float applied
value by value.  Scalars and nested containers in JSON go through
fmt_float one value at a time, and so do mixed-type CSV rows, whose one
caller is the validate report: its params cell is JSON text with commas
and quotes, which needs the RFC 4180 quoting of csv.writer that the
float-block path cannot give.  The JSON writer emits keys in insertion
order with no whitespace, so identical inputs always produce identical
bytes; the standard library encoder is not used because it offers no
control over float formatting.
"""

import csv
import io
import json
import math

import numpy as np

from .errors import NonFiniteError

__all__ = ["fmt_float", "format_rows", "dumps_stable", "render_csv"]

# Rows rendered per %-format; bounds the temporary tuple and string.
_CHUNK_ROWS = 4096


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


def format_rows(block, value_fmt, value_sep, row_sep):
    """Yield the text of a 2-D float array's rows, a bounded chunk at a time.

    Each value is rendered with the %-format `value_fmt`; values in a row
    are joined by `value_sep` and rows by `row_sep`.  The chunks are
    consecutive slices of one string, so ``"".join`` gives the whole
    table.  The caller checks finiteness where it matters.
    """
    row_fmt = value_sep.join([value_fmt] * block.shape[1])
    for start in range(0, len(block), _CHUNK_ROWS):
        chunk = block[start:start + _CHUNK_ROWS]
        text = row_sep.join([row_fmt] * len(chunk)) % tuple(chunk.ravel().tolist())
        yield row_sep + text if start else text


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
        _require_finite(obj)
        out.write("[[")
        out.writelines(format_rows(obj, "%.17g", ",", "],["))
        out.write("]]")
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


def dumps_stable(obj):
    """Compact JSON text with deterministic float and key rendering."""
    out = io.StringIO()
    _write(obj, out)
    out.write("\n")
    return out.getvalue()


def render_csv(columns, rows):
    """RFC 4180 CSV text with LF line endings; floats to 17 digits.

    `rows` is either a 2-D float64 array, rendered as one block, or a
    sequence of rows mixing floats with cells csv.writer quotes itself.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    if _is_block(rows):
        _require_finite(rows)
        out.writelines(format_rows(rows, "%.17g", ",", "\n"))
        out.write("\n")
        return out.getvalue()
    for row in rows:
        writer.writerow([
            fmt_float(v) if isinstance(v, (float, np.floating)) else v
            for v in row
        ])
    return out.getvalue()
