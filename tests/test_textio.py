import json
import math

import numpy as np
import pytest

import gausspack as g
from gausspack import _textio
from gausspack._textio import dumps_stable, fmt_float, format_rows, render_csv

EDGE_VALUES = [
    -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 0.1, 1.0 / 3.0,
]
# Rows enough for three chunks, so chunk boundaries are crossed.
N_ROWS = 2 * _textio._CHUNK_ROWS + 7


def _random_block(rows, cols, seed=0):
    """Finite doubles drawn from random bit patterns, with the edge values."""
    bits = np.random.default_rng(seed).integers(
        0, 2**64, size=rows * cols, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 0.5
    values[:len(EDGE_VALUES)] = EDGE_VALUES
    values[-len(EDGE_VALUES):] = [-v for v in EDGE_VALUES]
    return values.reshape(rows, cols)


def test_block_csv_matches_fmt_float():
    block = _random_block(N_ROWS, 3)
    # a list of Python floats takes the per-value fmt_float/csv.writer path
    assert render_csv(["a", "b", "c"], block) == render_csv(["a", "b", "c"], block.tolist())


def test_block_json_matches_fmt_float():
    block = _random_block(N_ROWS, 4, seed=1)
    text = dumps_stable({"rows": block})
    assert text == dumps_stable({"rows": block.tolist()})
    assert json.loads(text)["rows"] == block.tolist()


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_edge_values_render_like_fmt_float(value):
    block = np.array([[value, -value]])
    expected = f"{fmt_float(value)},{fmt_float(-value)}"
    assert render_csv(["p", "m"], block) == f"p,m\n{expected}\n"
    assert dumps_stable(block) == f"[[{expected}]]\n"


def test_empty_blocks_render_like_lists():
    empty = np.empty((0, 3))
    assert render_csv(["a", "b", "c"], empty) == "a,b,c\n"
    assert dumps_stable(empty) == "[]\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, _textio._CHUNK_ROWS + 1])
def test_non_finite_values_are_rejected(bad, row):
    block = _random_block(N_ROWS, 3, seed=2)
    block[row, 1] = bad
    with pytest.raises(g.NonFiniteError):
        render_csv(["a", "b", "c"], block)
    with pytest.raises(g.NonFiniteError):
        dumps_stable({"rows": block})
    with pytest.raises(g.NonFiniteError):
        fmt_float(bad)


def test_format_rows_matches_per_point_fstrings():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-500.0, 500.0, size=(N_ROWS, 2))
    pts[:3] = [[-0.004, 0.005], [0.015, -0.0], [1e-9, 499.995]]
    text = "".join(format_rows(pts, "%.2f", ",", " "))
    assert text == " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
