import json
import math
import os
import threading
import warnings

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


def test_float_lists_match_the_per_value_path():
    values = _random_block(N_ROWS, 1, seed=12).ravel().tolist()
    expected = "[" + ",".join(map(fmt_float, values)) + "]"
    assert dumps_stable(values) == dumps_stable(tuple(values)) == expected + "\n"
    assert dumps_stable({"t": values}) == '{"t":' + expected + "}\n"
    assert dumps_stable([*values, 1]) == "[" + expected[1:-1] + ",1]\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [0, N_ROWS - 1])
def test_non_finite_float_lists_are_rejected(bad, index):
    values = _random_block(N_ROWS, 1, seed=13).ravel().tolist()
    values[index] = bad
    message = f"^cannot render non-finite value {bad!r}$"
    with pytest.raises(g.NonFiniteError, match=message):
        dumps_stable({"t": values})


def test_format_rows_matches_per_point_fstrings():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-500.0, 500.0, size=(N_ROWS, 2))
    pts[:3] = [[-0.004, 0.005], [0.015, -0.0], [1e-9, 499.995]]
    text = "".join(format_rows(pts, "%.2f", ",", " "))
    assert text == " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)


# The parallel path: blocks of at least _PARALLEL_MIN_VALUES values are split
# across forked helpers.  3 * 2^16 values or more give a helper to each of
# three spare CPUs.
BIG_ROWS = 3 * _textio._PARALLEL_MIN_VALUES // 7 + 5
BIG_SHAPE = (BIG_ROWS, 7)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _serial(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(_textio, "_PARALLEL_MIN_VALUES", 2**62)
        return fn(*args)


def _points():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-500.0, 500.0, size=(BIG_ROWS * 7 // 2, 2))
    pts[:3] = [[-0.004, 0.005], [0.015, -0.0], [1e-9, 499.995]]
    return pts


@pytest.mark.parametrize("cpus", [2, 4])
def test_parallel_blocks_match_the_serial_bytes(cpus, monkeypatch, forks):
    _cpus(monkeypatch, cpus)
    block = _random_block(*BIG_SHAPE, seed=5)
    pts = _points()
    cases = [
        (render_csv, ["a", "b", "c", "d", "e", "f", "g"], block),
        (dumps_stable, {"rows": block}),
        (lambda p: "".join(format_rows(p, "%.2f", ",", " ")), pts),
        (dumps_stable, {"t": block.ravel().tolist()}),  # a float list is a block too
    ]
    for fn, *args in cases:
        assert fn(*args) == _serial(monkeypatch, fn, *args)
    assert len(forks) == 4 * (cpus - 1)
    assert _no_children_left()


def test_small_blocks_and_threads_stay_serial(monkeypatch, forks):
    _cpus(monkeypatch, 4)
    small = _random_block(_textio._PARALLEL_MIN_VALUES // 7, 7, seed=6)
    assert render_csv(list("abcdefg"), small) == render_csv(list("abcdefg"), small.tolist())
    assert forks == []
    block = _random_block(*BIG_SHAPE, seed=6)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        text = dumps_stable(block)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == [] and text == _serial(monkeypatch, dumps_stable, block)
    _cpus(monkeypatch, 1)
    assert dumps_stable(block) == text and forks == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_rejected_before_any_fork(bad, monkeypatch, forks):
    _cpus(monkeypatch, 4)
    block = _random_block(*BIG_SHAPE, seed=7)
    block[-3, 4] = bad  # in the last helper's rows
    with pytest.raises(g.NonFiniteError):
        render_csv(list("abcdefg"), block)
    with pytest.raises(g.NonFiniteError):
        dumps_stable({"rows": block})
    assert forks == []


def test_helpers_are_reaped_on_every_path(monkeypatch, forks):
    _cpus(monkeypatch, 4)
    block = _random_block(*BIG_SHAPE, seed=8)
    parent = os.getpid()
    text = render_csv(list("abcdefg"), block)
    assert len(forks) == 3 and _no_children_left()

    # an early close() while this process still formats its own rows
    rows = format_rows(block, "%.17g", ",", "\n")
    assert text.startswith("a,b,c,d,e,f,g\n" + next(rows))
    rows.close()
    assert len(forks) == 6 and _no_children_left()

    # an exception in this process after the helpers started
    real_chunks = _textio._chunks

    def failing_chunks(*args):
        if os.getpid() == parent:
            raise MemoryError("parent")
        return real_chunks(*args)

    monkeypatch.setattr(_textio, "_chunks", failing_chunks)
    with pytest.raises(MemoryError):
        render_csv(list("abcdefg"), block)
    assert len(forks) == 9 and _no_children_left()


def test_a_failed_helper_leaves_its_rows_to_this_process(monkeypatch, forks):
    _cpus(monkeypatch, 3)
    block = _random_block(*BIG_SHAPE, seed=9)
    expected = _serial(monkeypatch, render_csv, list("abcdefg"), block)
    parent = os.getpid()
    real_chunks = _textio._chunks

    def helper_fails(*args):  # the monkeypatch is inherited through fork
        if os.getpid() != parent:
            raise MemoryError("helper")
        return real_chunks(*args)

    monkeypatch.setattr(_textio, "_chunks", helper_fails)
    assert render_csv(list("abcdefg"), block) == expected
    assert len(forks) == 2 and _no_children_left()


def test_a_helper_dying_while_sending_raises_oserror(monkeypatch, forks,
                                                   helpers_die_while_sending):
    _cpus(monkeypatch, 2)
    block = _random_block(*BIG_SHAPE, seed=10)
    with pytest.raises(OSError, match="died while sending"):
        dumps_stable(block)
    assert len(forks) == 1 and _no_children_left()


def test_fork_warning_is_silenced(monkeypatch, forks):
    """From Python 3.12 fork() warns while other OS threads exist, such as
    numpy's BLAS pool; a thread stands in for that pool here."""
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    block = _random_block(*BIG_SHAPE, seed=11)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            text = render_csv(list("abcdefg"), block)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(forks) == 1 and not [w for w in caught if "fork" in str(w.message)]
    assert text == _serial(monkeypatch, render_csv, list("abcdefg"), block)
