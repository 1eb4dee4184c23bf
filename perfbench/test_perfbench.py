"""Self-tests of the benchmark.  Run from the repository root with

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import inputs, workloads, worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert inputs.dumps(inputs.build(workload, 7)) == inputs.dumps(inputs.build(workload, 7))
    assert inputs.dumps(inputs.build(workload, 7)) != inputs.dumps(inputs.build(workload, 8))


def _flip_digit(path):
    """Change one digit in the middle of a file to another digit."""
    data = bytearray(path.read_bytes())
    pos = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit())
    data[pos] = ord("0") + (data[pos] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("seed", [1, 2])
def test_one_corrupted_byte_counts_as_a_failed_operation(tmp_path, seed):
    doc = inputs.build("cli-startup", seed)
    doc["workload"] = "bulk-export"  # same small commands, run in-process
    wl = workloads.make(doc, ROOT)
    for i in range(len(wl)):
        opdir = tmp_path / f"op{i}"
        opdir.mkdir()
        out = wl.run(i, str(opdir), inprocess=True)
        bad = tmp_path / f"bad{i}"
        shutil.copytree(opdir, bad)
        _flip_digit(bad / sorted(os.listdir(bad))[0])
        for output, failures in ((out, 0), (str(bad), 1)):
            ledger = worker.Ledger()
            ledger.recorder(wl, keep_digest=False)(i, output, None)
            assert ledger.finish() == failures, (wl.commands[i], ledger.messages)


def _small_library_scan():
    doc = inputs.build("library-scan", 3)
    doc["ops"] = [op for op in doc["ops"]
                  if op["fn"] != "fractions_series" and op.get("n", 0) <= 1024][:60]
    return workloads.make(doc, ROOT)


def _small_commands():
    doc = inputs.build("cli-startup", 3)
    return workloads.make(doc, ROOT)


@pytest.mark.parametrize("make", [_small_library_scan, _small_commands])
def test_traced_and_untraced_runs_give_identical_digests(tmp_path, make):
    wl = make()
    result = worker.measure_traced(wl, str(tmp_path), str(tmp_path / "spans.csv"))
    assert result["failed"] == 0, result["errors"]
    assert result["metrics"]["analytic.state_at.calls"] > 0
    assert result["metrics"]["trace.self_share"] > 0.9

    untraced = worker.measure(make(), 0.0, str(tmp_path / "timed"), None)
    assert untraced["failed"] == 0, untraced["errors"]
    assert untraced["digest"] == result["digest"]


@pytest.mark.parametrize("seed", range(1, 31))
def test_generated_grids_resolve_the_phase(seed):
    """The regime rules keep every grid's phase step below pi."""
    for workload in ("cli-startup", "bulk-export"):
        for command in inputs.build(workload, seed)["commands"]:
            if command["args"][0] != "fractions":
                assert workloads._alias_ratio(workloads._load(command["args"])) < 1.0
    lib = workloads.make(inputs.build("library-scan", seed), ROOT)
    for op in lib.ops:
        if "n" in op:
            step = workloads._phase_step(op["system"], op["params"], op["t"],
                                         op["window"], op["n"])
            assert step < math.pi


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "library-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
