"""Seeded end-to-end and per-module benchmark for gausspack.

Run it from the repository root with ``python3 perfbench/run.py --workload
NAME --seed N --seconds S --trace 0|1``; see run.py for the workloads and
the metrics each one prints.
"""
