"""Benchmark-suite configuration.

Every ``test_bench_*`` module regenerates one paper artifact (figure or
table) at a benchmark-friendly scale, asserts its qualitative shape, and
times the dominant computation with pytest-benchmark.  Full-scale sweeps
live in ``repro.experiments`` (run them via ``python -m``).
"""

import pathlib
import sys

import pytest

# The core-kernel benches time the test-side reference solvers
# (``tests/routing/flow_oracle.py``), so the repo root must be importable.
REPO_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)


def pytest_collection_modifyitems(items):
    # Benchmarks are ordered so cheap gadget benches run before DES sweeps.
    order = {"fig2": 0, "fig4": 1, "fig6": 2, "fig7a": 3, "fig7c": 4, "fig7b": 5}
    items.sort(key=lambda item: order.get(item.module.__name__.split("_")[-1], 9))
