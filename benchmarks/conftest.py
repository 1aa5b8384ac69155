"""Benchmark-suite helpers: result emission and shared options.

Every bench regenerates one of the paper's tables/figures, prints the
rows/series, writes them under ``benchmarks/out/`` and asserts the
expected *shape* (who wins, roughly by how much, where crossovers fall) —
absolute numbers belong to the simulator, not the authors' testbed.
"""

from __future__ import annotations

import os

#: Numerical-library thread pools, pinned to one thread before anything
#: imports numpy: a threaded BLAS makes small solves 5-10x slower and
#: their timing depends on what else the host runs (loopbench pins the
#: same). An explicit setting in the environment wins.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import pathlib  # noqa: E402

import pytest  # noqa: E402

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture
def emit():
    """Print a figure's text rendering and persist it to benchmarks/out/."""

    def _emit(name: str, text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}")

    return _emit


def thread_env() -> dict[str, str | None]:
    """The numerical-library thread settings the bench ran under."""
    return {var: os.environ.get(var) for var in THREAD_VARS}


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
