"""Shared helpers for the paper-figure benchmarks.

Every benchmark runs a scaled-down but structurally faithful version of
one paper experiment (its file name names the figure or table; README.md,
"Tests and benchmarks", says how to run and scale them), prints the
figure's rows/series, and asserts its qualitative shape. Experiments
execute exactly once via ``benchmark.pedantic`` — they are stochastic
search runs, not microbenchmarks, so repeated timing rounds would only
burn time.
"""

from __future__ import annotations

from typing import Any, Callable

import pytest


def pytest_collection_modifyitems(items):
    """Every benchmark is a full (if scaled-down) paper experiment —
    mark them ``slow`` so ``-m "not slow"`` keeps CI's default job
    fast and benchmarks stay opt-in."""
    for item in items:
        item.add_marker(pytest.mark.slow)


@pytest.fixture
def run_once(benchmark):
    """Run the experiment under the benchmark clock, exactly once."""

    def runner(fn: Callable[[], Any]) -> Any:
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return runner


def print_series(title: str, rows: dict) -> None:
    """Uniform printing for figure data series."""
    print(f"\n--- {title} ---")
    for key, value in rows.items():
        print(f"  {key}: {value}")
