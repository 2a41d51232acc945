"""Shared configuration for the benchmark harness.

Every benchmark is a single-shot measurement (``benchmark.pedantic`` with one
round): the quantities of interest are the *model* outputs (cycle counts and
operations/cycle, reported through ``extra_info``), not the wall-clock time of
the Python simulation itself.

The benchmark writers merge their sections into :data:`BENCH_JSON`, which
git ignores, so running the suite leaves the tracked ``BENCH_sweeps.json``
untouched.  That file is refreshed only on purpose, by
``python -m repro.experiments.sweeps --json BENCH_sweeps.json``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

#: The merged benchmark record written by the suite (git-ignored).
BENCH_JSON = Path(__file__).resolve().parent.parent / ".benchmarks" / "BENCH_sweeps.json"


def single_shot(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture()
def run_once():
    return single_shot


@pytest.fixture()
def bench_json() -> Path:
    """:data:`BENCH_JSON`, with its directory created."""
    BENCH_JSON.parent.mkdir(parents=True, exist_ok=True)
    return BENCH_JSON
