"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one paper artifact (figure series, table
rows) and prints the same rows/series the paper reports, so `pytest
benchmarks/ --benchmark-only -s` doubles as a full reproduction run.
Simulation-backed experiments run in quick mode to keep the whole suite
in the minutes range; the full-length versions are available through the
CLI (`repro-locality run <id>`).

Besides pytest-benchmark's own reports, the session leaves machine-
readable breadcrumbs at the repo root: one ``BENCH_<module>.json`` per
benchmark module that ran (``BENCH_simulator.json``,
``BENCH_mapping.json``, ...), each a list of ``{bench, config, wall_s,
speedup_vs_reference}`` rows.  Every test contributes a wall-clock row
automatically; tests that measure an explicit kernel-vs-reference
speedup add richer rows through the ``bench_record`` fixture.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_ROWS = defaultdict(list)


def _module_tag(request) -> str:
    name = request.module.__name__
    return name[len("bench_"):] if name.startswith("bench_") else name


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under timing and print its report."""

    def runner(fn, *args, **kwargs):
        result = benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )
        if hasattr(result, "render"):
            print()
            print(result.render())
        return result

    return runner


@pytest.fixture
def bench_record(request):
    """Record a named measurement row for this module's BENCH json."""
    tag = _module_tag(request)

    def record(bench, config, wall_s, speedup_vs_reference=None, **extra):
        _ROWS[tag].append(
            {
                "bench": bench,
                "config": config,
                "wall_s": wall_s,
                "speedup_vs_reference": speedup_vs_reference,
                **extra,
            }
        )

    return record


@pytest.fixture(autouse=True)
def _record_wall_clock(request):
    """Every benchmark test leaves at least a wall-clock row."""
    began = time.perf_counter()
    yield
    _ROWS[_module_tag(request)].append(
        {
            "bench": request.node.name,
            "config": "pytest",
            "wall_s": round(time.perf_counter() - began, 4),
            "speedup_vs_reference": None,
        }
    )


def pytest_sessionfinish(session):
    for tag, rows in _ROWS.items():
        path = os.path.join(_REPO_ROOT, f"BENCH_{tag}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
