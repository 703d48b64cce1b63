"""Benchmarks: lockstep batched replication vs one machine per seed.

Two entry points, mirroring ``bench_pool.py``:

* ``pytest benchmarks/bench_replication.py`` — the batched-throughput
  rows, every row asserting byte-identical per-seed summaries between
  the serial and batched ``run_replications`` paths.
* ``python benchmarks/bench_replication.py [--quick] [--best-of N]
  [--output FILE]`` — script mode for CI smoke: measures the same rows
  (best-of-N wall clock to shave scheduler noise) and writes the
  ``BENCH_replication.json`` artifact for ``repro-bench compare``.

Row catalogue:

* ``replication_batch`` — serial wall over batched wall for the same
  seed list on one core (``batch=R``, ``jobs=1``): the tentpole claim
  that batching divides the fixed per-cycle interpreter cost by R.
  The ``>= 2.5x`` floor only asserts under ``REPRO_BENCH_STRICT=1``
  (noisy shared runners); everywhere else the committed baseline plus
  the ``repro-bench compare`` >20%-drop gate watches the number.
* ``replication_batch_py`` — the same measurement with
  ``REPRO_BATCH_ENGINE=py`` forced, pinning the pure-Python batch
  engine (the compiled core's executable spec) to parity and keeping
  its wall clock on the record.  No floor: the Python engine's job is
  correctness, not speed.
* ``replication_batch_vs_core`` — batched wall against the default
  serial ``run_replications`` path, whose single runs now take the
  compiled core one lane at a time: what batching adds once the core
  serves single runs too.  No floor; reported for honesty.

The serial reference of the first two rows is one Python-spec machine
per seed (``Machine(..., engine=True)``): the serial path these rows
were defined against, and the parity oracle every row is held to.

Parity is asserted on every row, always: batching must return exactly
the summaries the serial path produces, whatever the timing.  Unlike
``bench_pool``'s jobs scaling, the batch speedup is a single-core
property, so the floor is meaningful even on one-CPU containers.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time

from repro.mapping.strategies import random_mapping
from repro.sim import batchcore
from repro.sim.batch import BatchMachine
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.replicate import default_seeds, run_replications
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.synthetic import build_programs

SEED = 1992
STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"

#: STRICT-mode floor for the batched row (the tentpole claim is >= 3x
#: at R=8 on a quiet core; 2.5x leaves headroom for loaded runners).
BATCH_FLOOR = 2.5


def _workload(quick):
    """The replication workload ``bench_pool`` measures, R=8 when full."""
    config = SimulationConfig(
        radix=4 if quick else 8, contexts=2,
        warmup_network_cycles=300,
        measure_network_cycles=1500 if quick else 6000,
    )
    graph = torus_neighbor_graph(config.radix, 2)
    programs = build_programs(
        graph, 2, config.compute_cycles, config.compute_jitter
    )
    mapping = random_mapping(config.node_count, seed=SEED)
    seeds = default_seeds(config.seed, 4 if quick else 8)
    return config, mapping, programs, seeds


def _best_of(count, fn):
    """Minimum wall over ``count`` runs; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(max(1, count)):
        began = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - began)
    return best, result


def _engine_for(config, mapping, programs, seeds):
    """Which engine a batch of this shape selects ("c" or "py")."""
    return BatchMachine(config, mapping, programs, seeds[:1]).engine


def _serial_spec(config, mapping, programs, seeds):
    """One Python-spec machine per seed, isolated like the serial path."""
    return [
        Machine(
            config.with_seed(seed),
            copy.deepcopy(mapping),
            copy.deepcopy(programs),
            engine=True,
        ).run()
        for seed in seeds
    ]


def measure_batch_throughput(quick=False, best_of=1):
    """Serial vs lockstep-batched wall clock on one core, parity-gated."""
    config, mapping, programs, seeds = _workload(quick)
    batch = len(seeds)
    batchcore.load()  # build/dlopen once, outside every timed run
    serial_seconds, serial = _best_of(
        best_of, lambda: _serial_spec(config, mapping, programs, seeds)
    )
    expected = [s.as_dict() for s in serial]
    core_seconds, core_serial = _best_of(
        best_of,
        lambda: run_replications(config, mapping, programs, seeds, jobs=1),
    )
    rows = []
    for engine_mode, bench in (
        (None, "replication_batch"),
        ("py", "replication_batch_py"),
    ):
        previous = os.environ.get("REPRO_BATCH_ENGINE")
        if engine_mode is not None:
            os.environ["REPRO_BATCH_ENGINE"] = engine_mode
        try:
            engine = _engine_for(config, mapping, programs, seeds)
            batched_seconds, batched = _best_of(
                best_of,
                lambda: run_replications(
                    config, mapping, programs, seeds, batch=batch
                ),
            )
        finally:
            if engine_mode is not None:
                if previous is None:
                    del os.environ["REPRO_BATCH_ENGINE"]
                else:
                    os.environ["REPRO_BATCH_ENGINE"] = previous
        if engine_mode is None:
            default_seconds = batched_seconds
        rows.append(
            {
                "bench": bench,
                "config": f"{len(seeds)} seeds, serial vs batch={batch}",
                "wall_s": round(batched_seconds, 4),
                "serial_wall_s": round(serial_seconds, 4),
                "speedup_vs_reference": round(
                    serial_seconds / batched_seconds, 2
                ),
                "parity": [s.as_dict() for s in batched.summaries]
                == expected,
                "engine": engine,
                "batch": batch,
            }
        )
    default = rows[0]
    rows.append(
        {
            "bench": "replication_batch_vs_core",
            "config": f"{len(seeds)} seeds, serial core vs batch={batch}",
            "wall_s": default["wall_s"],
            "serial_wall_s": round(core_seconds, 4),
            "speedup_vs_reference": round(core_seconds / default_seconds, 2),
            "parity": default["parity"]
            and [s.as_dict() for s in core_serial.summaries] == expected,
            "engine": default["engine"],
            "batch": batch,
        }
    )
    return rows


# ----------------------------------------------------------------------
# pytest benchmarks.
# ----------------------------------------------------------------------


def test_batched_replication_speedup(bench_record):
    """The tentpole: batch=R >= 2.5x serial on one core (STRICT only).

    Parity is asserted on every row, always — this is the CI-retained
    bit-exactness check for the batched replication path.
    """
    rows = measure_batch_throughput(
        quick=not STRICT, best_of=2 if STRICT else 1
    )
    for row in rows:
        assert row["parity"], f"batched replication diverged: {row}"
        bench_record(
            row["bench"], row["config"], row["wall_s"],
            row["speedup_vs_reference"],
        )
    if STRICT:
        headline = next(
            r for r in rows if r["bench"] == "replication_batch"
        )
        assert headline["engine"] == "c", headline
        assert headline["speedup_vs_reference"] >= BATCH_FLOOR, headline


# ----------------------------------------------------------------------
# Script mode (CI smoke).
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="lockstep batched replication measurement (script mode)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small machine (radix 4, short windows, R=4) for CI smoke",
    )
    parser.add_argument(
        "--best-of", type=int, default=1, metavar="N",
        help="take the best wall clock of N runs (default: 1)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the measurements as JSON to FILE",
    )
    args = parser.parse_args(argv)
    rows = measure_batch_throughput(quick=args.quick, best_of=args.best_of)
    for row in rows:
        print(
            f"{row['bench']:<22} {row['config']:<30} "
            f"batched {row['wall_s']}s vs serial {row['serial_wall_s']}s -> "
            f"{row['speedup_vs_reference']}x "
            f"(engine: {row['engine']}, parity: {row['parity']})"
        )
    parity = all(row["parity"] for row in rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
        print(f"report written to {args.output}")
    return 0 if parity else 1


if __name__ == "__main__":
    sys.exit(main())
