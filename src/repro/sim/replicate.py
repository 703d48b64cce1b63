"""Parallel multi-seed replication of simulator runs.

Every simulated figure used to rest on a single seed.  This module runs
the same (config, mapping, programs) machine under a list of root seeds
— serially or fanned out over the persistent warm worker pool
(:mod:`repro.core.pool`), every seed its own ``Machine.run`` through
:func:`repro.sim.batch.run_batch` — and aggregates each
:class:`~repro.sim.stats.MeasurementSummary` metric into mean / sample
standard deviation / 95% confidence interval, so model-vs-sim
comparisons carry error bars instead of point estimates.

Determinism contract: for a fixed seed list the aggregates (and the
per-seed summaries) are identical regardless of ``jobs``, ``batch`` and
pool reuse.  Each replication is an isolated machine built from
``config.with_seed(seed)`` with its own deep copy of the programs (warm
workers reuse the broadcast payload across tasks, so nothing may
mutate it),
results are reassembled in seed order whatever the completion order,
and the statistics are computed with plain float arithmetic over that
order.

Seed policy: :func:`default_seeds` enumerates ``root, root+1, ...`` so
the first replication of a campaign is exactly the old single-seed run —
adding error bars never changes existing point estimates.  Every
processor stream inside a replication derives from that replication's
seed via ``numpy.random.SeedSequence`` (see :mod:`repro.sim.processor`),
and the RNG provenance rides on the result for run manifests.

With observability enabled the whole sweep runs under a ``replicate``
span, each replication inside a ``replication`` span; pool workers ship
their span records back on the result tuple and the parent merges them
(:func:`repro.obs.ingest_worker_payloads`), so a ``jobs=N`` trace is
equivalent to the serial one.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.pool import (
    FALLBACK_ERRORS,
    WorkerPool,
    get_pool,
    note_fallback,
)
from repro.errors import ParameterError
from repro.mapping.base import Mapping
from repro.sim.batch import run_batch
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.stats import MeasurementSummary
from repro.sim.telemetry import TelemetryConfig, merge_snapshots
from repro.workload.base import ThreadProgram

__all__ = [
    "MetricAggregate",
    "ReplicationResult",
    "aggregate_summaries",
    "default_seeds",
    "run_replications",
]


@dataclass(frozen=True)
class MetricAggregate:
    """Mean / spread of one summary metric across replications.

    ``std`` is the sample standard deviation (ddof=1; 0.0 with a single
    replication) and ``ci95`` the normal-approximation half-width
    ``1.96 * std / sqrt(n)``.  ``n`` counts replications whose window
    produced the metric (``None`` values are skipped); ``values`` keeps
    the per-seed points, in seed order, for plotting.
    """

    metric: str
    mean: float
    std: float
    ci95: float
    n: int
    values: Tuple[float, ...]


@dataclass
class ReplicationResult:
    """Everything ``run_replications`` measured.

    ``summaries[i]`` is the full per-seed summary for ``seeds[i]``;
    ``aggregates`` maps metric name to its cross-seed statistics.
    """

    seeds: Tuple[int, ...]
    summaries: List[MeasurementSummary]
    aggregates: Dict[str, MetricAggregate]
    rng: Dict[str, object]

    def mean(self, metric: str) -> Optional[float]:
        aggregate = self.aggregates.get(metric)
        return aggregate.mean if aggregate else None

    def ci95(self, metric: str) -> Optional[float]:
        aggregate = self.aggregates.get(metric)
        return aggregate.ci95 if aggregate else None

    def telemetry_snapshots(self) -> List[Dict]:
        """Per-seed telemetry snapshots (empty if telemetry was off)."""
        return [
            summary.telemetry
            for summary in self.summaries
            if summary.telemetry is not None
        ]

    def merged_telemetry(self) -> Optional[Dict]:
        """All replications' telemetry as one merged snapshot, or None."""
        snapshots = self.telemetry_snapshots()
        if not snapshots:
            return None
        return merge_snapshots(snapshots)


def default_seeds(root_seed: int, count: int) -> Tuple[int, ...]:
    """``root, root+1, ...`` — replication 0 is the old single-seed run."""
    if count < 1:
        raise ParameterError(f"need at least one replication; got {count}")
    return tuple(root_seed + i for i in range(count))


def aggregate_summaries(
    summaries: Sequence[MeasurementSummary],
) -> Dict[str, MetricAggregate]:
    """Cross-replication statistics for every numeric summary metric."""
    if not summaries:
        raise ParameterError("no summaries to aggregate")
    aggregates: Dict[str, MetricAggregate] = {}
    for metric in summaries[0].as_dict():
        values = tuple(
            float(value)
            for summary in summaries
            if (value := summary.as_dict()[metric]) is not None
        )
        if not values:
            continue
        n = len(values)
        mean = sum(values) / n
        if n > 1:
            variance = sum((v - mean) ** 2 for v in values) / (n - 1)
            std = math.sqrt(variance)
        else:
            std = 0.0
        aggregates[metric] = MetricAggregate(
            metric=metric,
            mean=mean,
            std=std,
            ci95=1.96 * std / math.sqrt(n),
            n=n,
            values=values,
        )
    return aggregates


def _run_seed(
    payload, seed, warmup, measure, telemetry
) -> MeasurementSummary:
    """Run one seed inside its own ``replication`` span.

    ``payload`` is the shared ``(config, mapping, programs)``; the
    mapping is copied here and :func:`run_batch` deep-copies the
    programs, so the payload is never mutated.
    """
    config, mapping, programs = payload
    with obs.span("replication", seed=seed):
        (summary,) = run_batch(
            config, copy.deepcopy(mapping), programs, (seed,),
            warmup=warmup, measure=measure, telemetry=telemetry,
        )
    return summary


def _pool_run_seed(payload, task):
    """Warm-pool task: one seed, plus this worker's obs records.

    Module-level so it pickles.  ``payload`` is the broadcast
    ``(config, mapping, programs)`` shared by every task on this
    worker; ``task`` carries the seed, the window overrides, whether
    the parent collects observability and the telemetry config.
    """
    seed, warmup, measure, collect_obs, telemetry = task
    if collect_obs:
        # Fork-started workers inherit the parent's trace buffer, and a
        # warm worker keeps the previous task's: start fresh so this
        # task's spans and histograms ship back exactly once.
        obs.enable()
        obs.reset()
        obs.REGISTRY.reset()
    elif obs.is_enabled():
        # A warm worker may carry obs state enabled by an earlier task
        # (or inherited over fork); this run must not record into it.
        obs.disable()
        obs.reset()
    mark = obs.trace_mark() if collect_obs else 0
    summary = _run_seed(payload, seed, warmup, measure, telemetry)
    shipped = (
        {
            "pid": os.getpid(),
            "spans": obs.spans_since(mark),
            "histograms": obs.REGISTRY.snapshot_histograms(),
        }
        if collect_obs
        else None
    )
    return summary, shipped


def run_replications(
    config: SimulationConfig,
    mapping: Mapping,
    programs: Sequence[Sequence[ThreadProgram]],
    seeds: Sequence[int],
    jobs: int = 1,
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
    pool: Optional[WorkerPool] = None,
    batch: Optional[int] = None,
) -> ReplicationResult:
    """Run one machine configuration under each seed and aggregate.

    ``jobs > 1`` fans the replications over the process-global warm
    worker pool (:func:`repro.core.pool.get_pool`): the
    ``(config, mapping, programs)`` payload is broadcast to the workers
    once and each task ships only its seed and window overrides, so N
    replications pickle the machine description once, not N times.
    When no pool can run here the sweep falls back to the serial path —
    loudly, via the ``pool.fallback`` counter and a
    :class:`~repro.core.pool.PoolFallbackWarning` — and results and
    aggregates are identical either way.  Pass ``pool`` to use a
    specific (e.g. spawn-start-method) pool instead of the global one.

    ``warmup`` / ``measure`` override the config's windows, as with
    :meth:`Machine.run`.  With a ``telemetry`` config each replication's
    machine runs instrumented and its snapshot rides on the per-seed
    summary (merge across seeds with
    :meth:`ReplicationResult.merged_telemetry`); with observability on,
    pool workers additionally ship their histogram state back for the
    jobs-invariant registry merge.

    ``batch`` is the number of seeds the pool hands a worker at once
    (its ``chunk_size``; ``None`` lets the pool choose).  It never
    changes results: every seed is its own ``Machine.run`` in its own
    ``replication`` span, serially or in the pool.
    """
    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise ParameterError("need at least one replication seed")
    if batch is not None:
        batch = int(batch)
        if batch < 1:
            raise ParameterError(f"batch must be >= 1; got {batch}")
        if batch > len(seeds):
            raise ParameterError(
                f"batch ({batch}) exceeds the replication count "
                f"({len(seeds)}); pass batch <= len(seeds)"
            )
    payload = (config, mapping, programs)
    collect_obs = obs.is_enabled()
    summaries: Optional[List[MeasurementSummary]] = None
    with obs.span("replicate", seeds=len(seeds), jobs=jobs, batch=batch):
        if jobs > 1 or pool is not None:
            try:
                worker_pool = pool if pool is not None else get_pool(jobs)
                worker_pool.broadcast("sim.replicate", payload)
                tasks = [
                    (seed, warmup, measure, collect_obs, telemetry)
                    for seed in seeds
                ]
                results = worker_pool.map(
                    _pool_run_seed, tasks, key="sim.replicate",
                    chunk_size=batch,
                )
                if collect_obs:
                    obs.ingest_worker_payloads(
                        shipped for _, shipped in results
                    )
                summaries = [summary for summary, _ in results]
            except FALLBACK_ERRORS as error:
                note_fallback("sim.replicate", error)
                summaries = None  # no usable pool; run serially below
        if summaries is None:
            summaries = [
                _run_seed(payload, seed, warmup, measure, telemetry)
                for seed in seeds
            ]
    return ReplicationResult(
        seeds=seeds,
        summaries=summaries,
        aggregates=aggregate_summaries(summaries),
        rng={
            "seeds": list(seeds),
            "scheme": (
                "per-replication root seed -> "
                "numpy.random.SeedSequence(seed).spawn(nodes)"
            ),
        },
    )
