"""Simulated-annealing mapping optimization.

The hill climber in :mod:`repro.mapping.optimize` stops at the first
local optimum; annealing escapes shallow ones by accepting worsening
swaps with probability ``exp(-delta / T)`` under a geometric cooling
schedule.  Deterministic for a given seed, like everything else in the
mapping package.

Swap deltas are priced by :class:`repro.mapping.engine.SwapEngine` (a
compiled kernel, or distance-table gathers over precomputed per-thread
adjacency arrays) instead of per-neighbor ``torus.distance`` calls; the
``mapping.anneal`` span and the ``anneal.pricing.*`` counters record
which path ran.  The best assignment is kept as a journal of the swaps
accepted since the last new best, undone at the end.  For integer edge
weights — every built-in graph — accept/reject decisions, the best
assignment, and all counters are bit-identical to the loop-based
reference implementation (:mod:`repro.mapping.reference`), which the
property tests enforce seed for seed.

Cooling semantics: the temperature decays once per *drawn* step, so the
schedule always spans exactly ``steps`` decays — including on draws
where both threads coincide and no swap is attempted.  Those skipped
draws are reported separately (``skipped_moves``) and excluded from
``attempted_moves``, which counts real swap attempts only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import MappingError
from repro.mapping.base import Mapping
from repro.mapping.engine import SwapEngine, check_sizes, undo_swaps
from repro.topology.graphs import CommunicationGraph
from repro.topology.torus import Torus

__all__ = ["AnnealResult", "anneal_mapping"]


@dataclass(frozen=True)
class AnnealResult:
    """Outcome of an annealing run.

    ``attempted_moves`` counts real swap attempts; draws that picked the
    same thread twice are tallied in ``skipped_moves`` instead (the two
    always sum to the requested ``steps``).  Temperature decays on every
    drawn step, skipped or not — see the module docstring.
    """

    mapping: Mapping
    distance: float
    initial_distance: float
    best_distance: float
    accepted_moves: int
    attempted_moves: int
    skipped_moves: int = 0


def _check_schedule(initial_temperature: float, cooling: float) -> None:
    if not 0.0 < cooling < 1.0:
        raise MappingError(f"cooling must lie in (0, 1), got {cooling!r}")
    if not initial_temperature > 0:
        raise MappingError(
            f"initial_temperature must be positive, got {initial_temperature!r}"
        )


def anneal_mapping(
    graph: CommunicationGraph,
    torus: Torus,
    initial: Mapping,
    steps: int = 5000,
    seed: int = 0,
    initial_temperature: float = 2.0,
    cooling: float = 0.999,
) -> AnnealResult:
    """Anneal pairwise swaps to minimize average communication distance.

    Parameters
    ----------
    initial_temperature:
        Starting temperature in units of *weighted hop-sum* delta; around
        the magnitude of a typical single-swap delta works well.
    cooling:
        Geometric decay applied per drawn step; must lie in (0, 1).

    Returns the best mapping encountered (not merely the final state).
    """
    check_sizes(graph, torus, initial, steps)
    _check_schedule(initial_temperature, cooling)
    if graph.total_weight == 0.0:
        raise MappingError("communication graph has no edges")

    engine = SwapEngine(graph, torus)
    position = np.array(initial.assignment, dtype=np.intp)
    generator = random.Random(seed)

    start_sum = engine.weighted_hop_sum(position)
    current_sum = start_sum
    best_sum = current_sum
    # Accepted swaps since the last new best, undone at the end: cheaper
    # than snapshotting the whole position array on every improvement.
    journal = []

    temperature = initial_temperature
    accepted = 0
    attempted = 0
    threads = graph.threads
    with obs.span(
        "mapping.anneal",
        steps=steps,
        threads=threads,
        seed=seed,
        pricing=engine.pricing,
        pricing_reason=engine.pricing_reason,
    ):
        for _ in range(steps):
            temperature *= cooling
            thread_a = generator.randrange(threads)
            thread_b = generator.randrange(threads)
            if thread_a == thread_b:
                continue
            attempted += 1
            delta = engine.swap_delta(position, thread_a, thread_b)
            accept = delta < 0 or (
                temperature > 1e-12
                and generator.random() < math.exp(-delta / temperature)
            )
            if accept:
                accepted += 1
                current_sum += delta
                position[thread_a], position[thread_b] = (
                    position[thread_b],
                    position[thread_a],
                )
                if current_sum < best_sum:
                    best_sum = current_sum
                    journal.clear()
                else:
                    journal.append((thread_a, thread_b))
        undo_swaps(position, journal)

    if obs.is_enabled():
        obs.REGISTRY.counter(
            "anneal.attempted_moves", help="annealing swap attempts"
        ).inc(attempted)
        obs.REGISTRY.counter(
            "anneal.skipped_moves", help="same-thread draws discarded"
        ).inc(steps - attempted)
        obs.REGISTRY.counter(
            "anneal.accepted_moves", help="annealing swaps accepted"
        ).inc(accepted)
        obs.REGISTRY.counter(
            f"anneal.pricing.{engine.pricing}",
            help="annealing runs by swap-pricing path",
        ).inc()

    _, _, weight = graph.edge_arrays()
    return AnnealResult(
        mapping=Mapping(
            assignment=tuple(position.tolist()),
            processors=initial.processors,
        ),
        distance=float(best_sum) / engine.total_weight,
        initial_distance=start_sum / float(weight.sum()),
        best_distance=float(best_sum) / engine.total_weight,
        accepted_moves=accepted,
        attempted_moves=attempted,
        skipped_moves=steps - attempted,
    )
