"""The compiled swap pricer against the numpy gathers and the loop oracle.

``SwapEngine.swap_delta`` takes the C kernel (``_swapcore.c``) whenever
the package's compiled library loads and every edge weight is integral;
otherwise it uses the numpy gathers.  Both must agree with the per-edge
loops of :mod:`repro.mapping.reference` bit for bit, on every distance
backend, and whole anneal / hill-climb trajectories must not depend on
which path priced them.
"""

import random

import numpy as np
import pytest

import repro.topology.torus as torus_module
from repro import native, obs
from repro.mapping.anneal import anneal_mapping
from repro.mapping.engine import SwapEngine
from repro.mapping.optimize import optimize_mapping
from repro.mapping.reference import (
    reference_anneal_mapping,
    reference_optimize_mapping,
)
from repro.mapping.strategies import random_mapping
from repro.topology.graphs import CommunicationGraph, torus_neighbor_graph
from repro.topology.torus import Torus

LIBRARY = native.load()
needs_library = pytest.mark.skipif(
    LIBRARY is None, reason=f"compiled kernels unavailable: {native.load_failure()}"
)

SHAPES = [(k, n) for k in (2, 3, 4, 5) for n in (1, 2, 3)]
BACKENDS = ["dense", "delta", "digit"]


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Force each distance backend with the guard monkeypatches."""
    if request.param != "dense":
        monkeypatch.setattr(torus_module, "DISTANCE_TABLE_MAX_NODES", 0)
    if request.param == "digit":
        monkeypatch.setattr(torus_module, "DELTA_BACKEND_MAX_NODES", 0)
    return request.param


@pytest.fixture
def no_library(monkeypatch):
    """The shared loader fails, as on a machine without a compiler."""
    monkeypatch.setattr(native, "load", lambda: None)
    monkeypatch.setattr(native, "load_failure", lambda: "no C compiler found")


def loop_delta(graph, torus, assignment, thread_a, thread_b):
    """Oracle: the loop hop-sum after the swap minus the one before."""

    def hop_sum(where):
        return sum(
            weight * torus.distance(where[src], where[dst])
            for src, dst, weight in graph.edges()
        )

    swapped = list(assignment)
    swapped[thread_a], swapped[thread_b] = swapped[thread_b], swapped[thread_a]
    return hop_sum(swapped) - hop_sum(assignment)


def sample_pairs(graph, count, seed):
    """Random distinct pairs plus pairs that share an edge."""
    generator = random.Random(seed)
    pairs = [(src, dst) for src, dst, _ in list(graph.edges())[:count] if src != dst]
    while len(pairs) < 2 * count:
        a = generator.randrange(graph.threads)
        b = generator.randrange(graph.threads)
        if a != b:
            pairs.append((a, b))
    return pairs


@needs_library
@pytest.mark.parametrize("radix,dimensions", SHAPES)
def test_c_numpy_and_loop_deltas_agree(radix, dimensions, backend):
    torus = Torus(radix=radix, dimensions=dimensions)
    graph = torus_neighbor_graph(radix, dimensions)
    start = random_mapping(torus.node_count, seed=radix * 10 + dimensions)
    engine = SwapEngine(graph, torus)
    assert engine.backend.kind == backend
    assert engine.pricing == "c"
    position = np.array(start.assignment, dtype=np.intp)
    for thread_a, thread_b in sample_pairs(graph, 12, seed=radix + dimensions):
        fast = engine.swap_delta(position, thread_a, thread_b)
        slow = engine._numpy_swap_delta(position, thread_a, thread_b)
        oracle = loop_delta(graph, torus, start.assignment, thread_a, thread_b)
        assert fast == slow == oracle, (thread_a, thread_b)


@needs_library
def test_adjacent_pair_skips_the_shared_edge():
    # Threads 0 and 1 are ring neighbors; swapping them leaves their own
    # edge's length unchanged, so only the outer edges move.
    torus = Torus(radix=5, dimensions=1)
    graph = torus_neighbor_graph(5, 1)
    engine = SwapEngine(graph, torus)
    position = np.arange(5, dtype=np.intp)
    delta = engine.swap_delta(position, 0, 1)
    assert delta == engine._numpy_swap_delta(position, 0, 1)
    assert delta == loop_delta(graph, torus, tuple(range(5)), 0, 1)
    # The links 4-0 and 1-2, one edge each way, grow from 1 to 2 hops.
    assert delta == 4.0


@needs_library
def test_position_array_follows_in_place_swaps():
    # The kernel reads the cached pointer, so in-place swaps are seen
    # and a new array rebinds it.
    torus = Torus(radix=4, dimensions=2)
    graph = torus_neighbor_graph(4, 2)
    engine = SwapEngine(graph, torus)
    position = np.array(random_mapping(16, seed=3).assignment, dtype=np.intp)
    for thread_a, thread_b in sample_pairs(graph, 8, seed=9):
        assert engine.swap_delta(position, thread_a, thread_b) == (
            engine._numpy_swap_delta(position, thread_a, thread_b)
        )
        position[thread_a], position[thread_b] = position[thread_b], position[thread_a]
    other = position.copy()
    other[[0, 5]] = other[[5, 0]]
    assert engine.swap_delta(other, 1, 2) == engine._numpy_swap_delta(other, 1, 2)


@needs_library
def test_unreadable_positions_take_the_numpy_path():
    torus = Torus(radix=4, dimensions=2)
    graph = torus_neighbor_graph(4, 2)
    engine = SwapEngine(graph, torus)
    position = np.array(random_mapping(16, seed=4).assignment, dtype=np.intp)
    expected = engine._numpy_swap_delta(position, 2, 9)
    assert engine.swap_delta(position.astype(np.int32), 2, 9) == expected
    assert engine.swap_delta(np.repeat(position, 2)[::2], 2, 9) == expected
    assert engine.swap_delta(position, -14, 9) == (
        engine._numpy_swap_delta(position, -14, 9)
    )


@needs_library
@pytest.mark.parametrize("radix,dimensions", [(5, 2), (4, 3), (3, 3)])
def test_trajectories_match_numpy_and_reference(
    radix, dimensions, backend, monkeypatch
):
    torus = Torus(radix=radix, dimensions=dimensions)
    graph = torus_neighbor_graph(radix, dimensions)
    start = random_mapping(torus.node_count, seed=21)
    fast = anneal_mapping(graph, torus, start, steps=600, seed=21)
    climbed = optimize_mapping(graph, torus, start, steps=400, seed=21)
    spread = optimize_mapping(graph, torus, start, steps=400, seed=21, maximize=True)
    assert fast == reference_anneal_mapping(graph, torus, start, steps=600, seed=21)
    assert climbed == reference_optimize_mapping(
        graph, torus, start, steps=400, seed=21
    )
    assert spread == reference_optimize_mapping(
        graph, torus, start, steps=400, seed=21, maximize=True
    )
    monkeypatch.setattr(native, "load", lambda: None)
    assert SwapEngine(graph, torus).pricing == "numpy"
    assert anneal_mapping(graph, torus, start, steps=600, seed=21) == fast
    assert optimize_mapping(graph, torus, start, steps=400, seed=21) == climbed


def test_non_integral_weights_take_the_numpy_path():
    torus = Torus(radix=4, dimensions=1)
    graph = CommunicationGraph(
        threads=4, weights={(0, 1): 1.0, (1, 2): 0.5, (2, 3): 2.0, (3, 0): 1.0}
    )
    engine = SwapEngine(graph, torus)
    assert engine.pricing == "numpy"
    assert engine.pricing_reason == "non-integral edge weights"
    position = np.array([2, 0, 3, 1], dtype=np.intp)
    assert engine.swap_delta(position, 0, 2) == loop_delta(
        graph, torus, (2, 0, 3, 1), 0, 2
    )


def test_unavailable_library_gives_identical_results(no_library):
    torus = Torus(radix=4, dimensions=2)
    graph = torus_neighbor_graph(4, 2)
    start = random_mapping(16, seed=12)
    engine = SwapEngine(graph, torus)
    assert engine.pricing == "numpy"
    assert engine.pricing_reason == (
        "compiled kernels unavailable: no C compiler found"
    )
    fallback = anneal_mapping(graph, torus, start, steps=700, seed=12)
    assert fallback == reference_anneal_mapping(graph, torus, start, steps=700, seed=12)


@needs_library
def test_compiled_results_equal_unavailable_library(monkeypatch):
    torus = Torus(radix=5, dimensions=2)
    graph = torus_neighbor_graph(5, 2)
    start = random_mapping(25, seed=13)
    compiled = anneal_mapping(graph, torus, start, steps=700, seed=13)
    monkeypatch.setattr(native, "load", lambda: None)
    assert anneal_mapping(graph, torus, start, steps=700, seed=13) == compiled


class TestPricingObservability:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def _run(self):
        torus = Torus(radix=4, dimensions=2)
        graph = torus_neighbor_graph(4, 2)
        start = random_mapping(16, seed=2)
        obs.enable(fresh=True)
        before = {
            path: getattr(obs.REGISTRY.get(f"anneal.pricing.{path}"), "value", 0)
            for path in ("c", "numpy")
        }
        anneal_mapping(graph, torus, start, steps=50, seed=2)
        (span,) = [r for r in obs.trace().spans if r["name"] == "mapping.anneal"]
        after = {
            path: getattr(obs.REGISTRY.get(f"anneal.pricing.{path}"), "value", 0)
            for path in ("c", "numpy")
        }
        return span, {path: after[path] - before[path] for path in after}

    @needs_library
    def test_span_and_counter_name_the_compiled_path(self):
        span, counted = self._run()
        assert span["args"]["pricing"] == "c"
        assert span["args"]["pricing_reason"] == (
            "compiled kernel, integral edge weights"
        )
        assert counted == {"c": 1, "numpy": 0}

    def test_span_and_counter_name_the_fallback(self, no_library):
        span, counted = self._run()
        assert span["args"]["pricing"] == "numpy"
        assert "no C compiler found" in span["args"]["pricing_reason"]
        assert counted == {"c": 0, "numpy": 1}
