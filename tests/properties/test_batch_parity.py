"""Property tests: batched-vs-serial bit-equality over the config space.

The directed batch tests (tests/sim/test_batch.py) pin canned shapes;
these sample machine shapes — {1,2,3}-D tori, identity and collocated
mappings, both fabrics, ``network_speedup ∈ {1, 2}`` — and require the
lockstep batch engine to reproduce each seed's solo ``Machine`` run bit
for bit, whichever engine (compiled core or pure Python) the batch
machine selected for the shape.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.strategies import (
    block_collocation_mapping,
    identity_mapping,
)
from repro.sim.batch import run_batch
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.topology.graphs import ring_graph, torus_neighbor_graph
from repro.workload.synthetic import build_programs


#: (dimensions, radix) pairs kept small enough for many examples.
SHAPES = [(1, 4), (1, 8), (2, 3), (2, 4), (3, 2), (3, 3)]


@st.composite
def machine_cases(draw):
    dimensions, radix = draw(st.sampled_from(SHAPES))
    contexts = draw(st.integers(1, 2))
    return {
        "dimensions": dimensions,
        "radix": radix,
        "contexts": contexts,
        "compute": draw(st.sampled_from([8, 60, 400])),
        "switching": draw(st.sampled_from(["cut_through", "wormhole"])),
        "speedup": draw(st.sampled_from([1, 2])),
        "seed": draw(st.integers(0, 2**16)),
        "collocated": contexts == 2 and draw(st.booleans()),
    }


def build_setup(case):
    config = SimulationConfig(
        radix=case["radix"],
        dimensions=case["dimensions"],
        contexts=case["contexts"],
        compute_cycles=case["compute"],
        switching=case["switching"],
        network_speedup=case["speedup"],
        seed=case["seed"],
    )
    nodes = config.node_count
    if case["collocated"]:
        graph = ring_graph(nodes * config.contexts)
        programs = build_programs(
            graph, 1, case["compute"], config.compute_jitter
        )
        mapping = block_collocation_mapping(nodes * config.contexts, nodes)
    else:
        graph = torus_neighbor_graph(case["radix"], case["dimensions"])
        programs = build_programs(
            graph, config.contexts, case["compute"], config.compute_jitter
        )
        mapping = identity_mapping(nodes)
    return config, mapping, programs


class TestBatchParityProperties:
    @settings(max_examples=15, deadline=None)
    @given(machine_cases())
    def test_batch_is_bit_identical_to_serial_per_seed(self, case):
        config, mapping, programs = build_setup(case)
        seeds = (config.seed, config.seed + 1)
        batched = run_batch(
            config, mapping, programs, seeds, warmup=200, measure=600
        )
        for seed, summary in zip(seeds, batched):
            solo = Machine(
                config.with_seed(seed), mapping, copy.deepcopy(programs),
                engine=True,
            ).run(warmup=200, measure=600)
            batch_dict = summary.as_dict()
            solo_dict = solo.as_dict()
            assert batch_dict == solo_dict, {
                key: (batch_dict[key], solo_dict[key])
                for key in solo_dict
                if batch_dict[key] != solo_dict[key]
            }
