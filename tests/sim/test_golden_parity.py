"""Cycle-exact parity against the pre-vectorization simulator.

``golden_parity.json`` was generated (by ``golden_gen.py``) from the
reference fabric implementations *before* the channel bookkeeping was
vectorized.  These tests re-run the same seeded 64-node configurations
and require identical message counts, latency/hop histograms, and
link-flit totals — any behavioral drift in the fabric hot loops fails
loudly here.
"""

import json
import os
from collections import Counter

import pytest

from repro.mapping.strategies import identity_mapping, random_mapping
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.synthetic import build_programs

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "golden_parity.json")

CASES = [
    ("cut_through", 1, "identity"),
    ("cut_through", 2, "random"),
    ("wormhole", 1, "identity"),
    ("wormhole", 2, "random"),
]


def run_case(switching: str, contexts: int, mapping_name: str) -> dict:
    config = SimulationConfig(
        contexts=contexts,
        switching=switching,
        warmup_network_cycles=0,
        measure_network_cycles=2000,
    )
    graph = torus_neighbor_graph(8, 2)
    programs = build_programs(
        graph, contexts, config.compute_cycles, config.compute_jitter
    )
    if mapping_name == "identity":
        mapping = identity_mapping(64)
    else:
        mapping = random_mapping(64, seed=7)

    latencies: Counter = Counter()
    hops: Counter = Counter()

    # The recorder hooks the Python fabric's delivery callback, so pin
    # the Python engine.
    machine = Machine(config, mapping, programs, engine=True)
    original_deliver = machine._deliver

    def recording_deliver(transit):
        message = transit.message
        original_deliver(transit)
        latencies[message.delivered_at - message.injected_at] += 1
        hops[transit.hops] += 1

    machine.fabric.on_delivery = recording_deliver
    summary = machine.run(warmup=500, measure=2000)

    return {
        "messages_sent": summary.messages_sent,
        "transactions": summary.transactions,
        "mean_message_latency": summary.mean_message_latency,
        "mean_per_hop_latency": summary.mean_per_hop_latency,
        "delivered": machine.fabric.delivered_count,
        "link_flits_total": sum(machine.fabric.link_flits.values()),
        "latency_histogram": {
            str(k): v for k, v in sorted(latencies.items())
        },
        "hop_histogram": {str(k): v for k, v in sorted(hops.items())},
    }


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "switching,contexts,mapping_name",
    CASES,
    ids=[f"{s}-p{c}-{m}" for s, c, m in CASES],
)
def test_matches_reference_simulator(golden, switching, contexts, mapping_name):
    expected = golden[f"{switching}-p{contexts}-{mapping_name}"]
    actual = run_case(switching, contexts, mapping_name)
    assert actual == expected
