"""Regenerate the simulator parity fixture (tests/sim/golden_parity.json).

Run from the repo root:

    PYTHONPATH=src python tests/sim/golden_gen.py

Wormhole cases are generated with the machine running on
``repro.sim.reference.ReferenceTorusFabric`` — the object-based
executable specification — while ``test_golden_parity.py`` replays them
on the default (array-kernel) fabric.  Fixture equality therefore *is*
the reference-vs-kernel parity check, pinned over full machine runs:
message counts, delivery counts, link-flit totals, and complete
message-latency histograms, cycle for cycle.
"""

from __future__ import annotations

import json
import os
from collections import Counter

from repro.mapping.strategies import identity_mapping, random_mapping
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.reference import ReferenceTorusFabric
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

    # The recorder hooks the Python fabric's delivery callback, and the
    # fixture must come from the Python spec, so pin the Python engine.
    factory = ReferenceTorusFabric if switching == "wormhole" else None
    machine = Machine(
        config, mapping, programs, fabric_factory=factory, engine=True
    )
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


def main() -> None:
    golden = {
        f"{switching}-p{contexts}-{mapping}": run_case(
            switching, contexts, mapping
        )
        for switching, contexts, mapping in CASES
    }
    with open(FIXTURE, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
