"""Whole-machine integration tests."""

import pytest

from repro.errors import SimulationError
from repro.mapping.base import Mapping
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.sim.coherence import CacheState, DirectoryState
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.synthetic import build_programs


def build(
    contexts=1, mapping=None, switching="cut_through", radix=4, seed=5,
    engine=None,
):
    config = SimulationConfig(
        radix=radix,
        dimensions=2,
        contexts=contexts,
        switching=switching,
        seed=seed,
        warmup_network_cycles=800,
        measure_network_cycles=4000,
    )
    nodes = radix * radix
    graph = torus_neighbor_graph(radix, 2)
    programs = build_programs(
        graph, contexts, config.compute_cycles, config.compute_jitter
    )
    if mapping is None:
        mapping = identity_mapping(nodes)
    return Machine(config, mapping, programs, engine=engine)


def coherence_violations(machine):
    """Cache/directory agreement for all non-busy directory entries."""
    violations = []
    for controller in machine.controllers:
        for block, entry in controller.directory.items():
            if entry.busy:
                continue
            if entry.state is DirectoryState.MODIFIED and entry.owner is not None:
                owner = machine.controllers[entry.owner]
                if (
                    owner.cache.get(block) is not CacheState.MODIFIED
                    and block not in owner._outstanding
                ):
                    violations.append((block, "owner not modified"))
            if entry.state is DirectoryState.SHARED:
                for sharer in entry.sharers:
                    if (
                        machine.controllers[sharer].cache.get(block)
                        is CacheState.MODIFIED
                    ):
                        violations.append((block, f"sharer {sharer} modified"))
    return violations


class TestConstruction:
    def test_rejects_non_bijective_mapping(self):
        squashed = Mapping(assignment=(0,) * 16, processors=16)
        with pytest.raises(Exception):
            build(mapping=squashed)

    def test_rejects_wrong_machine_size_mapping(self):
        with pytest.raises(SimulationError):
            build(mapping=identity_mapping(64))

    def test_rejects_wrong_instance_count(self):
        config = SimulationConfig(radix=4, dimensions=2, contexts=2)
        graph = torus_neighbor_graph(4, 2)
        programs = build_programs(graph, 1, 8, 0.5)  # one instance, not two
        with pytest.raises(SimulationError):
            Machine(config, identity_mapping(16), programs)


class TestEndToEnd:
    @pytest.mark.parametrize("switching", ["cut_through", "wormhole"])
    def test_run_produces_complete_summary(self, switching):
        summary = build(switching=switching).run()
        assert summary.messages_sent > 0
        assert summary.remote_transactions > 0
        assert summary.mean_message_latency > 0
        assert 0 < summary.channel_utilization < 1
        assert summary.mean_message_flits > 0

    def test_ideal_mapping_measures_one_hop(self):
        summary = build().run()
        assert summary.mean_message_hops == pytest.approx(1.0, abs=0.01)

    def test_random_mapping_measures_expected_distance(self):
        summary = build(mapping=random_mapping(16, seed=2)).run()
        # 4x4 torus random traffic averages ~2.1 hops; a specific random
        # permutation of the neighbor graph lands near that.
        assert 1.5 < summary.mean_message_hops < 2.8

    def test_feedback_direction(self):
        # Longer distances -> higher latency -> lower injection rate.
        near = build().run()
        far = build(mapping=random_mapping(16, seed=2)).run()
        assert far.mean_message_latency > near.mean_message_latency
        assert far.message_rate < near.message_rate

    def test_messages_per_transaction_near_paper_value(self):
        summary = build(radix=8, mapping=identity_mapping(64)).run()
        # Paper: g = 3.2 a priori; dynamic hits push it slightly lower.
        assert 2.6 < summary.messages_per_transaction < 3.4

    def test_average_flits_near_twelve(self):
        summary = build().run()
        assert 10.0 < summary.mean_message_flits < 14.0

    @pytest.mark.parametrize("switching", ["cut_through", "wormhole"])
    def test_coherence_invariants_hold_after_run(self, switching):
        # Reads the Python controllers' state: pin the Python engine.
        machine = build(switching=switching, contexts=2, engine=True)
        machine.run()
        assert coherence_violations(machine) == []

    def test_step_advances_cycle(self):
        machine = build()
        machine.step()
        machine.step()
        assert machine.cycle == 2

    def test_explicit_windows_override_config(self):
        machine = build()
        summary = machine.run(warmup=100, measure=1000)
        assert summary.window_cycles == 1000
