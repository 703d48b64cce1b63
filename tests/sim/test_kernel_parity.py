"""Cycle-exact parity: the array kernel vs the reference fabric.

``repro.sim.network.TorusFabric`` *is* the kernel
(:class:`repro.sim.kernel.FabricKernel`); the object-based implementation
it replaced survives as :class:`repro.sim.reference.ReferenceTorusFabric`
— the executable specification.  These tests pin the kernel to the
reference cycle for cycle: same delivery cycles, same per-link flit
counts, same quiescence, on the same seeded traffic — across torus
shapes at the fabric level, and across mapping modes (replicated
instances and collocation) at the machine level.
"""

import copy
import random

import pytest

from repro.mapping.strategies import (
    block_collocation_mapping,
    identity_mapping,
    random_mapping,
)
from repro.sim.kernel import FabricKernel
from repro.sim.machine import Machine
from repro.sim.message import Message, MessageKind
from repro.sim.reference import ReferenceTorusFabric
from repro.sim.config import SimulationConfig
from repro.topology.graphs import ring_graph, torus_neighbor_graph
from repro.topology.torus import Torus
from repro.workload.synthetic import build_programs

TORI = [(8, 1), (4, 2), (8, 2), (3, 3)]


def drive_fabric(fabric_cls, radix, dimensions, seed, cycles=400, rate=0.4):
    """Seeded random traffic through one fabric; full delivery record.

    ``rate`` is the mean injection attempts per cycle (values above 1
    saturate the fabric).  Returns (deliveries, link_flits,
    quiesce_cycle).  Deliveries identify worms by injection metadata,
    never by ``Message.uid`` (a process-global counter that differs
    between the two runs).
    """
    torus = Torus(radix=radix, dimensions=dimensions)
    delivered = []
    fabric = fabric_cls(torus, on_delivery=delivered.append)
    rng = random.Random(seed)
    nodes = torus.node_count
    kinds = (MessageKind.READ_REQUEST, MessageKind.DATA_REPLY)
    tag = 0
    cycle = 0
    whole, fractional = divmod(rate, 1)
    for cycle in range(cycles):
        attempts = int(whole) + (1 if rng.random() < fractional else 0)
        for _ in range(attempts):
            source = rng.randrange(nodes)
            destination = rng.randrange(nodes)
            if source == destination:
                continue
            message = Message(
                rng.choice(kinds), source, destination, (0, 0), tag
            )
            tag += 1
            fabric.inject(message, cycle)
        fabric.tick(cycle)
    while not fabric.quiescent():
        cycle += 1
        fabric.tick(cycle)
        assert cycle < cycles + 20000, "fabric did not quiesce"
    deliveries = sorted(
        (
            worm.message.transaction,
            worm.message.injected_at,
            worm.message.delivered_at,
            worm.message.source,
            worm.message.destination,
            worm.hops,
            worm.source_wait,
        )
        for worm in delivered
    )
    return deliveries, fabric.link_flits, cycle


class TestFabricParity:
    @pytest.mark.parametrize("radix,dimensions", TORI)
    def test_random_traffic_parity(self, radix, dimensions):
        reference = drive_fabric(ReferenceTorusFabric, radix, dimensions, 7)
        kernel = drive_fabric(FabricKernel, radix, dimensions, 7)
        assert kernel[0] == reference[0]  # same worms, same cycles
        assert kernel[1] == reference[1]  # same per-link flit counts
        assert kernel[2] == reference[2]  # same quiescence cycle

    def test_saturating_traffic_parity(self):
        # High injection rate forces long queues, carried candidates,
        # and release-while-granting — the arbitration corner cases.
        reference = drive_fabric(
            ReferenceTorusFabric, 4, 2, 11, cycles=300, rate=2.5
        )
        kernel = drive_fabric(FabricKernel, 4, 2, 11, cycles=300, rate=2.5)
        assert kernel == reference


def machine_summaries(config, mapping, programs):
    """The same machine run on the kernel and on the reference fabric.

    Programs carry mutable per-run state, so each machine gets its own
    deep copy — the comparison must differ only in the fabric.
    """
    kernel = Machine(
        config, mapping, copy.deepcopy(programs), engine=True
    ).run()
    reference = Machine(
        config, mapping, copy.deepcopy(programs),
        fabric_factory=ReferenceTorusFabric, engine=True,
    ).run()
    return kernel, reference


class TestMachineParity:
    def test_replicated_instances_random_mapping(self):
        config = SimulationConfig(
            radix=4, dimensions=2, contexts=2, switching="wormhole",
            warmup_network_cycles=400, measure_network_cycles=2000,
        )
        graph = torus_neighbor_graph(4, 2)
        programs = build_programs(graph, 2, config.compute_cycles, 0.5)
        mapping = random_mapping(config.node_count, seed=5)
        kernel, reference = machine_summaries(config, mapping, programs)
        assert kernel.as_dict() == reference.as_dict()

    def test_replicated_instances_identity_mapping(self):
        config = SimulationConfig(
            radix=3, dimensions=3, contexts=2, switching="wormhole",
            warmup_network_cycles=300, measure_network_cycles=1500,
        )
        graph = torus_neighbor_graph(3, 3)
        programs = build_programs(graph, 2, config.compute_cycles, 0.5)
        kernel, reference = machine_summaries(
            config, identity_mapping(config.node_count), programs
        )
        assert kernel.as_dict() == reference.as_dict()

    def test_collocation_mapping(self):
        config = SimulationConfig(
            radix=4, dimensions=2, contexts=2, switching="wormhole",
            warmup_network_cycles=400, measure_network_cycles=2000,
        )
        threads = config.node_count * config.contexts
        graph = ring_graph(threads)
        programs = build_programs(graph, 1, config.compute_cycles, 0.5)
        mapping = block_collocation_mapping(threads, config.node_count)
        kernel, reference = machine_summaries(config, mapping, programs)
        assert kernel.as_dict() == reference.as_dict()
