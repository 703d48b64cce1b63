"""Tests for the lockstep batched replication engine.

The serial ``Machine`` is the bit-exactness oracle: every per-seed
summary (and telemetry snapshot) out of :class:`BatchMachine` must be
identical to the solo run for the same seed, in seed order.
"""

import copy

import pytest

from repro.errors import ParameterError, SimulationError
from repro.mapping.strategies import (
    block_collocation_mapping,
    identity_mapping,
    random_mapping,
)
from repro.sim.batch import BatchMachine, run_batch
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.telemetry import TelemetryConfig
from repro.topology.graphs import ring_graph, torus_neighbor_graph
from repro.workload.synthetic import build_programs


def small_setup(radix=4, dimensions=2, contexts=2, switching="cut_through",
                speedup=1, mapping_kind="random"):
    config = SimulationConfig(
        radix=radix, dimensions=dimensions, contexts=contexts,
        switching=switching, network_speedup=speedup,
        warmup_network_cycles=200, measure_network_cycles=800,
    )
    nodes = config.node_count
    if mapping_kind == "collocated":
        graph = ring_graph(nodes * contexts)
        programs = build_programs(
            graph, 1, config.compute_cycles, config.compute_jitter
        )
        mapping = block_collocation_mapping(nodes * contexts, nodes)
    else:
        graph = torus_neighbor_graph(radix, dimensions)
        programs = build_programs(
            graph, contexts, config.compute_cycles, config.compute_jitter
        )
        mapping = (
            identity_mapping(nodes)
            if mapping_kind == "identity"
            else random_mapping(nodes, seed=radix)
        )
    return config, mapping, programs


def serial_summaries(config, mapping, programs, seeds, telemetry=None):
    """The Python spec's per-seed summaries (``engine=True`` pins it)."""
    summaries = []
    for seed in seeds:
        machine = Machine(
            config.with_seed(seed), mapping, copy.deepcopy(programs),
            engine=True,
        )
        if telemetry is not None:
            machine.attach_telemetry(telemetry)
        summaries.append(machine.run())
    return summaries


def assert_parity(batched, serial):
    assert len(batched) == len(serial)
    for got, want in zip(batched, serial):
        assert got.as_dict() == want.as_dict(), {
            key: (got.as_dict()[key], want.as_dict()[key])
            for key in want.as_dict()
            if got.as_dict()[key] != want.as_dict()[key]
        }


class TestBatchParity:
    def test_cut_through_matches_serial_per_seed(self):
        config, mapping, programs = small_setup()
        seeds = (config.seed, config.seed + 1, config.seed + 2)
        batched = run_batch(config, mapping, programs, seeds)
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_wormhole_matches_serial_per_seed(self):
        config, mapping, programs = small_setup(switching="wormhole")
        seeds = (config.seed, config.seed + 1)
        batched = run_batch(config, mapping, programs, seeds)
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_three_dimensional_identity_mapping(self):
        config, mapping, programs = small_setup(
            radix=3, dimensions=3, mapping_kind="identity"
        )
        seeds = (config.seed, config.seed + 1)
        batched = run_batch(config, mapping, programs, seeds)
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_network_speedup_two(self):
        config, mapping, programs = small_setup(speedup=2)
        seeds = (config.seed, config.seed + 1)
        batched = run_batch(config, mapping, programs, seeds)
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_collocated_threads(self):
        config, mapping, programs = small_setup(mapping_kind="collocated")
        seeds = (config.seed, config.seed + 1)
        batched = run_batch(config, mapping, programs, seeds)
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_telemetry_snapshots_match_serial(self):
        config, mapping, programs = small_setup()
        seeds = (config.seed, config.seed + 1)
        telemetry = TelemetryConfig(epoch_cycles=128)
        batched = run_batch(
            config, mapping, programs, seeds, telemetry=telemetry
        )
        serial = serial_summaries(
            config, mapping, programs, seeds, telemetry=telemetry
        )
        assert_parity(batched, serial)
        for got, want in zip(batched, serial):
            assert got.telemetry == want.telemetry
            assert got.telemetry is not None

    def test_programs_not_mutated(self):
        # run_batch deep-copies per replication; the caller's pristine
        # originals must come back with their cursors untouched.
        config, mapping, programs = small_setup()
        positions = [
            [program._position for program in instance]
            for instance in programs
        ]
        run_batch(config, mapping, programs, (config.seed,))
        assert positions == [
            [program._position for program in instance]
            for instance in programs
        ]


class TestEngineSelection:
    def test_engine_attribute_is_reported(self):
        config, mapping, programs = small_setup()
        machine = BatchMachine(config, mapping, programs, (config.seed,))
        assert machine.engine in ("c", "py")

    def test_forced_python_engine_matches_default(self, monkeypatch):
        config, mapping, programs = small_setup()
        seeds = (config.seed, config.seed + 1)
        default = run_batch(config, mapping, programs, seeds)
        monkeypatch.setenv("REPRO_BATCH_ENGINE", "py")
        machine = BatchMachine(config, mapping, programs, seeds)
        assert machine.engine == "py"
        assert_parity(machine.run(), default)

    def test_wormhole_uses_python_path(self):
        config, mapping, programs = small_setup(switching="wormhole")
        machine = BatchMachine(config, mapping, programs, (config.seed,))
        assert machine.engine == "py"

    def test_telemetry_uses_python_path(self):
        config, mapping, programs = small_setup()
        machine = BatchMachine(
            config, mapping, programs, (config.seed,),
            telemetry=TelemetryConfig(epoch_cycles=128),
        )
        assert machine.engine == "py"

    def test_invalid_engine_mode_rejected(self, monkeypatch):
        config, mapping, programs = small_setup()
        monkeypatch.setenv("REPRO_BATCH_ENGINE", "cuda")
        with pytest.raises(SimulationError):
            BatchMachine(config, mapping, programs, (config.seed,))


class TestValidation:
    def test_empty_seed_list_rejected(self):
        config, mapping, programs = small_setup()
        with pytest.raises(ParameterError):
            BatchMachine(config, mapping, programs, ())

    def test_run_is_single_use(self):
        config, mapping, programs = small_setup()
        machine = BatchMachine(config, mapping, programs, (config.seed,))
        machine.run()
        with pytest.raises(SimulationError):
            machine.run()
