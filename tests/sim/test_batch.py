"""Tests for seeded runs (:func:`run_batch`) and the core driver.

The Python spec ``Machine(..., engine=True)`` is the bit-exactness
oracle: every per-seed summary (and telemetry snapshot) out of
:func:`run_batch` must be identical to the spec run for the same seed,
in seed order — whether that seed's machine ran on the compiled core
or, when the core cannot serve it, on the Python spec.
"""

import copy

import pytest

from repro import obs
from repro.errors import ParameterError, SimulationError
from repro.mapping.strategies import (
    block_collocation_mapping,
    identity_mapping,
    random_mapping,
)
from repro.sim import batchcore
from repro.sim.batch import CoreDriver, run_batch
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.telemetry import TelemetryConfig
from repro.topology.graphs import ring_graph, torus_neighbor_graph
from repro.workload.synthetic import build_programs

CORE_LOADS = batchcore.load() is not None


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


def calendar_runs():
    """``Machine.run`` calls served by the Python event calendar so far."""
    counter = obs.REGISTRY.get("sim.engine.calendar")
    return 0 if counter is None else counter.value


class TestEngineSelection:
    """Each seed's machine runs on the core when it can, else the spec."""

    @pytest.mark.skipif(not CORE_LOADS, reason="compiled core unavailable")
    def test_eligible_batch_runs_on_the_core(self):
        config, mapping, programs = small_setup()
        seeds = (config.seed, config.seed + 1)
        before = calendar_runs()
        batched = run_batch(config, mapping, programs, seeds)
        assert calendar_runs() == before
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_wormhole_uses_python_path(self):
        config, mapping, programs = small_setup(switching="wormhole")
        seeds = (config.seed, config.seed + 1, config.seed + 2)
        before = calendar_runs()
        batched = run_batch(config, mapping, programs, seeds)
        assert calendar_runs() == before + len(seeds)
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_telemetry_uses_python_path(self):
        config, mapping, programs = small_setup()
        seeds = (config.seed, config.seed + 1)
        telemetry = TelemetryConfig(epoch_cycles=128)
        before = calendar_runs()
        batched = run_batch(
            config, mapping, programs, seeds, telemetry=telemetry
        )
        assert calendar_runs() == before + len(seeds)
        serial = serial_summaries(
            config, mapping, programs, seeds, telemetry=telemetry
        )
        assert_parity(batched, serial)
        for got, want in zip(batched, serial):
            assert got.telemetry is not None
            assert got.telemetry == want.telemetry

    def test_batch_machine_rejects_configs_the_core_cannot_serve(self):
        config, mapping, programs = small_setup(switching="wormhole")
        machine = Machine(config, mapping, programs)
        with pytest.raises(SimulationError, match="wormhole switching"):
            CoreDriver(machine)

    def test_python_batch_engine_gate_rejected(self, monkeypatch):
        config, mapping, programs = small_setup()
        monkeypatch.setenv("REPRO_BATCH_ENGINE", "py")
        with pytest.raises(SimulationError, match="engine=True"):
            run_batch(config, mapping, programs, (config.seed,))
        with pytest.raises(SimulationError, match="engine=True"):
            CoreDriver(Machine(config, mapping, programs))

    def test_invalid_engine_mode_rejected(self, monkeypatch):
        config, mapping, programs = small_setup()
        monkeypatch.setenv("REPRO_BATCH_ENGINE", "cuda")
        with pytest.raises(SimulationError):
            CoreDriver(Machine(config, mapping, programs))


class TestValidation:
    def test_empty_seed_list_rejected(self):
        config, mapping, programs = small_setup()
        with pytest.raises(ParameterError):
            run_batch(config, mapping, programs, ())

    @pytest.mark.skipif(not CORE_LOADS, reason="compiled core unavailable")
    def test_run_is_single_use(self):
        # The core keeps the machine's state after a run; a second
        # driver over the spent machine (resumed at its final cycle)
        # is refused, and so is a second run.
        config, mapping, programs = small_setup()
        machine = Machine(config, mapping, programs)
        machine.run()
        assert machine.engine_path == "core"
        with pytest.raises(SimulationError, match="resumed machine"):
            CoreDriver(machine)
        with pytest.raises(SimulationError):
            machine.run()
