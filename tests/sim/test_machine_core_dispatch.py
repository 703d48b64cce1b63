"""Single ``Machine.run`` calls on the compiled core.

A fresh, uninstrumented cut-through machine runs as a one-lane
:class:`~repro.sim.batch.BatchMachine` on the C core.  The Python event
calendar (``engine=True``) stays the spec: these tests pin the default
path to it on the two shapes the benchmark times (the Section 3.3
validation torus and the replication torus), check that every run
records which engine served it and why, that an unavailable core
degrades loudly, and that a machine finished on the core refuses to
simulate further.
"""

import copy
import warnings

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.mapping import paper_mapping_suite
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.sim import batchcore
from repro.sim.batch import BatchMachine
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.reference import ReferenceTorusFabric
from repro.sim.telemetry import TelemetryConfig
from repro.sim.trace import Tracer
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus
from repro.workload.synthetic import build_programs

CORE_LOADS = batchcore.load() is not None


def expected_default_path():
    """What a default eligible run should use in this environment."""
    if CORE_LOADS and batchcore.engine_mode() != "py":
        return "core"
    return "calendar"


def setup(radix=4, contexts=1, switching="cut_through", **overrides):
    config = SimulationConfig(
        radix=radix, dimensions=2, contexts=contexts, switching=switching,
        warmup_network_cycles=200, measure_network_cycles=600, **overrides,
    )
    graph = torus_neighbor_graph(radix, 2)
    programs = build_programs(
        graph, contexts, config.compute_cycles, config.compute_jitter
    )
    return config, identity_mapping(config.node_count), programs


def default_and_spec(config, mapping, programs, warmup, measure):
    machine = Machine(config, mapping, copy.deepcopy(programs))
    default = machine.run(warmup=warmup, measure=measure)
    spec = Machine(
        config, mapping, copy.deepcopy(programs), engine=True
    ).run(warmup=warmup, measure=measure)
    return machine, default, spec


def assert_same(default, spec):
    got, want = default.as_dict(), spec.as_dict()
    assert got == want, {
        key: (got[key], want[key]) for key in want if got[key] != want[key]
    }


class TestParityWithSpec:
    @pytest.fixture(scope="class")
    def suite(self):
        torus = Torus(radix=8, dimensions=2)
        return paper_mapping_suite(torus, adversarial_steps=300)

    @pytest.mark.parametrize("contexts", [1, 2, 4])
    def test_validation_shape(self, suite, contexts):
        # The Section 3.3 arrangement: 64-node radix-8 torus, paper
        # mapping suite (the ideal, a middle and the farthest mapping).
        config = SimulationConfig(contexts=contexts, seed=11)
        graph = torus_neighbor_graph(8, 2)
        programs = build_programs(
            graph, contexts, config.compute_cycles, config.compute_jitter
        )
        picked = [suite[0], suite[len(suite) // 2], suite[-1]]
        for named in picked:
            machine, default, spec = default_and_spec(
                config, named.mapping, programs, warmup=300, measure=900
            )
            assert machine.engine_path == expected_default_path()
            assert_same(default, spec)

    def test_replicate_benchmark_shape(self):
        # Radix 16, 4 contexts, random mapping: the heavily loaded
        # 256-node machine of the replication benchmark.
        config = SimulationConfig(radix=16, contexts=4, seed=5)
        graph = torus_neighbor_graph(16, 2)
        programs = build_programs(
            graph, 4, config.compute_cycles, config.compute_jitter
        )
        mapping = random_mapping(config.node_count, seed=5)
        machine, default, spec = default_and_spec(
            config, mapping, programs, warmup=150, measure=450
        )
        assert machine.engine_path == expected_default_path()
        assert default.messages_sent > 0
        assert_same(default, spec)


class TestProvenance:
    def run(self, machine):
        machine.run()
        return machine.engine_path, machine.engine_reason

    def test_default_records_path(self):
        config, mapping, programs = setup()
        path, reason = self.run(Machine(config, mapping, programs))
        assert path == expected_default_path()
        assert reason

    def test_pins(self):
        config, mapping, programs = setup()
        assert self.run(
            Machine(config, mapping, copy.deepcopy(programs), engine=True)
        )[0] == "calendar"
        assert self.run(
            Machine(config, mapping, copy.deepcopy(programs), engine=False)
        )[0] == "loop"

    def test_sim_engine_gate_selects_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "0")
        config, mapping, programs = setup()
        path, reason = self.run(Machine(config, mapping, programs))
        assert path == "loop" and "REPRO_SIM_ENGINE" in reason

    def test_batch_engine_py_keeps_default_off_the_core(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_ENGINE", "py")
        config, mapping, programs = setup()
        path, reason = self.run(Machine(config, mapping, programs))
        assert path == "calendar" and "REPRO_BATCH_ENGINE=py" in reason

    def test_wormhole_stays_on_python(self):
        config, mapping, programs = setup(switching="wormhole")
        path, reason = self.run(Machine(config, mapping, programs))
        assert path == "calendar" and "wormhole" in reason

    def test_fabric_factory_stays_on_python(self):
        config, mapping, programs = setup()
        machine = Machine(
            config, mapping, programs, fabric_factory=ReferenceTorusFabric
        )
        path, reason = self.run(machine)
        assert path == "calendar" and "fabric_factory" in reason

    def test_tracer_stays_on_python(self):
        config, mapping, programs = setup()
        machine = Machine(config, mapping, programs)
        machine.attach_tracer(Tracer(sample_interval=100))
        path, reason = self.run(machine)
        assert path == "calendar" and "tracer" in reason

    def test_telemetry_stays_on_python(self):
        config, mapping, programs = setup()
        machine = Machine(config, mapping, programs)
        machine.attach_telemetry(TelemetryConfig(epoch_cycles=128))
        path, reason = self.run(machine)
        assert path == "calendar" and "telemetry" in reason

    def test_resumed_machine_stays_on_python(self):
        config, mapping, programs = setup()
        machine = Machine(config, mapping, programs)
        machine.step()
        path, reason = self.run(machine)
        assert path == "calendar" and "resumed" in reason

    def test_registry_counts_each_path(self):
        config, mapping, programs = setup()

        def count(path):
            counter = obs.REGISTRY.get(f"sim.engine.{path}")
            return 0 if counter is None else counter.value

        before = {p: count(p) for p in ("core", "calendar", "loop")}
        Machine(config, mapping, copy.deepcopy(programs)).run()
        Machine(config, mapping, copy.deepcopy(programs), engine=True).run()
        Machine(config, mapping, copy.deepcopy(programs), engine=False).run()
        default = expected_default_path()
        assert count("loop") == before["loop"] + 1
        assert count(default) == before[default] + (
            2 if default == "calendar" else 1
        )


class TestFallback:
    @pytest.fixture
    def no_core(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_ENGINE", raising=False)
        monkeypatch.setattr(batchcore, "load", lambda: None)
        monkeypatch.setattr(batchcore, "load_failure", lambda: "no compiler")
        monkeypatch.setattr(batchcore, "_warned", False)

    def test_auto_falls_back_loudly_once(self, no_core):
        config, mapping, programs = setup()
        counter = obs.REGISTRY.counter("sim.engine.core_fallback")
        before = counter.value
        with pytest.warns(batchcore.CoreFallbackWarning, match="no compiler"):
            machine = Machine(config, mapping, copy.deepcopy(programs))
            summary = machine.run()
        assert machine.engine_path == "calendar"
        assert "no compiler" in machine.engine_reason
        with warnings.catch_warnings():
            warnings.simplefilter("error", batchcore.CoreFallbackWarning)
            again = Machine(config, mapping, copy.deepcopy(programs))
            assert again.run().as_dict() == summary.as_dict()
        assert counter.value == before + 2

    def test_batch_falls_back_too(self, no_core):
        config, mapping, programs = setup()
        with pytest.warns(batchcore.CoreFallbackWarning):
            batch = BatchMachine(config, mapping, programs, (config.seed,))
        assert batch.engine == "py"

    def test_forced_core_raises_when_unavailable(self, no_core, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_ENGINE", "c")
        config, mapping, programs = setup()
        with pytest.raises(SimulationError, match="no compiler"):
            Machine(config, mapping, programs).run()

    def test_forced_core_leaves_ineligible_runs_alone(
        self, no_core, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BATCH_ENGINE", "c")
        config, mapping, programs = setup(switching="wormhole")
        machine = Machine(config, mapping, programs)
        machine.run()
        assert machine.engine_path == "calendar"


@pytest.mark.skipif(
    not CORE_LOADS, reason=f"core unavailable: {batchcore.load_failure()}"
)
class TestStateAfterCoreRun:
    @pytest.fixture
    def finished(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        config, mapping, programs = setup(contexts=2)
        machine = Machine(config, mapping, copy.deepcopy(programs))
        summary = machine.run(warmup=150, measure=450)
        assert machine.engine_path == "core"
        return machine, summary, (config, mapping, programs)

    def test_cycle_and_summary_reflect_the_core_run(self, finished):
        machine, summary, _ = finished
        assert machine.cycle == 150 + 450
        assert machine.summary().as_dict() == summary.as_dict()

    def test_fabric_reads_the_core_state(self, finished):
        machine, _, (config, mapping, programs) = finished
        spec = Machine(config, mapping, programs, engine=True)
        spec.run(warmup=150, measure=450)
        assert sum(machine.fabric.link_flits.values()) > 0
        assert machine.fabric.link_flits == spec.fabric.link_flits
        assert machine.fabric.in_flight == spec.fabric.in_flight

    def test_further_simulation_raises(self, finished):
        machine, _, _ = finished
        with pytest.raises(SimulationError, match="compiled core"):
            machine.step()
        with pytest.raises(SimulationError, match="compiled core"):
            machine.run()
