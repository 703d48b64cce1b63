"""Whole machines on the compiled core against the Python spec.

The core runs the processors, their thread programs and every node's
RNG stream as well as the controllers and fabric.  A core run must
leave exactly what ``Machine(..., engine=True)`` leaves: the same
summary, and processors in the same state — context states, remaining
runs, program positions, idle and switch counters and each node's
final ``rng.getstate()``.  Programs the core has no port of run on
the Python calendar, and the engine reason names their type.
"""

import copy

import pytest

from repro.errors import SimulationError
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.sim import batchcore
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.generators import (
    HotSpotProgram,
    PermutationProgram,
    transpose_partners,
    uniform_random_graph_programs,
)
from repro.workload.scripted import ScriptedProgram
from repro.workload.synthetic import NeighborExchangeProgram, build_programs

CORE_LOADS = batchcore.load() is not None
needs_core = pytest.mark.skipif(
    not CORE_LOADS, reason=f"core unavailable: {batchcore.load_failure()}"
)


def processor_state(processor):
    return (
        processor._active,
        processor._switch_remaining,
        processor._switch_target,
        processor._ready_count,
        processor.idle_cycles,
        processor.switch_count,
        [
            (c.state, c.remaining_cycles, c.program._position)
            for c in processor.contexts
        ],
        processor.rng.getstate(),
    )


def run_both(config, mapping, programs, warmup=300, measure=900):
    core = Machine(config, mapping, copy.deepcopy(programs))
    got = core.run(warmup=warmup, measure=measure)
    spec = Machine(config, mapping, copy.deepcopy(programs), engine=True)
    want = spec.run(warmup=warmup, measure=measure)
    return core, got, spec, want


def assert_core_matches_spec(config, mapping, programs, **windows):
    core, got, spec, want = run_both(config, mapping, programs, **windows)
    assert core.engine_path == "core", core.engine_reason
    assert got.as_dict() == want.as_dict()
    for mine, theirs in zip(core.processors, spec.processors):
        assert processor_state(mine) == processor_state(theirs), mine.node
    return got


def neighbor_setup(radix=4, contexts=2, seed=3, **overrides):
    config = SimulationConfig(
        radix=radix, contexts=contexts, seed=seed, **overrides
    )
    programs = build_programs(
        torus_neighbor_graph(radix, 2), contexts, config.compute_cycles,
        config.compute_jitter,
    )
    return config, random_mapping(config.node_count, seed=seed), programs


@needs_core
class TestParity:
    @pytest.mark.parametrize("contexts", [1, 2, 4])
    @pytest.mark.parametrize("switch_cycles", [0, 11])
    @pytest.mark.parametrize("speedup", [1, 2])
    def test_contexts_switch_and_speedup(
        self, contexts, switch_cycles, speedup
    ):
        config, mapping, programs = neighbor_setup(
            contexts=contexts, switch_cycles=switch_cycles,
            network_speedup=speedup,
        )
        summary = assert_core_matches_spec(config, mapping, programs)
        assert summary.messages_sent > 0

    def test_validation_machine(self):
        config, mapping, programs = neighbor_setup(radix=8, contexts=4, seed=9)
        assert_core_matches_spec(config, mapping, programs)

    def test_hit_cycles(self):
        config, mapping, programs = neighbor_setup(hit_cycles=3)
        summary = assert_core_matches_spec(config, mapping, programs)
        assert summary.cache_hits > 0

    def test_no_jitter(self):
        config, mapping, programs = neighbor_setup(compute_jitter=0.0)
        assert_core_matches_spec(config, mapping, programs)

    @pytest.mark.parametrize("contexts", [1, 4])
    def test_bounded_cache(self, contexts):
        config, mapping, programs = neighbor_setup(
            contexts=contexts, cache_lines=2
        )
        summary = assert_core_matches_spec(config, mapping, programs)
        assert summary.cache_evictions > 0

    def test_uniform_random_programs(self):
        config = SimulationConfig(radix=4, contexts=2, seed=4, cache_lines=3)
        programs = uniform_random_graph_programs(
            torus_neighbor_graph(4, 2), 2, config.compute_cycles,
            config.compute_jitter,
        )
        assert_core_matches_spec(
            config, identity_mapping(config.node_count), programs
        )

    def test_light_traffic(self):
        config, mapping, programs = neighbor_setup(compute_cycles=300)
        assert_core_matches_spec(config, mapping, programs)

    def test_python_controllers_are_retired(self):
        # The core holds the caches and directories; the Python
        # controllers built with the machine never see the run, so
        # reading them must fail rather than show their empty state.
        config, mapping, programs = neighbor_setup()
        core, _, _, _ = run_both(config, mapping, programs)
        with pytest.raises(SimulationError, match="compiled core"):
            core.controllers[0]
        with pytest.raises(SimulationError, match="compiled core"):
            list(core.controllers)
        with pytest.raises(SimulationError, match="compiled core"):
            core.processors[0].controller.directory


class TestProgramsOffTheCore:
    def run(self, programs, contexts=1):
        config = SimulationConfig(
            radix=4, contexts=contexts, warmup_network_cycles=100,
            measure_network_cycles=300,
        )
        mapping = identity_mapping(config.node_count)
        machine = Machine(config, mapping, programs)
        machine.run()
        return machine

    def test_scripted_programs(self):
        programs = [[
            ScriptedProgram([((0, (t + 1) % 16), False), ((0, t), True)])
            for t in range(16)
        ]]
        machine = self.run(programs)
        assert machine.engine_path == "calendar"
        assert "ScriptedProgram" in machine.engine_reason

    def test_permutation_programs(self):
        partners = transpose_partners(4)
        programs = [[
            PermutationProgram(
                instance=0, thread=t, partner=partners[t],
                compute_cycles_mean=8,
            )
            for t in range(16)
        ]]
        machine = self.run(programs)
        assert machine.engine_path == "calendar"
        assert "PermutationProgram" in machine.engine_reason

    def test_hot_spot_programs(self):
        programs = [[
            HotSpotProgram(
                instance=0, thread=t, threads=16, hot_thread=0,
                hot_fraction=0.25, compute_cycles_mean=8,
            )
            for t in range(16)
        ]]
        machine = self.run(programs)
        assert machine.engine_path == "calendar"
        assert "HotSpotProgram" in machine.engine_reason

    def test_subclass_is_not_the_ported_program(self):
        class Tweaked(NeighborExchangeProgram):
            pass

        programs = [[
            Tweaked(instance=0, thread=t, neighbors=[(t + 1) % 16],
                    compute_cycles_mean=8)
            for t in range(16)
        ]]
        machine = self.run(programs)
        assert machine.engine_path == "calendar"
        assert "Tweaked" in machine.engine_reason

    def test_non_integer_run_length(self):
        programs = [[
            NeighborExchangeProgram(
                instance=0, thread=t, neighbors=[(t + 1) % 16],
                compute_cycles_mean=8.0,
            )
            for t in range(16)
        ]]
        machine = self.run(programs)
        assert machine.engine_path == "calendar"
        assert "range" in machine.engine_reason

    def test_shared_program_object(self):
        shared = NeighborExchangeProgram(
            instance=0, thread=0, neighbors=[1], compute_cycles_mean=8
        )
        programs = [[shared] + [
            NeighborExchangeProgram(
                instance=0, thread=t, neighbors=[(t + 1) % 16],
                compute_cycles_mean=8,
            )
            for t in range(1, 16)
        ]] * 2
        machine = self.run(programs, contexts=2)
        assert machine.engine_path == "calendar"
        assert "more than one context" in machine.engine_reason

    def test_reason_is_checked_before_the_core_is_asked(self):
        programs = [ScriptedProgram([((0, 1), False)])]
        reason = batchcore.program_reason(programs, threads=16)
        assert reason == "ScriptedProgram programs have no compiled core"
        ported = [
            NeighborExchangeProgram(
                instance=0, thread=0, neighbors=[1, 15], compute_cycles_mean=8
            )
        ]
        assert batchcore.program_reason(ported, threads=16) is None
        assert "thread ids" in batchcore.program_reason(ported, threads=8)
