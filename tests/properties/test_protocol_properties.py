"""Property-based stress tests for the coherence protocol.

Random access scripts — including remote writes, ownership steals, and
tiny caches with eviction — run on a real machine; afterwards the
machine must satisfy the cache/directory agreement invariants whenever
the protocol is quiescent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.strategies import identity_mapping, random_mapping
from repro.sim.coherence import CacheState, DirectoryState
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.workload.scripted import ScriptedProgram


def run_machine(seed, write_fraction, remote_writes, cache_lines, mapping_seed):
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        contexts=1,
        cache_lines=cache_lines,
        seed=seed,
        warmup_network_cycles=0,
        measure_network_cycles=3000,
    )
    programs = [[
        ScriptedProgram.random_script(
            0, thread, 16, length=12, seed=seed,
            write_fraction=write_fraction, remote_writes=remote_writes,
        )
        for thread in range(16)
    ]]
    mapping = (
        identity_mapping(16)
        if mapping_seed is None
        else random_mapping(16, mapping_seed)
    )
    # The invariants read the Python controllers' caches and directories,
    # so pin the Python engine (the compiled core keeps its state in C).
    machine = Machine(config, mapping, programs, engine=True)
    machine.run(warmup=0, measure=3000)
    return machine


def violations(machine):
    """Coherence invariants over non-busy directory entries."""
    found = []
    for controller in machine.controllers:
        for block, entry in controller.directory.items():
            if entry.busy:
                continue
            if entry.state is DirectoryState.SHARED:
                for sharer in entry.sharers:
                    if (
                        machine.controllers[sharer].cache.get(block)
                        is CacheState.MODIFIED
                    ):
                        found.append((block, "sharer holds M"))
            if entry.state is DirectoryState.MODIFIED:
                for node, other in enumerate(machine.controllers):
                    if node == entry.owner:
                        continue
                    if other.cache.get(block) is not None:
                        found.append((block, f"non-owner {node} holds copy"))
            if entry.state is DirectoryState.UNOWNED:
                for node, other in enumerate(machine.controllers):
                    if other.cache.get(block) is CacheState.MODIFIED:
                        found.append((block, "unowned but M cached"))
    return found


class TestProtocolStress:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        write_fraction=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
        remote_writes=st.booleans(),
    )
    def test_random_scripts_preserve_coherence(
        self, seed, write_fraction, remote_writes
    ):
        machine = run_machine(
            seed, write_fraction, remote_writes, cache_lines=0,
            mapping_seed=None,
        )
        assert violations(machine) == []

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        cache_lines=st.sampled_from([1, 2, 4]),
        mapping_seed=st.integers(0, 50),
    )
    def test_tiny_caches_with_eviction_preserve_coherence(
        self, seed, cache_lines, mapping_seed
    ):
        machine = run_machine(
            seed, write_fraction=0.5, remote_writes=True,
            cache_lines=cache_lines, mapping_seed=mapping_seed,
        )
        found = violations(machine)
        # With evictions, dir-MODIFIED vs absent-owner-copy is a legal
        # transient (writeback in flight at the cut); everything else is
        # a real violation.
        real = [v for v in found if v[1] != "owner missing"]
        assert real == []

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_transactions_conserve(self, seed):
        machine = run_machine(
            seed, write_fraction=0.3, remote_writes=True, cache_lines=0,
            mapping_seed=7,
        )
        stats = machine.stats
        # Started transactions either completed or are still outstanding.
        outstanding = sum(
            len(c._outstanding) for c in machine.controllers
        )
        completed = stats.remote_completed + stats.local_completed
        assert stats.remote_started == completed + outstanding
