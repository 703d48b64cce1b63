"""Single machines on the compiled core, and seeded runs of one config.

:class:`CoreDriver` runs one fresh :class:`~repro.sim.machine.Machine`
on the compiled core (:mod:`repro.sim.batchcore`, a port of
:mod:`repro.sim.coherence` and :mod:`repro.sim.cut_through`): the
coherence controllers, the cut-through fabric and the per-cycle loop
run in C, while Python keeps the machine's own processors — their RNG
draw order defines bit-exactness.  :meth:`Machine.run` builds the
driver whenever :func:`repro.sim.batchcore.select_core` says the core
can serve the run; nothing else does.

:func:`run_batch` runs one configuration under several root seeds, one
``Machine(config.with_seed(seed), mapping, programs)`` per seed; each
machine picks its own engine.

**Bit-exactness contract.**  The Python event calendar
(``Machine(..., engine=True)``) is the oracle: a core run's
:class:`~repro.sim.stats.MeasurementSummary` is identical to it.  The
ingredients:

* **Processors.**  The driver keeps the machine's processors, built by
  ``Machine`` exactly as for a Python run (programs placed, per-node
  RNG streams spawned from the seed), and swaps only their controller
  for a proxy into the core.
* **Event order.**  :class:`CoreDriver` is a
  :class:`~repro.sim.engine.MachineEngine`: the same wake calendar and
  processor-boundary visit (ascending node order) drive the
  processors, and ``bc_advance`` runs controllers sorted by node, then
  the fabric tick, between two processor boundaries, skipping
  quiescent cycles with the calendar's guards.
* **Protocol and fabric order.**  The core executes the same protocol
  events at the same occupancy boundaries in the same FIFO order as
  :class:`~repro.sim.coherence.CoherenceController`, and replicates
  :class:`~repro.sim.cut_through.CutThroughFabric`'s grant walk, pending
  activation order and delivery scheduling.  Directory sharers are a
  per-block bitmap, so a home's invalidations go out in ascending node
  id, the order the spec fixes.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError, SimulationError
from repro.mapping.base import Mapping
from repro.sim import batchcore
from repro.sim.config import SimulationConfig
from repro.sim.cut_through import enumerate_channels
from repro.sim.engine import MachineEngine
from repro.sim.machine import Machine
from repro.sim.stats import MeasurementSummary
from repro.sim.telemetry import TelemetryConfig
from repro.workload.base import ThreadProgram

__all__ = ["CoreDriver", "run_batch"]


class _CoreController:
    """Processor-facing view of one node's controller in the core."""

    __slots__ = ("node", "_driver", "_lib", "_core")

    def __init__(self, driver: "CoreDriver", node: int):
        self.node = node
        self._driver = driver
        self._lib = driver._lib
        self._core = driver._core

    def is_hit(self, block, is_write):
        driver = self._driver
        block_id = driver._block_ids.get(block)
        if block_id is None:
            block_id = driver._intern_block(block)
        return bool(
            self._lib.bc_is_hit(self._core, self.node, block_id, is_write)
        )

    def record_access(self, block):
        block_id = self._driver._block_ids.get(block)
        if block_id is not None:
            self._lib.bc_record_access(self._core, self.node, block_id)

    def request(self, block, is_write, cycle, callback):
        driver = self._driver
        block_id = driver._block_ids.get(block)
        if block_id is None:
            block_id = driver._intern_block(block)
        handle = driver._next_handle
        driver._next_handle = handle + 1
        driver._callbacks[handle] = callback
        self._lib.bc_request(
            self._core, self.node, block_id, bool(is_write), cycle, handle
        )


class _CoreFabricView:
    """The machine's fabric introspection, backed by core counters."""

    __slots__ = ("_driver",)

    def __init__(self, driver: "CoreDriver"):
        self._driver = driver

    @property
    def link_flits(self) -> Dict[Tuple[int, int, int], int]:
        driver = self._driver
        buf = driver._link_buf
        driver._lib.bc_get_link_flits(driver._core, buf)
        keys = driver._link_keys
        return {keys[i]: buf[i] for i in range(len(keys)) if buf[i]}

    @property
    def in_flight(self) -> int:
        return self._driver._lib.bc_in_flight(self._driver._core)


class CoreDriver(MachineEngine):
    """Drives one fresh machine's run on the compiled core.

    Takes over ``machine``: its processors stay (the wake calendar of
    :class:`~repro.sim.engine.MachineEngine` drives them), while its
    controllers and fabric are replaced by views into the core, so the
    machine reads the state the core leaves behind.  A machine the core
    cannot serve raises :class:`~repro.errors.SimulationError` naming
    the reason.  :meth:`Machine.run` builds one per core run.
    """

    def __init__(self, machine):
        loaded, reason = machine._core_selection()
        if loaded is None:
            raise SimulationError(
                f"CoreDriver runs only on the compiled core: {reason}; "
                "Machine.run runs such machines on the Python spec"
            )
        super().__init__(machine)
        config = machine.config
        torus = machine.torus
        mapping = machine.mapping
        nodes = torus.node_count
        ffi, lib = loaded
        core = lib.bc_create(
            nodes, config.dimensions, config.radix, config.cache_lines,
            config.to_network(config.request_cycles),
            config.to_network(config.receive_cycles),
            config.to_network(config.send_cycles),
            config.to_network(config.memory_cycles),
        )
        if core == ffi.NULL:
            raise MemoryError("cannot allocate the compiled core")
        self._ffi = ffi
        self._lib = lib
        self._core = ffi.gc(core, lib.bc_destroy)
        self._homes = [mapping.processor_of(t) for t in range(mapping.threads)]
        self._block_ids: Dict[Tuple[int, int], int] = {}
        self._callbacks: Dict[int, object] = {}
        self._next_handle = 0
        self._link_keys = enumerate_channels(torus)[2]
        self._link_buf = ffi.new("long long[]", len(self._link_keys))
        self._node_buf = ffi.new("long long[]", nodes)
        self._counter_buf = ffi.new("long long[12]")
        self._double_buf = ffi.new("double[1]")
        machine.controllers = [_CoreController(self, n) for n in range(nodes)]
        machine.fabric = _CoreFabricView(self)
        for processor in machine.processors:
            processor.controller = machine.controllers[processor.node]

    def _intern_block(self, block: Tuple[int, int]) -> int:
        """Assign a dense core id to a block tuple (instance, thread)."""
        block_id = self._lib.bc_add_block(self._core, self._homes[block[1]])
        self._block_ids[block] = block_id
        return block_id

    def start_measuring(self) -> None:
        """Zero the core's measuring-gated counters (window start)."""
        self._lib.bc_start_measuring(self._core)

    def merge_stats(self) -> None:
        """Copy the core's measuring-gated counters into machine.stats."""
        lib = self._lib
        ints = self._counter_buf
        dbl = self._double_buf
        lib.bc_get_counters(self._core, ints, dbl)
        stats = self.machine.stats
        stats.messages_sent = ints[0]
        stats.message_flits = ints[1]
        stats.message_flits_squared = ints[2]
        stats.messages_delivered = ints[3]
        stats.message_latency_total = ints[4]
        stats.message_hops_total = ints[5]
        stats.hop_latency_count = ints[6]
        stats.remote_started = ints[7]
        stats.remote_completed = ints[8]
        stats.local_completed = ints[9]
        stats.transaction_latency_total = ints[10]
        stats.cache_evictions_count = ints[11]
        stats.hop_latency_total = dbl[0]
        buf = self._node_buf
        lib.bc_get_per_node_sent(self._core, buf)
        stats.per_node_messages = {
            node: buf[node]
            for node in range(self.machine.torus.node_count)
            if buf[node]
        }

    def run_window(self, cycles: int) -> None:
        """Advance the machine ``cycles`` network cycles.

        Python visits the processor boundaries; ``bc_advance`` runs the
        controllers and the fabric up to the next one (the earliest wake
        heap entry or post-wake boundary) and returns early whenever a
        cycle completed a memory transaction, so the completion
        callbacks — order-preserved, processor-state-only — run here
        before the boundary is recomputed.
        """
        machine = self.machine
        lib = self._lib
        core = self._core
        speedup = self.speedup
        heap = self._heap
        woken = self._woken
        visit = self._visit
        pop = self._callbacks.pop
        cycle = machine._cycle
        end = cycle + cycles
        while cycle < end:
            if cycle % speedup == 0:
                visit(cycle)
            stop = end
            if heap:
                due = heap[0][0] * speedup
                if due < stop:
                    stop = due
            if woken:
                due = cycle + 1
                rem = due % speedup
                if rem:
                    due += speedup - rem
                if due < stop:
                    stop = due
            cycle = lib.bc_advance(core, stop)
            if cycle < 0:
                batchcore.raise_error(self._ffi, lib, core)
            count = lib.bc_comp_count(core)
            if count:
                buf = lib.bc_comp_ptr(core)
                for i in range(count):
                    pop(buf[2 * i])(buf[2 * i + 1])
                lib.bc_comp_clear(core)
        machine._cycle = end
        if cycles > 0:
            self._flush((end - 1) // speedup)


def run_batch(
    config: SimulationConfig,
    mapping: Mapping,
    programs: Sequence[Sequence[ThreadProgram]],
    seeds: Sequence[int],
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> List[MeasurementSummary]:
    """Run one machine per seed; summaries in seed order.

    Each summary (and telemetry snapshot, with a ``telemetry`` config)
    is that of ``Machine(config.with_seed(seed), mapping, programs)
    .run(...)``: every seed is an ordinary machine run, on the compiled
    core when it can serve it and on the Python spec otherwise.
    Programs are deep-copied per seed; callers pass the pristine
    originals.
    """
    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise ParameterError("need at least one replication seed")
    summaries = []
    for seed in seeds:
        machine = Machine(
            config.with_seed(seed), mapping, copy.deepcopy(programs)
        )
        if telemetry is not None:
            machine.attach_telemetry(telemetry)
        summaries.append(machine.run(warmup=warmup, measure=measure))
    return summaries
