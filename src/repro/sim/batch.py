"""Single machines on the compiled core, and seeded runs of one config.

:class:`CoreDriver` runs one fresh :class:`~repro.sim.machine.Machine`
wholly on the compiled core (:mod:`repro.sim.batchcore`): the
processors and their thread programs, the coherence controllers, the
cut-through fabric and the event calendar run in C, one core call per
warmup or measurement window.  :meth:`Machine.run` builds the driver
whenever :func:`repro.sim.batchcore.select_core` says the core can
serve the run; nothing else does.

:func:`run_batch` runs one configuration under several root seeds, one
``Machine(config.with_seed(seed), mapping, programs)`` per seed; each
machine picks its own engine.

**Bit-exactness contract.**  The Python event calendar
(``Machine(..., engine=True)``) is the oracle: a core run's
:class:`~repro.sim.stats.MeasurementSummary` is identical to it, and so
is the state it leaves in the machine's processors — every context's
state and remaining run, each program's position, the idle and switch
counters and every node's final ``rng.getstate()``.  The ingredients:

* **Processors and RNG.**  ``Machine`` builds the processors exactly as
  for a Python run (programs placed, per-node streams spawned from the
  seed, first run lengths drawn); the driver copies their state into
  the core, which continues each node's ``random.Random`` stream as an
  MT19937 from ``getstate()`` and draws in the spec's order: a hit's
  next run at the access, a completion's at the completion cycle, a
  uniform program's target at the access.  After each window the
  processors get their state back; the streams go back through
  ``setstate()`` when the run ends.
* **Event order.**  The core's wake calendar is
  :class:`~repro.sim.engine.MachineEngine`'s: the processors due at a
  boundary tick in ascending node order, before that cycle's
  controllers (sorted by node) and the fabric tick; quiescent cycles
  are skipped with the same guards.
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
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError, SimulationError
from repro.mapping.base import Mapping
from repro.sim import batchcore
from repro.sim.config import SimulationConfig
from repro.sim.cut_through import enumerate_channels
from repro.sim.machine import _CORE_SPENT, Machine
from repro.sim.processor import ContextState
from repro.sim.stats import MeasurementSummary
from repro.sim.telemetry import TelemetryConfig
from repro.workload.base import ThreadProgram
from repro.workload.synthetic import NeighborExchangeProgram

__all__ = ["CoreDriver", "run_batch"]

#: Context states in the core's numbering (``_batchcore.c`` CTX_*).
_STATES = (ContextState.COMPUTING, ContextState.BLOCKED, ContextState.READY)
_STATE_CODES = {state: code for code, state in enumerate(_STATES)}
#: Program kinds in the core's numbering (``_batchcore.c`` PROG_*).
_NEIGHBOR, _UNIFORM = 0, 1
#: Per-node words of ``bc_get_state``: six processor fields, then three
#: per context; and the MT19937 words plus index of one stream.
_PROC_FIELDS = 6
_MT_WORDS = 625


class _CoreFabricState:
    """The machine's fabric introspection: the core fabric's counters
    as of the end of the last window."""

    __slots__ = ("link_flits", "in_flight")

    def __init__(self):
        self.link_flits: Dict[Tuple[int, int, int], int] = {}
        self.in_flight = 0


class _SpentControllers:
    """Stands in for a core-run machine's Python controllers, which the
    core never touches: any read raises instead of showing their empty
    construction-time state."""

    __slots__ = ()

    def _spent(self, *args):
        raise SimulationError(_CORE_SPENT)

    __getattr__ = __getitem__ = __iter__ = __len__ = _spent


class CoreDriver:
    """Runs one fresh machine wholly on the compiled core.

    Takes over ``machine``: its processors' state and programs are
    copied into the core and its fabric is replaced by the core
    fabric's counters, so the machine reads the state the core leaves
    behind.  Its Python controllers (``machine.controllers`` and each
    processor's ``controller``) are replaced by a stand-in that raises
    on any read.  A machine the core cannot serve raises
    :class:`~repro.errors.SimulationError` naming the reason.
    :meth:`Machine.run` builds one per core run and calls
    :meth:`run_window` per window, :meth:`start_measuring` between them
    and :meth:`finish` at the end, which frees the core.
    """

    def __init__(self, machine):
        loaded, reason = machine._core_selection()
        if loaded is None:
            raise SimulationError(
                f"CoreDriver runs only on the compiled core: {reason}; "
                "Machine.run runs such machines on the Python spec"
            )
        self.machine = machine
        config = machine.config
        torus = machine.torus
        nodes = torus.node_count
        ffi, lib = loaded
        core = lib.bc_create(
            nodes, config.dimensions, config.radix, config.cache_lines,
            config.to_network(config.request_cycles),
            config.to_network(config.receive_cycles),
            config.to_network(config.send_cycles),
            config.to_network(config.memory_cycles),
            config.contexts, config.network_speedup, config.hit_cycles,
            config.switch_cycles,
        )
        if core == ffi.NULL:
            raise MemoryError("cannot allocate the compiled core")
        self._ffi = ffi
        self._lib = lib
        self._core = ffi.gc(core, lib.bc_destroy)
        self._link_keys = enumerate_channels(torus)[2]
        self._link_buf = ffi.new("long long[]", len(self._link_keys))
        self._node_buf = ffi.new("long long[]", nodes)
        self._counter_buf = ffi.new("long long[13]")
        self._double_buf = ffi.new("double[1]")
        self._stride = _PROC_FIELDS + 3 * config.contexts
        self._state_buf = ffi.new("long long[]", nodes * self._stride)
        self._load_programs()
        self._load_state()
        self._fabric = machine.fabric = _CoreFabricState()
        spent = machine.controllers = _SpentControllers()
        for processor in machine.processors:
            processor.controller = spent

    def _load_programs(self) -> None:
        """Hand every context's program to the core.

        Each application instance gets one block per mapped thread,
        homed with its thread; block ``(instance, t)`` is ``base + t``.
        """
        machine = self.machine
        lib = self._lib
        core = self._core
        mapping = machine.mapping
        homes = [mapping.processor_of(t) for t in range(mapping.threads)]
        bases: Dict[object, int] = {}
        for processor in machine.processors:
            for index, context in enumerate(processor.contexts):
                program = context.program
                base = bases.get(program.instance)
                if base is None:
                    base = lib.bc_add_blocks(core, len(homes), homes)
                    bases[program.instance] = base
                if type(program) is NeighborExchangeProgram:
                    neighbors = list(program.neighbors)
                    kind, reads, threads = _NEIGHBOR, len(neighbors), 0
                else:
                    neighbors = self._ffi.NULL
                    kind, reads = _UNIFORM, program.reads_per_write
                    threads = program.threads
                lib.bc_set_program(
                    core, processor.node, index, kind, base, program.thread,
                    reads, threads, neighbors, program._position,
                    program.compute_cycles_mean, program.compute_jitter,
                )

    def _load_state(self) -> None:
        """Copy the processors' state and RNG streams into the core."""
        state = array("q")
        words = array("I")
        self._rng_meta = []
        for processor in self.machine.processors:
            active = processor._active
            target = processor._switch_target
            state.extend((
                -1 if active is None else active,
                processor._switch_remaining,
                -1 if target is None else target,
                processor._ready_count,
                processor.idle_cycles,
                processor.switch_count,
            ))
            for context in processor.contexts:
                state.extend((
                    _STATE_CODES[context.state],
                    context.remaining_cycles,
                    context.program._position,
                ))
            version, internal, gauss_next = processor.rng.getstate()
            words.extend(internal)
            self._rng_meta.append((version, gauss_next))
        ffi = self._ffi
        self._lib.bc_set_state(
            self._core,
            ffi.from_buffer("long long[]", state),
            ffi.from_buffer("uint32_t[]", words),
        )

    def _store_processors(self) -> None:
        """Copy the core's processor state back, RNG streams aside."""
        ffi = self._ffi
        processors = self.machine.processors
        stride = self._stride
        self._lib.bc_get_state(self._core, self._state_buf, ffi.NULL)
        state = ffi.unpack(self._state_buf, len(processors) * stride)
        for node, processor in enumerate(processors):
            row = state[node * stride:(node + 1) * stride]
            processor._active = None if row[0] < 0 else row[0]
            processor._switch_remaining = row[1]
            processor._switch_target = None if row[2] < 0 else row[2]
            processor._ready_count = row[3]
            processor.idle_cycles = row[4]
            processor.switch_count = row[5]
            for index, context in enumerate(processor.contexts):
                at = _PROC_FIELDS + 3 * index
                context.state = _STATES[row[at]]
                context.remaining_cycles = row[at + 1]
                context.program._position = row[at + 2]

    def _store_streams(self) -> None:
        """Hand every processor its RNG stream back (``setstate``)."""
        ffi = self._ffi
        processors = self.machine.processors
        rng = ffi.new("uint32_t[]", len(processors) * _MT_WORDS)
        self._lib.bc_get_state(self._core, ffi.NULL, rng)
        words = ffi.unpack(rng, len(processors) * _MT_WORDS)
        for node, processor in enumerate(processors):
            version, gauss_next = self._rng_meta[node]
            at = node * _MT_WORDS
            processor.rng.setstate(
                (version, tuple(words[at:at + _MT_WORDS]), gauss_next)
            )

    def run_window(self, cycles: int) -> None:
        """Advance the machine ``cycles`` network cycles in one core call.

        On return the processors hold the core's state as of the
        window's last processor boundary (their RNG streams excepted,
        see :meth:`finish`), as the spec leaves them.
        """
        lib = self._lib
        core = self._core
        if lib.bc_run(core, cycles) < 0:
            batchcore.raise_error(self._ffi, lib, core)
        self.machine._cycle += cycles
        self._store_processors()
        buf = self._link_buf
        lib.bc_get_link_flits(core, buf)
        keys = self._link_keys
        self._fabric.link_flits = {
            keys[i]: buf[i] for i in range(len(keys)) if buf[i]
        }
        self._fabric.in_flight = lib.bc_in_flight(core)

    def start_measuring(self) -> None:
        """Zero the core's measuring-gated counters (window start)."""
        self._lib.bc_start_measuring(self._core)

    def finish(self) -> None:
        """Copy the core's counters into machine.stats, hand the
        processors their RNG streams back and free the core."""
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
        stats.cache_hits_count = ints[12]
        stats.hop_latency_total = dbl[0]
        buf = self._node_buf
        lib.bc_get_per_node_sent(self._core, buf)
        stats.per_node_messages = {
            node: buf[node]
            for node in range(self.machine.torus.node_count)
            if buf[node]
        }
        self._store_streams()
        self._ffi.release(self._core)
        self._core = None


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
