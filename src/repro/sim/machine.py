"""Whole-machine assembly and the simulation run loop.

A :class:`Machine` wires together the torus fabric, one coherence
controller and one multithreaded processor per node, and the workload's
thread programs placed according to a thread-to-processor mapping.  Data
is allocated with its owning thread (Section 3.2's "single word of state
in local memory"), so the mapping simultaneously determines thread
placement and cache-line homes — changing the mapping is exactly how the
paper sweeps average communication distance.

The machine advances in network cycles; processors tick on every
``network_speedup``-th cycle.  A run consists of a warmup window (caches
fill, the protocol reaches steady state) followed by a measurement
window, after which :meth:`Machine.run` returns the
:class:`~repro.sim.stats.MeasurementSummary`.

A fresh, uninstrumented cut-through machine runs on the compiled C
core (:mod:`repro.sim.batchcore`) as a one-lane
:class:`~repro.sim.batch.BatchMachine`; everything else runs on the
Python event calendar (:mod:`repro.sim.engine`) or the per-cycle step
loop.  All three paths produce identical summaries; ``engine_path`` and
``engine_reason`` record which one ran and why.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.mapping.base import Mapping
from repro.sim import batchcore
from repro.sim.coherence import Block, CoherenceController
from repro.sim.config import SimulationConfig
from repro.sim.cut_through import CutThroughFabric
from repro.sim.engine import MachineEngine, engine_enabled_default
from repro.sim.message import Message
from repro.sim.network import TorusFabric
from repro.sim.processor import Processor
from repro.sim.stats import MachineStats, MeasurementSummary
from repro.topology.torus import Torus
from repro.workload.base import ThreadProgram

__all__ = ["Machine", "place_programs"]

_CORE_SPENT = (
    "this machine ran on the compiled core, which now holds its state; "
    "build a new Machine (or pass engine=True) to simulate further"
)


def _controller_node(controller: CoherenceController) -> int:
    return controller.node


def place_programs(
    config: SimulationConfig,
    mapping: Mapping,
    programs: Sequence[Sequence[ThreadProgram]],
    node_count: int,
) -> tuple:
    """Validate a (mapping, programs) combination and place threads.

    Shared by :class:`Machine` and the batched replication engine
    (:mod:`repro.sim.batch`), so both accept exactly the same two modes
    (replicated instances vs collocation) with the same error messages.
    Returns ``(collocated, programs_at)`` where ``programs_at[node]`` is
    the per-context program list for that node.
    """
    if mapping.processors != node_count:
        raise SimulationError(
            f"mapping targets {mapping.processors} processors; machine "
            f"has {node_count}"
        )
    if mapping.threads == node_count:
        mapping.require_bijective()
        collocated = False
        if len(programs) != config.contexts:
            raise SimulationError(
                f"{len(programs)} program instances for "
                f"{config.contexts} contexts"
            )
    elif mapping.threads == node_count * config.contexts:
        collocated = True
        if len(programs) != 1:
            raise SimulationError(
                "collocation mode runs a single application instance; "
                f"got {len(programs)} program instances"
            )
        load = mapping.load()
        if len(load) != node_count or any(
            count != config.contexts for count in load.values()
        ):
            raise SimulationError(
                f"collocation mode needs exactly {config.contexts} "
                "threads on every node"
            )
    else:
        raise SimulationError(
            f"mapping covers {mapping.threads} threads; expected "
            f"{node_count} (replicated instances) or "
            f"{node_count * config.contexts} (collocation)"
        )
    for instance in programs:
        if len(instance) != mapping.threads:
            raise SimulationError(
                "every instance must provide one program per thread"
            )
    if collocated:
        programs_at = {
            node: [programs[0][t] for t in mapping.threads_on(node)]
            for node in range(node_count)
        }
    else:
        # Bijective mapping: exactly one thread per node.
        thread_at = {p: t for t, p in mapping.items()}
        programs_at = {
            node: [
                programs[instance][thread_at[node]]
                for instance in range(config.contexts)
            ]
            for node in range(node_count)
        }
    return collocated, programs_at


class Machine:
    """A complete simulated multiprocessor.

    Parameters
    ----------
    config:
        Machine/protocol/measurement parameters.
    mapping:
        Thread-to-processor assignment.  Two modes are supported:

        * **replicated instances** (the paper's arrangement): the mapping
          is a bijection over the machine's nodes and ``programs`` holds
          one application instance per hardware context — each node runs
          the same-numbered thread of every instance;
        * **collocation**: the mapping places ``nodes * contexts``
          threads of a *single* instance, exactly ``contexts`` per node —
          the only locality lever a UCL machine has (Section 1.1), and
          available to NUCL machines on top of placement.
    programs:
        ``programs[instance][thread]`` — one
        :class:`~repro.workload.base.ThreadProgram` per (instance,
        thread).  ``len(programs)`` must be ``config.contexts`` in
        replicated-instance mode and 1 in collocation mode.
    fabric_factory:
        Optional override for the network fabric, called as
        ``fabric_factory(torus, on_delivery=...)``.  Used by the parity
        suite and fixture generator to run the machine on
        :class:`repro.sim.reference.ReferenceTorusFabric`; when omitted
        the config's ``switching`` picks the production fabric.
    engine:
        Which engine :meth:`run` uses.  ``None`` (the default) picks the
        fastest path that can serve the run: the compiled C core when
        the machine is cut-through, fresh (cycle 0), has no
        ``fabric_factory`` and no tracer or telemetry attached, and the
        core loads; otherwise the event-calendar engine
        (:mod:`repro.sim.engine`).  ``True`` pins the Python event
        calendar, the executable spec the core is checked against;
        ``False`` pins the per-cycle step loop.  ``REPRO_SIM_ENGINE=0``
        makes the default the step loop and ``REPRO_BATCH_ENGINE=py``
        keeps the default off the core; ``REPRO_BATCH_ENGINE=c`` makes
        an eligible run raise when the core is unavailable.  Every path
        is bit-identical (pinned by the parity suites) — the engine is
        purely a performance feature.  After :meth:`run`,
        ``engine_path`` (``"core"``, ``"calendar"`` or ``"loop"``) and
        ``engine_reason`` record the choice.
    """

    def __init__(
        self,
        config: SimulationConfig,
        mapping: Mapping,
        programs: Sequence[Sequence[ThreadProgram]],
        fabric_factory: Optional[Callable] = None,
        engine: Optional[bool] = None,
    ):
        self.config = config
        self.torus = Torus(radix=config.radix, dimensions=config.dimensions)
        self._collocated, programs_at = place_programs(
            config, mapping, programs, self.torus.node_count
        )
        self.mapping = mapping
        self.stats = MachineStats(nodes=self.torus.node_count)
        self._fabric_factory = fabric_factory
        if fabric_factory is not None:
            self.fabric = fabric_factory(self.torus, on_delivery=self._deliver)
        elif config.switching == "wormhole":
            self.fabric = TorusFabric(self.torus, on_delivery=self._deliver)
        else:
            self.fabric = CutThroughFabric(self.torus, on_delivery=self._deliver)
        self._cycle = 0
        self.tracer = None
        self.telemetry = None
        self._engine_pin = engine
        self.engine_enabled = (
            engine_enabled_default() if engine is None else bool(engine)
        )
        #: Engine that served the last :meth:`run` (``"core"``,
        #: ``"calendar"`` or ``"loop"``) and why; ``None`` before a run.
        self.engine_path: Optional[str] = None
        self.engine_reason: Optional[str] = None
        #: The one-lane core batch holding this machine's state after a
        #: core run; the Python controllers and fabric are then retired.
        self._core_batch = None

        # Event-driven engine scheduling: controllers whose engine went
        # from idle to busy this cycle land on ``_engine_ready`` (via the
        # wake callback — the list object's identity must be preserved),
        # and engines mid-occupancy are parked on the ``_engine_wake``
        # calendar keyed by their done-cycle, so ``step`` only ticks
        # controllers that actually have something to do.
        self._engine_ready: List[CoherenceController] = []
        self._engine_wake: Dict[int, List[CoherenceController]] = {}
        self.controllers: List[CoherenceController] = [
            CoherenceController(
                node=node,
                config=config,
                home_of=self._home_of,
                send=self._inject,
                stats=self.stats,
                wake=self._engine_ready.append,
            )
            for node in self.torus.nodes()
        ]
        self.processors: List[Processor] = []
        # One child sequence per node from the documented root seed;
        # processors receive their stream rather than deriving ad-hoc
        # seeds, and ``rng_info`` records the scheme for run manifests.
        self.seed_sequence = np.random.SeedSequence(config.seed)
        node_seeds = self.seed_sequence.spawn(self.torus.node_count)
        for node in self.torus.nodes():
            node_programs = programs_at[node]
            self.processors.append(
                Processor(
                    node=node,
                    config=config,
                    controller=self.controllers[node],
                    programs=node_programs,
                    stats=self.stats,
                    seed_seq=node_seeds[node],
                )
            )

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    @property
    def rng_info(self) -> Dict[str, object]:
        """RNG provenance for run manifests: one root seed, spawned streams."""
        return {
            "root_seed": self.config.seed,
            "scheme": "numpy.random.SeedSequence(root_seed).spawn(nodes)",
            "streams": self.torus.node_count,
        }

    def _home_of(self, block: Block) -> int:
        """Blocks live with their owning thread."""
        _, thread = block
        return self.mapping.processor_of(thread)

    def _inject(self, message: Message) -> None:
        if message.destination == message.source:
            raise SimulationError(
                f"self-addressed message from node {message.source}; local "
                "transactions must complete without the network"
            )
        self.fabric.inject(message, self._cycle)

    def _deliver(self, transit) -> None:
        """Fabric delivery callback (Worm or Transit: same interface)."""
        message = transit.message
        self.stats.message_delivered(
            message, transit.hops, transit.source_wait, self._cycle
        )
        self.controllers[message.destination].deliver(message)

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Route all stats events and periodic samples to ``tracer``."""
        self.tracer = tracer
        self.stats.listener = tracer

    def attach_telemetry(self, config) -> object:
        """Attach per-channel fabric telemetry (see :mod:`.telemetry`).

        Must be called before :meth:`run`; the resulting snapshot rides
        on the returned summary's ``telemetry`` attribute.  Raises for
        fabrics that don't support instrumentation.
        """
        attach = getattr(self.fabric, "attach_telemetry", None)
        if attach is None:
            raise SimulationError(
                f"fabric {type(self.fabric).__name__} does not support "
                "telemetry"
            )
        self.telemetry = attach(config)
        return self.telemetry

    def step(self) -> None:
        """Advance the machine one network cycle (the per-cycle path).

        Retained unchanged in behavior as the event-calendar engine's
        parity oracle; idle accounting lives in ``Processor.tick`` (its
        own fast path), the single source of truth both drivers share.
        """
        if self._core_batch is not None:
            raise SimulationError(_CORE_SPENT)
        cycle = self._cycle
        if cycle % self.config.network_speedup == 0:
            for processor in self.processors:
                processor.tick(cycle)
        self._tick_controllers(cycle)
        self.fabric.tick(cycle)
        if self.tracer is not None:
            self.tracer.on_cycle(self, cycle)
        self._cycle += 1

    def _tick_controllers(self, cycle: int) -> None:
        """Tick exactly the controllers with runnable engine work.

        That is: those woken by new work this cycle plus those whose
        occupancy ends now.  Node order is semantics — it fixes the
        order messages from different nodes enter the fabric within a
        cycle — so the batch is sorted before running.  Shared by
        :meth:`step` and the event-calendar engine.
        """
        due = self._engine_wake.pop(cycle, None)
        ready = self._engine_ready
        if ready:
            batch = ready[:] if due is None else due + ready
            ready.clear()  # keep list identity: controllers hold .append
        else:
            batch = due
        if batch is not None:
            if len(batch) > 1:
                batch.sort(key=_controller_node)
            wake = self._engine_wake
            for controller in batch:
                controller._notified = False
                controller.tick(cycle)
                if controller._engine_thunk is not None:
                    done = controller._engine_done_at
                    slot = wake.get(done)
                    if slot is None:
                        wake[done] = [controller]
                    else:
                        slot.append(controller)

    def run(
        self,
        warmup: Optional[int] = None,
        measure: Optional[int] = None,
    ) -> MeasurementSummary:
        """Warm up, measure, and summarize.

        ``warmup`` / ``measure`` override the config's windows (network
        cycles).  Idle/switch counters are sampled around the window so
        processor-level fractions are window-accurate.  The engine is
        picked per call (see the class docstring); a machine that ran
        on the compiled core is finished — its state lives in the core,
        and a second ``run`` or ``step`` raises.
        """
        if self._core_batch is not None:
            raise SimulationError(_CORE_SPENT)
        warmup = self.config.warmup_network_cycles if warmup is None else warmup
        measure = (
            self.config.measure_network_cycles if measure is None else measure
        )
        path, reason = self._select_engine()
        self.engine_path = path
        self.engine_reason = reason
        obs.REGISTRY.counter(
            f"sim.engine.{path}", help=f"Machine.run calls on the {path} path"
        ).inc()
        if path == "core":
            return self._run_core(warmup, measure)
        # One engine serves both windows; it leaves processor state
        # flushed to the last boundary after each window, so the
        # between-window counter sampling below reads exactly what the
        # per-cycle loop would have left.
        engine = MachineEngine(self) if path == "calendar" else None
        # The run loop is the simulator's hottest path, so the
        # instrumentation wraps the warmup/measurement windows rather
        # than individual steps; cycle totals land on a registry counter.
        with obs.span(
            "sim.run",
            warmup=warmup,
            measure=measure,
            nodes=self.torus.node_count,
        ):
            with obs.span("sim.warmup", cycles=warmup):
                if engine is not None:
                    engine.run_window(warmup)
                else:
                    for _ in range(warmup):
                        self.step()

            idle_before = [p.idle_cycles for p in self.processors]
            switches_before = sum(p.switch_count for p in self.processors)
            self.stats.start_measuring(self._cycle, self.fabric.link_flits)

            with obs.span("sim.measure", cycles=measure):
                if engine is not None:
                    engine.run_window(measure)
                else:
                    for _ in range(measure):
                        self.step()

            self.stats.stop_measuring(self._cycle)
        if engine is not None:
            # Detach the wake hooks so later step() calls (or a fresh
            # engine on the next run) don't feed this engine's calendar.
            for processor in self.processors:
                processor._wake_listener = None
        if self.telemetry is not None:
            self.telemetry.finalize(self._cycle)
        if obs.is_enabled():
            obs.REGISTRY.counter(
                "sim.cycles", help="network cycles stepped by Machine.run"
            ).inc(warmup + measure)
        self.stats.idle_cycles = sum(
            p.idle_cycles - before
            for p, before in zip(self.processors, idle_before)
        )
        self.stats.switches = (
            sum(p.switch_count for p in self.processors) - switches_before
        )
        return self.summary()

    def _select_engine(self) -> Tuple[str, str]:
        """``(engine_path, engine_reason)`` for the next :meth:`run`."""
        if self._engine_pin is not None:
            if self._engine_pin:
                return "calendar", "engine=True pins the event calendar"
            return "loop", "engine=False pins the step loop"
        if not self.engine_enabled:
            return "loop", "REPRO_SIM_ENGINE=0 selects the step loop"
        config = self.config
        if config.switching != "cut_through":
            reason = f"{config.switching} switching has no compiled core"
        elif self._fabric_factory is not None:
            reason = "custom fabric_factory"
        elif self.tracer is not None:
            reason = "tracer attached"
        elif self.telemetry is not None:
            reason = "telemetry attached"
        elif self._cycle:
            reason = f"resumed machine (cycle {self._cycle})"
        elif not batchcore.shape_supported(
            self.torus.node_count, config.dimensions, config.radix
        ):
            reason = "torus shape exceeds the compiled core's limits"
        else:
            loaded, reason = batchcore.acquire()
            if loaded is not None:
                return "core", "fresh uninstrumented cut-through run"
        return "calendar", reason

    def _run_core(self, warmup: int, measure: int) -> MeasurementSummary:
        """Run both windows on the compiled core as a one-lane batch."""
        from repro.sim.batch import BatchMachine  # batch imports this module

        self._core_batch = BatchMachine.adopt(self)
        with obs.span(
            "sim.run",
            warmup=warmup,
            measure=measure,
            nodes=self.torus.node_count,
            engine="core",
        ):
            (summary,) = self._core_batch.run(warmup=warmup, measure=measure)
        self._cycle = warmup + measure
        if obs.is_enabled():
            obs.REGISTRY.counter(
                "sim.cycles", help="network cycles stepped by Machine.run"
            ).inc(warmup + measure)
        return summary

    def summary(self) -> MeasurementSummary:
        """Reduce the measured window to model-facing quantities."""
        physical_links = self.torus.node_count * 2 * self.torus.dimensions
        summary = self.stats.summary(
            link_flits=self.fabric.link_flits,
            physical_links=physical_links,
            network_speedup=self.config.network_speedup,
        )
        if self.telemetry is not None and self.telemetry.finalized:
            summary.telemetry = self.telemetry.snapshot()
        return summary

    @property
    def cycle(self) -> int:
        """Current network-cycle count."""
        return self._cycle
