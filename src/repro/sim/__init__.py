"""Cycle-level multiprocessor simulator (the validation substrate).

Reconstructs the machine the paper simulates in Section 3: multithreaded
processors, a full-map invalidate directory protocol behind a single
per-node controller, and a flit-level wormhole-routed torus network whose
switches run twice as fast as the processors.

The wormhole fabric's hot path is the array kernel
(:mod:`repro.sim.kernel`, exported here as ``TorusFabric``); the
object-based implementation it replaced survives as
:class:`repro.sim.reference.ReferenceTorusFabric`, the executable
specification the parity suite pins the kernel to cycle for cycle.
The processors, the coherence protocol and the cut-through fabric have
one Python implementation each (:mod:`repro.sim.processor`,
:mod:`repro.sim.coherence`, :mod:`repro.sim.cut_through`), the spec the
compiled core (:mod:`repro.sim.batchcore`) is pinned to; ``Machine.run``
runs the whole machine on the core (through
:class:`repro.sim.batch.CoreDriver`) whenever it can serve the run.  Multi-seed replication with error bars lives in
:mod:`repro.sim.replicate`: every seed is its own ``Machine.run``.
"""

from repro.sim.batch import run_batch
from repro.sim.coherence import CacheState, CoherenceController, DirectoryState
from repro.sim.config import SimulationConfig
from repro.sim.kernel import DeliveredWorm as Worm
from repro.sim.kernel import FabricKernel
from repro.sim.kernel import FabricKernel as TorusFabric
from repro.sim.machine import Machine
from repro.sim.message import CONTROL_FLITS, DATA_FLITS, Message, MessageKind
from repro.sim.processor import ContextState, HardwareContext, Processor
from repro.sim.reference import ReferenceTorusFabric, ReferenceWorm
from repro.sim.replicate import (
    MetricAggregate,
    ReplicationResult,
    aggregate_summaries,
    default_seeds,
    run_replications,
)
from repro.sim.stats import MachineStats, MeasurementSummary
from repro.sim.telemetry import (
    FabricTelemetry,
    ProbeResult,
    SaturationReport,
    TelemetryConfig,
    TelemetrySummary,
    detect_saturation,
    merge_snapshots,
    run_probe,
    write_telemetry_jsonl,
)
from repro.sim.trace import MachineSample, TraceEvent, Tracer

__all__ = [
    "SimulationConfig",
    "Machine",
    "MeasurementSummary",
    "MachineStats",
    "TorusFabric",
    "Worm",
    "FabricKernel",
    "ReferenceTorusFabric",
    "ReferenceWorm",
    "run_batch",
    "MetricAggregate",
    "ReplicationResult",
    "aggregate_summaries",
    "default_seeds",
    "run_replications",
    "Message",
    "MessageKind",
    "CONTROL_FLITS",
    "DATA_FLITS",
    "CoherenceController",
    "CacheState",
    "DirectoryState",
    "Processor",
    "HardwareContext",
    "ContextState",
    "Tracer",
    "TraceEvent",
    "MachineSample",
    "TelemetryConfig",
    "FabricTelemetry",
    "TelemetrySummary",
    "SaturationReport",
    "ProbeResult",
    "detect_saturation",
    "merge_snapshots",
    "run_probe",
    "write_telemetry_jsonl",
]
