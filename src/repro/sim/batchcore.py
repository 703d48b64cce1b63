"""On-demand compiled C core for the cut-through simulator.

``_batchcore.c`` is compiled on demand into the package's one shared
object together with its other C kernels (:mod:`repro.native`: system
C compiler, user cache keyed by the hash of every source and build
flag, :mod:`cffi` in ABI mode).  The core simulates one whole machine:
it is a port of :mod:`repro.sim.processor`, the thread programs
:class:`~repro.workload.synthetic.NeighborExchangeProgram` and
:class:`~repro.workload.generators.UniformRandomProgram`,
:mod:`repro.sim.coherence`, :mod:`repro.sim.cut_through` and the event
calendar of :mod:`repro.sim.engine` — the Python spec it is
parity-pinned to — driven by :class:`repro.sim.batch.CoreDriver`.

**Bit-exactness.**  A core run leaves the same
:class:`~repro.sim.stats.MeasurementSummary`, processor counters,
context states and per-node RNG states as ``Machine(...,
engine=True)``.  Each node's ``random.Random`` stream continues in C as
an MT19937 loaded from ``getstate()`` and written back with
``setstate()``; ``random()`` is ``((a>>5)·2²⁶ + (b>>6)) / 2⁵³``,
``randrange(n)`` is ``getrandbits(n.bit_length())`` with rejection, and
a jittered run length is ``max(1, nearbyint(lo + (hi - lo)·random()))``
(half-even, as Python's ``round``; built without FMA contraction).

:func:`select_core` is the single place that decides whether a run can
take the core; :meth:`repro.sim.machine.Machine.run` asks it for every
run, whether it comes alone or from a replication campaign.  When the
core cannot serve a run — wormhole switching, instrumentation, a thread
program it has no port of, no compiler or cffi — the machine runs on
the Python spec instead, and an unavailable core degrades loudly (see
:func:`acquire`).

The ``REPRO_BATCH_ENGINE`` environment variable gates selection:
``auto`` (default) uses the core when available and applicable, and
``c`` requires it (raising if it cannot be built).
``Machine(..., engine=True)`` pins the Python spec for a single run.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import Iterable, Optional, Tuple

from repro import native, obs
from repro.errors import ProtocolError, SimulationError
from repro.sim.message import _FLITS_BY_KIND, MessageKind
from repro.workload.generators import UniformRandomProgram
from repro.workload.synthetic import NeighborExchangeProgram

__all__ = [
    "CoreFallbackWarning",
    "acquire",
    "engine_mode",
    "flits_compatible",
    "load",
    "program_reason",
    "raise_error",
    "select_core",
    "shape_supported",
]

_warned = False


class CoreFallbackWarning(RuntimeWarning):
    """A run the compiled core could serve fell back to the Python spec."""


def engine_mode() -> str:
    """Requested engine: ``auto`` (default) or ``c``."""
    mode = os.environ.get("REPRO_BATCH_ENGINE", "auto").strip().lower()
    if mode == "py":
        raise SimulationError(
            "REPRO_BATCH_ENGINE=py is gone: the Python batch engine was "
            "removed; use auto or c, and pass Machine(..., engine=True) "
            "to pin the Python spec"
        )
    if mode not in ("auto", "c"):
        raise SimulationError(
            f"REPRO_BATCH_ENGINE must be auto or c; got {mode!r}"
        )
    return mode


def load():
    """Return ``(ffi, lib)`` for the compiled core, or ``None``.

    The core is part of the package's one compiled object
    (:func:`repro.native.load`), so this also loads the swap pricer.
    """
    return native.load()


def load_failure() -> Optional[str]:
    return native.load_failure()


def flits_compatible() -> bool:
    """The core hard-codes control/data flit sizes; verify they match."""
    for kind, flits in _FLITS_BY_KIND.items():
        expected = 24 if kind in (
            MessageKind.DATA_REPLY, MessageKind.WRITEBACK
        ) else 8
        if flits != expected:
            return False
    return True


def shape_supported(nodes: int, dimensions: int, radix: int) -> bool:
    """Whether ``bc_create`` accepts this torus (mirrors its guard)."""
    return nodes < (1 << 20) and dimensions <= 8 and dimensions * radix <= 62


#: Run lengths the core computes exactly: |mean| < 2**31 and a finite
#: jitter below 2**20 keep every intermediate an exact double below
#: 2**53 and every run length inside a long long.
_RUN_LIMIT = 1 << 31
_JITTER_LIMIT = float(1 << 20)


def program_reason(programs: Iterable, threads: int) -> Optional[str]:
    """Why the core cannot run these thread programs, or ``None``.

    The core ports exactly :class:`NeighborExchangeProgram` and
    :class:`UniformRandomProgram` (no subclasses), with integer run
    lengths and every thread id inside the mapping's ``threads``, one
    program object per context (the core keeps each context's position
    apart, where contexts sharing one object would share it).
    """
    seen = set()
    for program in programs:
        if id(program) in seen:
            return "a program object runs on more than one context"
        seen.add(id(program))
        kind = type(program)
        name = kind.__name__
        if kind is NeighborExchangeProgram:
            ids = list(program.neighbors)
            reads = len(ids)
        elif kind is UniformRandomProgram:
            # Targets come from randrange(threads - 1): threads >= 2.
            ids = [program.threads - 2, program.threads - 1]
            reads = program.reads_per_write
        else:
            return f"{name} programs have no compiled core"
        ids.append(program.thread)
        if set(map(type, ids)) != {int} or not (
            0 <= min(ids) and max(ids) < threads
        ):
            return f"{name} thread ids outside the mapping's {threads}"
        mean, jitter = program.compute_cycles_mean, program.compute_jitter
        position = program._position
        if not (
            type(mean) is int and -_RUN_LIMIT < mean < _RUN_LIMIT
            and type(jitter) in (int, float) and math.isfinite(jitter)
            and abs(jitter) < _JITTER_LIMIT
            and type(reads) is int and 1 <= reads < _RUN_LIMIT
            and type(position) is int and 0 <= position <= reads
        ):
            return f"{name} parameters outside the compiled core's range"
    return None


def acquire() -> Tuple[Optional[tuple], str]:
    """Resolve the core for a run it could serve: ``(loaded, reason)``.

    ``loaded`` is ``(ffi, lib)`` or ``None``; ``reason`` says why in
    words for run provenance.  Under ``REPRO_BATCH_ENGINE=c`` an
    unavailable core raises :class:`~repro.errors.SimulationError`;
    under ``auto`` the fallback bumps the ``sim.engine.core_fallback``
    counter and warns (:class:`CoreFallbackWarning`, once per process),
    so a build failure never degrades silently.
    """
    global _warned
    mode = engine_mode()
    if flits_compatible():
        loaded = load()
        if loaded is not None:
            return loaded, "compiled core"
        reason = (
            "the compiled batch core is unavailable: "
            f"{load_failure() or 'not built'}"
        )
    else:
        reason = "message flit sizes differ from the core's"
    if mode == "c":
        raise SimulationError(f"REPRO_BATCH_ENGINE=c but {reason}")
    obs.REGISTRY.counter(
        "sim.engine.core_fallback",
        help="eligible runs that fell back from the compiled core",
    ).inc()
    if not _warned:
        _warned = True
        warnings.warn(
            f"{reason}; running on the Python spec",
            CoreFallbackWarning,
            stacklevel=4,
        )
    return None, reason


def select_core(
    config,
    *,
    fabric_factory: bool = False,
    tracer: bool = False,
    telemetry: bool = False,
    cycle: int = 0,
    programs: Iterable,
    threads: int,
) -> Tuple[Optional[tuple], str]:
    """Whether the compiled core serves a run: ``(loaded, reason)``.

    The core runs fresh (``cycle`` 0), uninstrumented cut-through
    machines whose torus fits its limits and whose every thread program
    it has a port of (:func:`program_reason`; ``threads`` is the
    mapping's thread count); the flags say what the caller attached.
    For such a run this is :func:`acquire` (which may raise under
    ``REPRO_BATCH_ENGINE=c``, or warn and count under ``auto``).
    Otherwise ``loaded`` is ``None`` and ``reason`` says why in words.
    A malformed ``REPRO_BATCH_ENGINE`` is rejected on every path.
    """
    engine_mode()
    if config.switching != "cut_through":
        return None, f"{config.switching} switching has no compiled core"
    if fabric_factory:
        return None, "custom fabric_factory"
    if tracer:
        return None, "tracer attached"
    if telemetry:
        return None, "telemetry attached"
    if cycle:
        return None, f"resumed machine (cycle {cycle})"
    reason = program_reason(programs, threads)
    if reason is not None:
        return None, reason
    if not shape_supported(config.node_count, config.dimensions, config.radix):
        return None, "torus shape exceeds the compiled core's limits"
    loaded, reason = acquire()
    if loaded is not None:
        reason = "fresh uninstrumented cut-through run"
    return loaded, reason


def raise_error(ffi, lib, core) -> None:
    """Re-raise a core-side error flag as the matching Python error."""
    code = lib.bc_errcode(core)
    if not code:
        return
    message = ffi.string(lib.bc_errmsg(core)).decode()
    if code == 2:
        raise ProtocolError(message)
    raise SimulationError(message)
