"""On-demand compiled C core for the cut-through simulator.

``_batchcore.c`` is compiled on demand into the package's one shared
object together with its other C kernels (:mod:`repro.native`: system
C compiler, user cache keyed by the hash of every source, :mod:`cffi`
in ABI mode).  The core simulates
one machine: it is a port of :mod:`repro.sim.coherence` and
:mod:`repro.sim.cut_through`, the Python spec it is parity-pinned to,
driven by :class:`repro.sim.batch.CoreDriver`.

:func:`select_core` is the single place that decides whether a run can
take the core; :meth:`repro.sim.machine.Machine.run` asks it for every
run, whether it comes alone or from a replication campaign.  When the
core cannot serve a run — wormhole switching, instrumentation, no
compiler or cffi — the machine runs on the Python spec instead, and an
unavailable core degrades loudly (see :func:`acquire`).

The ``REPRO_BATCH_ENGINE`` environment variable gates selection:
``auto`` (default) uses the core when available and applicable, and
``c`` requires it (raising if it cannot be built).
``Machine(..., engine=True)`` pins the Python spec for a single run.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple

from repro import native, obs
from repro.errors import ProtocolError, SimulationError
from repro.sim.message import _FLITS_BY_KIND, MessageKind

__all__ = [
    "CoreFallbackWarning",
    "acquire",
    "engine_mode",
    "flits_compatible",
    "load",
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
) -> Tuple[Optional[tuple], str]:
    """Whether the compiled core serves a run: ``(loaded, reason)``.

    The core runs fresh (``cycle`` 0), uninstrumented cut-through
    machines whose torus fits its limits; the flags say what the caller
    attached.  For such a run this is :func:`acquire` (which may raise
    under ``REPRO_BATCH_ENGINE=c``, or warn and count under ``auto``).
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
