"""On-demand compiled C core for the cut-through simulator.

Compiles :mod:`repro.sim` ``_batchcore.c`` with the system C compiler
the first time it is needed (cached under the user cache directory,
keyed by source hash) and loads it through :mod:`cffi` in ABI mode —
no setuptools build step, no Python.h dependency.  The core simulates
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

import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional, Tuple

from repro import obs
from repro.errors import ProtocolError, SimulationError
from repro.sim.message import _FLITS_BY_KIND, MessageKind

__all__ = [
    "CDEF",
    "CoreFallbackWarning",
    "acquire",
    "engine_mode",
    "flits_compatible",
    "load",
    "raise_error",
    "select_core",
    "shape_supported",
]

_SOURCE = Path(__file__).with_name("_batchcore.c")

CDEF = """
typedef struct Core Core;
Core *bc_create(int N, int dims, int radix, int capacity, int req_cost,
                int recv_cost, int send_cost, int mem_cost);
void bc_destroy(Core *core);
int bc_add_block(Core *core, int home);
int bc_is_hit(Core *core, int node, int block, int is_write);
void bc_record_access(Core *core, int node, int block);
void bc_request(Core *core, int node, int block, int is_write,
                long long cycle, long long handle);
long long bc_advance(Core *core, long long stop);
int bc_comp_count(Core *core);
long long *bc_comp_ptr(Core *core);
void bc_comp_clear(Core *core);
void bc_start_measuring(Core *core);
void bc_get_counters(Core *core, long long *out_i, double *out_d);
void bc_get_link_flits(Core *core, long long *out);
void bc_get_per_node_sent(Core *core, long long *out);
long long bc_in_flight(Core *core);
int bc_errcode(Core *core);
const char *bc_errmsg(Core *core);
"""

_cached = None
_failure: Optional[str] = None
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


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro" / "batchcore"


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build(source: Path) -> Path:
    """Compile the core into the cache; return the shared-object path."""
    text = source.read_bytes()
    tag = hashlib.sha256(text).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"_batchcore-{tag}.so"
    if so_path.exists():
        return so_path
    compiler = _compiler()
    if compiler is None:
        raise SimulationError("no C compiler found for the batch core")
    cache.mkdir(parents=True, exist_ok=True)
    # Build into a temp name then rename: concurrent builders race
    # benignly to an identical artifact.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", "-o", tmp, str(source)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise SimulationError(
                f"batch core compilation failed: {proc.stderr[:500]}"
            )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def load():
    """Return ``(ffi, lib)`` for the compiled core, or ``None``.

    The first failure (missing cffi, missing compiler, build error) is
    remembered so later calls stay cheap; ``REPRO_BATCH_ENGINE=c``
    callers can read the reason from :func:`load_failure`.
    """
    global _cached, _failure
    if _cached is not None:
        return _cached
    if _failure is not None:
        return None
    try:
        from cffi import FFI
    except ImportError:
        _failure = "cffi is not installed"
        return None
    try:
        so_path = _build(_SOURCE)
        ffi = FFI()
        ffi.cdef(CDEF)
        lib = ffi.dlopen(str(so_path))
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        _failure = str(exc)
        return None
    _cached = (ffi, lib)
    return _cached


def load_failure() -> Optional[str]:
    return _failure


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
