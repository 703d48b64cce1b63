"""On-demand compiled C core for the batched replication engine.

Compiles :mod:`repro.sim` ``_batchcore.c`` with the system C compiler
the first time it is needed (cached under the user cache directory,
keyed by source hash) and loads it through :mod:`cffi` in ABI mode —
no setuptools build step, no Python.h dependency.  Everything degrades
gracefully: if a compiler or cffi is unavailable, ``load()`` returns
``None`` and callers fall back to Python — :mod:`repro.sim.batch` to its
pure-Python engine, :meth:`repro.sim.machine.Machine.run` to the event
calendar — loudly, through :func:`acquire`.

The ``REPRO_BATCH_ENGINE`` environment variable gates selection:
``auto`` (default) uses the core when available and applicable, ``py``
forces the Python engines, and ``c`` requires the core (raising if it
cannot be built).
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
    "shape_supported",
]

_SOURCE = Path(__file__).with_name("_batchcore.c")

CDEF = """
typedef struct Batch Batch;
Batch *bc_create(int R, int N, int dims, int radix, int capacity,
                 int req_cost, int recv_cost, int send_cost, int mem_cost);
void bc_destroy(Batch *b);
int bc_add_block(Batch *b, int home);
int bc_is_hit(Batch *b, int r, int node, int block, int is_write);
void bc_record_access(Batch *b, int r, int node, int block);
void bc_request(Batch *b, int r, int node, int block, int is_write,
                long long cycle, long long handle);
long long bc_advance(Batch *b, int r, long long stop);
long long bc_cycle(Batch *b, int r);
int bc_comp_count(Batch *b, int r);
long long *bc_comp_ptr(Batch *b, int r);
void bc_comp_clear(Batch *b, int r);
void bc_start_measuring(Batch *b, int r);
void bc_get_counters(Batch *b, int r, long long *out_i, double *out_d);
void bc_get_link_flits(Batch *b, int r, long long *out);
void bc_get_per_node_sent(Batch *b, int r, long long *out);
long long bc_in_flight(Batch *b, int r);
int bc_errcode(Batch *b);
const char *bc_errmsg(Batch *b);
void *ts_new(void);
void ts_free(void *p);
void ts_add(void *p, long long key);
void ts_discard(void *p, long long key);
int ts_contains(void *p, long long key);
long long ts_len(void *p);
long long ts_items(void *p, long long *out);
"""

_cached = None
_failure: Optional[str] = None
_warned = False


class CoreFallbackWarning(RuntimeWarning):
    """A run the compiled core could serve fell back to a Python engine."""


def engine_mode() -> str:
    """Requested engine: ``auto`` (default), ``c``, or ``py``."""
    mode = os.environ.get("REPRO_BATCH_ENGINE", "auto").strip().lower()
    if mode not in ("auto", "c", "py"):
        raise SimulationError(
            f"REPRO_BATCH_ENGINE must be auto, c, or py; got {mode!r}"
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
    if mode == "py":
        return None, "REPRO_BATCH_ENGINE=py pins the Python engines"
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
            f"{reason}; running on the Python engine",
            CoreFallbackWarning,
            stacklevel=3,
        )
    return None, reason


def raise_error(ffi, lib, batch) -> None:
    """Re-raise a core-side error flag as the matching Python error."""
    code = lib.bc_errcode(batch)
    if not code:
        return
    message = ffi.string(lib.bc_errmsg(batch)).decode()
    if code == 2:
        raise ProtocolError(message)
    raise SimulationError(message)
