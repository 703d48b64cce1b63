"""On-demand compiled C kernels: one shared object for the whole package.

Every C source of the package — the simulator core
(:mod:`repro.sim` ``_batchcore.c``) and the swap pricer
(:mod:`repro.mapping` ``_swapcore.c``) — is compiled with the system C
compiler into **one** shared object the first time any of them is
needed.  The object is cached under the user cache directory, keyed by
the hash of every source and of the build flags, and loaded through
:mod:`cffi` in ABI mode: no setuptools build step, no Python.h
dependency.  Because it is one object, loading the simulator core also
loads the swap pricer, and vice versa.

The first failure (missing cffi, missing compiler, build error) is
remembered so later calls stay cheap; :func:`load_failure` says why.
Each kernel's caller decides how to degrade: the simulator falls back
to its Python spec (:func:`repro.sim.batchcore.acquire`), the swap
engine to its numpy gathers (:class:`repro.mapping.engine.SwapEngine`).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

from repro.errors import ReproError

__all__ = [
    "CDEF", "CFLAGS", "LIBS", "SOURCES", "library_path", "load",
    "load_failure",
]

_PACKAGE = Path(__file__).resolve().parent

#: Every C source of the package, compiled together in this order.
SOURCES = (
    _PACKAGE / "sim" / "_batchcore.c",
    _PACKAGE / "mapping" / "_swapcore.c",
)

#: Compiler flags of every build.  ``-ffp-contract=off`` keeps the
#: compiler from fusing ``lo + (hi - lo) * r`` into one FMA (the default
#: on some targets, e.g. aarch64), which would round differently from
#: Python's ``random.uniform`` and move every jittered run length.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Libraries linked after the sources (``nearbyint`` lives in libm).
LIBS = ("-lm",)

_BATCHCORE_CDEF = """
typedef struct Core Core;
Core *bc_create(int N, int dims, int radix, int capacity, int req_cost,
                int recv_cost, int send_cost, int mem_cost, int contexts,
                int speedup, int hit_cycles, int switch_cycles);
void bc_destroy(Core *core);
int bc_add_blocks(Core *core, int count, const int *homes);
void bc_set_program(Core *core, int node, int ctx, int kind, int base,
                    int thread, int reads, int threads,
                    const int *neighbors, long long position,
                    long long mean, double jitter);
void bc_set_state(Core *core, const long long *procs,
                  const uint32_t *rng);
void bc_get_state(Core *core, long long *procs, uint32_t *rng);
int bc_run(Core *core, long long cycles);
void bc_start_measuring(Core *core);
void bc_get_counters(Core *core, long long *out_i, double *out_d);
void bc_get_link_flits(Core *core, long long *out);
void bc_get_per_node_sent(Core *core, long long *out);
long long bc_in_flight(Core *core);
void bc_rng_draws(uint32_t *state, int kind, double a, double b,
                  long long count, double *out);
int bc_errcode(Core *core);
const char *bc_errmsg(Core *core);
"""

_SWAPCORE_CDEF = """
double sc_swap_delta(const intptr_t *indptr, const intptr_t *neighbors,
                     const double *weights, const intptr_t *position,
                     long long radix, int dims, intptr_t a, intptr_t b);
"""

#: The declarations of every exported function, for ``ffi.cdef``.
CDEF = _BATCHCORE_CDEF + _SWAPCORE_CDEF

_cached = None
_failure: Optional[str] = None


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro" / "native"


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def library_path() -> Path:
    """The cache slot of the shared object for the current build.

    The name carries a hash of every source and of :data:`CFLAGS` and
    :data:`LIBS`, so an edited source or flag gets a fresh slot; a
    library placed here (say, a sanitized build) is the one
    :func:`load` opens.
    """
    digest = hashlib.sha256()
    digest.update(" ".join(CFLAGS + LIBS).encode())
    for source in SOURCES:
        digest.update(source.name.encode())
        digest.update(source.read_bytes())
    return _cache_dir() / f"_repro-{digest.hexdigest()[:16]}.so"


def _build() -> Path:
    """Compile every source into the cache; return the shared object."""
    so_path = library_path()
    if so_path.exists():
        return so_path
    compiler = _compiler()
    if compiler is None:
        raise ReproError("no C compiler found for the compiled kernels")
    so_path.parent.mkdir(parents=True, exist_ok=True)
    # Build into a temp name then rename: concurrent builders race
    # benignly to an identical artifact.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=so_path.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp]
            + [str(source) for source in SOURCES]
            + list(LIBS),
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise ReproError(
                f"compiled kernel build failed: {proc.stderr[:500]}"
            )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def load():
    """Return ``(ffi, lib)`` for the compiled kernels, or ``None``."""
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
        so_path = _build()
        ffi = FFI()
        ffi.cdef(CDEF)
        lib = ffi.dlopen(str(so_path))
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        _failure = str(exc)
        return None
    _cached = (ffi, lib)
    return _cached


def load_failure() -> Optional[str]:
    """Why :func:`load` returned ``None``; ``None`` if it has not failed."""
    return _failure
