"""Persistent warm worker pool: pickle the heavy payload once, not per task.

The three parallel fan-out sites in this repository — multi-seed
replication (:mod:`repro.sim.replicate`), restart-chain annealing
(:mod:`repro.mapping.chains`), and the experiment campaign runner
(:mod:`repro.experiments.runner`) — used to build a fresh
``ProcessPoolExecutor`` per call and ship the full ``(config, mapping,
programs)`` (or ``(graph, torus, initial)``) tuple with *every* task.
Process spawn plus per-task pickling is a fixed cost that scales with
the payload, not the work, so small parallel runs landed *below* 1x
serial (0.57x on the replication-scaling benchmark).  This module is the
fix: a pool of warm, long-lived workers that receive the heavy read-only
payload exactly once and thereafter accept tiny per-task messages (a
seed, a chain index, an experiment id).

Design
------

* **Warm workers.**  ``WorkerPool(jobs)`` starts ``jobs`` daemon
  processes on first use and keeps them alive across calls; the
  process-global :func:`get_pool` hands every call site the same pool,
  so interpreter start and ``import numpy`` are paid once per process
  lifetime, not once per ``run_replications`` call.
* **Broadcast once.**  :meth:`WorkerPool.broadcast` registers a
  read-only payload under a string key.  With the ``fork`` start method
  the payload reaches workers by address-space inheritance — zero
  pickling.  On spawn platforms it is pickled once per *worker* (not per
  task), and any numpy array at or above
  :data:`SHARED_MEMORY_MIN_BYTES` travels out-of-band through
  ``multiprocessing.shared_memory``, so a 32 MiB torus distance table
  costs one copy machine-wide instead of one per task.  Re-broadcasting
  an identical payload (same objects) is a no-op, so repeated calls from
  the same campaign ship nothing.
* **Tiny tasks, chunked dispatch.**  :meth:`WorkerPool.map` runs
  ``fn(payload, item)`` for each item, dispatching contiguous chunks to
  whichever worker frees up first and reassembling results in item
  order, so callers see deterministic, jobs-invariant output.
* **Crash containment.**  A task that *raises* fails only itself: the
  exception is shipped back and re-raised in the parent, and the pool
  stays usable.  A worker that *dies* (signal, ``os._exit``) fails only
  its in-flight chunk with :class:`~repro.errors.WorkerCrashError`; the
  pool replaces the worker — with all broadcasts replayed — and later
  calls proceed.
* **Visible fallback.**  Call sites that can run serially catch
  :data:`FALLBACK_ERRORS` and call :func:`note_fallback`, which bumps
  the ``pool.fallback`` metrics counter (it lands in run manifests) and
  emits a :class:`PoolFallbackWarning` — a degraded ``--jobs`` run is
  loud, never silent.

Task functions must be module-level (they are pickled by reference) and
must treat the broadcast payload as read-only — take a ``deepcopy`` of
anything stateful, exactly as per-task pickling used to provide for
free.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import warnings
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ParameterError, PoolError, WorkerCrashError

__all__ = [
    "FALLBACK_ERRORS",
    "SHARED_MEMORY_MIN_BYTES",
    "PoolFallbackWarning",
    "WorkerPool",
    "default_start_method",
    "get_pool",
    "note_fallback",
    "shutdown_global_pool",
]


#: Exceptions that mean "no usable pool here".  Call sites with a serial
#: path catch exactly this tuple, call :func:`note_fallback`, and rerun
#: serially.  Exceptions raised *by task functions* propagate unchanged
#: (unless they happen to be one of these, matching the behaviour of the
#: executor-based code this pool replaced).
FALLBACK_ERRORS = (ImportError, NotImplementedError, OSError, PoolError)

#: numpy arrays at or above this many bytes ride
#: ``multiprocessing.shared_memory`` instead of the pickle stream when
#: broadcasting on a spawn-start-method pool.
SHARED_MEMORY_MIN_BYTES = 1 << 16


class PoolFallbackWarning(RuntimeWarning):
    """A ``--jobs`` run degraded to the serial path."""


def note_fallback(site: str, error: BaseException) -> None:
    """Record a pool-to-serial fallback loudly.

    Bumps the ``pool.fallback`` counter (the metrics registry is always
    live, so the count reaches run manifests even with tracing off) and
    warns, so a campaign that silently lost its parallelism is visible
    both interactively and in provenance records.
    """
    obs.REGISTRY.counter(
        "pool.fallback", help="parallel runs degraded to the serial path"
    ).inc()
    warnings.warn(
        f"worker pool unavailable at {site}; running serially "
        f"({type(error).__name__}: {error})",
        PoolFallbackWarning,
        stacklevel=3,
    )


def default_start_method() -> str:
    """``fork`` where the platform offers it (zero-copy broadcasts),
    else ``spawn``."""
    return (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


# ----------------------------------------------------------------------
# Shared-memory transport for numpy payload arrays (spawn platforms).
# ----------------------------------------------------------------------


class _SharedArray:
    """Pickled placeholder for an ndarray parked in shared memory."""

    __slots__ = ("name", "shape", "dtype")

    def __init__(self, name: str, shape: Tuple[int, ...], dtype: str):
        self.name = name
        self.shape = shape
        self.dtype = dtype

    def __getstate__(self):
        return (self.name, self.shape, self.dtype)

    def __setstate__(self, state):
        self.name, self.shape, self.dtype = state


def _export_arrays(value: Any, segments: List) -> Any:
    """Copy large ndarrays (in plain containers) into shared memory.

    Returns ``value`` with every qualifying array replaced by a
    :class:`_SharedArray` placeholder; created segments are appended to
    ``segments`` (the parent owns their lifetime and unlinks them when
    the broadcast is replaced or the pool closes).  Only tuples, lists,
    and dicts are traversed — arrays buried inside arbitrary objects
    travel the ordinary pickle stream.
    """
    if (
        isinstance(value, np.ndarray)
        and value.nbytes >= SHARED_MEMORY_MIN_BYTES
    ):
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=value.nbytes)
        mirror = np.ndarray(value.shape, dtype=value.dtype, buffer=segment.buf)
        mirror[...] = value
        segments.append(segment)
        return _SharedArray(segment.name, value.shape, value.dtype.str)
    if isinstance(value, tuple):
        return tuple(_export_arrays(item, segments) for item in value)
    if isinstance(value, list):
        return [_export_arrays(item, segments) for item in value]
    if isinstance(value, dict):
        return {
            key: _export_arrays(item, segments) for key, item in value.items()
        }
    return value


def _import_arrays(value: Any, attached: List) -> Any:
    """Worker-side inverse of :func:`_export_arrays`.

    Placeholders become read-only ndarray views over the attached
    segment; the segment handles are appended to ``attached`` so the
    worker can keep the mapping alive for exactly as long as it holds
    the payload (and close it when the broadcast is replaced).
    """
    if isinstance(value, _SharedArray):
        from multiprocessing import shared_memory

        # Attaching re-registers the name with the resource tracker;
        # pool workers share the parent's tracker process, whose cache
        # is a set, so the duplicate registration dedupes and the
        # parent's single unlink settles the books.
        segment = shared_memory.SharedMemory(name=value.name)
        attached.append(segment)
        array = np.ndarray(
            value.shape, dtype=np.dtype(value.dtype), buffer=segment.buf
        )
        array.flags.writeable = False
        return array
    if isinstance(value, tuple):
        return tuple(_import_arrays(item, attached) for item in value)
    if isinstance(value, list):
        return [_import_arrays(item, attached) for item in value]
    if isinstance(value, dict):
        return {
            key: _import_arrays(item, attached)
            for key, item in value.items()
        }
    return value


# ----------------------------------------------------------------------
# Worker process body.
# ----------------------------------------------------------------------


def _portable_error(error: BaseException) -> BaseException:
    """The error itself if it pickles, else a :class:`PoolError` stand-in."""
    import pickle

    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return PoolError(
            f"task raised an unpicklable {type(error).__name__}: {error!r}"
        )


def _worker_main(channel, staged) -> None:
    """Serve broadcasts and task chunks until told to stop.

    ``staged`` carries the payloads registered before this worker
    started: on fork pools it arrives by address-space inheritance
    (never pickled); on spawn pools it is ``None`` and the parent sends
    ``broadcast`` messages instead.  Message order on the channel is
    FIFO, so a broadcast always lands before any chunk that needs it.
    """
    contexts: Dict[str, Tuple[int, Any, List]] = {}
    if staged:
        for key, (token, payload) in staged.items():
            contexts[key] = (token, payload, [])
    while True:
        try:
            message = channel.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "ping":
            channel.send(("pong",))
            continue
        if kind == "broadcast":
            _, key, token, wire = message
            previous = contexts.pop(key, None)
            if previous is not None:
                for segment in previous[2]:
                    try:
                        segment.close()
                    except Exception:
                        pass
            attached: List = []
            contexts[key] = (token, _import_arrays(wire, attached), attached)
            continue
        # ("chunk", chunk_id, fn, key, token, [(index, item), ...])
        _, chunk_id, fn, key, token, entries = message
        if key is None:
            payload = None
        else:
            held = contexts.get(key)
            if held is None or held[0] != token:
                channel.send(("chunk-stale", chunk_id))
                continue
            payload = held[1]
        outcomes = []
        for index, item in entries:
            try:
                outcomes.append((index, True, fn(payload, item)))
            except BaseException as error:  # tasks may raise anything
                outcomes.append((index, False, _portable_error(error)))
        try:
            channel.send(("chunk-done", chunk_id, outcomes))
        except Exception as error:
            # A result that cannot pickle must fail the chunk, not the
            # worker loop.
            channel.send(
                (
                    "chunk-done",
                    chunk_id,
                    [
                        (
                            index,
                            False,
                            PoolError(
                                f"task result could not be shipped back: "
                                f"{type(error).__name__}: {error}"
                            ),
                        )
                        for index, _ in entries
                    ],
                )
            )


# ----------------------------------------------------------------------
# The pool.
# ----------------------------------------------------------------------


class _Worker:
    __slots__ = ("process", "channel")

    def __init__(self, process, channel):
        self.process = process
        self.channel = channel


class _Broadcast:
    """Parent-side record of one broadcast payload."""

    __slots__ = ("token", "raw", "wire")

    def __init__(self, token: int, raw: Any, wire: Any):
        self.token = token
        self.raw = raw
        self.wire = wire


def _same_payload(held: Any, offered: Any) -> bool:
    """Identity-based "already broadcast" check.

    True when the offered payload is the held object, or a same-length
    tuple of identical objects — the shape repeated campaign calls
    produce when they pass the same config/mapping/programs objects
    again.  Equal-but-distinct objects rebroadcast; correctness never
    depends on skipping.
    """
    if held is offered:
        return True
    return (
        isinstance(held, tuple)
        and isinstance(offered, tuple)
        and len(held) == len(offered)
        and all(a is b for a, b in zip(held, offered))
    )


_UNSET = object()


class WorkerPool:
    """A persistent pool of warm worker processes.

    Workers start lazily on first use (or via :meth:`warm`) and survive
    across calls until :meth:`close`.  See the module docstring for the
    broadcast/task split and the crash-containment contract.
    """

    def __init__(self, jobs: int, start_method: Optional[str] = None):
        if jobs < 1:
            raise ParameterError(f"jobs must be >= 1, got {jobs!r}")
        method = start_method or default_start_method()
        if method not in multiprocessing.get_all_start_methods():
            raise PoolError(
                f"start method {method!r} unavailable on this platform "
                f"(have: {multiprocessing.get_all_start_methods()})"
            )
        self._jobs = int(jobs)
        self._method = method
        self._context = multiprocessing.get_context(method)
        self._workers: List[_Worker] = []
        self._broadcasts: Dict[str, _Broadcast] = {}
        self._segments: Dict[str, List] = {}
        self._next_token = 1
        self._lock = threading.RLock()
        self._owner_pid = os.getpid()
        self._started = False
        self._closed = False

    # -- introspection --------------------------------------------------

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def start_method(self) -> str:
        return self._method

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def started(self) -> bool:
        return self._started

    @property
    def uses_shared_memory(self) -> bool:
        """Whether broadcasts move numpy arrays through shared memory
        (spawn-family start methods; fork inherits instead)."""
        return self._method != "fork"

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- lifecycle ------------------------------------------------------

    def _check_usable(self) -> None:
        if self._closed:
            raise PoolError("pool is closed")
        if os.getpid() != self._owner_pid:
            raise PoolError(
                "pool belongs to another process (inherited across fork?)"
            )
        if multiprocessing.current_process().daemon:
            raise PoolError("nested pools inside a pool worker")

    def _ensure_started(self) -> None:
        self._check_usable()
        if self._started:
            return
        while len(self._workers) < self._jobs:
            self._spawn_worker()
        self._started = True

    def _spawn_worker(self) -> _Worker:
        parent_channel, child_channel = self._context.Pipe(duplex=True)
        if self._method == "fork":
            # Fork passes args by inheritance — the staged payloads are
            # never pickled.
            staged = {
                key: (record.token, record.raw)
                for key, record in self._broadcasts.items()
            }
        else:
            staged = None
        process = self._context.Process(
            target=_worker_main,
            args=(child_channel, staged),
            name="repro-pool-worker",
            daemon=True,
        )
        process.start()
        child_channel.close()
        worker = _Worker(process, parent_channel)
        if staged is None:
            for key, record in self._broadcasts.items():
                parent_channel.send(
                    ("broadcast", key, record.token, record.wire)
                )
        self._workers.append(worker)
        obs.REGISTRY.counter(
            "pool.workers_started", help="pool worker processes spawned"
        ).inc()
        return worker

    def resize(self, jobs: int) -> None:
        """Grow the pool to ``jobs`` workers (never shrinks)."""
        with self._lock:
            self._check_usable()
            if jobs <= self._jobs:
                return
            self._jobs = int(jobs)
            if self._started:
                while len(self._workers) < self._jobs:
                    self._spawn_worker()

    def warm(self) -> None:
        """Start every worker now and wait for each to answer a ping.

        Pays process start (and, on spawn, interpreter + import cost)
        here instead of inside the first measured :meth:`map`.
        """
        with self._lock:
            self._ensure_started()
            for worker in self._workers:
                worker.channel.send(("ping",))
            for worker in self._workers:
                try:
                    reply = worker.channel.recv()
                except (EOFError, OSError) as error:
                    raise PoolError(
                        f"worker died during warm-up: {error!r}"
                    ) from error
                if reply != ("pong",):
                    raise PoolError(f"unexpected warm-up reply: {reply!r}")

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers and release shared-memory segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if os.getpid() != self._owner_pid:
                # Inherited copy in a forked child: the workers and
                # segments belong to the parent; touch nothing.
                self._workers = []
                self._segments = {}
                return
            for worker in self._workers:
                try:
                    worker.channel.send(("stop",))
                except (OSError, ValueError):
                    pass
            for worker in self._workers:
                worker.process.join(timeout)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(1.0)
                try:
                    worker.channel.close()
                except OSError:
                    pass
            self._workers = []
            self._release_segments()

    def _release_segments(self, key: Optional[str] = None) -> None:
        keys = [key] if key is not None else list(self._segments)
        for name in keys:
            for segment in self._segments.pop(name, ()):
                for operation in (segment.close, segment.unlink):
                    try:
                        operation()
                    except Exception:
                        pass

    # -- broadcasts -----------------------------------------------------

    def broadcast(self, key: str, payload: Any) -> int:
        """Register (or refresh) the read-only payload under ``key``.

        Re-offering the identical payload (same objects) is free;
        anything else replaces the previous payload on every worker.
        Returns the broadcast token (diagnostic only).
        """
        with self._lock:
            self._check_usable()
            held = self._broadcasts.get(key)
            if held is not None and _same_payload(held.raw, payload):
                return held.token
            token = self._next_token
            self._next_token += 1
            if self.uses_shared_memory:
                segments: List = []
                wire = _export_arrays(payload, segments)
                self._release_segments(key)
                if segments:
                    self._segments[key] = segments
            else:
                wire = payload
            self._broadcasts[key] = _Broadcast(token, payload, wire)
            if self._started:
                for worker in self._workers:
                    worker.channel.send(("broadcast", key, token, wire))
            obs.REGISTRY.counter(
                "pool.broadcasts", help="pool payload broadcasts shipped"
            ).inc()
            return token

    # -- dispatch -------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        items: Sequence[Any],
        key: Optional[str] = None,
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        """Run ``fn(payload, item)`` for every item; results in item order.

        ``key`` names the broadcast payload handed to ``fn`` (``None``
        for payload-free tasks).  Items are dispatched in contiguous
        chunks to whichever worker frees up first; a raising task makes
        this call raise that exception (after in-flight chunks drain)
        while the pool itself stays usable.
        """
        with self._lock:
            self._ensure_started()
            items = list(items)
            if not items:
                return []
            if key is None:
                token = None
            else:
                record = self._broadcasts.get(key)
                if record is None:
                    raise PoolError(f"no broadcast registered under {key!r}")
                token = record.token
            if chunk_size is None:
                chunk_size = max(1, len(items) // (len(self._workers) * 4))
            pending = deque()
            for chunk_id, start in enumerate(range(0, len(items), chunk_size)):
                entries = [
                    (index, items[index])
                    for index in range(
                        start, min(start + chunk_size, len(items))
                    )
                ]
                pending.append((chunk_id, entries))
            results: List[Any] = [_UNSET] * len(items)
            failures: List[Tuple[int, BaseException]] = []
            idle = list(self._workers)
            inflight: Dict[int, Tuple[_Worker, List]] = {}

            obs.REGISTRY.counter(
                "pool.tasks", help="tasks dispatched through the worker pool"
            ).inc(len(items))

            while pending or inflight:
                while pending and idle and not failures:
                    worker = idle.pop()
                    chunk_id, entries = pending.popleft()
                    worker.channel.send(
                        ("chunk", chunk_id, fn, key, token, entries)
                    )
                    inflight[chunk_id] = (worker, entries)
                if not inflight:
                    break
                self._collect(inflight, idle, results, failures)

            if failures:
                failures.sort(key=lambda pair: pair[0])
                raise failures[0][1]
            return results

    def _collect(self, inflight, idle, results, failures) -> None:
        """Block until >= 1 in-flight chunk resolves (result or crash)."""
        by_channel = {
            worker.channel: chunk_id
            for chunk_id, (worker, _) in inflight.items()
        }
        by_sentinel = {
            worker.process.sentinel: chunk_id
            for chunk_id, (worker, _) in inflight.items()
        }
        ready = mp_connection.wait(
            list(by_channel) + list(by_sentinel)
        )
        resolved = set()
        for handle in ready:
            chunk_id = by_channel.get(handle, by_sentinel.get(handle))
            if chunk_id in resolved or chunk_id not in inflight:
                continue
            worker, entries = inflight[chunk_id]
            message = None
            if worker.channel.poll():
                try:
                    message = worker.channel.recv()
                except (EOFError, OSError):
                    message = None
            elif not worker.process.is_alive():
                message = None  # died without a result
            else:
                continue  # sentinel raced a still-working process; wait more
            resolved.add(chunk_id)
            del inflight[chunk_id]
            if message is None:
                self._replace_crashed(worker, entries, failures, idle)
                continue
            kind = message[0]
            if kind == "chunk-done":
                for index, ok, value in message[2]:
                    if ok:
                        results[index] = value
                    else:
                        failures.append((index, value))
                idle.append(worker)
            elif kind == "chunk-stale":
                failures.extend(
                    (
                        index,
                        PoolError(
                            "worker lost the broadcast payload mid-run"
                        ),
                    )
                    for index, _ in entries
                )
                idle.append(worker)
            else:
                failures.extend(
                    (
                        index,
                        PoolError(f"unexpected worker message {kind!r}"),
                    )
                    for index, _ in entries
                )
                idle.append(worker)

    def _replace_crashed(self, worker, entries, failures, idle) -> None:
        """Fail the dead worker's chunk and restore the pool's size."""
        code = worker.process.exitcode
        failures.extend(
            (
                index,
                WorkerCrashError(
                    f"pool worker died mid-task (exit code {code}); "
                    f"the pool respawned a replacement"
                ),
            )
            for index, _ in entries
        )
        try:
            worker.channel.close()
        except OSError:
            pass
        worker.process.join(0.1)
        if worker in self._workers:
            self._workers.remove(worker)
        obs.REGISTRY.counter(
            "pool.worker_crashes", help="pool workers that died mid-task"
        ).inc()
        idle.append(self._spawn_worker())


# ----------------------------------------------------------------------
# The process-global pool.
# ----------------------------------------------------------------------

_GLOBAL_POOL: Optional[WorkerPool] = None


def get_pool(jobs: int, start_method: Optional[str] = None) -> WorkerPool:
    """The process-global warm pool, grown to at least ``jobs`` workers.

    Every ``--jobs N`` site shares this pool, so workers (and their
    broadcast payloads) stay warm across calls.  A mismatched explicit
    ``start_method`` closes the old pool and starts a fresh one; a pool
    inherited from a parent process is abandoned, never touched.
    """
    global _GLOBAL_POOL
    method = start_method or default_start_method()
    pool = _GLOBAL_POOL
    if (
        pool is not None
        and not pool.closed
        and pool._owner_pid == os.getpid()
        and pool.start_method == method
    ):
        if pool.jobs < jobs:
            pool.resize(jobs)
        return pool
    if pool is not None and not pool.closed and pool._owner_pid == os.getpid():
        pool.close()
    pool = WorkerPool(jobs, start_method=method)
    _GLOBAL_POOL = pool
    return pool


def shutdown_global_pool() -> None:
    """Close the process-global pool (no-op when none is live)."""
    global _GLOBAL_POOL
    if _GLOBAL_POOL is not None:
        _GLOBAL_POOL.close()
        _GLOBAL_POOL = None


atexit.register(shutdown_global_pool)
