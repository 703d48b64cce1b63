"""Lockstep batched replication engine: R seeds, one merged calendar.

Replication campaigns (:func:`repro.sim.replicate.run_replications`) run
the same machine configuration under many root seeds, and every seed
pays the full per-event Python interpreter cost of the serial engine.
This module runs ``R`` independent replications *together*: one driver
loop owns a merged event calendar over all replications and steps each
replication only at the cycles where its state can change, while the
per-event work itself runs through lean ports of the hot layers — an
opcode-queue coherence controller and a flat-state cut-through fabric —
that shed the closure allocation and indirection the general-purpose
classes pay for their pluggability.

**Bit-exactness contract.**  The serial per-seed runner is the oracle,
the same pattern as :mod:`repro.sim.reference` vs
:mod:`repro.sim.kernel`: for every seed, the batched run's
:class:`~repro.sim.stats.MeasurementSummary` (and telemetry snapshot,
when attached) is identical to ``Machine(config.with_seed(seed), ...)
.run()``.  The ingredients:

* **RNG streams.**  Replication ``r`` spawns its per-node streams as
  ``SeedSequence(seeds[r]).spawn(nodes)`` — exactly what a solo
  :class:`~repro.sim.machine.Machine` does — and the unmodified
  :class:`~repro.sim.processor.Processor` is reused per (rep, node), so
  draw order per replication is identical to a solo run by construction.
* **Event order.**  The driver ports :class:`~repro.sim.engine
  .MachineEngine`'s per-cycle body exactly (processor boundary batches
  in ascending node order, controller batches sorted by node, fabric
  tick last) and applies its quiescence fast-forward *per replication*:
  the merged calendar holds one ``(next_cycle, rep)`` entry per
  replication, so a quiescent replication is skipped to its next event
  while a busy one is stepped cycle by cycle — the batch advances by
  the minimum wake across the batch.
* **Protocol order.**  The opcode controller executes the same protocol
  events at the same occupancy boundaries in the same FIFO order as
  :class:`~repro.sim.coherence.CoherenceController`, including the
  deferred-request discipline (pop at schedule time) and the
  LRU-as-dict-order cache; the lean fabric replicates
  :class:`~repro.sim.cut_through.CutThroughFabric`'s grant walk,
  pending activation order, and delivery scheduling.  Wormhole
  replications reuse :class:`repro.sim.network.TorusFabric` (the numpy
  kernel) per replication unchanged.

Throughput comes from three places: the lean per-event code paths, the
shared read-only structures (channel geometry, memoized routes, thread
homes) built once for the whole batch instead of once per replication,
and the merged calendar amortizing driver overhead across replications.
"""

from __future__ import annotations

import copy
from collections import deque
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ParameterError, ProtocolError, SimulationError
from repro.sim import batchcore
from repro.mapping.base import Mapping
from repro.sim.coherence import CacheState, DirectoryState
from repro.sim.config import SimulationConfig
from repro.sim.machine import place_programs
from repro.sim.message import _FLITS_BY_KIND, MessageKind
from repro.sim.network import TorusFabric
from repro.sim.processor import Processor
from repro.sim.stats import MachineStats, MeasurementSummary
from repro.sim.telemetry import FabricTelemetry, TelemetryConfig
from repro.topology.torus import Torus
from repro.workload.base import ThreadProgram

__all__ = ["BatchFabric", "BatchMachine", "run_batch"]


class _Msg:
    """Lean protocol message: the fields the fabrics and stats read.

    Interface-compatible with :class:`repro.sim.message.Message` for
    everything on the hot path (``flits`` precomputed, ``latency``
    derived) but without the global uid draw — message uids are purely
    cosmetic (repr only) and skipping the shared counter keeps
    replications independent of each other's allocation order.
    """

    __slots__ = (
        "kind", "source", "destination", "block", "transaction",
        "flits", "injected_at", "delivered_at",
    )

    def __init__(self, kind, source, destination, block, transaction):
        self.kind = kind
        self.source = source
        self.destination = destination
        self.block = block
        self.transaction = transaction
        self.flits = _FLITS_BY_KIND[kind]
        self.injected_at = None
        self.delivered_at = None

    @property
    def latency(self):
        if self.injected_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.injected_at

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"_Msg({self.kind.value} {self.source}->{self.destination} "
            f"block={self.block} txn={self.transaction})"
        )


# ----------------------------------------------------------------------
# Opcode-queue coherence controller.
# ----------------------------------------------------------------------
#
# The serial controller schedules every protocol event as a fresh
# closure.  The batch port encodes the seven event shapes as opcodes
# carried on the engine queue as plain tuples, so the steady state
# allocates one tuple (not one closure object plus cells) per event and
# dispatch is an int compare chain.  Semantics are a line-for-line port
# of repro.sim.coherence.CoherenceController.

_OP_HANDLE = 0        # a: message                  — receive occupancy done
_OP_BEGIN = 1         # a: _Request                 — request occupancy done
_OP_LAUNCH = 2        # a: message, b: unbusy block — send occupancy done
_OP_REPLY = 3         # a: (requester, block, txn)  — memory read for a reply
_OP_FINISH = 4        # a: block                    — local fill complete
_OP_DEFER = 5         # a: deferred item, b: entry  — re-dispatched request
_OP_NOP = 6           # home-eviction memory charge

_UID_STRIDE = 1 << 20


class _Entry:
    """Directory entry (port of coherence._DirectoryEntry)."""

    __slots__ = ("state", "sharers", "owner", "busy", "deferred")

    def __init__(self):
        self.state = DirectoryState.UNOWNED
        self.sharers = set()
        self.owner = None
        self.busy = False
        self.deferred = deque()


class _HomeTxn:
    """Home-side multi-message transaction (port of _HomeTransaction)."""

    __slots__ = (
        "requester", "is_write", "uid", "pending_acks", "awaiting_writeback",
    )

    def __init__(self, requester, is_write, uid, pending_acks=0,
                 awaiting_writeback=False):
        self.requester = requester
        self.is_write = is_write
        self.uid = uid
        self.pending_acks = pending_acks
        self.awaiting_writeback = awaiting_writeback


class _Request:
    """Requester-side outstanding miss (port of _LocalRequest)."""

    __slots__ = (
        "block", "is_write", "issued_at", "callback", "uid", "messages",
        "waiters",
    )

    def __init__(self, block, is_write, issued_at, callback, uid):
        self.block = block
        self.is_write = is_write
        self.issued_at = issued_at
        self.callback = callback
        self.uid = uid
        self.messages = 0
        self.waiters = []


class BatchController:
    """One node's cache + directory + protocol engine, batch edition.

    Behaviorally identical to
    :class:`~repro.sim.coherence.CoherenceController` (the parity suite
    pins whole-machine summaries across the two), restructured for the
    batched hot path: engine events are opcode tuples, block homes come
    from a precomputed shared list, and the fabric is injected into
    directly rather than through the machine's dispatch closure.
    """

    __slots__ = (
        "node", "stats", "fabric", "cache", "directory", "_homes",
        "_queue", "_current", "_done_at", "_wake", "_notified", "_ticking",
        "_outstanding", "_home_txns", "_next_uid", "_capacity",
        "_request_cost", "_receive_cost", "_send_cost", "_memory_cost",
    )

    def __init__(self, node, config, homes, stats, wake):
        self.node = node
        self.stats = stats
        self.fabric = None  # bound after fabric construction
        self._homes = homes
        self._wake = wake
        self._notified = False
        self._ticking = False
        self.cache: Dict[Tuple[int, int], CacheState] = {}
        self.directory: Dict[Tuple[int, int], _Entry] = {}
        self._queue = deque()
        self._current = None
        self._done_at = 0
        self._outstanding: Dict[Tuple[int, int], _Request] = {}
        self._home_txns: Dict[Tuple[int, int], _HomeTxn] = {}
        self._next_uid = node
        self._capacity = config.cache_lines
        self._request_cost = config.to_network(config.request_cycles)
        self._receive_cost = config.to_network(config.receive_cycles)
        self._send_cost = config.to_network(config.send_cycles)
        self._memory_cost = config.to_network(config.memory_cycles)

    # -- engine --------------------------------------------------------

    def _schedule(self, cost, op, a, b):
        self._queue.append((cost, op, a, b))
        # Wake the driver only on an idle-to-busy transition (see
        # CoherenceController._schedule).
        if self._current is None and not self._ticking and not self._notified:
            self._notified = True
            self._wake(self)

    def tick(self, cycle):
        """Run the protocol engine for one network cycle."""
        self._ticking = True
        while True:
            current = self._current
            if current is not None:
                if self._done_at > cycle:
                    break
                self._current = None
                self._execute(current[0], current[1], current[2],
                              self._done_at)
                continue
            queue = self._queue
            if not queue:
                break
            cost, op, a, b = queue.popleft()
            if cost == 0:
                self._execute(op, a, b, cycle)
                continue
            self._done_at = cycle + cost
            self._current = (op, a, b)
        self._ticking = False

    def _execute(self, op, a, b, done):
        if op == _OP_HANDLE:
            self._handle(a, done)
        elif op == _OP_LAUNCH:
            self._launch(a, done)
            if b is not None:
                entry = self.directory[b]
                entry.busy = False
                self._run_deferred(entry)
        elif op == _OP_REPLY:
            requester, block, transaction = a
            message = _Msg(
                MessageKind.DATA_REPLY, self.node, requester, block,
                transaction,
            )
            self._schedule(self._send_cost, _OP_LAUNCH, message, block)
        elif op == _OP_FINISH:
            self._finish_local(a, done)
        elif op == _OP_BEGIN:
            self._begin_transaction(a, done)
        elif op == _OP_DEFER:
            block, requester, is_write, transaction = a
            self._home_handle_request(
                block, requester, is_write, transaction, done
            )
            self._run_deferred(b)
        # _OP_NOP: occupancy only.

    # -- processor-facing API ------------------------------------------

    def cache_state(self, block):
        return self.cache.get(block, CacheState.INVALID)

    def is_hit(self, block, is_write):
        state = self.cache.get(block, CacheState.INVALID)
        if is_write:
            return state is CacheState.MODIFIED
        return state is not CacheState.INVALID

    def record_access(self, block):
        state = self.cache.pop(block, None)
        if state is not None:
            self.cache[block] = state

    def request(self, block, is_write, cycle, callback):
        existing = self._outstanding.get(block)
        if existing is not None:
            existing.waiters.append((is_write, cycle, callback))
            return
        uid = self._next_uid
        self._next_uid = uid + _UID_STRIDE
        record = _Request(block, is_write, cycle, callback, uid)
        self._outstanding[block] = record
        self.stats.transaction_started(self.node, cycle)
        self._schedule(self._request_cost, _OP_BEGIN, record, None)

    def _begin_transaction(self, record, cycle):
        block = record.block
        home = self._homes[block[1]]
        if home == self.node:
            self._home_handle_request(
                block, self.node, record.is_write, record.uid, cycle
            )
        else:
            kind = (
                MessageKind.WRITE_REQUEST
                if record.is_write
                else MessageKind.READ_REQUEST
            )
            self._emit(kind, home, block, record.uid)

    # -- cache install / eviction --------------------------------------

    def _install(self, block, state):
        cache = self.cache
        cache.pop(block, None)
        cache[block] = state
        capacity = self._capacity
        if capacity <= 0:
            return
        while len(cache) > capacity:
            victim = None
            outstanding = self._outstanding
            for candidate in cache:
                if candidate == block or candidate in outstanding:
                    continue
                victim = candidate
                break
            if victim is None:
                return
            self._evict(victim)

    def _evict(self, block):
        state = self.cache.pop(block)
        self.stats.cache_eviction(self.node)
        if state is not CacheState.MODIFIED:
            return
        home = self._homes[block[1]]
        if home == self.node:
            self._absorb_writeback(block, self.node, source_retains=False)
            self._schedule(self._memory_cost, _OP_NOP, None, None)
        else:
            self._emit(MessageKind.WRITEBACK, home, block, -1)

    # -- fabric-facing API ---------------------------------------------

    def deliver(self, message):
        self._schedule(self._receive_cost, _OP_HANDLE, message, None)

    def _emit(self, kind, destination, block, transaction):
        message = _Msg(kind, self.node, destination, block, transaction)
        self._schedule(self._send_cost, _OP_LAUNCH, message, None)

    def _launch(self, message, cycle):
        record = self._outstanding.get(message.block)
        if record is not None and record.uid == message.transaction:
            record.messages += 1
        self.stats.message_sent(self.node, message, cycle)
        if message.destination == self.node:
            raise SimulationError(
                f"self-addressed message from node {message.source}; local "
                "transactions must complete without the network"
            )
        self.fabric.inject(message, cycle)

    # -- message handlers ----------------------------------------------

    def _handle(self, message, cycle):
        kind = message.kind
        if kind is MessageKind.READ_REQUEST:
            self._home_handle_request(
                message.block, message.source, False, message.transaction,
                cycle,
            )
        elif kind is MessageKind.DATA_REPLY:
            self._complete_remote_miss(message, cycle)
        elif kind is MessageKind.WRITE_REQUEST:
            self._home_handle_request(
                message.block, message.source, True, message.transaction,
                cycle,
            )
        elif kind is MessageKind.INVALIDATE:
            self.cache.pop(message.block, None)
            self._emit(
                MessageKind.INVALIDATE_ACK, message.source, message.block,
                message.transaction,
            )
        elif kind is MessageKind.INVALIDATE_ACK:
            self._home_handle_ack(message, cycle)
        elif kind is MessageKind.FETCH:
            self._handle_fetch(message, cycle, invalidate=False)
        elif kind is MessageKind.FETCH_INVALIDATE:
            self._handle_fetch(message, cycle, invalidate=True)
        elif kind is MessageKind.WRITEBACK:
            self._absorb_writeback(
                message.block,
                message.source,
                source_retains=message.transaction != -1,
            )
        else:  # pragma: no cover - exhaustive over MessageKind
            raise ProtocolError(f"unhandled message kind {kind!r}")

    # -- home side -----------------------------------------------------

    def _entry(self, block):
        entry = self.directory.get(block)
        if entry is None:
            entry = _Entry()
            self.directory[block] = entry
        return entry

    def _home_handle_request(self, block, requester, is_write, transaction,
                             cycle):
        if self._homes[block[1]] != self.node:
            raise ProtocolError(
                f"node {self.node} received a request for block {block} "
                f"homed at {self._homes[block[1]]}"
            )
        entry = self._entry(block)
        if entry.busy:
            entry.deferred.append((block, requester, is_write, transaction))
            return
        if is_write:
            self._home_write(block, entry, requester, transaction)
        else:
            self._home_read(block, entry, requester, transaction)

    def _home_read(self, block, entry, requester, transaction):
        if entry.state is DirectoryState.MODIFIED and entry.owner != requester:
            if entry.owner == self.node:
                self._install(block, CacheState.SHARED)
                entry.state = DirectoryState.SHARED
                entry.sharers = {self.node, requester}
                entry.owner = None
                self._reply_with_data(block, requester, transaction)
                return
            entry.busy = True
            self._home_txns[block] = _HomeTxn(
                requester, False, transaction, awaiting_writeback=True
            )
            self._emit(MessageKind.FETCH, entry.owner, block, transaction)
            return
        if entry.state is DirectoryState.MODIFIED:
            entry.sharers = {entry.owner}
            entry.owner = None
        entry.state = DirectoryState.SHARED
        entry.sharers.add(requester)
        self._reply_with_data(block, requester, transaction)

    def _home_write(self, block, entry, requester, transaction):
        if entry.state is DirectoryState.MODIFIED and entry.owner != requester:
            if entry.owner == self.node:
                self.cache.pop(block, None)
                entry.owner = requester
                self._reply_with_data(block, requester, transaction)
                return
            entry.busy = True
            self._home_txns[block] = _HomeTxn(
                requester, True, transaction, awaiting_writeback=True
            )
            self._emit(
                MessageKind.FETCH_INVALIDATE, entry.owner, block, transaction
            )
            return
        remote_sharers = {s for s in entry.sharers if s not in (requester,)}
        if self.node in remote_sharers:
            self.cache.pop(block, None)
            remote_sharers.discard(self.node)
        if remote_sharers:
            entry.busy = True
            self._home_txns[block] = _HomeTxn(
                requester, True, transaction,
                pending_acks=len(remote_sharers),
            )
            for sharer in remote_sharers:
                self._emit(MessageKind.INVALIDATE, sharer, block, transaction)
            return
        self._grant_write(block, entry, requester, transaction)

    def _grant_write(self, block, entry, requester, transaction):
        entry.state = DirectoryState.MODIFIED
        entry.sharers = set()
        entry.owner = requester
        self._reply_with_data(block, requester, transaction)

    def _reply_with_data(self, block, requester, transaction):
        entry = self._entry(block)
        entry.busy = True
        if requester == self.node:
            self._schedule(self._memory_cost, _OP_FINISH, block, None)
        else:
            self._schedule(
                self._memory_cost, _OP_REPLY,
                (requester, block, transaction), None,
            )

    def _home_handle_ack(self, message, cycle):
        home_txn = self._home_txns.get(message.block)
        if home_txn is None or home_txn.pending_acks <= 0:
            raise ProtocolError(
                f"unexpected invalidate ack for block {message.block} at "
                f"node {self.node}"
            )
        home_txn.pending_acks -= 1
        if home_txn.pending_acks > 0:
            return
        entry = self._entry(message.block)
        del self._home_txns[message.block]
        entry.busy = False
        self._grant_write(
            message.block, entry, home_txn.requester, home_txn.uid
        )
        self._run_deferred(entry)

    def _absorb_writeback(self, block, source, source_retains):
        home_txn = self._home_txns.get(block)
        entry = self._entry(block)
        if home_txn is not None and home_txn.awaiting_writeback:
            del self._home_txns[block]
            entry.busy = False
            if home_txn.is_write:
                entry.state = DirectoryState.MODIFIED
                entry.sharers = set()
                entry.owner = home_txn.requester
            else:
                entry.state = DirectoryState.SHARED
                entry.sharers = {home_txn.requester}
                if source_retains:
                    entry.sharers.add(source)
                entry.owner = None
            self._reply_with_data(block, home_txn.requester, home_txn.uid)
            self._run_deferred(entry)
            return
        if home_txn is not None:
            raise ProtocolError(
                f"writeback for block {block} at node {self.node} collided "
                "with a non-fetch transaction"
            )
        if entry.state is not DirectoryState.MODIFIED or entry.owner != source:
            raise ProtocolError(
                f"eviction writeback for block {block} from node {source} "
                f"but directory says {entry.state.value}/owner={entry.owner}"
            )
        entry.state = DirectoryState.UNOWNED
        entry.sharers = set()
        entry.owner = None
        self._run_deferred(entry)

    def _run_deferred(self, entry):
        # Pop at schedule time, exactly like the serial controller: the
        # popped request runs even if the entry re-busies meanwhile (it
        # then re-defers itself to the back of the queue).
        if not entry.deferred or entry.busy:
            return
        item = entry.deferred.popleft()
        self._schedule(self._request_cost, _OP_DEFER, item, entry)

    # -- remote sharer / owner side ------------------------------------

    def _handle_fetch(self, message, cycle, invalidate):
        state = self.cache.get(message.block, CacheState.INVALID)
        if state is CacheState.INVALID:
            return
        if state is not CacheState.MODIFIED:
            raise ProtocolError(
                f"fetch at node {self.node} for block {message.block} in "
                f"state {state.value} (expected M or evicted)"
            )
        if invalidate:
            self.cache.pop(message.block, None)
        else:
            self._install(message.block, CacheState.SHARED)
        self._emit(
            MessageKind.WRITEBACK, message.source, message.block,
            message.transaction,
        )

    # -- requester completion ------------------------------------------

    def _complete_remote_miss(self, message, cycle):
        record = self._outstanding.pop(message.block, None)
        if record is None:
            raise ProtocolError(
                f"data reply for block {message.block} with no outstanding "
                f"request at node {self.node}"
            )
        state = CacheState.MODIFIED if record.is_write else CacheState.SHARED
        self._install(message.block, state)
        self.stats.transaction_completed(
            self.node, record.issued_at, cycle, remote=True
        )
        record.callback(cycle)
        self._release_waiters(record, state, cycle)

    def _finish_local(self, block, cycle):
        record = self._outstanding.pop(block, None)
        if record is None:
            raise ProtocolError(
                f"local completion for block {block} with no outstanding "
                f"request at node {self.node}"
            )
        state = CacheState.MODIFIED if record.is_write else CacheState.SHARED
        self._install(block, state)
        entry = self._entry(block)
        entry.busy = False
        remote = record.messages > 0
        self.stats.transaction_completed(
            self.node, record.issued_at, cycle, remote=remote
        )
        record.callback(cycle)
        self._run_deferred(entry)
        self._release_waiters(record, state, cycle)

    def _release_waiters(self, record, state, cycle):
        for is_write, issued_at, callback in record.waiters:
            if is_write and state is not CacheState.MODIFIED:
                self.request(record.block, True, cycle, callback)
                continue
            callback(cycle)


# ----------------------------------------------------------------------
# Lean cut-through fabric with shared geometry.
# ----------------------------------------------------------------------

#: Head-eligibility sentinel for an empty channel queue (matches
#: repro.sim.cut_through._NEVER).
_NEVER = 1 << 62


class FabricGeometry:
    """Read-only cut-through channel geometry, shared across a batch.

    Channel enumeration order is identical to
    :class:`~repro.sim.cut_through.CutThroughFabric` (injection,
    ejection, then links in node/dimension/direction order) — it defines
    telemetry snapshot layout and ``link_flits`` keys, so sharing it
    guarantees batched snapshots align with serial ones.  E-cube routes
    are memoized here once for all replications.
    """

    __slots__ = ("torus", "channels", "link_of", "link_keys", "_route_cache",
                 "_channel_index")

    def __init__(self, torus: Torus):
        self.torus = torus
        self._channel_index: Dict[Tuple, int] = {}
        self.link_keys: List[Tuple[int, int, int]] = []
        link_of: List[int] = []
        for node in torus.nodes():
            self._channel_index[("inj", node)] = len(link_of)
            link_of.append(-1)
        for node in torus.nodes():
            self._channel_index[("ej", node)] = len(link_of)
            link_of.append(-1)
        for node in torus.nodes():
            for dim in range(torus.dimensions):
                for step in (1, -1):
                    self._channel_index[("link", node, dim, step)] = len(
                        link_of
                    )
                    link_of.append(len(self.link_keys))
                    self.link_keys.append((node, dim, step))
        self.link_of = link_of
        self.channels = len(link_of)
        self._route_cache: Dict[Tuple[int, int], List[int]] = {}

    def route_ids(self, source: int, destination: int) -> List[int]:
        pair = (source, destination)
        route = self._route_cache.get(pair)
        if route is None:
            index = self._channel_index
            torus = self.torus
            route = [index[("inj", source)]]
            for hop in torus.route_hops(source, destination):
                route.append(index[("link",) + hop])
            route.append(index[("ej", destination)])
            self._route_cache[pair] = route
        return route


class BatchFabric:
    """Per-replication cut-through fabric state over shared geometry.

    A lean port of :class:`~repro.sim.cut_through.CutThroughFabric`:
    same grant conditions, same pending activation order, same delivery
    scheduling, but transits are plain 4-lists, deliveries are handled
    inline (stats + controller dispatch without the machine's callback
    hop), and the geometry/route tables are shared across the batch.
    """

    __slots__ = (
        "geometry", "_stats", "_controllers", "_free_at", "_head_eligible",
        "_queues", "_link_flit_counts", "_pending", "_deliveries",
        "_delivery_count", "_in_flight", "delivered_count", "_telemetry",
    )

    def __init__(self, geometry: FabricGeometry):
        self.geometry = geometry
        self._stats = None
        self._controllers = None
        count = geometry.channels
        self._free_at = [0] * count
        self._head_eligible = [_NEVER] * count
        self._queues: List = [deque() for _ in range(count)]
        self._link_flit_counts = [0] * len(geometry.link_keys)
        self._pending: List[int] = []
        self._deliveries: Dict[int, List] = {}
        self._delivery_count = 0
        self._in_flight = 0
        self.delivered_count = 0
        self._telemetry: Optional[FabricTelemetry] = None

    def bind(self, stats, controllers) -> None:
        """Wire the delivery sinks (stats and per-node controllers)."""
        self._stats = stats
        self._controllers = controllers

    def attach_telemetry(self, config: TelemetryConfig) -> FabricTelemetry:
        if self._telemetry is not None:
            raise SimulationError("telemetry already attached to this fabric")
        geometry = self.geometry
        self._telemetry = FabricTelemetry(
            config=config,
            channels=geometry.channels,
            link_of=geometry.link_of,
            link_keys=geometry.link_keys,
            depth_probe=self._queue_depths,
            label="cut_through",
        )
        return self._telemetry

    def _queue_depths(self) -> List[int]:
        return [len(queue) for queue in self._queues]

    def inject(self, message, cycle: int) -> None:
        message.injected_at = cycle
        route = self.geometry.route_ids(message.source, message.destination)
        transit = [message, route, 0, 0]  # message, route, next_hop, wait
        self._in_flight += 1
        channel = route[0]
        queue = self._queues[channel]
        if not queue:
            self._pending.append(channel)
            self._head_eligible[channel] = cycle
        queue.append((cycle, transit))

    def tick(self, cycle: int) -> None:
        # Same ordering as CutThroughFabric.tick: telemetry epoch roll,
        # then deliveries (whose reply injections land on the old
        # pending list with same-cycle eligibility), then the grant walk.
        telemetry = self._telemetry
        if telemetry is not None and cycle >= telemetry.epoch_end:
            telemetry.roll_to(cycle)
        if self._delivery_count:
            arrivals = self._deliveries.pop(cycle, None)
            if arrivals:
                self._delivery_count -= len(arrivals)
                stats = self._stats
                controllers = self._controllers
                for transit in arrivals:
                    message = transit[0]
                    message.delivered_at = cycle
                    self.delivered_count += 1
                    self._in_flight -= 1
                    if telemetry is not None:
                        telemetry.record_delivery(cycle - message.injected_at)
                    stats.message_delivered(
                        message, len(transit[1]) - 2, transit[3], cycle
                    )
                    controllers[message.destination].deliver(message)
        pending = self._pending
        if not pending:
            return
        free_at = self._free_at
        head_eligible = self._head_eligible
        queues = self._queues
        link_of = self.geometry.link_of
        link_counts = self._link_flit_counts
        new_pending: List[int] = []
        append = new_pending.append
        self._pending = new_pending
        for channel in pending:
            if free_at[channel] > cycle or head_eligible[channel] > cycle:
                append(channel)
                continue
            queue = queues[channel]
            transit = queue.popleft()[1]
            head_eligible[channel] = queue[0][0] if queue else _NEVER
            # Grant (inline port of CutThroughFabric._grant).
            message = transit[0]
            flits = message.flits
            until = cycle + flits
            free_at[channel] = until
            if telemetry is not None:
                telemetry.channel_flits[channel] += flits
            route = transit[1]
            hop = transit[2]
            if hop == 0:
                transit[3] = cycle - message.injected_at
            else:
                link = link_of[channel]
                if link >= 0:
                    link_counts[link] += flits
            hop += 1
            transit[2] = hop
            if hop >= len(route):
                slot = self._deliveries.get(until)
                if slot is None:
                    self._deliveries[until] = [transit]
                else:
                    slot.append(transit)
                self._delivery_count += 1
            else:
                nxt = route[hop]
                next_queue = queues[nxt]
                if not next_queue:
                    append(nxt)
                    head_eligible[nxt] = cycle + 1
                next_queue.append((cycle + 1, transit))
            if queue:
                append(channel)

    # -- introspection -------------------------------------------------

    @property
    def link_flits(self) -> Dict[Tuple[int, int, int], int]:
        keys = self.geometry.link_keys
        return {
            keys[i]: count
            for i, count in enumerate(self._link_flit_counts)
            if count
        }

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def quiescent(self) -> bool:
        return self._in_flight == 0

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        earliest = min(self._deliveries) if self._delivery_count else None
        if self._pending:
            free_at = self._free_at
            head_eligible = self._head_eligible
            for channel in self._pending:
                at = free_at[channel]
                eligible = head_eligible[channel]
                if eligible > at:
                    at = eligible
                if at <= cycle:
                    return cycle
                if earliest is None or at < earliest:
                    earliest = at
        return earliest


# ----------------------------------------------------------------------
# Compiled-core bindings.
# ----------------------------------------------------------------------
#
# When the replication batch runs cut-through without telemetry, the
# controller + fabric + per-cycle loop above can run inside the
# compiled core (repro.sim._batchcore.c, a transliteration of the
# Python classes).  Python keeps the processors — their RNG draw order
# defines bit-exactness — and talks to the core through two small
# shims: a per-(rep, node) controller proxy for the processor-facing
# calls, and a per-rep fabric view for link-flit snapshots.


class _CoreController:
    """Processor-facing view of one (replication, node) core controller."""

    __slots__ = ("node", "_machine", "_rep", "_lib", "_core")

    def __init__(self, machine: "BatchMachine", rep_index: int, node: int):
        self.node = node
        self._machine = machine
        self._rep = rep_index
        self._lib = machine._lib
        self._core = machine._core

    def is_hit(self, block, is_write):
        machine = self._machine
        block_id = machine._block_ids.get(block)
        if block_id is None:
            block_id = machine._intern_block(block)
        return bool(
            self._lib.bc_is_hit(
                self._core, self._rep, self.node, block_id, is_write
            )
        )

    def record_access(self, block):
        block_id = self._machine._block_ids.get(block)
        if block_id is not None:
            self._lib.bc_record_access(
                self._core, self._rep, self.node, block_id
            )

    def request(self, block, is_write, cycle, callback):
        machine = self._machine
        block_id = machine._block_ids.get(block)
        if block_id is None:
            block_id = machine._intern_block(block)
        rep = machine._reps[self._rep]
        handle = rep.next_handle
        rep.next_handle = handle + 1
        rep.callbacks[handle] = callback
        self._lib.bc_request(
            self._core, self._rep, self.node, block_id, bool(is_write),
            cycle, handle,
        )


class _CoreFabricView:
    """Per-replication fabric introspection backed by core counters."""

    __slots__ = ("_machine", "_rep")

    def __init__(self, machine: "BatchMachine", rep_index: int):
        self._machine = machine
        self._rep = rep_index

    @property
    def link_flits(self) -> Dict[Tuple[int, int, int], int]:
        machine = self._machine
        buf = machine._link_buf
        machine._lib.bc_get_link_flits(machine._core, self._rep, buf)
        keys = machine._geometry.link_keys
        return {
            keys[i]: buf[i] for i in range(len(keys)) if buf[i]
        }

    @property
    def in_flight(self) -> int:
        machine = self._machine
        return machine._lib.bc_in_flight(machine._core, self._rep)


# ----------------------------------------------------------------------
# Lockstep driver.
# ----------------------------------------------------------------------


def _controller_node(controller) -> int:
    return controller.node


class _Rep:
    """Per-replication machine state tracked by the lockstep driver."""

    __slots__ = (
        "index", "seed", "cycle", "processors", "controllers", "stats",
        "fabric", "fabric_tick", "fabric_next", "telemetry", "heap", "woken",
        "woken_flag", "last_tick", "engine_ready", "ctrl_wake",
        "idle_before", "switches_before", "callbacks", "next_handle",
    )


class BatchMachine:
    """R independent replications of one machine config, run in lockstep.

    Construction mirrors ``Machine(config.with_seed(seed), mapping,
    programs)`` per seed — per-replication program deep copies, per-node
    RNG streams spawned from each seed — with the geometry, route cache,
    and thread-home table shared read-only across replications.
    :meth:`run` is single-use and returns per-seed summaries in seed
    order, each bit-identical to the serial machine's.
    """

    def __init__(
        self,
        config: SimulationConfig,
        mapping: Mapping,
        programs: Sequence[Sequence[ThreadProgram]],
        seeds: Sequence[int],
        telemetry: Optional[TelemetryConfig] = None,
        _adopt=None,
    ):
        seeds = tuple(int(seed) for seed in seeds)
        if not seeds:
            raise ParameterError("need at least one replication seed")
        if config.switching not in ("cut_through", "wormhole"):
            raise SimulationError(
                f"batched replication supports the cut_through and wormhole "
                f"fabrics; got switching={config.switching!r}"
            )
        self.config = config
        self.seeds = seeds
        self.torus = Torus(radix=config.radix, dimensions=config.dimensions)
        nodes = self.torus.node_count
        if _adopt is None:
            # Validate the mapping/programs combination once, with the
            # same errors a solo Machine raises.
            place_programs(config, mapping, programs, nodes)
        homes = [mapping.processor_of(t) for t in range(mapping.threads)]
        geometry = (
            FabricGeometry(self.torus)
            if config.switching == "cut_through"
            else None
        )
        self._geometry = geometry
        self._homes = homes
        self._core = None
        self._ffi = None
        self._lib = None
        self._block_ids: Dict[Tuple[int, int], int] = {}
        batchcore.engine_mode()  # reject a malformed gate on every path
        if (
            geometry is not None
            and telemetry is None
            and batchcore.shape_supported(
                nodes, config.dimensions, config.radix
            )
        ):
            loaded, _ = batchcore.acquire()
            if loaded is not None:
                ffi, lib = loaded
                core = lib.bc_create(
                    len(seeds), nodes, config.dimensions, config.radix,
                    config.cache_lines,
                    config.to_network(config.request_cycles),
                    config.to_network(config.receive_cycles),
                    config.to_network(config.send_cycles),
                    config.to_network(config.memory_cycles),
                )
                if core == ffi.NULL:
                    raise MemoryError("cannot allocate the batch core")
                self._ffi = ffi
                self._lib = lib
                self._core = ffi.gc(core, lib.bc_destroy)
                self._link_buf = ffi.new(
                    "long long[]", len(geometry.link_keys)
                )
                self._node_buf = ffi.new("long long[]", nodes)
                self._counter_buf = ffi.new("long long[12]")
                self._double_buf = ffi.new("double[1]")
        #: Selected engine for this batch: ``"c"`` (compiled core) or
        #: ``"py"`` (pure-Python reference path).
        self.engine = "c" if self._core is not None else "py"
        self._reps: List[_Rep] = []
        self._cycle = 0
        self._ran = False
        for index, seed in enumerate(seeds):
            rep = _Rep()
            rep.index = index
            rep.seed = seed
            rep.cycle = 0
            rep.stats = (
                MachineStats(nodes=nodes) if _adopt is None else _adopt.stats
            )
            rep.engine_ready = []
            rep.ctrl_wake = []
            rep.heap = []
            rep.woken = []
            rep.woken_flag = [False] * nodes
            rep.last_tick = [-1] * nodes
            rep.callbacks = {}
            rep.next_handle = 0
            if self._core is not None:
                rep.controllers = [
                    _CoreController(self, index, node)
                    for node in range(nodes)
                ]
                fabric = _CoreFabricView(self, index)
                rep.fabric = fabric
                rep.fabric_tick = None
                rep.fabric_next = None
                rep.telemetry = None
            else:
                rep.controllers = [
                    BatchController(
                        node=node,
                        config=config,
                        homes=homes,
                        stats=rep.stats,
                        wake=rep.engine_ready.append,
                    )
                    for node in range(nodes)
                ]
                if geometry is not None:
                    fabric = BatchFabric(geometry)
                    fabric.bind(rep.stats, rep.controllers)
                else:
                    fabric = TorusFabric(
                        self.torus, on_delivery=self._make_deliver(rep)
                    )
                rep.fabric = fabric
                rep.fabric_tick = fabric.tick
                rep.fabric_next = fabric.next_event_cycle
                for controller in rep.controllers:
                    controller.fabric = fabric
                rep.telemetry = (
                    fabric.attach_telemetry(telemetry)
                    if telemetry is not None
                    else None
                )
            if _adopt is None:
                # Per-replication program copies (programs are stateful)
                # and RNG streams, exactly as the serial replication path
                # builds them from config.with_seed(seed).
                _, programs_at = place_programs(
                    config, mapping, copy.deepcopy(programs), nodes
                )
                node_seeds = np.random.SeedSequence(seed).spawn(nodes)
                rep.processors = [
                    Processor(
                        node=node,
                        config=config,
                        controller=rep.controllers[node],
                        programs=programs_at[node],
                        stats=rep.stats,
                        seed_seq=node_seeds[node],
                    )
                    for node in range(nodes)
                ]
            else:
                rep.processors = _adopt.processors
                for processor in rep.processors:
                    processor.controller = rep.controllers[processor.node]
            # Processor wake calendar (port of MachineEngine.__init__ at
            # cycle 0): every fresh processor is mid-run, so it lands on
            # the heap; the wake listener catches later idle wake-ups.
            wake = self._make_wake(rep)
            for processor in rep.processors:
                processor._wake_listener = wake
                distance = processor.next_event_ticks()
                if distance is not None:
                    heappush(rep.heap, (distance - 1, processor.node))
                elif processor._ready_count:  # pragma: no cover - defensive
                    rep.woken_flag[processor.node] = True
                    rep.woken.append(processor.node)
            self._reps.append(rep)

    @classmethod
    def adopt(cls, machine) -> "BatchMachine":
        """A one-lane batch that takes over a fresh ``machine``.

        The single-run fast path of :meth:`repro.sim.machine.Machine.run`.
        The machine's processors (programs placed, RNG streams spawned,
        first run lengths drawn — exactly what a batch lane builds) and
        its ``MachineStats`` become lane 0, and the lane's controllers
        and fabric view replace the machine's, so the machine reads the
        state this batch leaves behind.
        """
        batch = cls(
            machine.config,
            machine.mapping,
            (),
            (machine.config.seed,),
            _adopt=machine,
        )
        lane = batch._reps[0]
        machine.controllers = lane.controllers
        machine.fabric = lane.fabric
        return batch

    # -- compiled-core plumbing ----------------------------------------

    def _intern_block(self, block: Tuple[int, int]) -> int:
        """Assign a dense core id to a block tuple (instance, thread)."""
        block_id = self._lib.bc_add_block(
            self._core, self._homes[block[1]]
        )
        self._block_ids[block] = block_id
        return block_id

    def _merge_core_stats(self, rep: _Rep) -> None:
        """Copy the core's measuring-gated counters into rep.stats."""
        lib = self._lib
        ints = self._counter_buf
        dbl = self._double_buf
        lib.bc_get_counters(self._core, rep.index, ints, dbl)
        stats = rep.stats
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
        lib.bc_get_per_node_sent(self._core, rep.index, buf)
        stats.per_node_messages = {
            node: buf[node]
            for node in range(self.torus.node_count)
            if buf[node]
        }

    @staticmethod
    def _make_wake(rep: _Rep):
        woken = rep.woken
        flag = rep.woken_flag

        def on_wake(processor):
            if (
                processor._active is None
                and processor._switch_remaining == 0
                and not flag[processor.node]
            ):
                flag[processor.node] = True
                woken.append(processor.node)

        return on_wake

    @staticmethod
    def _make_deliver(rep: _Rep):
        """Wormhole-kernel delivery callback (cycle read off the rep)."""

        def deliver(worm):
            message = worm.message
            rep.stats.message_delivered(
                message, worm.hops, worm.source_wait, rep.cycle
            )
            rep.controllers[message.destination].deliver(message)

        return deliver

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------

    def run(
        self,
        warmup: Optional[int] = None,
        measure: Optional[int] = None,
    ) -> List[MeasurementSummary]:
        """Warm up, measure, and summarize every replication."""
        if self._ran:
            raise SimulationError(
                "BatchMachine.run is single-use; build a new instance per "
                "batch"
            )
        self._ran = True
        config = self.config
        warmup = config.warmup_network_cycles if warmup is None else warmup
        measure = config.measure_network_cycles if measure is None else measure
        reps = self._reps
        with obs.span(
            "sim.batch",
            reps=len(reps),
            warmup=warmup,
            measure=measure,
            nodes=self.torus.node_count,
        ):
            self._run_window(warmup)
            for rep in reps:
                rep.idle_before = [p.idle_cycles for p in rep.processors]
                rep.switches_before = sum(
                    p.switch_count for p in rep.processors
                )
                rep.stats.start_measuring(self._cycle, rep.fabric.link_flits)
                if self._core is not None:
                    self._lib.bc_start_measuring(self._core, rep.index)
            self._run_window(measure)
            for rep in reps:
                rep.stats.stop_measuring(self._cycle)
                if self._core is not None:
                    self._merge_core_stats(rep)
        end = self._cycle
        physical_links = self.torus.node_count * 2 * self.torus.dimensions
        summaries = []
        for rep in reps:
            for processor in rep.processors:
                processor._wake_listener = None
            if rep.telemetry is not None:
                rep.telemetry.finalize(end)
            rep.stats.idle_cycles = sum(
                p.idle_cycles - before
                for p, before in zip(rep.processors, rep.idle_before)
            )
            rep.stats.switches = (
                sum(p.switch_count for p in rep.processors)
                - rep.switches_before
            )
            summary = rep.stats.summary(
                link_flits=rep.fabric.link_flits,
                physical_links=physical_links,
                network_speedup=config.network_speedup,
            )
            if rep.telemetry is not None and rep.telemetry.finalized:
                summary.telemetry = rep.telemetry.snapshot()
            summaries.append(summary)
        return summaries

    def _run_window(self, cycles: int) -> None:
        if self._core is not None:
            self._run_window_core(cycles)
        else:
            self._run_window_py(cycles)

    def _run_window_core(self, cycles: int) -> None:
        """Core-backed window: Python processors, C controllers/fabric.

        The per-cycle ctrl/fabric body lives in ``bc_advance``, which
        runs this replication up to the next *processor* boundary (the
        earliest processor-heap due tick or post-wake boundary) and
        additionally returns early whenever a cycle completed a memory
        transaction, so the Python side can run the completion
        callbacks — order-preserved, processor-state-only — and
        recompute the boundary.  Cycles the serial engine would visit
        idly are skipped inside the core with the same guards as the
        Python engine (ready controllers, controller wake heap, fabric
        horizon).
        """
        if cycles <= 0:
            return
        lib = self._lib
        core = self._core
        start = self._cycle
        end = start + cycles
        speedup = self.config.network_speedup
        reps = self._reps
        merged = [(start, index) for index in range(len(reps))]
        while merged and merged[0][0] < end:
            cycle, index = heappop(merged)
            rep = reps[index]
            rep.cycle = cycle
            heap = rep.heap
            if cycle % speedup == 0:
                tick = cycle // speedup
                batch: Optional[List[int]] = None
                while heap and heap[0][0] == tick:
                    node = heappop(heap)[1]
                    if batch is None:
                        batch = [node]
                    else:
                        batch.append(node)
                woken = rep.woken
                if woken:
                    if batch is None:
                        woken.sort()
                        batch = woken[:]
                    else:
                        batch.extend(woken)
                        batch.sort()
                    flag = rep.woken_flag
                    for node in woken:
                        flag[node] = False
                    woken.clear()
                if batch is not None:
                    processors = rep.processors
                    last_tick = rep.last_tick
                    for node in batch:
                        processor = processors[node]
                        gap = tick - last_tick[node] - 1
                        if gap > 0:
                            processor.skip_ticks(gap)
                        processor.tick(cycle)
                        last_tick[node] = tick
                        distance = processor.next_event_ticks()
                        if distance is not None:
                            heappush(heap, (tick + distance, node))
            # Advance ctrl + fabric in C up to the next processor
            # boundary (heap due or first post-wake boundary).
            stop = end
            if heap:
                due_at = heap[0][0] * speedup
                if due_at < stop:
                    stop = due_at
            if rep.woken:
                due_at = cycle + 1
                rem = due_at % speedup
                if rem:
                    due_at += speedup - rem
                if due_at < stop:
                    stop = due_at
            nxt = lib.bc_advance(core, index, stop)
            if nxt < 0:
                batchcore.raise_error(self._ffi, lib, core)
            count = lib.bc_comp_count(core, index)
            if count:
                buf = lib.bc_comp_ptr(core, index)
                pop = rep.callbacks.pop
                for i in range(count):
                    pop(buf[2 * i])(buf[2 * i + 1])
                lib.bc_comp_clear(core, index)
            if nxt < end:
                heappush(merged, (nxt, index))
        self._cycle = end
        tick = (end - 1) // speedup
        for rep in reps:
            last_tick = rep.last_tick
            for processor in rep.processors:
                node = processor.node
                gap = tick - last_tick[node]
                if gap > 0:
                    processor.skip_ticks(gap)
                    last_tick[node] = tick

    def _run_window_py(self, cycles: int) -> None:
        """Advance every replication ``cycles`` network cycles.

        Per replication this is an exact port of
        :meth:`~repro.sim.engine.MachineEngine.run_window`; the merged
        heap holds one ``(next_cycle, rep_index)`` entry per replication
        so quiescent spans of one replication cost nothing while another
        is stepped cycle by cycle.
        """
        if cycles <= 0:
            return
        start = self._cycle
        end = start + cycles
        speedup = self.config.network_speedup
        reps = self._reps
        merged = [(start, index) for index in range(len(reps))]
        while merged and merged[0][0] < end:
            cycle, index = heappop(merged)
            rep = reps[index]
            rep.cycle = cycle
            if cycle % speedup == 0:
                tick = cycle // speedup
                heap = rep.heap
                batch: Optional[List[int]] = None
                while heap and heap[0][0] == tick:
                    node = heappop(heap)[1]
                    if batch is None:
                        batch = [node]
                    else:
                        batch.append(node)
                woken = rep.woken
                if woken:
                    if batch is None:
                        woken.sort()
                        batch = woken[:]
                    else:
                        batch.extend(woken)
                        batch.sort()
                    flag = rep.woken_flag
                    for node in woken:
                        flag[node] = False
                    woken.clear()
                if batch is not None:
                    processors = rep.processors
                    last_tick = rep.last_tick
                    for node in batch:
                        processor = processors[node]
                        gap = tick - last_tick[node] - 1
                        if gap > 0:
                            processor.skip_ticks(gap)
                        processor.tick(cycle)
                        last_tick[node] = tick
                        distance = processor.next_event_ticks()
                        if distance is not None:
                            heappush(heap, (tick + distance, node))
            # Controllers with runnable engine work: those woken this
            # cycle plus those whose occupancy ends now, in node order
            # (port of Machine._tick_controllers).
            wake = rep.ctrl_wake
            due: Optional[List] = None
            while wake and wake[0][0] == cycle:
                controller = heappop(wake)[2]
                if due is None:
                    due = [controller]
                else:
                    due.append(controller)
            ready = rep.engine_ready
            if ready:
                batch = ready[:] if due is None else due + ready
                ready.clear()  # keep list identity: controllers hold .append
            else:
                batch = due
            if batch is not None:
                if len(batch) > 1:
                    batch.sort(key=_controller_node)
                for controller in batch:
                    controller._notified = False
                    controller.tick(cycle)
                    if controller._current is not None:
                        heappush(
                            wake,
                            (controller._done_at, controller.node, controller),
                        )
            rep.fabric_tick(cycle)
            # Quiescence fast-forward for this replication (port of the
            # engine's jump logic; `ready`/`woken` may have refilled
            # during the fabric tick).
            nxt = cycle + 1
            if not ready and not rep.woken:
                horizon = rep.fabric_next(nxt)
                if horizon is None or horizon > nxt:
                    target = end
                    heap = rep.heap
                    if heap:
                        due_at = heap[0][0] * speedup
                        if due_at < target:
                            target = due_at
                    if wake and wake[0][0] < target:
                        target = wake[0][0]
                    if horizon is not None and horizon < target:
                        target = horizon
                    if target > nxt:
                        nxt = target
            if nxt < end:
                heappush(merged, (nxt, index))
        self._cycle = end
        # Flush processors to the window's last boundary (port of
        # MachineEngine._flush): pure deferred countdown accounting.
        tick = (end - 1) // speedup
        for rep in reps:
            last_tick = rep.last_tick
            for processor in rep.processors:
                node = processor.node
                gap = tick - last_tick[node]
                if gap > 0:
                    processor.skip_ticks(gap)
                    last_tick[node] = tick


def run_batch(
    config: SimulationConfig,
    mapping: Mapping,
    programs: Sequence[Sequence[ThreadProgram]],
    seeds: Sequence[int],
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> List[MeasurementSummary]:
    """Run ``len(seeds)`` lockstep replications; summaries in seed order.

    Each summary (and telemetry snapshot, with a ``telemetry`` config)
    is bit-identical to the serial
    ``Machine(config.with_seed(seed), mapping, programs).run(...)`` for
    the same seed.  Programs are deep-copied per replication internally;
    callers pass the pristine originals.
    """
    machine = BatchMachine(
        config, mapping, programs, seeds, telemetry=telemetry
    )
    return machine.run(warmup=warmup, measure=measure)
