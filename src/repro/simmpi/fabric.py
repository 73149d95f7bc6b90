"""Message fabric shared by all simulated ranks.

Two wire protocols share one lock, one set of statistics and one set of
per-rank wake-ups.

Edge slots (persistent channels)
--------------------------------
Every ``(src, dst, tag)`` edge of a persistent channel is an
:class:`_EdgeSlot`: the sender's buffer and the receiver's buffer bound,
once, as flat byte views when the edge is negotiated
(:meth:`SimFabric.negotiate_channel`, ``send_init``/``recv_init``).  A
step is then a copy program over the slots.  ``post_send_batch`` bumps
each edge's *posted* epoch; ``complete_recv_batch`` copies every posted
edge straight from its send view into its receive view -- the single wire
copy, run outside the lock so other ranks post and drain meanwhile -- and
bumps its *consumed* epoch; ``wait_send_batch`` waits until the consumed epochs
catch up.  No per-message object is built.  The partitions of a
partitioned request are byte slices of the message's views, each its own
slot under a disjoint tag (:func:`partition_tag`), so ``pready`` marks a
slice and ``parrived`` probes one.  An edge carries at most one message
at a time, as a persistent MPI request does.

Mailboxes (per-message traffic)
-------------------------------
Point-to-point ``SimComm`` traffic, collectives and everything on a
verified fabric use mailboxes keyed ``(source, dest, tag)``.  ``post_send``
deposits a :class:`_SendEntry` holding a *reference* to the send buffer
(no copy -- the wire copy happens exactly once, at match time, into the
receive buffer); ``complete_recv`` pops the matching entry, copies it and
flags the entry done.

Targeted wake-ups
-----------------
Each rank waits on its own ``Condition`` over the fabric lock.  A post
wakes only its destination ranks, a consumption wakes only the sender,
and only abort, :meth:`SimFabric.mark_dead` and deadlock detection wake
every rank.  Send completion is state the receiver sets under the lock
(a slot's consumed epoch, a mailbox entry's done flag), so a waiting
sender sleeps on its condition instead of polling.

Statistics (message and byte counts) are recorded per rank, one send per
message or partition on either protocol; the modelled clocks use them and
the tests assert on them.

Verified mode (the chaos fabric)
--------------------------------
``enable_envelope()`` switches every message onto the envelope protocol of
:mod:`repro.exchange.envelope`: payloads are frozen (copied) at post time,
stamped with a per-edge sequence number and CRC32, and validated by the
receiver.  Detected faults raise the typed errors from
:mod:`repro.faults.errors` *after* a pristine retransmit has been queued,
so a bounded retry of the exchange heals them.  Three auxiliary structures
make whole-exchange retries idempotent:

* **post suppression** -- within one exchange *epoch* (set per rank by the
  driver), a second post on the same edge is a retransmit of data already
  on the wire and is silently absorbed;
* **duplicate discard** -- deliveries with ``seq <= delivered`` are wire
  duplicates and are dropped;
* **delivery replay** -- a re-posted receive for an edge already delivered
  in the current epoch is served from the cached payload.

The envelope protocol is strictly per-message: a verified fabric refuses
the edge-slot operations.  With the envelope disabled (the default) the
mailbox path runs without any of this machinery.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.faults.errors import (
    ExchangeConfigError,
    ExchangeIntegrityError,
    ExchangeTimeoutError,
    ProtocolError,
    RankDeadError,
    SplitMismatchError,
)
from repro.obs import METRICS as _METRICS
from repro.obs import TRACER as _TRACER

__all__ = [
    "SimFabric",
    "FabricStats",
    "PartitionedSendRequest",
    "PartitionedRecvRequest",
    "partition_tag",
    "partition_bounds",
    "byte_view",
    "DeadlockError",
    "AbortedError",
    "UnsupportedFabricError",
    "ExchangeIntegrityError",
    "ExchangeTimeoutError",
    "RankDeadError",
    "ProtocolError",
    "SplitMismatchError",
    "ExchangeConfigError",
]

#: Default seconds an unmatched operation waits before declaring a
#: deadlock.  Per-fabric overrides: constructor arg, then the
#: ``REPRO_FABRIC_TIMEOUT`` environment variable, then this module global
#: (kept for monkeypatch-style test overrides).
_DEADLOCK_TIMEOUT = 30.0

_TIMEOUT_ENV = "REPRO_FABRIC_TIMEOUT"


class DeadlockError(RuntimeError):
    """A receive found no matching send within the timeout."""


class UnsupportedFabricError(RuntimeError):
    """The requested operation is not available on this fabric mode.

    Raised when the batch / partitioned fast paths are requested on a
    verified (envelope) fabric, whose protocol is strictly per-message.
    This is a *capability refusal*, not a bug: callers (the channel
    layer) catch it and fall back to the per-message protocol.  Subclass
    of ``RuntimeError`` so pre-existing blanket handlers keep working.
    """


class AbortedError(RuntimeError):
    """Another rank failed; this operation was abandoned."""


@dataclass
class FabricStats:
    """Per-rank communication counters."""

    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class _Flag:
    """Completion flag of one mailbox send, set under the fabric lock."""

    __slots__ = ("_set",)

    def __init__(self) -> None:
        self._set = False

    def set(self) -> None:
        self._set = True

    def is_set(self) -> bool:
        return self._set


class _SendEntry:
    __slots__ = ("buf", "wire", "done", "src", "dst", "seq", "crc", "epoch",
                 "lost")

    def __init__(self, buf: np.ndarray, src: int = -1, dst: int = -1) -> None:
        self.buf = buf          # pristine payload (frozen copy when verified)
        self.wire = buf         # what the receiver sees (may be corrupted)
        self.done = _Flag()
        self.src = src
        self.dst = dst
        self.seq = 0            # envelope sequence number (verified mode)
        self.crc = 0            # envelope checksum of the pristine payload
        self.epoch = None       # sender's exchange epoch at post time
        self.lost = False       # first transmission dropped on the wire


def byte_view(buf, side: str = "channel") -> memoryview:
    """Flat byte view of a C-contiguous buffer (never a copy).

    Edge slots copy between these views.  A ``memoryview`` copy runs as
    one ``memcpy`` under the GIL: cheaper per message than a NumPy copy,
    which releases and re-takes the GIL and so hands it to another rank
    thread mid-exchange.  A non-contiguous buffer is refused: flattening
    it would copy, and a receive into the copy would silently drop the
    data.
    """
    if isinstance(buf, memoryview):
        if not buf.c_contiguous:
            raise ExchangeConfigError(f"{side} buffers must be C-contiguous")
        return buf if buf.ndim == 1 and buf.format == "B" else buf.cast("B")
    if not buf.flags.c_contiguous:
        raise ExchangeConfigError(f"{side} buffers must be C-contiguous")
    return memoryview(buf.reshape(-1).view(np.uint8))


class _EdgeSlot:
    """One ``(src, dst, tag)`` wire of the persistent-channel protocol.

    ``send``/``recv`` are the flat byte views the wire copy runs between;
    ``sbuf``/``rbuf`` are the endpoint buffers they were bound from, kept
    for the identity check that re-binds the edge when a call brings
    other buffers (the channels of a double-buffered run take turns on
    the same edges; a rebuilt channel brings new ones).  ``posted`` and
    ``consumed`` count the edge's transmissions: ``posted > consumed``
    means a message is on the wire.
    """

    __slots__ = ("src", "dst", "tag", "sbuf", "send", "rbuf", "recv",
                 "posted", "consumed")

    def __init__(self, src: int, dst: int, tag: int) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.sbuf = self.send = self.rbuf = self.recv = None
        self.posted = 0
        self.consumed = 0


class _Posted:
    """Completion handle of posted slots: each slot's posted epoch."""

    __slots__ = ("slots", "epochs")

    def __init__(self) -> None:
        self.slots: List[_EdgeSlot] = []
        self.epochs: List[int] = []

    def late(self) -> List[Tuple[_EdgeSlot, int]]:
        """(slot, epoch) pairs whose receiver has not consumed them yet."""
        return [(s, e) for s, e in zip(self.slots, self.epochs)
                if s.consumed < e]


#: Partition tags live above every plain exchange tag: exchange_tag() values
#: are bounded by 3^ndim * 4096 (< 2^20), so shifting the partition index to
#: bit 20 keeps the two tag spaces disjoint on the same edges.
_PARTITION_TAG_BASE = 1 << 20


def partition_tag(tag: int, part: int) -> int:
    """Wire tag of partition *part* of a message with base tag *tag*."""
    if not 0 <= tag < _PARTITION_TAG_BASE:
        raise ExchangeConfigError(
            f"base tag {tag} collides with the partition tag space"
        )
    if part < 0:
        raise ExchangeConfigError("partition index cannot be negative")
    return (part + 1) * _PARTITION_TAG_BASE + tag


def partition_bounds(nbytes: int, partitions: int) -> Tuple[Tuple[int, int], ...]:
    """Equal byte-count partition intervals ``(lo, hi)`` of a message.

    The single source of truth for the byte split: both wire endpoints
    (:func:`_partition_views`), the channel negotiation
    (:meth:`SimFabric.negotiate_channel`) and the static schedule
    verifier (:mod:`repro.check`) derive their split from this helper,
    so "checker says the split matches" and "the wire splits match" are
    the same statement.  The partition count is clamped to the byte
    count (every partition carries at least one byte; a zero-byte
    message has exactly one empty partition).
    """
    n = int(nbytes)
    if n < 0:
        raise ExchangeConfigError("message byte count cannot be negative")
    k = max(1, min(int(partitions), n)) if n else 1
    cuts = [(n * p) // k for p in range(k + 1)]
    return tuple((cuts[p], cuts[p + 1]) for p in range(k))


def _partition_views(buf, partitions: int, side: str) -> List[memoryview]:
    """Equal byte-count partitions of a contiguous buffer, as byte slices.

    Both endpoints compute the split independently from their own buffer
    via :func:`partition_bounds`; the totals match (message sizes are
    negotiated), so splitting by bytes keeps the two sides consistent
    even across dtype views.
    """
    flat = byte_view(buf, side)
    return [flat[lo:hi] for lo, hi in partition_bounds(flat.nbytes, partitions)]


class PartitionedSendRequest:
    """Persistent partitioned send (the ``MPI_Psend_init`` analogue).

    Built once from a message plan by :meth:`SimFabric.send_init`; each
    epoch is ``start()`` -> ``pready(msg, part)``/``pready_all()`` ->
    ``wait()``.  ``start`` arms the epoch without touching the wire; a
    partition's slot is posted only when it is marked ready, so a producer
    (e.g. the surface pack of a phased timestep) can release sub-regions
    of each flattened channel buffer independently.
    """

    __slots__ = ("_fabric", "_src", "_msgs", "_items", "_ready", "_posted",
                 "_started")

    def __init__(self, fabric: "SimFabric", src: int, posts,
                 partitions: int) -> None:
        self._fabric = fabric
        self._src = src
        # _items holds (dst, wire tag, byte slice) per partition, bound to
        # its slot here; _msgs[i][p] = index of partition p of message i.
        self._msgs: List[range] = []
        self._items: List[Tuple[int, int, memoryview]] = []
        for dst, tag, buf in posts:
            fabric._check_rank(dst)
            views = _partition_views(buf, partitions, "send")
            first = len(self._items)
            self._msgs.append(range(first, first + len(views)))
            for p, view in enumerate(views):
                ptag = partition_tag(tag, p)
                fabric._bind_send(src, dst, ptag, view)
                self._items.append((dst, ptag, view))
        self._ready = bytearray(len(self._items))
        self._posted = _Posted()
        self._started = False

    @property
    def partitions(self) -> List[int]:
        """Partition count per message (clamped to the message's bytes)."""
        return [len(parts) for parts in self._msgs]

    def start(self) -> None:
        """Arm a new epoch; every partition becomes not-ready."""
        if self._started:
            raise ProtocolError(
                "partitioned send already started; wait() the previous"
                " epoch first"
            )
        self._ready = bytearray(len(self._items))
        self._posted = _Posted()
        self._started = True

    def _post(self, items) -> None:
        fabric, src = self._fabric, self._src
        bind = fabric._bind_send
        slots = [bind(src, dst, tag, view) for dst, tag, view in items]
        fabric._post_slots(src, slots, self._posted)

    def pready(self, msg: int, part: int) -> None:
        """Mark one partition ready: its bytes go on the wire now."""
        if not self._started:
            raise ProtocolError("pready before start on a partitioned send")
        i = self._msgs[msg][part]
        if self._ready[i]:
            raise ProtocolError(
                f"partition ({msg}, {part}) already marked ready this epoch"
            )
        self._ready[i] = 1
        self._post([self._items[i]])

    def pready_all(self) -> None:
        """Mark every not-yet-ready partition ready in one lock round."""
        if not self._started:
            raise ProtocolError("pready before start on a partitioned send")
        ready = self._ready
        items = [it for i, it in enumerate(self._items) if not ready[i]]
        if items:
            self._ready = bytearray(b"\x01" * len(ready))
            self._post(items)

    def wait(self) -> None:
        """Complete the epoch: every ready partition consumed by its peer."""
        if not self._started:
            raise ProtocolError("wait before start on a partitioned send")
        self._fabric.wait_send_batch(self._posted, self._src)
        self._started = False


class PartitionedRecvRequest:
    """Persistent partitioned receive (the ``MPI_Precv_init`` analogue).

    Each epoch is ``start()`` -> optional ``parrived(msg, part)`` probes ->
    ``complete()``, which drains every partition of every message through
    :meth:`SimFabric.complete_recv_batch` (copies outside the lock).
    """

    __slots__ = ("_fabric", "_dst", "_msgs", "_flat", "_started")

    def __init__(self, fabric: "SimFabric", dst: int, recvs,
                 partitions: int) -> None:
        self._fabric = fabric
        self._dst = dst
        # _msgs[i][p] = the slot of partition p of message i.
        self._msgs: List[List[_EdgeSlot]] = []
        self._flat: List[Tuple[int, int, memoryview]] = []
        for src, tag, buf in recvs:
            fabric._check_rank(src)
            parts = []
            for p, view in enumerate(_partition_views(buf, partitions,
                                                      "receive")):
                ptag = partition_tag(tag, p)
                parts.append(fabric._bind_recv(src, dst, ptag, view))
                self._flat.append((src, ptag, view))
            self._msgs.append(parts)
        self._started = False

    @property
    def partitions(self) -> List[int]:
        return [len(parts) for parts in self._msgs]

    def start(self) -> None:
        if self._started:
            raise ProtocolError(
                "partitioned receive already started; complete() the"
                " previous epoch first"
            )
        self._started = True

    def parrived(self, msg: int, part: int) -> bool:
        """Non-blocking: has this partition's transmission arrived?"""
        if not self._started:
            raise ProtocolError("parrived before start on a partitioned recv")
        slot = self._msgs[msg][part]
        with self._fabric._lock:
            return slot.posted > slot.consumed

    def complete(self) -> None:
        """Block until every partition is delivered into its sub-view."""
        if not self._started:
            raise ProtocolError("complete before start on a partitioned recv")
        self._fabric.complete_recv_batch(self._dst, self._flat)
        self._started = False


class SimFabric:
    """The shared network of one SPMD run."""

    def __init__(self, nranks: int, timeout: Optional[float] = None) -> None:
        if nranks <= 0:
            raise ExchangeConfigError("nranks must be positive")
        self.nranks = nranks
        if timeout is None:
            env = os.environ.get(_TIMEOUT_ENV)
            if env:
                try:
                    timeout = float(env)
                except ValueError:
                    raise ExchangeConfigError(
                        f"{_TIMEOUT_ENV}={env!r} is not a valid number"
                    ) from None
        if timeout is not None and timeout <= 0:
            raise ExchangeConfigError("fabric timeout must be positive")
        self._timeout = timeout
        self._lock = threading.RLock()
        # One wake-up per rank, all over the one fabric lock: a rank only
        # ever waits on its own condition.
        self._wake = [threading.Condition(self._lock) for _ in range(nranks)]
        self._mailboxes: Dict[Tuple[int, int, int], Deque[_SendEntry]] = defaultdict(
            deque
        )
        self._slots: Dict[Tuple[int, int, int], _EdgeSlot] = {}
        self.stats: List[FabricStats] = [FabricStats() for _ in range(nranks)]
        self.barrier = threading.Barrier(nranks)
        self._failed = False
        # -- rank-liveness state (elastic restart) -----------------------
        self._dead: set = set()
        self._heartbeats: Dict[int, float] = {}
        self._heartbeat_deadline: Optional[float] = None
        # -- verified-mode state (inert while _envelope is False) --------
        self._envelope = False
        self._injector = None
        self._epochs: List[Optional[int]] = [None] * nranks
        self._send_seq: Dict[Tuple[int, int, int], int] = {}
        self._delivered: Dict[Tuple[int, int, int], int] = {}
        self._posted_epoch: Dict[Tuple[int, int, int], int] = {}
        self._replay: Dict[Tuple[int, int, int], Tuple[int, np.ndarray]] = {}
        # -- negotiated byte splits, per edge and side -------------------
        # (src, dst, tag) -> {"send"/"recv": partition_bounds(...)}.  Both
        # endpoints of every persistent channel / partitioned request
        # register their half; a disagreement surfaces here, at
        # negotiation time, as a typed SplitMismatchError instead of a
        # DeadlockError at wait time.
        self._splits: Dict[
            Tuple[int, int, int], Dict[str, Tuple[Tuple[int, int], ...]]
        ] = {}

    # ------------------------------------------------------------------
    @property
    def timeout(self) -> float:
        """Active deadlock timeout in seconds."""
        return self._timeout if self._timeout is not None else _DEADLOCK_TIMEOUT

    def set_timeout(self, timeout: Optional[float]) -> None:
        if timeout is not None and timeout <= 0:
            raise ExchangeConfigError("fabric timeout must be positive")
        self._timeout = timeout

    # ------------------------------------------------------------------
    def enable_envelope(self, injector=None) -> None:
        """Switch to verified (sequence + checksum) delivery.

        *injector* is an optional :class:`~repro.faults.FaultInjector`
        whose plan decides which transmissions to drop/corrupt/duplicate/
        delay.  Verification works without one.
        """
        self._envelope = True
        self._injector = injector

    @property
    def envelope_enabled(self) -> bool:
        return self._envelope

    def set_epoch(self, rank: int, epoch: Optional[int]) -> None:
        """Mark *rank*'s current exchange epoch (None between exchanges).

        Epochs scope the idempotency machinery: only posts carrying an
        epoch are subject to injection, suppression, and replay, so
        collective/control traffic stays on plain verified delivery.
        """
        self._check_rank(rank)
        self._epochs[rank] = epoch

    # ------------------------------------------------------------------
    # Wake-ups (call with the lock held)
    # ------------------------------------------------------------------
    def _wake_ranks(self, ranks) -> None:
        wake = self._wake
        for rank in ranks:
            wake[rank].notify_all()

    def _wake_all(self) -> None:
        self._wake_ranks(range(self.nranks))

    # ------------------------------------------------------------------
    # Rank liveness (elastic restart)
    #
    # A dead rank is *permanently* gone -- node loss, not a survivable
    # crash.  Marking it wakes every waiter so operations touching the
    # dead rank fail fast with a typed RankDeadError instead of burning
    # the full deadlock timeout.  An optional heartbeat deadline lets
    # receivers classify a silent peer as dead (stale heartbeat) rather
    # than deadlocked.
    # ------------------------------------------------------------------
    def mark_dead(self, rank: int) -> None:
        """Declare *rank* permanently dead and wake every waiter."""
        self._check_rank(rank)
        with self._lock:
            self._dead.add(rank)
            self._wake_all()

    def is_dead(self, rank: int) -> bool:
        with self._lock:
            return rank in self._dead

    def dead_ranks(self) -> List[int]:
        """Ranks declared dead so far, sorted."""
        with self._lock:
            return sorted(self._dead)

    def heartbeat(self, rank: int) -> None:
        """Record a liveness beat for *rank* (driver step boundaries)."""
        self._check_rank(rank)
        with self._lock:
            self._heartbeats[rank] = time.monotonic()

    def set_heartbeat_deadline(self, seconds: Optional[float]) -> None:
        """Enable heartbeat-based death detection.

        With a deadline set, a receive that times out on a peer whose
        last heartbeat is older than *seconds* classifies the peer as
        dead (:class:`RankDeadError`) instead of deadlocked.  ``None``
        (the default) disables the classification.
        """
        if seconds is not None and seconds <= 0:
            raise ExchangeConfigError("heartbeat deadline must be positive")
        with self._lock:
            self._heartbeat_deadline = seconds

    def _check_dst_alive(self, src: int, dst: int) -> None:
        """Refuse to post toward a dead rank (call with the lock held)."""
        if dst in self._dead:
            raise RankDeadError(
                f"rank {src} cannot send to rank {dst}: rank {dst}"
                " is permanently dead"
            )

    def _raise_src_dead(self, src: int, dst: int, tag: int) -> None:
        raise RankDeadError(
            f"rank {dst} cannot receive from rank {src}"
            f" (tag={tag}): rank {src} is permanently dead"
        )

    def _raise_dst_dead(self, src: int, dst: int) -> None:
        raise RankDeadError(
            f"rank {src} cannot complete its send to rank {dst}: rank"
            f" {dst} is permanently dead"
        )

    def _stale_heartbeat(self, rank: int) -> bool:
        """Under the lock: has *rank* missed its heartbeat deadline?"""
        deadline = self._heartbeat_deadline
        if deadline is None:
            return False
        last = self._heartbeats.get(rank)
        if last is None:
            return False
        return (time.monotonic() - last) > deadline

    def _recv_deadlock(self, dst: int, timeout: float, edges) -> None:
        """Under the lock: fail a receive whose *edges* ``(src, tag)``
        stayed empty past the deadline, waking every rank."""
        self._failed = True
        self._wake_all()
        for src, _tag in edges:
            if self._stale_heartbeat(src):
                self._dead.add(src)
                raise RankDeadError(
                    f"rank {src} missed its heartbeat deadline;"
                    f" declaring it dead"
                )
        src, tag = edges[0]
        raise DeadlockError(
            f"rank {dst} waited {timeout}s for message (src={src}, tag={tag})"
        )

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise ExchangeConfigError(
                f"rank {rank} outside communicator of {self.nranks}"
            )

    def post_send(self, src: int, dst: int, tag: int, buf: np.ndarray) -> _SendEntry:
        """Deposit a send; returns the entry whose flag marks completion."""
        self._check_rank(src)
        self._check_rank(dst)
        buf = np.ascontiguousarray(buf)
        if self._envelope:
            return self._post_verified(src, dst, tag, buf)
        entry = _SendEntry(buf, src, dst)
        with self._lock:
            self._check_dst_alive(src, dst)
            self._mailboxes[(src, dst, tag)].append(entry)
            self.stats[src].sends += 1
            self.stats[src].bytes_sent += buf.nbytes
            self._wake[dst].notify_all()
        if _METRICS.enabled:
            _METRICS.count("fabric.messages", 1, rank=src)
            _METRICS.count("fabric.wire_bytes", buf.nbytes, rank=src)
        return entry

    def _post_verified(self, src: int, dst: int, tag: int,
                       buf: np.ndarray) -> _SendEntry:
        from repro.exchange.envelope import checksum

        edge = (src, dst, tag)
        epoch = self._epochs[src]
        with self._lock:
            self._check_dst_alive(src, dst)
            if epoch is not None and self._posted_epoch.get(edge) == epoch:
                # Retransmit within one exchange epoch: the payload is
                # already on the wire (or delivered); absorb the re-post.
                entry = _SendEntry(buf, src, dst)
                entry.done.set()
                suppressed = True
            else:
                suppressed = False
                seq = self._send_seq.get(edge, 0) + 1
                self._send_seq[edge] = seq
                if epoch is not None:
                    self._posted_epoch[edge] = epoch
        if suppressed:
            if self._injector is not None:
                self._injector.record("resend_suppressed", src=src, dst=dst,
                                      tag=tag)
            return entry

        # Freeze the payload: the wire carries this epoch's data even if
        # brick storage mutates before delivery, and the checksum stays
        # valid.  (Header + copy are wall-clock-only: modelled bytes and
        # times never include them.)
        payload = buf.copy()
        entry = _SendEntry(payload, src, dst)
        entry.seq = seq
        entry.crc = checksum(payload)
        entry.epoch = epoch

        duplicate = False
        if self._injector is not None and epoch is not None:
            action = self._injector.on_post(src, dst, tag, seq)
            if action == "delay":
                time.sleep(self._injector.plan.delay_s)
            elif action == "corrupt":
                entry.wire = self._injector.corrupt(payload, src, dst, tag, seq)
            elif action == "drop":
                entry.lost = True
            elif action == "duplicate":
                duplicate = True

        with self._lock:
            q = self._mailboxes[edge]
            q.append(entry)
            if duplicate:
                dup = _SendEntry(payload, src, dst)
                dup.seq, dup.crc, dup.epoch = entry.seq, entry.crc, epoch
                q.append(dup)
            self.stats[src].sends += 1
            self.stats[src].bytes_sent += buf.nbytes
            self._wake[dst].notify_all()
        if _METRICS.enabled:
            _METRICS.count("fabric.messages", 1, rank=src)
            _METRICS.count("fabric.wire_bytes", buf.nbytes, rank=src)
        return entry

    # ------------------------------------------------------------------
    # Edge slots (persistent channels)
    #
    # A channel's (peer, tag, buffer) tuples are negotiated once per run
    # and re-fired every step: one posting call, one receive drain, one
    # send sweep.  The tuples map to edge slots bound at negotiation, so
    # a step only bumps epochs and copies between precomputed views.  A
    # slot re-binds lazily when a call brings a different buffer (the
    # other channel of a double-buffered run, a rebuilt channel, or
    # direct use without negotiation).  Verified
    # (envelope) fabrics refuse every slot operation -- the channel
    # layer falls back to the per-message protocol, which carries the
    # sequence/CRC machinery.
    # ------------------------------------------------------------------
    def _slot(self, src: int, dst: int, tag: int) -> _EdgeSlot:
        """The slot of edge ``(src, dst, tag)``, created on first use."""
        key = (src, dst, tag)
        slot = self._slots.get(key)
        if slot is None:
            self._check_rank(src)
            self._check_rank(dst)
            with self._lock:
                slot = self._slots.get(key)
                if slot is None:
                    slot = self._slots[key] = _EdgeSlot(src, dst, tag)
        return slot

    def _bind_send(self, src: int, dst: int, tag: int,
                   buf: np.ndarray) -> _EdgeSlot:
        """The slot of edge ``(src, dst, tag)`` with *buf* as its send view.

        Only the sender writes the send view, and only while the edge is
        idle, so re-binding needs no lock: the receiver reads the view
        after the post that follows it.
        """
        slot = self._slot(src, dst, tag)
        if slot.sbuf is not buf:
            if slot.posted != slot.consumed:
                raise ProtocolError(
                    f"edge (src={src}, dst={dst}, tag={tag}) re-bound while"
                    " its message is on the wire"
                )
            slot.send = byte_view(buf, "send")
            slot.sbuf = buf
        return slot

    def _bind_recv(self, src: int, dst: int, tag: int,
                   buf: np.ndarray) -> _EdgeSlot:
        """The slot of edge ``(src, dst, tag)`` with *buf* as its receive
        view (only the receiver reads or writes it)."""
        slot = self._slot(src, dst, tag)
        if slot.rbuf is not buf:
            view = byte_view(buf, "receive")
            if view.readonly:
                raise ExchangeConfigError("receive buffers must be writable")
            slot.recv, slot.rbuf = view, buf
        return slot

    def _post_slots(self, src: int, slots: List[_EdgeSlot],
                    posted: _Posted) -> None:
        """Put one message on each slot's wire, in one lock round."""
        nbytes = 0
        for s in slots:
            nbytes += s.send.nbytes
        with self._lock:
            for s in slots:
                if self._dead:
                    self._check_dst_alive(src, s.dst)
                if s.posted != s.consumed:
                    raise ProtocolError(
                        f"edge (src={src}, dst={s.dst}, tag={s.tag}) posted"
                        " again before its receiver consumed the last message"
                    )
            for s in slots:
                s.posted += 1
            posted.slots.extend(slots)
            posted.epochs.extend(s.posted for s in slots)
            st = self.stats[src]
            st.sends += len(slots)
            st.bytes_sent += nbytes
            self._wake_ranks({s.dst for s in slots})
        if _METRICS.enabled:
            _METRICS.count("fabric.messages", len(slots), rank=src)
            _METRICS.count("fabric.wire_bytes", nbytes, rank=src)

    def post_send_batch(self, src: int, posts) -> _Posted:
        """Post a whole step's sends in one lock acquisition.

        *posts* is a sequence of ``(dst, tag, buf)`` with C-contiguous
        buffers (arrays or :func:`byte_view` views).  Returns the
        completion handle :meth:`wait_send_batch` takes.
        """
        if self._envelope:
            raise UnsupportedFabricError(
                "batched posting is not available on a verified fabric;"
                " use the per-message protocol"
            )
        self._check_rank(src)
        bind = self._bind_send
        slots = [bind(src, dst, tag, buf) for dst, tag, buf in posts]
        posted = _Posted()
        self._post_slots(src, slots, posted)
        return posted

    def complete_recv_batch(self, dst: int, recvs) -> None:
        """Complete a whole step's receives.

        *recvs* is a sequence of ``(src, tag, buf)``.  Each round takes
        the lock once: it marks the previous round's copies consumed
        (waking their senders) and collects every edge posted since.  The
        copies run outside the lock, so other ranks post and drain while
        this one copies.  Buffers are disjoint by construction (each
        targets its own ghost region), so arrival order cannot change
        the result.
        """
        if self._envelope:
            raise UnsupportedFabricError(
                "batched receives are not available on a verified fabric;"
                " use the per-message protocol"
            )
        self._check_rank(dst)
        n = len(recvs)
        if n == 0:
            return
        bind = self._bind_recv
        pending = [bind(src, dst, tag, buf) for src, tag, buf in recvs]
        timeout = self.timeout
        cond = self._wake[dst]
        copied: List[_EdgeSlot] = []
        nbytes = 0
        with _TRACER.span("fabric.recv", rank=dst, n=n):
            deadline = time.monotonic() + timeout
            while True:
                with self._lock:
                    if copied:
                        for s in copied:
                            s.consumed += 1
                        self._wake_ranks({s.src for s in copied})
                    if not pending:
                        st = self.stats[dst]
                        st.recvs += n
                        st.bytes_received += nbytes
                        break
                    while True:
                        if self._failed:
                            raise AbortedError(
                                "another rank failed; aborting receive"
                            )
                        ready, still = [], []
                        for s in pending:
                            (ready if s.posted > s.consumed else still).append(s)
                        if ready:
                            break
                        if self._dead:
                            for s in still:
                                if s.src in self._dead:
                                    self._raise_src_dead(s.src, dst, s.tag)
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            self._recv_deadlock(
                                dst, timeout, [(s.src, s.tag) for s in still]
                            )
                        cond.wait(remaining)
                pending = still
                for s in ready:
                    send, recv = s.send, s.recv
                    if send.nbytes != recv.nbytes:
                        self.abort()
                        raise SplitMismatchError(
                            f"message size mismatch on (src={s.src},"
                            f" dst={dst}, tag={s.tag}): sent {send.nbytes}"
                            f" bytes, receiving {recv.nbytes}"
                        )
                    recv[:] = send  # the single wire copy
                    nbytes += recv.nbytes
                copied = ready
        if _METRICS.enabled:
            _METRICS.count("fabric.bytes_received", nbytes, rank=dst)

    def wait_send_batch(self, entries: _Posted, rank: int) -> None:
        """Wait until every slot posted in *entries* has been consumed.

        Sends whose receives already drained cost one epoch check each
        and no lock; stragglers sleep on *rank*'s condition, which their
        receivers notify.
        """
        late = entries.late()
        if not late and not _TRACER.enabled:
            return
        timeout = self.timeout
        cond = self._wake[rank]
        with _TRACER.span("fabric.send_wait", rank=rank, n=len(late)):
            deadline = time.monotonic() + timeout
            with self._lock:
                while True:
                    # Re-checked under the lock before every sleep: a
                    # consumption between checks has already notified.
                    late = [(s, e) for s, e in late if s.consumed < e]
                    if not late:
                        break
                    if self._failed:
                        raise AbortedError(
                            "another rank failed; abandoning send"
                        )
                    if self._dead:
                        for s, _ in late:
                            if s.dst in self._dead:
                                self._raise_dst_dead(s.src, s.dst)
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    cond.wait(remaining)
            if late:
                self.abort()
                raise DeadlockError(f"send unmatched after {timeout}s")

    # ------------------------------------------------------------------
    # Partitioned persistent channels (MPI-4 ``Psend_init`` analogue)
    #
    # A request is negotiated once from a message plan and re-armed every
    # exchange epoch; each flattened buffer is split into equal byte-count
    # partitions, each an edge slot over a byte slice of the message's
    # views, that are marked ready -- and hit the wire -- independently.
    # Partition slots use a disjoint tag space (see ``partition_tag``).
    # Like the batch ops, partitioned requests refuse verified fabrics:
    # the envelope protocol is strictly per-message.
    # ------------------------------------------------------------------
    def register_split(self, src: int, dst: int, tag: int, nbytes: int,
                       partitions: int, side: str) -> None:
        """Record one endpoint's byte split of edge ``(src, dst, tag)``.

        *side* is ``"send"`` (registered by *src*) or ``"recv"``
        (registered by *dst*).  The first endpoint to negotiate records
        its :func:`partition_bounds`; the second is compared against it
        and a disagreement raises :class:`SplitMismatchError`
        immediately -- the same split the static schedule verifier
        computes, so this is the runtime backstop of the
        ``partition-split-mismatch`` check.  Re-registering a *changed*
        split (a rebuilt channel, e.g. after ladder demotion) drops the
        peer's stale half so the peer's own re-negotiation re-arms the
        comparison instead of tripping on outdated state.
        """
        bounds = partition_bounds(nbytes, partitions)
        edge = (src, dst, tag)
        other = "recv" if side == "send" else "send"
        with self._lock:
            sides = self._splits.setdefault(edge, {})
            prev = sides.get(side)
            if prev is not None and prev != bounds:
                sides.pop(other, None)
            sides[side] = bounds
            peer = sides.get(other)
        if peer is not None and peer != bounds:
            raise SplitMismatchError(
                f"byte split disagreement on (src={src}, dst={dst},"
                f" tag={tag}): {side} side splits {nbytes} bytes into"
                f" {len(bounds)} partition(s), {other} side negotiated"
                f" {peer[-1][1]} bytes in {len(peer)} partition(s)"
            )

    def negotiate_channel(self, rank: int, posts, recvs,
                          partitions: int = 1) -> None:
        """Register a channel's message plan and bind its edge slots.

        Called once per :class:`~repro.exchange.base.ExchangeChannel` at
        construction: *posts* are ``(dst, tag, buf)`` and *recvs* are
        ``(src, tag, buf)`` exactly as the channel will fire them.  Each
        buffer is bound to its edge's slot here, so steps only copy; a
        byte-count or partition-split disagreement between two ranks'
        channels surfaces now, before any message is posted.
        """
        self._check_rank(rank)
        if partitions < 1:
            raise ExchangeConfigError("partitions must be >= 1")
        for dst, tag, buf in posts:
            self._check_rank(dst)
            self.register_split(rank, dst, tag, buf.nbytes, partitions, "send")
            self._bind_send(rank, dst, tag, buf)
        for src, tag, buf in recvs:
            self._check_rank(src)
            self.register_split(src, rank, tag, buf.nbytes, partitions, "recv")
            self._bind_recv(src, rank, tag, buf)

    def send_init(self, src: int, posts,
                  partitions: int = 1) -> PartitionedSendRequest:
        """Build a persistent partitioned send over ``(dst, tag, buf)``."""
        self._check_rank(src)
        if self._envelope:
            raise UnsupportedFabricError(
                "partitioned persistent sends are not available on a"
                " verified fabric; use the per-message protocol"
            )
        if partitions < 1:
            raise ExchangeConfigError("partitions must be >= 1")
        posts = list(posts)
        for dst, tag, buf in posts:
            with self._lock:
                self._check_dst_alive(src, dst)
            self.register_split(src, dst, tag, buf.nbytes, partitions, "send")
        return PartitionedSendRequest(self, src, posts, partitions)

    def recv_init(self, dst: int, recvs,
                  partitions: int = 1) -> PartitionedRecvRequest:
        """Build a persistent partitioned receive over ``(src, tag, buf)``."""
        self._check_rank(dst)
        if self._envelope:
            raise UnsupportedFabricError(
                "partitioned persistent receives are not available on a"
                " verified fabric; use the per-message protocol"
            )
        if partitions < 1:
            raise ExchangeConfigError("partitions must be >= 1")
        recvs = list(recvs)
        for src, tag, buf in recvs:
            self.register_split(src, dst, tag, buf.nbytes, partitions, "recv")
        return PartitionedRecvRequest(self, dst, recvs, partitions)

    def release_buffers(self) -> None:
        """Unbind every edge slot's buffers once the run is over.

        A finished fabric must not pin rank storage (or views of memory
        a rank has since unmapped).  The epoch counters survive, and a
        later post or receive on the same edge re-binds it.
        """
        with self._lock:
            for s in self._slots.values():
                s.sbuf = s.send = s.rbuf = s.recv = None

    # ------------------------------------------------------------------
    # Mailbox completion
    # ------------------------------------------------------------------
    def wait_send(self, entry: _SendEntry) -> None:
        """Block until *entry* is consumed by its receiver.

        Sleeps on the sender's condition, which the receiver notifies
        when it sets the entry's done flag; an aborted run fails fast, a
        send to a rank that died fails with :class:`RankDeadError`, and
        a send still unmatched after the timeout is a deadlock.
        """
        rank = entry.src if entry.src >= 0 else None
        timeout = self.timeout
        with _TRACER.span("fabric.send_wait", rank=rank):
            done = entry.done
            if done.is_set():
                return
            cond = self._wake[entry.src]
            deadline = time.monotonic() + timeout
            with self._lock:
                while not done.is_set():
                    if self._failed:
                        raise AbortedError(
                            "another rank failed; abandoning send"
                        )
                    if entry.dst in self._dead:
                        self._raise_dst_dead(entry.src, entry.dst)
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    cond.wait(remaining)
            if not done.is_set():
                self.abort()
                raise DeadlockError(f"send unmatched after {timeout}s")

    def _complete_entry(self, entry: _SendEntry) -> None:
        """Under the lock: flag *entry* consumed and wake its sender."""
        entry.done.set()
        if entry.src >= 0:
            self._wake[entry.src].notify_all()

    def complete_recv(self, src: int, dst: int, tag: int, buf: np.ndarray) -> None:
        """Block until a matching send exists, then copy it into *buf*."""
        self._check_rank(src)
        self._check_rank(dst)
        if not buf.flags.c_contiguous:
            raise ExchangeConfigError("receive buffers must be C-contiguous")
        if self._envelope:
            return self._recv_verified(src, dst, tag, buf)
        key = (src, dst, tag)
        timeout = self.timeout
        with _TRACER.span("fabric.recv", rank=dst, src=src):
            cond = self._wake[dst]
            with self._lock:
                deadline = time.monotonic() + timeout
                while not self._mailboxes.get(key):
                    if self._failed:
                        raise AbortedError(
                            "another rank failed; aborting receive"
                        )
                    if src in self._dead:
                        self._raise_src_dead(src, dst, tag)
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._recv_deadlock(dst, timeout, [(src, tag)])
                    cond.wait(remaining)
                entry = self._mailboxes[key].popleft()
            self._copy_into(entry.buf, buf, key)  # the single wire copy
            with self._lock:
                self.stats[dst].recvs += 1
                self.stats[dst].bytes_received += buf.nbytes
                self._complete_entry(entry)
        if _METRICS.enabled:
            _METRICS.count("fabric.bytes_received", buf.nbytes, rank=dst)

    # ------------------------------------------------------------------
    def _copy_into(self, src_buf: np.ndarray, buf: np.ndarray,
                   edge: Tuple[int, int, int]) -> np.ndarray:
        """The single wire copy, with the size guard; returns buf flat."""
        flat = buf.reshape(-1)
        src_flat = src_buf.reshape(-1).view(flat.dtype)
        if src_flat.size != flat.size:
            self.abort()
            raise SplitMismatchError(
                f"message size mismatch on (src={edge[0]}, dst={edge[1]},"
                f" tag={edge[2]}): sent {src_flat.size} elements, receiving"
                f" {flat.size}"
            )
        flat[:] = src_flat
        return flat

    def _requeue_pristine(self, key: Tuple[int, int, int],
                          entry: _SendEntry) -> None:
        """Queue a clean retransmit of *entry* at the front of its edge."""
        entry.wire = entry.buf
        entry.lost = False
        with self._lock:
            self._mailboxes[key].appendleft(entry)
            self._wake[key[1]].notify_all()

    def _recv_verified(self, src: int, dst: int, tag: int,
                       buf: np.ndarray) -> None:
        from repro.exchange.envelope import checksum

        key = (src, dst, tag)
        timeout = self.timeout
        injector = self._injector
        with _TRACER.span("fabric.recv", rank=dst, src=src):
            epoch = self._epochs[dst]
            entry = None
            replay = None
            cond = self._wake[dst]
            with self._lock:
                deadline = time.monotonic() + timeout
                while True:
                    if self._failed:
                        raise AbortedError(
                            "another rank failed; aborting receive"
                        )
                    # A re-posted receive for an edge already delivered in
                    # this epoch is served from the delivery cache -- any
                    # mailbox entry on the edge is future traffic.
                    if epoch is not None:
                        cached = self._replay.get(key)
                        if cached is not None and cached[0] == epoch:
                            replay = cached[1]
                            break
                    q = self._mailboxes.get(key)
                    if q:
                        candidate = q.popleft()
                        if candidate.seq <= self._delivered.get(key, 0):
                            # Wire duplicate (injected or stale retransmit).
                            self._complete_entry(candidate)
                            if injector is not None:
                                injector.record("duplicate_discarded",
                                                src=src, dst=dst, tag=tag,
                                                seq=candidate.seq)
                            continue
                        entry = candidate
                        break
                    if src in self._dead:
                        self._raise_src_dead(src, dst, tag)
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._recv_deadlock(dst, timeout, [(src, tag)])
                    cond.wait(remaining)

            if replay is not None:
                self._copy_into(replay, buf, key)
                if injector is not None:
                    injector.record("replayed", src=src, dst=dst, tag=tag)
                return

            if entry.lost:
                # The envelope sequence numbers expose the loss; model the
                # sender's retransmission (reads straight from the frozen
                # payload), then report the timeout to the caller.
                self._requeue_pristine(key, entry)
                if injector is not None:
                    injector.record("retransmit", src=src, dst=dst, tag=tag,
                                    seq=entry.seq)
                raise ExchangeTimeoutError(
                    f"message (src={src}, dst={dst}, tag={tag},"
                    f" seq={entry.seq}) lost on the wire; retransmit queued"
                )

            flat = self._copy_into(entry.wire, buf, key)
            expected = self._delivered.get(key, 0) + 1
            crc = checksum(flat)
            if entry.seq != expected or crc != entry.crc:
                self._requeue_pristine(key, entry)
                if injector is not None:
                    injector.record("retransmit", src=src, dst=dst, tag=tag,
                                    seq=entry.seq)
                if entry.seq != expected:
                    raise ExchangeIntegrityError(
                        f"sequence gap on (src={src}, dst={dst}, tag={tag}):"
                        f" got seq {entry.seq}, expected {expected}"
                    )
                raise ExchangeIntegrityError(
                    f"checksum mismatch on (src={src}, dst={dst}, tag={tag},"
                    f" seq={entry.seq}): wire crc {crc:#010x} !="
                    f" sent {entry.crc:#010x}"
                )

            with self._lock:
                self._delivered[key] = entry.seq
                if epoch is not None:
                    # entry.buf is the frozen pristine payload: cache it by
                    # reference for idempotent replays, no extra copy.
                    self._replay[key] = (epoch, entry.buf)
                self.stats[dst].recvs += 1
                self.stats[dst].bytes_received += buf.nbytes
                self._complete_entry(entry)
        if _METRICS.enabled:
            _METRICS.count("fabric.bytes_received", buf.nbytes, rank=dst)

    def abort(self) -> None:
        """Wake every waiter with a failure (used when one rank raises)."""
        with self._lock:
            self._failed = True
            self._wake_all()
        self.barrier.abort()

    @property
    def pending_messages(self) -> int:
        """Messages on the wire: queued mailbox entries plus posted,
        unconsumed edge slots."""
        with self._lock:
            return sum(len(q) for q in self._mailboxes.values()) + sum(
                s.posted - s.consumed for s in self._slots.values()
            )

    def total_stats(self) -> FabricStats:
        agg = FabricStats()
        for s in self.stats:
            agg.sends += s.sends
            agg.recvs += s.recvs
            agg.bytes_sent += s.bytes_sent
            agg.bytes_received += s.bytes_received
        return agg
