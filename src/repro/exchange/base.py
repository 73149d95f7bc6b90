"""Exchanger interface and the one implementation every scheme shares.

Every exchanger really moves the data (over :mod:`repro.simmpi`) *and*
returns a modelled :class:`~repro.util.timing.TimeBreakdown` for the
exchange, split into the artifact's phases: ``pack`` (on-node copies the
scheme performs), ``call`` (posting MPI operations), ``wait`` (wire time
plus any in-library processing) and ``move`` (explicit CPU-GPU staging,
zero on CPU paths).

A scheme states its wire schedule once, as :class:`WireMessage` lists
handed to :meth:`PlannedExchanger._bind`; the static message plan, the
modelled specs and result, the persistent channel and the per-message
path all derive from those lists here.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exchange.costs import exchange_cost
from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError, ProtocolError
from repro.hardware.profiles import MachineProfile
from repro.obs import METRICS as _METRICS
from repro.obs import TRACER as _TRACER
from repro.simmpi.comm import CartComm
from repro.simmpi.fabric import byte_view
from repro.util.bitset import BitSet
from repro.util.timing import TimeBreakdown

__all__ = [
    "Exchanger",
    "ExchangeChannel",
    "ExchangeResult",
    "PlannedExchanger",
    "PlannedMessage",
    "MessageTable",
    "RankMessagePlan",
    "WireMessage",
    "bind_neighbors",
    "copier",
    "exchange_tag",
]

_MAX_RUNS_PER_NEIGHBOR = 4096


def exchange_tag(slab_dir_index: int, run: int) -> int:
    """Stable tag for (receiver's ghost-slab direction, run index)."""
    if not 0 <= run < _MAX_RUNS_PER_NEIGHBOR:
        raise ExchangeConfigError(f"run index {run} out of range")
    return slab_dir_index * _MAX_RUNS_PER_NEIGHBOR + run


@dataclass(frozen=True)
class MessageTable:
    """A brick scheme's rank-free message table, tagged with what it was
    built for.

    ``entries`` are the scheme's messages by neighbor direction (their
    shape is the scheme's own); they depend on the decomposition, the
    storage's slot ``alignment`` and, for MemMap, the ``page_size``.  An
    exchanger handed a shared table checks the tag against its own
    arguments (:meth:`entries_for`), so a table built for other storage
    never drives the wrong slot runs.
    """

    scheme: str
    alignment: int
    entries: tuple
    page_size: Optional[int] = None

    def entries_for(
        self, scheme: str, alignment: int, page_size: Optional[int] = None
    ) -> tuple:
        """``entries``, once the table is known to be built for *scheme*
        over *alignment*-padded storage (and *page_size* pages)."""
        built = (self.scheme, self.alignment, self.page_size)
        if built != (scheme, alignment, page_size):
            raise ExchangeConfigError(
                f"message table built for (scheme, alignment, page size)"
                f" {built} cannot drive a {scheme} exchanger over"
                f" {(scheme, alignment, page_size)}"
            )
        return self.entries


def bind_neighbors(comm: CartComm, ndim: int, entries) -> list:
    """``(peer rank, entry)`` for each entry of a rank-free message table.

    The brick schemes describe their messages once per run geometry, by
    neighbor *direction* (each entry's ``neighbor`` BitSet); a rank binds
    that table to its peers here.  Entries whose neighbor lies off a
    non-periodic boundary have no partner and drop out.
    """
    peers: Dict[BitSet, Optional[int]] = {}
    out = []
    for entry in entries:
        nb = entry.neighbor
        peer = peers.get(nb, -1)
        if peer == -1:
            peer = peers[nb] = comm.neighbor_rank(nb.to_vector(ndim))
        if peer is not None:
            out.append((peer, entry))
    return out


class PlannedMessage(NamedTuple):
    """One message of a rank's static exchange schedule.

    A pure-geometry description of what :meth:`Exchanger.exchange` will
    put on (or take off) the wire: enough for the static schedule
    verifier (:mod:`repro.check`) to rebuild the global send/recv
    multigraph without touching the fabric.

    ``ranges`` are the *storage* byte intervals ``(offset, length)`` the
    message reads from (sends) or writes into (receives) for the
    zero-copy schemes that wire brick storage directly (layout / basic /
    memmap / brickpack sections); ``None`` for schemes whose wire buffer
    is separate staging (pack / mpi_types / shift), where storage
    aliasing is structurally impossible.  ``phase`` orders barrier-
    separated sub-exchanges (Shift's per-axis rounds); schedules with a
    single phase use 0.  ``partitions`` overrides the plan-wide
    partition count for this message (``None`` = inherit), which the
    mutation harness uses to model split disagreements.
    """

    peer: int
    tag: int
    nbytes: int
    phase: int = 0
    ranges: Optional[Tuple[Tuple[int, int], ...]] = None
    partitions: Optional[int] = None


@dataclass(frozen=True)
class RankMessagePlan:
    """One rank's complete per-step message schedule."""

    rank: int
    method: str
    sends: Tuple[PlannedMessage, ...]
    recvs: Tuple[PlannedMessage, ...]


@dataclass
class ExchangeResult:
    """Outcome of one exchange: modelled times plus actual counters."""

    breakdown: TimeBreakdown
    messages_sent: int
    messages_received: int
    payload_bytes_sent: int
    wire_bytes_sent: int

    @property
    def padding_fraction(self) -> float:
        if self.payload_bytes_sent == 0:
            return 0.0
        return (
            self.wire_bytes_sent - self.payload_bytes_sent
        ) / self.payload_bytes_sent


Hook = Callable[[], None]


def _run_hooks(hooks: Sequence[Hook], span: str, rank: int, method: str) -> None:
    if hooks:
        with _TRACER.span(span, rank=rank, method=method):
            for hook in hooks:
                hook()


def _count(rank: int, packed_bytes: int, nmsgs: int) -> None:
    """One exchange's on-node staged bytes and sent messages."""
    if _METRICS.enabled:
        _METRICS.count("exchange.bytes_packed", packed_bytes, rank=rank)
        _METRICS.count("exchange.messages", nmsgs, rank=rank)


class ExchangeChannel:
    """Persistent exchange channel: negotiate once, fire every step.

    The run-plan analogue of persistent MPI requests.  An exchanger's
    message plan is flattened, once, into precomputed ``(peer, tag,
    byte view)`` tuples over persistent buffers (storage views for the
    pack-free schemes, staging buffers for the packing ones).  The fabric
    binds each tuple to its edge slot at negotiation, and each step
    replays the plan as a copy program over those slots -- one posting
    call, one receive drain, one send sweep -- instead of ``N``
    point-to-point request objects through the per-message chokepoint.

    The modelled :class:`ExchangeResult` is a function of the (static)
    message plan, so it too is computed once and returned by reference.
    Channels carry no wire-verification machinery: they are only built on
    an unverified fabric (the envelope/chaos path keeps the per-message
    protocol, whose sequence/CRC state lives in the fabric).

    *pre* hooks fill the send buffers before posting (pack, or view
    refresh) and *post* hooks drain the receive buffers after the wait
    (unpack, or view flush), each under its span name.

    Beyond the bulk-synchronous :meth:`exchange`, a channel can run one
    exchange *phased*: :meth:`start` runs the *pre* hooks, arms the
    partitioned persistent requests and releases every send partition;
    :meth:`complete` drains the receives, awaits send consumption and
    runs the *post* hooks.  The caller computes interior stencil work
    between the two -- the compute-comm overlap the phased timestep is
    built on.  With *partitions* > 1, each flattened buffer travels as
    that many independently-released sub-region partitions (``Pready``
    semantics).
    """

    __slots__ = ("comm", "method", "_fabric", "_rank", "_posts", "_recvs",
                 "_result", "_packed_bytes", "_pre", "_post", "_pre_span",
                 "_post_span", "_nmsgs", "_partitions", "_psend", "_precv",
                 "_inflight")

    def __init__(
        self,
        comm: CartComm,
        method: str,
        posts: Sequence[Tuple[int, int, np.ndarray]],
        recvs: Sequence[Tuple[int, int, np.ndarray]],
        result: ExchangeResult,
        packed_bytes: int = 0,
        pre: Sequence[Hook] = (),
        post: Sequence[Hook] = (),
        pre_span: str = "exchange.pack",
        post_span: str = "exchange.unpack",
        partitions: int = 1,
    ) -> None:
        if comm.fabric.envelope_enabled:
            raise ExchangeConfigError(
                "exchange channels require an unverified fabric; the"
                " envelope protocol is per-message"
            )
        if partitions < 1:
            raise ExchangeConfigError("partitions must be >= 1")
        self.comm = comm
        self.method = method
        self._fabric = comm.fabric
        self._rank = comm.rank
        # Flat byte views (C-contiguous buffers only), made once: the
        # fabric binds them to its edge slots as they are.
        self._posts = [(peer, tag, byte_view(buf)) for peer, tag, buf in posts]
        self._recvs = [(peer, tag, byte_view(buf)) for peer, tag, buf in recvs]
        self._result = result
        self._packed_bytes = int(packed_bytes)
        self._pre = tuple(pre)
        self._post = tuple(post)
        self._pre_span = pre_span
        self._post_span = post_span
        self._nmsgs = len(self._posts)
        self._partitions = int(partitions)
        self._psend = None
        self._precv = None
        self._inflight = False
        # Register both halves of the byte split with the fabric and bind
        # the edge slots now, so a cross-rank disagreement (byte counts
        # or partition bounds) surfaces at negotiation as a typed
        # SplitMismatchError instead of a DeadlockError on the first wait.
        self._fabric.negotiate_channel(
            self._rank, self._posts, self._recvs, self._partitions
        )

    def _run_pre(self) -> None:
        _run_hooks(self._pre, self._pre_span, self._rank, self.method)

    def _finish(self) -> ExchangeResult:
        """Post hooks and counters, shared by both exchange forms."""
        _run_hooks(self._post, self._post_span, self._rank, self.method)
        _count(self._rank, self._packed_bytes, self._nmsgs)
        return self._result

    def exchange(self) -> ExchangeResult:
        """Re-fire the negotiated plan; returns the precomputed result."""
        if self._inflight:
            raise ProtocolError(
                "channel has a phased exchange in flight; complete() it"
                " before exchanging"
            )
        fabric = self._fabric
        rank = self._rank
        self._run_pre()
        with _TRACER.span("exchange.post", rank=rank, method=self.method):
            entries = fabric.post_send_batch(rank, self._posts)
        with _TRACER.span("exchange.wait", rank=rank, method=self.method):
            fabric.complete_recv_batch(rank, self._recvs)
            fabric.wait_send_batch(entries, rank)
        return self._finish()

    # ------------------------------------------------------------------
    # Phased exchange: start -> (caller's interior compute) -> complete
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Pack, arm the persistent partitioned requests, release sends.

        Returns as soon as every send partition is on the wire; nothing
        has been received yet.  The caller may compute any stencil work
        that reads no ghost data before calling :meth:`complete`.
        """
        if self._inflight:
            raise ProtocolError(
                "channel already started; complete() the in-flight"
                " exchange first"
            )
        rank = self._rank
        self._run_pre()
        if self._psend is None:
            # Negotiated lazily on first phased use: the same channel can
            # serve bulk-synchronous runs without ever building requests.
            fabric = self._fabric
            self._psend = fabric.send_init(rank, self._posts, self._partitions)
            self._precv = fabric.recv_init(rank, self._recvs, self._partitions)
        with _TRACER.span("exchange.start", rank=rank, method=self.method):
            self._precv.start()
            self._psend.start()
            self._psend.pready_all()
        self._inflight = True

    def complete(self) -> ExchangeResult:
        """Drain every receive partition, await send consumption, unpack."""
        if not self._inflight:
            raise ProtocolError("complete() without a start()ed exchange")
        with _TRACER.span("exchange.complete", rank=self._rank,
                          method=self.method):
            self._precv.complete()
            self._psend.wait()
        self._inflight = False
        return self._finish()


class Exchanger(abc.ABC):
    """One rank's ghost-zone exchange engine (the abstract root).

    Every scheme extends :class:`PlannedExchanger`, which implements this
    interface from the scheme's message lists.
    """

    #: Name used by benchmark tables.
    method = "abstract"

    def __init__(self, comm: CartComm, profile: MachineProfile) -> None:
        self.comm = comm
        self.profile = profile

    @abc.abstractmethod
    def exchange(self) -> ExchangeResult:
        """Run one ghost-zone exchange."""

    @abc.abstractmethod
    def send_specs(self) -> List[MessageSpec]:
        """The modelled send schedule of this rank."""

    @abc.abstractmethod
    def message_plan(self) -> RankMessagePlan:
        """This rank's static per-step message schedule, from geometry.

        The introspection hook of the static verifier: it lets
        :mod:`repro.check` rebuild the global send/recv multigraph
        (peers, tags, byte counts, storage ranges) without allocating
        wire buffers or touching the fabric.
        """

    def make_channel(self, partitions: int = 1) -> Optional[ExchangeChannel]:
        """Persistent-channel form of this exchanger's plan.

        ``None`` means the scheme cannot be replayed as one batch and the
        caller keeps the per-step :meth:`exchange` path.  Verified
        (envelope) fabrics are detected *here*, once, rather than
        surfacing later as a batch-path ``RuntimeError`` from the fabric:
        the envelope protocol is per-message, so channel negotiation
        falls back cleanly regardless of the subclass.  *partitions* is
        the per-message partition count phased exchanges will use.
        """
        if self.comm.fabric.envelope_enabled:
            return None
        return self._build_channel(int(partitions))

    @abc.abstractmethod
    def _build_channel(self, partitions: int) -> Optional[ExchangeChannel]:
        """Build the channel (fabric already vetted); ``None`` when the
        schedule cannot flatten into one persistent batch."""


class WireMessage(NamedTuple):
    """One message as a scheme states it.

    ``planned`` is its static plan entry (peer, tag, bytes, storage
    ranges, phase) and ``spec`` what the cost model prices.  ``buf`` is
    the C-contiguous buffer it travels in -- a storage view, a stitched
    view's window or a staging buffer -- and ``None`` on a plan-only
    exchanger.  ``hook`` is the on-node step that fills the buffer
    before a send (pack, view refresh) or drains it after a receive
    (unpack, view flush); ``None`` when the wire reads or writes storage
    directly.
    """

    planned: PlannedMessage
    spec: MessageSpec
    buf: Optional[np.ndarray] = None
    hook: Optional[Hook] = None


def copier(pairs: Sequence[Tuple[np.ndarray, np.ndarray]]) -> Hook:
    """A hook copying each ``(dst, src)`` view pair, in order."""
    pairs = tuple(pairs)

    def copy() -> None:
        for dst, src in pairs:
            np.copyto(dst, src)

    return copy


class _Round:
    """One barrier-separated batch of the schedule, flattened for firing."""

    __slots__ = ("posts", "recvs", "pre", "post", "sends_spec", "recvs_spec")

    def __init__(self, sends, recvs) -> None:
        self.posts = [(m.planned.peer, m.planned.tag, m.buf) for m in sends]
        self.recvs = [(m.planned.peer, m.planned.tag, m.buf) for m in recvs]
        self.pre = [m.hook for m in sends if m.hook is not None]
        self.post = [m.hook for m in recvs if m.hook is not None]
        self.sends_spec = [m.spec for m in sends]
        self.recvs_spec = [m.spec for m in recvs]


class PlannedExchanger(Exchanger):
    """An exchanger whose every run path derives from one message plan.

    A scheme's constructor builds its geometry (tables, boxes, views,
    staging buffers) and calls :meth:`_bind` once with its send and
    receive :class:`WireMessage` lists.  Everything else follows:

    * :meth:`message_plan` -- the static plan the checker verifies;
    * :meth:`send_specs` and the modelled :class:`ExchangeResult`,
      priced once by :func:`repro.exchange.costs.exchange_cost` under
      the class's pricing policy (:attr:`packs`, :attr:`datatypes`);
    * :meth:`make_channel` -- the persistent channel, ``None`` when the
      plan has more than one phase (or the fabric is verified);
    * :meth:`exchange` -- the per-message path: per phase, the send
      hooks, every receive posted before any send, one wait, the
      receive hooks, and a barrier after each phase of a multi-phase
      plan.
    """

    #: The scheme copies every message on-node: once to pack, once to
    #: unpack (charged to ``pack``).
    packs = False
    #: The MPI datatype engine gathers and scatters inside the library
    #: (charged to ``wait``).
    datatypes = False
    #: Span names of the send and the receive hooks.
    hook_spans = ("exchange.pack", "exchange.unpack")

    def _bind(
        self, sends: Sequence[WireMessage], recvs: Sequence[WireMessage]
    ) -> None:
        """Adopt the scheme's schedule; see the class docstring."""
        self._plan = RankMessagePlan(
            self.comm.rank,
            self.method,
            tuple(m.planned for m in sends),
            tuple(m.planned for m in recvs),
        )
        self._specs = [m.spec for m in sends]
        phases = sorted({m.planned.phase for m in (*sends, *recvs)}) or [0]
        self._rounds = [
            _Round(
                [m for m in sends if m.planned.phase == p],
                [m for m in recvs if m.planned.phase == p],
            )
            for p in phases
        ]
        self._live = all(m.buf is not None for m in (*sends, *recvs))
        staged = self.packs or self.datatypes
        self._staged_bytes = (
            sum(m.planned.nbytes for m in (*sends, *recvs)) if staged else 0
        )
        self._result = ExchangeResult(
            exchange_cost(
                self.profile,
                [(r.sends_spec, r.recvs_spec) for r in self._rounds],
                packs=self.packs,
                datatypes=self.datatypes,
            ),
            messages_sent=len(sends),
            messages_received=len(recvs),
            payload_bytes_sent=sum(m.spec.payload_bytes for m in sends),
            wire_bytes_sent=sum(m.spec.wire_bytes for m in sends),
        )

    def send_specs(self) -> List[MessageSpec]:
        return list(self._specs)

    def message_plan(self) -> RankMessagePlan:
        return self._plan

    def _require_buffers(self) -> None:
        if not self._live:
            raise ExchangeConfigError(
                f"{type(self).__name__} was built plan-only (no buffers);"
                " it can be introspected but not exchanged"
            )

    def _build_channel(self, partitions: int) -> Optional[ExchangeChannel]:
        if len(self._rounds) > 1:
            return None  # intra-exchange barriers serialize the phases
        self._require_buffers()
        (r,) = self._rounds
        return ExchangeChannel(
            self.comm,
            self.method,
            posts=r.posts,
            recvs=r.recvs,
            result=self._result,
            packed_bytes=self._staged_bytes,
            pre=r.pre,
            post=r.post,
            pre_span=self.hook_spans[0],
            post_span=self.hook_spans[1],
            partitions=partitions,
        )

    def exchange(self) -> ExchangeResult:
        self._require_buffers()
        comm = self.comm
        rank, method = comm.rank, self.method
        pre_span, post_span = self.hook_spans
        barrier = len(self._rounds) > 1
        for r in self._rounds:
            _run_hooks(r.pre, pre_span, rank, method)
            # Every receive is posted before any send (deadlock-free).
            with _TRACER.span("exchange.post", rank=rank, method=method):
                reqs = [comm.Irecv(buf, peer, tag) for peer, tag, buf in r.recvs]
                reqs += [comm.Isend(buf, peer, tag) for peer, tag, buf in r.posts]
            with _TRACER.span("exchange.wait", rank=rank, method=method):
                comm.Waitall(reqs)
            _run_hooks(r.post, post_span, rank, method)
            if barrier:
                comm.Barrier()
        _count(rank, self._staged_bytes, len(self._specs))
        return self._result
