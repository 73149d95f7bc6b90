"""Brick-storage packing exchange: the degradation ladder's last rung.

Functionally this is the classic pack -> send -> recv -> unpack scheme of
:class:`~repro.exchange.pack.PackExchanger`, but it runs over *brick*
storage (any alignment, padded or not) instead of a lexicographic array:
for each neighbor, the surface sections are gathered slot-range by
slot-range into one persistent staging buffer, sent as a single message,
and the neighbor's payload is scattered into the ghost sections.

It exists so a rank whose MemMap machinery fails mid-run (mapping budget
exhausted, mmap refusal) can keep computing on the same brick storage with
zero re-allocation: MemMap -> Layout -> BrickPack demotion only swaps the
exchange engine.  The modelled cost honestly re-acquires the packing tax
the pack-free schemes eliminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.brick.decomp import BrickDecomp, Section, SlotAssignment
from repro.brick.info import direction_index
from repro.brick.storage import BrickStorage
from repro.exchange.base import (
    ExchangeChannel,
    ExchangeResult,
    Exchanger,
    MessageTable,
    PlannedMessage,
    RankMessagePlan,
    bind_neighbors,
    exchange_tag,
)
from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile
from repro.layout.messages import message_runs
from repro.obs import METRICS as _METRICS
from repro.obs import TRACER as _TRACER
from repro.simmpi.comm import CartComm
from repro.util.bitset import BitSet
from repro.util.timing import TimeBreakdown

__all__ = ["BrickPackExchanger", "PackedNeighbor", "brickpack_message_table"]


@dataclass(frozen=True)
class PackedNeighbor:
    """Rank-free staged message pair for the neighbor ``neighbor``: the
    surface sections packed into the send, the ghost sections the
    receive unpacks into, both in layout order."""

    neighbor: BitSet
    send_tag: int
    recv_tag: int
    send_secs: Tuple[Section, ...]
    recv_secs: Tuple[Section, ...]
    spec: MessageSpec

    @property
    def nbricks(self) -> int:
        return sum(s.nbricks for s in self.send_secs)


def brickpack_message_table(
    decomp: BrickDecomp, assignment: SlotAssignment
) -> MessageTable:
    """The BrickPack scheme's table: one :class:`PackedNeighbor` entry per
    neighbor direction with traffic.

    Pure geometry: every rank of a run shares one table and binds each
    direction to its own peer.
    """
    ndim = decomp.ndim
    layout = decomp.layout
    be = decomp.brick_elems
    table = []
    for neighbor in layout:
        # Surface sections bound for this neighbor, in layout order -- the
        # same payload order as the pack-free schemes, so the peer's
        # unpack order matches regardless of its own method.
        send_secs = []
        for start, length in message_runs(layout, neighbor):
            for i in range(start, start + length):
                sec = assignment.surface[layout[i]]
                if sec.nbricks:
                    send_secs.append(sec)
        opp = neighbor.opposite()
        recv_secs = []
        for start, length in message_runs(layout, opp):
            for i in range(start, start + length):
                sec = assignment.ghost[(neighbor, layout[i])]
                if sec.nbricks:
                    recv_secs.append(sec)
        n_send = sum(s.nbricks for s in send_secs)
        n_recv = sum(s.nbricks for s in recv_secs)
        if n_send != n_recv:
            raise AssertionError(
                f"send/recv brick count mismatch for {neighbor.notation()}:"
                f" {n_send} vs {n_recv}"
            )
        if n_send == 0:
            continue
        payload = n_send * decomp.brick_bytes
        spec = MessageSpec(
            neighbor,
            payload_bytes=payload,
            wire_bytes=payload,
            nsegments=len(send_secs),
            run_elems=n_send * be // len(send_secs),
        )
        send_tag = exchange_tag(direction_index(opp.to_vector(ndim)), 0)
        recv_tag = exchange_tag(direction_index(neighbor.to_vector(ndim)), 0)
        entry = PackedNeighbor(
            neighbor, send_tag, recv_tag, tuple(send_secs), tuple(recv_secs), spec
        )
        table.append(entry)
    return MessageTable("brickpack", assignment.alignment, tuple(table))


class BrickPackExchanger(Exchanger):
    """One staged message per neighbor over brick slot sections.

    *table* is the run's shared :func:`brickpack_message_table` for this
    decomposition and assignment; built here when omitted.
    """

    method = "brickpack"

    def __init__(
        self,
        comm: CartComm,
        decomp: BrickDecomp,
        storage: Optional[BrickStorage],  # None = plan-only
        assignment: Optional[SlotAssignment] = None,
        profile: Optional[MachineProfile] = None,
        table: Optional[MessageTable] = None,
    ) -> None:
        from repro.hardware.profiles import generic_host

        super().__init__(comm, profile or generic_host())
        self.decomp = decomp
        self.storage = storage
        self.assignment = assignment or decomp.assignment(1)
        if table is None:
            table = brickpack_message_table(decomp, self.assignment)
        dtype = storage.dtype if storage is not None else decomp.dtype
        be = decomp.brick_bytes // dtype.itemsize  # elems per brick

        # (peer rank, message, send staging, recv staging); the staging
        # buffers are persistent, reused every timestep.
        self._plan = []
        entries = table.entries_for(self.method, self.assignment.alignment)
        for rank, m in bind_neighbors(comm, decomp.ndim, entries):
            n = m.nbricks * be
            if storage is None:
                bufs = (None, None)
            else:
                bufs = (np.empty(n, dtype=dtype), np.empty(n, dtype=dtype))
            self._plan.append((rank, m, *bufs))

    # ------------------------------------------------------------------
    def send_specs(self) -> List[MessageSpec]:
        return [m.spec for _, m, _, _ in self._plan]

    def recv_specs(self) -> List[MessageSpec]:
        return self.send_specs()

    def message_plan(self) -> RankMessagePlan:
        """Static per-rank schedule with storage byte ranges per section.

        The ranges describe where the *payload lives in brick storage*
        (gather sources for sends, scatter targets for recvs), even
        though the wire message itself is a staged contiguous buffer.
        """
        bb = self.decomp.brick_bytes

        def planned(peer, tag, secs) -> PlannedMessage:
            return PlannedMessage(
                peer, tag, sum(s.nbricks for s in secs) * bb,
                ranges=tuple((s.start * bb, s.nbricks * bb) for s in secs),
            )

        sends = [planned(r, m.send_tag, m.send_secs) for r, m, _, _ in self._plan]
        recvs = [planned(r, m.recv_tag, m.recv_secs) for r, m, _, _ in self._plan]
        return RankMessagePlan(
            self.comm.rank, self.method, tuple(sends), tuple(recvs)
        )

    def _require_storage(self) -> BrickStorage:
        if self.storage is None:
            raise ExchangeConfigError(
                "BrickPackExchanger was built plan-only (storage=None); it"
                " can describe its schedule but not execute an exchange"
            )
        return self.storage

    def _pack_sends(self) -> None:
        """Gather every neighbor's surface sections into its staging buffer."""
        st = self._require_storage()
        be = st.brick_elems
        for _, m, buf, _ in self._plan:
            pos = 0
            for sec in m.send_secs:
                n = sec.nbricks * be
                buf[pos : pos + n] = st.slot_view(sec.start, sec.nbricks)
                pos += n

    def _unpack_recvs(self) -> None:
        """Scatter every received payload into its ghost sections."""
        st = self._require_storage()
        be = st.brick_elems
        for _, m, _, buf in self._plan:
            pos = 0
            for sec in m.recv_secs:
                n = sec.nbricks * be
                st.slot_view(sec.start, sec.nbricks)[:] = buf[pos : pos + n]
                pos += n

    def exchange(self) -> ExchangeResult:
        self._require_storage()
        rank = self.comm.rank
        reqs = []
        with _TRACER.span("exchange.post", rank=rank, method=self.method):
            for peer, m, _, rbuf in self._plan:
                reqs.append(self.comm.Irecv(rbuf, peer, m.recv_tag))
        with _TRACER.span("exchange.pack", rank=rank, method=self.method):
            self._pack_sends()
            for peer, m, sbuf, _ in self._plan:
                reqs.append(self.comm.Isend(sbuf, peer, m.send_tag))
        with _TRACER.span("exchange.wait", rank=rank, method=self.method):
            self.comm.Waitall(reqs)
        with _TRACER.span("exchange.unpack", rank=rank, method=self.method):
            self._unpack_recvs()
        if _METRICS.enabled:
            _METRICS.count("exchange.bytes_packed", self._staged_bytes(),
                           rank=rank)
            _METRICS.count("exchange.messages", len(self._plan), rank=rank)
        return self._model_result()

    def _model_result(self) -> ExchangeResult:
        """Modelled outcome of one exchange (static per message plan)."""
        specs = self.send_specs()
        breakdown = TimeBreakdown()
        breakdown.charge("pack", self._pack_cost(specs) * 2)  # pack+unpack
        call, wait = self._network_times(specs, specs)
        breakdown.charge("call", call)
        breakdown.charge("wait", wait)
        return ExchangeResult(
            breakdown,
            messages_sent=len(specs),
            messages_received=len(specs),
            payload_bytes_sent=sum(m.payload_bytes for m in specs),
            wire_bytes_sent=sum(m.wire_bytes for m in specs),
        )

    def _staged_bytes(self) -> int:
        return sum(sb.nbytes + rb.nbytes for _, _, sb, rb in self._plan)

    def _build_channel(self, partitions):
        self._require_storage()
        plan = self._plan
        return ExchangeChannel(
            self.comm,
            self.method,
            posts=[(peer, m.send_tag, sb) for peer, m, sb, _ in plan],
            recvs=[(peer, m.recv_tag, rb) for peer, m, _, rb in plan],
            result=self._model_result(),
            packed_bytes=self._staged_bytes(),
            pre=self._pack_sends,
            post=self._unpack_recvs,
            partitions=partitions,
        )
