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
from typing import Optional, Tuple

import numpy as np

from repro.brick.decomp import BrickDecomp, Section, SlotAssignment
from repro.brick.info import direction_index
from repro.brick.storage import BrickStorage
from repro.exchange.base import (
    MessageTable,
    PlannedExchanger,
    PlannedMessage,
    WireMessage,
    bind_neighbors,
    copier,
    exchange_tag,
)
from repro.exchange.schedule import MessageSpec
from repro.hardware.profiles import MachineProfile
from repro.layout.messages import message_runs
from repro.simmpi.comm import CartComm
from repro.util.bitset import BitSet

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


class BrickPackExchanger(PlannedExchanger):
    """One staged message per neighbor over brick slot sections.

    *table* is the run's shared :func:`brickpack_message_table` for this
    decomposition and assignment; built here when omitted.  The plan's
    storage ranges describe where each payload *lives in brick storage*
    (gather sources for sends, scatter targets for recvs), even though
    the wire message itself is a staged contiguous buffer.
    """

    method = "brickpack"
    packs = True

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
        bb = decomp.brick_bytes
        be = bb // dtype.itemsize  # elems per brick

        def staged(peer, tag, secs, spec, gather: bool) -> WireMessage:
            """A persistent staging buffer over *secs*, reused every
            timestep: *gather* packs the sections into it, else it is
            unpacked into them."""
            planned = PlannedMessage(
                peer, tag, sum(s.nbricks for s in secs) * bb,
                ranges=tuple((s.start * bb, s.nbricks * bb) for s in secs),
            )
            if storage is None:
                return WireMessage(planned, spec)
            buf = np.empty(planned.nbytes // dtype.itemsize, dtype)
            pairs, pos = [], 0
            for sec in secs:
                n = sec.nbricks * be
                part = buf[pos : pos + n]
                slots = storage.slot_view(sec.start, sec.nbricks)
                pairs.append((part, slots) if gather else (slots, part))
                pos += n
            return WireMessage(planned, spec, buf, copier(pairs))

        sends, recvs = [], []
        entries = table.entries_for(self.method, self.assignment.alignment)
        for peer, m in bind_neighbors(comm, decomp.ndim, entries):
            sends.append(staged(peer, m.send_tag, m.send_secs, m.spec, True))
            recvs.append(staged(peer, m.recv_tag, m.recv_secs, m.spec, False))
        self._bind(sends, recvs)
