"""Layout-mode pack-free exchange (paper Section 3).

Brick storage is laid out so every surface region -- and every run of
regions consecutive in the layout -- is one contiguous slot range, and the
ghost sections mirror the *sender's* ordering.  Each message is therefore
a plain ``Isend`` of a storage view on one end and an ``Irecv`` straight
into storage on the other: zero on-node copies, at the price of more
messages (42 instead of 26 in 3-D under the optimal ``surface3d`` order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.brick.decomp import BrickDecomp, SlotAssignment
from repro.brick.info import direction_index
from repro.brick.storage import BrickStorage
from repro.exchange.base import (
    MessageTable,
    PlannedExchanger,
    PlannedMessage,
    WireMessage,
    bind_neighbors,
    exchange_tag,
)
from repro.faults.errors import ExchangeConfigError
from repro.exchange.schedule import MessageSpec
from repro.hardware.profiles import MachineProfile
from repro.layout.messages import message_runs
from repro.simmpi.comm import CartComm
from repro.util.bitset import BitSet

__all__ = ["LayoutExchanger", "SlotMessage", "layout_message_table"]


@dataclass(frozen=True)
class SlotMessage:
    """One message of a rank-free table: a contiguous slot run.

    ``neighbor`` is the direction of the peer the run goes to (sends) or
    comes from (receives); a rank binds it to a peer rank.
    """

    neighbor: BitSet
    tag: int
    slot_start: int
    nbricks: int
    spec: MessageSpec


def _require_unpadded(merge_runs: bool, assignment: SlotAssignment) -> None:
    if merge_runs and assignment.alignment != 1:
        # Padding slots between sections break *run* contiguity, so
        # merged messages pair with plain allocation (paper Figure 7
        # left column).  Basic mode (one message per region) only needs
        # each section contiguous, which holds at any alignment -- that
        # is what lets a degraded MemMap rank fall back to Layout
        # exchange over its padded storage.
        raise ExchangeConfigError(
            "LayoutExchanger with merge_runs requires unpadded storage"
            " (alignment 1); use MemMapExchanger for mmap_alloc"
            " storage, or merge_runs=False"
        )


def layout_message_table(
    decomp: BrickDecomp, assignment: SlotAssignment, merge_runs: bool = True
) -> MessageTable:
    """The Layout (or, unmerged, Basic) scheme's table; its entries are
    ``(sends, recvs)``, tuples of :class:`SlotMessage`.

    Pure geometry: every rank of a run shares one table and binds each
    message's direction to its own peers.
    """
    _require_unpadded(merge_runs, assignment)
    ndim = decomp.ndim
    bb = decomp.brick_bytes
    layout = decomp.layout

    def groups(target: BitSet) -> List[List[int]]:
        """Region-position groups, each becoming one message."""
        if merge_runs:
            return [
                list(range(start, start + length))
                for start, length in message_runs(layout, target)
            ]
        # One message per (region, neighbor) pair: the paper's Basic
        # scheme (5^D - 3^D sends), used as the Fig. 4 baseline.
        return [
            [i] for i, region in enumerate(layout) if target.issubset(region)
        ]

    sends: List[SlotMessage] = []
    recvs: List[SlotMessage] = []
    for neighbor in layout:
        vec = neighbor.to_vector(ndim)
        # Sends: groups of regions (supersets of neighbor).
        for k, grp in enumerate(groups(neighbor)):
            secs = [assignment.surface[layout[i]] for i in grp]
            nb = sum(s.nbricks for s in secs)
            if nb == 0:
                continue
            assert secs[-1].end - secs[0].start == nb, "run is not contiguous"
            tag = exchange_tag(
                direction_index(neighbor.opposite().to_vector(ndim)), k
            )
            spec = MessageSpec(neighbor, nb * bb, nb * bb, 1, nb * bb // 8)
            sends.append(SlotMessage(neighbor, tag, secs[0].start, nb, spec))
        # Receives: our ghost slab g(neighbor), partitioned exactly as the
        # sender partitioned its sends (their groups for *their* neighbor
        # -neighbor).
        for k, grp in enumerate(groups(neighbor.opposite())):
            secs = [assignment.ghost[(neighbor, layout[i])] for i in grp]
            nb = sum(s.nbricks for s in secs)
            if nb == 0:
                continue
            assert secs[-1].end - secs[0].start == nb, "ghost run not contiguous"
            tag = exchange_tag(direction_index(vec), k)
            spec = MessageSpec(neighbor, nb * bb, nb * bb)
            recvs.append(SlotMessage(neighbor, tag, secs[0].start, nb, spec))
    return MessageTable(
        "layout" if merge_runs else "basic",
        assignment.alignment,
        (tuple(sends), tuple(recvs)),
    )


class LayoutExchanger(PlannedExchanger):
    """Pack-free brick exchange using contiguous region runs.

    *table* is the run's shared :func:`layout_message_table` for this
    decomposition, assignment and *merge_runs*; built here when omitted.
    """

    method = "layout"

    def __init__(
        self,
        comm: CartComm,
        decomp: BrickDecomp,
        storage: Optional[BrickStorage],  # None = plan-only
        assignment: Optional[SlotAssignment] = None,
        profile: Optional[MachineProfile] = None,
        merge_runs: bool = True,
        table: Optional[MessageTable] = None,
    ) -> None:
        from repro.hardware.profiles import generic_host

        super().__init__(comm, profile or generic_host())
        self.decomp = decomp
        self.storage = storage
        self.merge_runs = bool(merge_runs)
        if not self.merge_runs:
            self.method = "basic"
        self.assignment = assignment or decomp.assignment(1)
        _require_unpadded(self.merge_runs, self.assignment)
        if table is None:
            table = layout_message_table(
                decomp, self.assignment, self.merge_runs
            )
        sends, recvs = table.entries_for(self.method, self.assignment.alignment)
        bb = decomp.brick_bytes

        def wired(bound) -> list:
            """Each slot run goes on the wire straight out of storage."""
            out = []
            for peer, m in bound:
                planned = PlannedMessage(
                    peer, m.tag, m.nbricks * bb,
                    ranges=((m.slot_start * bb, m.nbricks * bb),),
                )
                buf = (
                    storage.slot_view(m.slot_start, m.nbricks)
                    if storage is not None else None
                )
                out.append(WireMessage(planned, m.spec, buf))
            return out

        self._bind(
            wired(bind_neighbors(comm, decomp.ndim, sends)),
            wired(bind_neighbors(comm, decomp.ndim, recvs)),
        )
