"""MemMap exchange: stitched views, one message per neighbor (Section 4).

For every neighbor, two stitched views are built once and reused every
timestep (the paper: "these views can be reused throughout the application
until the communication pattern changes"):

* the **send view** maps the padded surface regions bound for that
  neighbor, run by run, into one virtually contiguous window;
* the **recv view** maps the matching ghost subsections identically.

With the real memfd arena the views alias brick storage, so
``MPI_Send(view)`` / ``MPI_Recv(view)`` are genuinely zero-copy; with the
simulated arena, refresh/flush copies stand in for the MMU (charged zero
modelled time).  Costs relative to Layout: page padding inflates wire
bytes (Table 2), and every chunk consumes one entry of the kernel's
``vm.max_map_count`` budget -- which the layout optimization keeps small
by coalescing runs.
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
from repro.vmem.layout_plan import ViewPlan, plan_view
from repro.vmem.view import StitchedViewBase

__all__ = [
    "MemMapExchanger",
    "ExchangeView",
    "NeighborViews",
    "memmap_message_table",
]


@dataclass(frozen=True)
class NeighborViews:
    """Rank-free view plans for the neighbor in direction ``neighbor``."""

    neighbor: BitSet
    send_tag: int
    recv_tag: int
    send_plan: ViewPlan
    recv_plan: ViewPlan


def memmap_message_table(
    decomp: BrickDecomp, assignment: SlotAssignment, page_size: int
) -> MessageTable:
    """The MemMap scheme's table: one :class:`NeighborViews` entry per
    neighbor direction with traffic.

    Pure geometry: every rank of a run shares one table and binds each
    direction to its own peer.
    """
    ndim = decomp.ndim
    bb = decomp.brick_bytes
    layout = decomp.layout
    table = []
    for neighbor in layout:
        send_ranges = []
        for start, length in message_runs(layout, neighbor):
            for i in range(start, start + length):
                sec = assignment.surface[layout[i]]
                if sec.nbricks:
                    send_ranges.append((sec.start * bb, sec.nbricks * bb))
        opp = neighbor.opposite()
        recv_ranges = []
        for start, length in message_runs(layout, opp):
            for i in range(start, start + length):
                sec = assignment.ghost[(neighbor, layout[i])]
                if sec.nbricks:
                    recv_ranges.append((sec.start * bb, sec.nbricks * bb))
        if not send_ranges and not recv_ranges:
            continue
        send_plan = plan_view(send_ranges, page_size)
        recv_plan = plan_view(recv_ranges, page_size)
        if send_plan.mapped_bytes != recv_plan.mapped_bytes:
            raise AssertionError(
                "send/recv view size mismatch for"
                f" {neighbor.notation()}: {send_plan.mapped_bytes} vs"
                f" {recv_plan.mapped_bytes}"
            )
        send_tag = exchange_tag(direction_index(opp.to_vector(ndim)), 0)
        recv_tag = exchange_tag(direction_index(neighbor.to_vector(ndim)), 0)
        table.append(
            NeighborViews(neighbor, send_tag, recv_tag, send_plan, recv_plan)
        )
    return MessageTable("memmap", assignment.alignment, tuple(table), page_size)


@dataclass
class ExchangeView:
    """Paired send/recv views for one neighbor.

    The views are ``None`` on a plan-only exchanger (static
    verification), which computes the :class:`ViewPlan` pair without
    materializing any mapping.
    """

    neighbor: BitSet
    rank: int
    send_tag: int
    recv_tag: int
    send_plan: ViewPlan
    recv_plan: ViewPlan
    send_view: Optional[StitchedViewBase] = None
    recv_view: Optional[StitchedViewBase] = None

    def close(self) -> None:
        if self.send_view is not None:
            self.send_view.close()
        if self.recv_view is not None:
            self.recv_view.close()


class MemMapExchanger(PlannedExchanger):
    """One-message-per-neighbor pack-free exchange through mapped views.

    *table* is the run's shared :func:`memmap_message_table` for this
    decomposition, assignment and page size; built here when omitted.
    With the simulated arena, each send view's refresh and each receive
    view's flush stand in for the MMU (no-ops on real mappings).
    """

    method = "memmap"
    hook_spans = ("exchange.sync", "exchange.sync")

    def __init__(
        self,
        comm: CartComm,
        decomp: BrickDecomp,
        storage: Optional[BrickStorage],  # None = plan-only
        assignment: SlotAssignment,
        profile: Optional[MachineProfile] = None,
        page_size: Optional[int] = None,
        table: Optional[MessageTable] = None,
    ) -> None:
        from repro.hardware.profiles import generic_host

        super().__init__(comm, profile or generic_host())
        if storage is not None and not storage.can_map:
            raise ExchangeConfigError(
                "MemMapExchanger needs mapping-capable storage; allocate it"
                " with BrickDecomp.mmap_alloc"
            )
        self.decomp = decomp
        self.storage = storage
        self.assignment = assignment
        if page_size is None and storage is not None:
            page_size = storage.arena.page_size
        if page_size is None:
            raise ExchangeConfigError(
                "plan-only MemMapExchanger needs an explicit page_size"
            )
        self.page_size = page_size
        expected_align = decomp.alignment_for_page(self.page_size)
        if assignment.alignment % expected_align:
            raise ExchangeConfigError(
                f"storage alignment {assignment.alignment} is not page-"
                f"aligned for {self.page_size}-byte pages"
            )
        if table is None:
            table = memmap_message_table(decomp, assignment, self.page_size)
        self.views: List[ExchangeView] = []
        entries = table.entries_for(
            self.method, assignment.alignment, self.page_size
        )
        sends, recvs = [], []
        for rank, nv in bind_neighbors(comm, decomp.ndim, entries):
            send, recv = nv.send_plan, nv.recv_plan
            v = ExchangeView(nv.neighbor, rank, nv.send_tag, nv.recv_tag,
                             send, recv)
            self.views.append(v)
            sent = PlannedMessage(
                rank, nv.send_tag, send.mapped_bytes, ranges=tuple(send.chunks)
            )
            got = PlannedMessage(
                rank, nv.recv_tag, recv.mapped_bytes, ranges=tuple(recv.chunks)
            )
            send_spec = MessageSpec(
                nv.neighbor, send.payload_bytes, send.mapped_bytes,
                nsegments=1, run_elems=send.payload_bytes // 8,
                nmappings=send.mapping_count,
            )
            recv_spec = MessageSpec(
                nv.neighbor, recv.payload_bytes, recv.mapped_bytes,
                nmappings=recv.mapping_count,
            )
            if storage is None:
                sends.append(WireMessage(sent, send_spec))
                recvs.append(WireMessage(got, recv_spec))
                continue
            v.send_view = sv = storage.make_view(send.chunks)
            v.recv_view = rv = storage.make_view(recv.chunks)
            sends.append(WireMessage(sent, send_spec, sv.array(), sv.refresh))
            recvs.append(WireMessage(got, recv_spec, rv.array(), rv.flush))
        self._check_mapping_budget()
        self._bind(sends, recvs)

    # ------------------------------------------------------------------
    def _check_mapping_budget(self) -> None:
        total = self.mapping_count
        limit = self.profile.mmap_limit
        if total > limit:
            raise ExchangeConfigError(
                f"exchange needs {total} mappings, over the per-process"
                f" limit of {limit} (vm.max_map_count); use a coarser"
                " layout or fewer fields"
            )

    @property
    def mapping_count(self) -> int:
        """Kernel mappings consumed by all live exchange views."""
        return sum(
            v.send_plan.mapping_count + v.recv_plan.mapping_count
            for v in self.views
        )

    def close(self) -> None:
        for v in self.views:
            v.close()
