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
    ExchangeChannel,
    ExchangeResult,
    Exchanger,
    MessageTable,
    PlannedMessage,
    RankMessagePlan,
    bind_neighbors,
    exchange_tag,
)
from repro.faults.errors import ExchangeConfigError
from repro.exchange.schedule import MessageSpec
from repro.hardware.profiles import MachineProfile
from repro.layout.messages import message_runs
from repro.obs import METRICS as _METRICS
from repro.obs import TRACER as _TRACER
from repro.simmpi.comm import CartComm
from repro.util.bitset import BitSet
from repro.util.timing import TimeBreakdown
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


class MemMapExchanger(Exchanger):
    """One-message-per-neighbor pack-free exchange through mapped views.

    *table* is the run's shared :func:`memmap_message_table` for this
    decomposition, assignment and page size; built here when omitted.
    """

    method = "memmap"

    def __init__(
        self,
        comm: CartComm,
        decomp: BrickDecomp,
        storage: Optional[BrickStorage],
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
        self.storage = storage  # None = plan-only (static verification)
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
        for rank, nv in bind_neighbors(comm, decomp.ndim, entries):
            self.views.append(
                ExchangeView(
                    neighbor=nv.neighbor,
                    rank=rank,
                    send_tag=nv.send_tag,
                    recv_tag=nv.recv_tag,
                    send_plan=nv.send_plan,
                    recv_plan=nv.recv_plan,
                    send_view=(
                        storage.make_view(nv.send_plan.chunks)
                        if storage is not None else None
                    ),
                    recv_view=(
                        storage.make_view(nv.recv_plan.chunks)
                        if storage is not None else None
                    ),
                )
            )
        self._check_mapping_budget()

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

    def send_specs(self) -> List[MessageSpec]:
        return [
            MessageSpec(
                v.neighbor,
                payload_bytes=v.send_plan.payload_bytes,
                wire_bytes=v.send_plan.mapped_bytes,
                nsegments=1,
                run_elems=v.send_plan.payload_bytes // 8,
                nmappings=v.send_plan.mapping_count,
            )
            for v in self.views
        ]

    def recv_specs(self) -> List[MessageSpec]:
        return [
            MessageSpec(
                v.neighbor,
                payload_bytes=v.recv_plan.payload_bytes,
                wire_bytes=v.recv_plan.mapped_bytes,
                nmappings=v.recv_plan.mapping_count,
            )
            for v in self.views
        ]

    def message_plan(self) -> RankMessagePlan:
        return RankMessagePlan(
            rank=self.comm.rank,
            method=self.method,
            sends=tuple(
                PlannedMessage(
                    peer=v.rank, tag=v.send_tag,
                    nbytes=v.send_plan.mapped_bytes,
                    ranges=tuple(v.send_plan.chunks),
                )
                for v in self.views
            ),
            recvs=tuple(
                PlannedMessage(
                    peer=v.rank, tag=v.recv_tag,
                    nbytes=v.recv_plan.mapped_bytes,
                    ranges=tuple(v.recv_plan.chunks),
                )
                for v in self.views
            ),
        )

    def _require_views(self) -> None:
        if self.storage is None:
            raise ExchangeConfigError(
                "MemMapExchanger was built plan-only (no storage); it can"
                " be introspected but not exchanged"
            )

    def exchange(self) -> ExchangeResult:
        self._require_views()
        rank = self.comm.rank
        reqs = []
        with _TRACER.span("exchange.post", rank=rank, method=self.method):
            for v in self.views:
                reqs.append(
                    self.comm.Irecv(v.recv_view.array(), v.rank, v.recv_tag)
                )
            for v in self.views:
                v.send_view.refresh()  # no-op on real mappings
                reqs.append(
                    self.comm.Isend(v.send_view.array(), v.rank, v.send_tag)
                )
        with _TRACER.span("exchange.wait", rank=rank, method=self.method):
            self.comm.Waitall(reqs)
        with _TRACER.span("exchange.sync", rank=rank, method=self.method):
            for v in self.views:
                v.recv_view.flush()  # no-op on real mappings
        if _METRICS.enabled:
            # Pack-free through the MMU: no staged bytes, but each view
            # burns kernel mappings (the vm.max_map_count budget).
            _METRICS.count("exchange.bytes_packed", 0, rank=rank)
            _METRICS.count("exchange.messages", len(self.views), rank=rank)
            _METRICS.gauge("memmap.regions", self.mapping_count, rank=rank)
        return self._model_result()

    def _model_result(self) -> ExchangeResult:
        """Modelled outcome of one exchange (static per view plan)."""
        send_specs = self.send_specs()
        recv_specs = self.recv_specs()
        breakdown = TimeBreakdown()  # pack-free and copy-free
        call, wait = self._network_times(send_specs, recv_specs)
        breakdown.charge("call", call)
        breakdown.charge("wait", wait)
        return ExchangeResult(
            breakdown,
            messages_sent=len(send_specs),
            messages_received=len(recv_specs),
            payload_bytes_sent=sum(m.payload_bytes for m in send_specs),
            wire_bytes_sent=sum(m.wire_bytes for m in send_specs),
        )

    def _build_channel(self, partitions):
        self._require_views()
        views = self.views

        def refresh() -> None:
            for v in views:
                v.send_view.refresh()  # no-op on real mappings

        def flush() -> None:
            for v in views:
                v.recv_view.flush()  # no-op on real mappings

        return ExchangeChannel(
            self.comm,
            self.method,
            posts=[(v.rank, v.send_tag, v.send_view.array()) for v in views],
            recvs=[(v.rank, v.recv_tag, v.recv_view.array()) for v in views],
            result=self._model_result(),
            pre=refresh,
            post=flush,
            pre_span="exchange.sync",
            post_span="exchange.sync",
            partitions=partitions,
        )

    def close(self) -> None:
        for v in self.views:
            v.close()
