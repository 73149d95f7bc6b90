"""Run geometry: the rank-invariant half of one executed world.

Simulated ranks are threads of one process, and most of what a rank
needs before its first step depends only on the subdomain geometry,
never on which rank asks: the brick decomposition and its slot
assignment, the adjacency (``BrickInfo``), the element permutation, the
per-cycle-position slot sets, the compiled plans' gather tables and
interior/surface split, each exchange scheme's message table (by
neighbor *direction*), the snapshot chunk layout and the seeded initial
field.  :func:`build_run_geometry` builds all of it once per world, in
the launching thread before any rank starts, and every rank reads the
same :class:`RunGeometry`.

Every shared array is frozen (``flags.writeable = False``), so a rank
that tried to write into one fails loudly instead of corrupting its
peers.  What stays per rank is what a rank writes or binds: its storages,
conversion scratch, plan scratch, the peer ranks of each message table
entry, exchangers, channels and mapped views.

The static verifier (:mod:`repro.check`) binds its plan-only exchangers
to the message tables of a geometry from the same builder -- the run's
own under ``run_executed(check=...)`` -- so it verifies the tables the
run fires.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.brick.convert import element_permutation
from repro.brick.decomp import BrickDecomp, SlotAssignment
from repro.brick.info import BrickInfo
from repro.ckpt import ChunkSpec, storage_chunks
from repro.core.expansion import (
    brick_cycle_slots,
    depths_for_period,
    margins_for_period,
)
from repro.core.methods import MethodInfo
from repro.core.problem import StencilProblem
from repro.exchange.brickpack import brickpack_message_table
from repro.exchange.layout_ex import layout_message_table
from repro.exchange.memmap_ex import memmap_message_table
from repro.hardware.profiles import MachineProfile
from repro.stencil.plan import gather_tables, ghost_slot_mask, split_brick_slots

__all__ = ["RunGeometry", "build_run_geometry", "resolve_period"]


def resolve_period(requested, available: int, granularity: str) -> int:
    """Validate/resolve the exchange period against what the ghost
    width supports at this granularity."""
    if requested in (None, 1):
        return 1
    if requested == "auto":
        return available
    period = int(requested)
    if period < 1:
        raise ValueError("exchange_period must be >= 1")
    if period > available:
        raise ValueError(
            f"exchange_period {period} exceeds the {available} step(s) the"
            f" ghost width supports at {granularity} granularity; widen the"
            " ghost zone (ghost-cell expansion)"
        )
    return period


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RunGeometry:
    """Everything about one executed world that no rank owns.

    ``cycle_slots[pos]`` is what a calc at cycle position *pos* rewrites
    (brick slots; ``(0,)`` -- the one array snapshot slot -- for array
    methods), ``computed_points[pos]`` the stencil points it evaluates.
    ``gather[pos]`` holds the plan gather tables of ``cycle_slots[pos]``
    and ``phases`` the ``(interior, surface)`` split of position 0, each
    part as ``(slots, gather tables)``, when the world runs compiled (and
    phased) brick plans; every rank's plans read these.  ``tables`` maps
    each exchange scheme the world may run (``"layout"``, ``"basic"``,
    ``"memmap"``, ``"brickpack"``) to its rank-free message table.  The
    element permutation is the one cached on the shared ``decomp``
    (built with the geometry).  The brick fields are ``None``/empty for
    array methods, and ``initial`` is ``None`` for a world built without
    a seed.
    """

    problem: StencilProblem
    info: MethodInfo
    period: int
    computed_points: Tuple[int, ...]
    cycle_slots: tuple
    chunk_specs: Tuple[ChunkSpec, ...]
    slot_layout: Tuple[int, int]  # (alignment, total slots) of snapshots
    adjacency_crc: int = 0
    ghost_ranges: Tuple[Tuple[int, int], ...] = ()
    margins: Tuple[int, ...] = ()  # array methods: element margin per pos
    initial: Optional[np.ndarray] = None  # seeded global field, frozen
    decomp: Optional[BrickDecomp] = None
    asn: Optional[SlotAssignment] = None
    page: Optional[int] = None
    binfo: Optional[BrickInfo] = None
    gather: tuple = ()
    phases: Optional[tuple] = None
    tables: Mapping[str, object] = field(
        default_factory=lambda: MappingProxyType({})
    )


def _message_table(
    kind: str, decomp: BrickDecomp, asn: SlotAssignment, page: int
):
    if kind in ("layout", "basic"):
        return layout_message_table(decomp, asn, merge_runs=(kind == "layout"))
    if kind == "memmap":
        return memmap_message_table(decomp, asn, page)
    if kind == "brickpack":
        return brickpack_message_table(decomp, asn)
    raise ValueError(f"no message table for exchange scheme {kind!r}")


def build_run_geometry(
    problem: StencilProblem,
    info: MethodInfo,
    profile: MachineProfile,
    page_size: Optional[int] = None,
    exchange_period=None,
    *,
    seed: Optional[int] = None,
    plans: bool = False,
    phased: bool = False,
    schemes: Sequence[str] = (),
) -> RunGeometry:
    """The :class:`RunGeometry` of *problem* run with method *info*.

    *seed* draws the initial field (``None``: no field, for worlds that
    restore from a snapshot and for the static verifier).  *plans* builds
    the compiled brick plans' gather tables for every cycle position, and
    *phased* also the interior/surface split of position 0 and its
    tables.  Message tables
    are built for the method's own scheme plus *schemes* (the rungs a
    degrading run may demote to).  Raises what a rank's setup raised
    before the geometry was shared: ``ValueError`` for an exchange
    period the ghost width cannot support, the decomposition's and the
    schemes' own errors otherwise.
    """
    spec, g = problem.stencil, problem.ghost
    initial = None
    if seed is not None:
        initial = _frozen(problem.initial_global(seed))
    if not info.uses_bricks:
        period = resolve_period(exchange_period, g // spec.radius, "element")
        margins = tuple(margins_for_period(period, spec.radius, g))
        return RunGeometry(
            problem=problem,
            info=info,
            period=period,
            computed_points=tuple(
                math.prod(e + 2 * m for e in problem.subdomain_extent)
                for m in margins
            ),
            cycle_slots=((0,),) * period,  # every calc rewrites slot 0
            # The whole extended array, ghost margins included, is one
            # snapshot slot (the margins make mid-cycle restores of
            # period>1 runs self-contained).
            chunk_specs=(ChunkSpec("array", 0, 1),),
            slot_layout=(1, 1),
            margins=margins,
            initial=initial,
        )

    decomp = BrickDecomp(
        problem.subdomain_extent, problem.brick_dim, g, problem.layout,
        problem.dtype,
    )
    page = page_size or (
        profile.gpu.page_size if info.is_gpu and profile.gpu else profile.page_size
    )
    # The assignment the rank's storages are allocated with:
    # BrickDecomp.mmap_alloc pads sections to pages, allocate() does not.
    # Both find this one cached on the shared decomp.
    asn = decomp.assignment(
        decomp.alignment_for_page(page) if info.base == "memmap" else 1
    )
    binfo = decomp.brick_info(asn)
    period = resolve_period(exchange_period, decomp.width, "brick")
    cycle_slots = tuple(
        _frozen(slots)
        for slots in brick_cycle_slots(
            decomp, asn, spec.radius, depths_for_period(period, decomp.width)
        )
    )
    # Cached on the decomp, where every converter finds it.
    element_permutation(decomp, asn)
    gather: tuple = ()
    phases = None
    if plans:
        gather = tuple(
            gather_tables(binfo, slots, spec.radius) for slots in cycle_slots
        )
        if phased:
            phases = tuple(
                (_frozen(part), gather_tables(binfo, part, spec.radius))
                for part in split_brick_slots(
                    binfo, ghost_slot_mask(asn), cycle_slots[0]
                )
            )
    kinds = dict.fromkeys((info.base, *schemes))
    return RunGeometry(
        problem=problem,
        info=info,
        period=period,
        computed_points=tuple(
            len(slots) * decomp.brick_volume for slots in cycle_slots
        ),
        cycle_slots=cycle_slots,
        chunk_specs=tuple(storage_chunks(asn)),
        slot_layout=(asn.alignment, asn.total_slots),
        adjacency_crc=zlib.crc32(binfo.adjacency.tobytes()),
        ghost_ranges=tuple(
            (s.start, s.nbricks) for s in asn.sections if s.kind == "ghost"
        ),
        initial=initial,
        decomp=decomp,
        asn=asn,
        page=page,
        binfo=binfo,
        gather=gather,
        phases=phases,
        tables=MappingProxyType(
            {k: _message_table(k, decomp, asn, page) for k in kinds}
        ),
    )
