"""Plan-only rank geometry reconstruction for the static verifier.

Every executable exchange method can be constructed *plan-only*: no
storage arena, no wire buffers, no fabric traffic -- just the message
schedule derived from geometry (see ``Exchanger.message_plan``).  The
rank-invariant part comes from the run-geometry builder the driver uses
(:func:`repro.core.geometry.build_run_geometry`): the same decomposition,
slot assignment and message tables, bound here to each rank's peers the
way the driver's ``_make_exchanger`` binds them.  So
the verified schedule is the executed schedule, while the check stays
cheap enough to run ahead of every job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.geometry import RunGeometry, build_run_geometry
from repro.core.methods import MethodInfo, method_info
from repro.core.problem import StencilProblem
from repro.exchange.base import Exchanger, RankMessagePlan
from repro.exchange.brickpack import BrickPackExchanger
from repro.exchange.layout_ex import LayoutExchanger
from repro.exchange.memmap_ex import MemMapExchanger
from repro.exchange.mpitypes import MPITypesExchanger
from repro.exchange.pack import PackExchanger
from repro.exchange.shift import ShiftExchanger
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile, generic_host
from repro.simmpi.comm import CartComm, SimComm
from repro.simmpi.fabric import SimFabric

__all__ = ["RankGeometry", "build_rank_geometries", "build_rank_plans"]

#: Methods the static verifier covers: every executable CPU scheme plus
#: the degradation ladder's last rung.
CHECKABLE_METHODS = (
    "yask", "yask_ol", "mpi_types", "shift", "basic", "layout", "memmap",
    "brickpack",
)


@dataclass
class RankGeometry:
    """One rank's reconstructed exchange geometry, plan-only.

    ``run`` is the shared run geometry every rank's plan is bound from
    (its decomposition and slot assignment for brick schemes).
    """

    rank: int
    cart: CartComm
    exchanger: Exchanger
    plan: RankMessagePlan
    run: RunGeometry


def _plan_only_exchanger(
    info: MethodInfo,
    cart: CartComm,
    problem: StencilProblem,
    profile: MachineProfile,
    run: RunGeometry,
) -> Exchanger:
    """Mirror of the driver's ``_make_exchanger``, with no buffers."""
    ext, g = problem.subdomain_extent, problem.ghost
    if info.base in ("yask", "yask_ol"):
        return PackExchanger(cart, None, ext, g, profile, dtype=problem.dtype)
    if info.base == "mpi_types":
        return MPITypesExchanger(
            cart, None, ext, g, profile, dtype=problem.dtype
        )
    if info.base == "shift":
        return ShiftExchanger(cart, None, ext, g, profile, dtype=problem.dtype)
    args = (cart, run.decomp, None, run.asn, profile)
    table = run.tables[info.base]
    if info.base == "memmap":
        return MemMapExchanger(*args, run.page, table=table)
    if info.base in ("layout", "basic"):
        return LayoutExchanger(
            *args, merge_runs=(info.base == "layout"), table=table
        )
    return BrickPackExchanger(*args, table=table)


def build_rank_geometries(
    problem: StencilProblem,
    method: str,
    profile: Optional[MachineProfile] = None,
    page_size: Optional[int] = None,
    geometry: Optional[RunGeometry] = None,
) -> List[RankGeometry]:
    """Reconstruct every rank's plan-only geometry for *method*.

    *geometry* is the run geometry to bind (a run checking itself passes
    its own); by default it is built here, message tables only -- the
    memory pass builds the plan tables it checks.  One shared
    :class:`SimFabric` backs all the Cartesian communicators (nothing is
    ever posted to it); each rank gets the same plan-only exchanger the
    driver would build, and its static
    :class:`~repro.exchange.base.RankMessagePlan`.
    """
    if method == "brickpack":
        # The ladder rung is not a user-selectable method name; give it a
        # synthetic MethodInfo so the same dispatch covers it.
        info = MethodInfo(
            "brickpack", None, True, False, True, False, "brick"
        )
    else:
        info = method_info(method)
        if info.base not in CHECKABLE_METHODS:
            raise ExchangeConfigError(
                f"method {method!r} is not statically checkable;"
                f" checkable methods are {CHECKABLE_METHODS}"
            )
    profile = profile or generic_host()
    if geometry is None:
        geometry = build_run_geometry(problem, info, profile, page_size)
    fabric = SimFabric(problem.nranks)
    periods = [problem.periodic] * problem.ndim
    out: List[RankGeometry] = []
    for rank in range(problem.nranks):
        cart = SimComm(fabric, rank).Create_cart(problem.rank_dims, periods)
        ex = _plan_only_exchanger(info, cart, problem, profile, geometry)
        out.append(RankGeometry(rank, cart, ex, ex.message_plan(), geometry))
    return out


def build_rank_plans(
    problem: StencilProblem,
    method: str,
    profile: Optional[MachineProfile] = None,
    page_size: Optional[int] = None,
) -> Dict[int, RankMessagePlan]:
    """``{rank: message plan}`` for the whole decomposition."""
    return {
        g.rank: g.plan
        for g in build_rank_geometries(problem, method, profile, page_size)
    }
