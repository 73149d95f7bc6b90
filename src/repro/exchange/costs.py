"""Shared modelled-cost functions over message schedules.

:func:`exchange_cost` prices one exchange for both the executed
exchangers (their per-exchange breakdowns) and the pure-modelled driver
(arbitrary scales without allocating data), so each scheme's pack,
datatype and phase policy is applied by one function.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.exchange.schedule import MessageSpec
from repro.hardware.network import NetworkModel
from repro.hardware.profiles import MachineProfile
from repro.util.timing import TimeBreakdown

__all__ = [
    "datatype_cost",
    "exchange_cost",
    "network_times",
    "overlap_times",
    "pack_cost",
]


def overlap_times(wait: float, interior_calc: float) -> Tuple[float, float]:
    """``(visible_wait, hidden)`` when interior compute overlaps the wire.

    A phased exchange hides at most *interior_calc* seconds of the
    modelled *wait* behind the interior stencil sweep (posting, packing
    and unpacking stay on the critical path); whatever wait remains is
    still visible.  ``visible_wait + hidden == wait`` always.
    """
    hidden = min(max(wait, 0.0), max(interior_calc, 0.0))
    return wait - hidden, hidden


def network_times(
    net: NetworkModel,
    sends: Sequence[MessageSpec],
    recvs: Sequence[MessageSpec],
) -> Tuple[float, float]:
    """``(call, wait)`` seconds for one bulk-synchronous exchange."""
    call = net.call_time(len(sends), len(recvs))
    wait = net.wait_time(
        [m.wire_bytes for m in sends], [m.wire_bytes for m in recvs]
    )
    return call, wait


def pack_cost(profile: MachineProfile, specs: Sequence[MessageSpec]) -> float:
    """Application-level pack (or unpack) cost of one message batch."""
    mem = profile.memory
    total = profile.pack_launch_overhead if specs else 0.0
    for m in specs:
        total += mem.pack_time(m.payload_bytes, m.nsegments, m.run_elems)
    return total


def datatype_cost(profile: MachineProfile, specs: Sequence[MessageSpec]) -> float:
    """In-library derived-datatype processing cost of one batch."""
    total = 0.0
    for m in specs:
        total += profile.type_msg_overhead
        total += m.payload_bytes / profile.type_engine_bw
        total += m.nsegments * profile.memory.seg_overhead
    return total


def exchange_cost(
    profile: MachineProfile,
    rounds: Sequence[Tuple[Sequence[MessageSpec], Sequence[MessageSpec]]],
    packs: bool = False,
    datatypes: bool = False,
    net: Optional[NetworkModel] = None,
) -> TimeBreakdown:
    """Modelled ``pack``/``call``/``wait`` of one exchange.

    *rounds* are the exchange's barrier-separated ``(sends, recvs)``
    batches -- one for a flat schedule, one per axis for Shift -- and
    each pays its own network round.  *packs*: the scheme copies every
    message on-node, once to pack and once to unpack.  *datatypes*: the
    MPI datatype engine gathers and scatters inside the library, on the
    send and on the receive side, serialized on this rank's core (charged
    to ``wait``).  *net* replaces the profile's network (GPU transports).
    """
    net = net if net is not None else profile.network
    bd = TimeBreakdown()
    for sends, recvs in rounds:
        if packs:
            bd.charge("pack", pack_cost(profile, sends) * 2)
        call, wait = network_times(net, sends, recvs)
        if datatypes:
            wait += 2 * datatype_cost(profile, sends)
        bd.charge("call", call)
        bd.charge("wait", wait)
    return bd
