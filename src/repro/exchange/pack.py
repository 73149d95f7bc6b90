"""The packing baseline: explicit pack -> send -> recv -> unpack.

This is the classic ghost-zone exchange the paper's Figure 1 profiles
(YASK operates this way): for each of the ``3^D - 1`` neighbors, gather
the surface box into a contiguous staging buffer, send it, receive the
neighbor's buffer, and scatter it into the ghost box.  Both the gather
and the scatter are pure on-node data movement -- the red "Packing" bars
the optimized schemes eliminate.

The staging buffers are allocated once and reused every timestep (as any
competent implementation would), so the measured cost is the copies
themselves, not allocation.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.brick.info import direction_index
from repro.exchange.base import (
    PlannedExchanger,
    PlannedMessage,
    WireMessage,
    copier,
    exchange_tag,
)
from repro.exchange.boxes import box_slices, neighbor_recv_box, neighbor_send_box
from repro.exchange.schedule import MessageSpec, array_schedule
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile
from repro.layout.regions import all_regions
from repro.simmpi.comm import CartComm

__all__ = ["PackExchanger", "array_neighbors", "checked_dtype"]


def checked_dtype(
    array: Optional[np.ndarray], extent: Sequence[int], ghost: int, dtype
) -> np.dtype:
    """The element type of an extended *array* (``None`` = plan-only,
    *dtype* given), once its shape is checked against *extent*."""
    expected = tuple(int(e) + 2 * ghost for e in reversed(extent))
    if array is None:
        return np.dtype(dtype)
    if array.shape != expected:
        raise ExchangeConfigError(
            f"extended array shape {array.shape}, expected {expected}"
        )
    return array.dtype


def array_neighbors(
    comm: CartComm, extent: Tuple[int, ...], ghost: int, itemsize: int
) -> List[Tuple[int, tuple, tuple, int, int, MessageSpec]]:
    """``(peer, send box, recv box, send tag, recv tag, spec)`` for each
    neighbor with a partner, in region order.

    Neighbors off a non-periodic boundary have no partner: nothing is
    exchanged with them and their ghost box keeps whatever boundary
    condition the application wrote there.
    """
    ndim = len(extent)
    specs = {m.neighbor: m for m in array_schedule(extent, ghost, itemsize)}
    out = []
    for neighbor in all_regions(ndim):
        vec = neighbor.to_vector(ndim)
        peer = comm.neighbor_rank(vec)
        if peer is None:
            continue
        out.append((
            peer,
            neighbor_send_box(neighbor, extent, ghost),
            neighbor_recv_box(neighbor, extent, ghost),
            exchange_tag(direction_index(neighbor.opposite().to_vector(ndim)), 0),
            exchange_tag(direction_index(vec), 0),
            specs[neighbor],
        ))
    return out


class PackExchanger(PlannedExchanger):
    """Explicit-packing exchange over a lexicographic extended array."""

    method = "pack"
    packs = True

    def __init__(
        self,
        comm: CartComm,
        array: Optional[np.ndarray],  # None = plan-only
        extent: Sequence[int],
        ghost: int,
        profile: MachineProfile,
        dtype=np.float64,
    ) -> None:
        super().__init__(comm, profile)
        self.extent = tuple(int(e) for e in extent)
        self.ghost = int(ghost)
        self.dtype = checked_dtype(array, self.extent, self.ghost, dtype)
        self.array = array
        sends, recvs = [], []
        for peer, sbox, rbox, stag, rtag, spec in array_neighbors(
            comm, self.extent, self.ghost, self.dtype.itemsize
        ):
            count = math.prod(sbox[1])
            sent = PlannedMessage(peer, stag, count * self.dtype.itemsize)
            got = PlannedMessage(peer, rtag, count * self.dtype.itemsize)
            if array is None:
                sends.append(WireMessage(sent, spec))
                recvs.append(WireMessage(got, spec))
                continue
            # Persistent staging: the flat buffers go on the wire; their
            # box-shaped reshapes let pack and unpack run as one strided
            # copy each, with no per-step temporaries.
            shape = tuple(reversed(sbox[1]))
            sbuf = np.empty(count, self.dtype)
            rbuf = np.empty(count, self.dtype)
            pack = copier([(sbuf.reshape(shape), array[box_slices(sbox)])])
            unpack = copier([(array[box_slices(rbox)], rbuf.reshape(shape))])
            sends.append(WireMessage(sent, spec, sbuf, pack))
            recvs.append(WireMessage(got, spec, rbuf, unpack))
        self._bind(sends, recvs)
