"""Shift exchange (related work, Section 8).

The Shift algorithm exchanges ghost zones one dimension at a time with
only the two face neighbors per dimension -- ``2 * D`` messages instead of
``3^D - 1`` -- forwarding corner data implicitly: after axis 1 has been
exchanged, the axis-2 faces *include* the already-received axis-1 ghost
bands, so diagonal data arrives in two hops.  The cost is synchronization:
axis ``d+1`` cannot start until axis ``d`` has completed, so wire
latencies serialize across dimensions.  Each axis is one phase of the
message plan; phases are barrier-separated, so Shift never flattens into
a persistent channel.

Included as an ablation baseline; it still packs (the faces are
non-contiguous boxes of a lexicographic array).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.exchange.base import (
    PlannedExchanger,
    PlannedMessage,
    WireMessage,
    copier,
)
from repro.exchange.boxes import box_slices
from repro.exchange.pack import checked_dtype
from repro.exchange.schedule import shift_schedule
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm

__all__ = ["ShiftExchanger"]


class ShiftExchanger(PlannedExchanger):
    """Dimension-by-dimension face exchange with corner forwarding."""

    method = "shift"
    packs = True

    def __init__(
        self,
        comm: CartComm,
        array: Optional[np.ndarray],  # None = plan-only
        extent: Sequence[int],
        ghost: int,
        profile: MachineProfile,
        dtype: np.dtype = np.float64,
    ) -> None:
        super().__init__(comm, profile)
        self.extent = tuple(int(e) for e in extent)
        self.ghost = int(ghost)
        self.dtype = checked_dtype(array, self.extent, self.ghost, dtype)
        self.array = array
        g = self.ghost
        ndim = len(self.extent)
        specs = shift_schedule(self.extent, g, self.dtype.itemsize)
        sends, recvs = [], []
        for axis in range(ndim):  # axis order 1..D, one phase each
            for side, sign in enumerate((-1, 1)):
                vec = [0] * ndim
                vec[axis] = sign
                peer = comm.neighbor_rank(vec)
                if peer is None:
                    continue  # non-periodic boundary: skip this face
                # Box extents: axes < axis use the FULL extended span
                # (forwarding corners already received), axis uses the g-
                # wide band, axes > axis use the owned span.
                lo, ext = [], []
                for a, e in enumerate(self.extent):
                    if a < axis:
                        lo.append(0)
                        ext.append(e + 2 * g)
                    elif a == axis:
                        lo.append(g if sign < 0 else e)  # send surface band
                        ext.append(g)
                    else:
                        lo.append(g)
                        ext.append(e)
                recv_lo = list(lo)
                recv_lo[axis] = 0 if sign < 0 else g + self.extent[axis]
                count = math.prod(ext)
                nbytes = count * self.dtype.itemsize
                spec = specs[axis][side]
                sent = PlannedMessage(
                    peer, 1000 + axis * 4 + side, nbytes, phase=axis
                )
                got = PlannedMessage(
                    peer, 1000 + axis * 4 + 1 - side, nbytes, phase=axis
                )
                if array is None:
                    sends.append(WireMessage(sent, spec))
                    recvs.append(WireMessage(got, spec))
                    continue
                shape = tuple(reversed(ext))
                sbuf = np.empty(count, self.dtype)
                rbuf = np.empty(count, self.dtype)
                send_box = array[box_slices((lo, ext))]
                recv_box = array[box_slices((recv_lo, ext))]
                pack = copier([(sbuf.reshape(shape), send_box)])
                unpack = copier([(recv_box, rbuf.reshape(shape))])
                sends.append(WireMessage(sent, spec, sbuf, pack))
                recvs.append(WireMessage(got, spec, rbuf, unpack))
        self._bind(sends, recvs)
