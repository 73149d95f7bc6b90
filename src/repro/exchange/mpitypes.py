"""MPI derived-datatype baseline: the library packs internally.

Functionally identical to :class:`~repro.exchange.pack.PackExchanger` --
one box per neighbor -- but the application never copies anything: it
hands MPI a :class:`~repro.simmpi.datatypes.SubarrayType` describing each
box, and the datatype engine does the gathering/scattering inside the
``call``/``wait`` phases.  The paper finds this engine catastrophically
slow on KNL (MemMap is "460x faster than MPI_Types"), which the profile's
``type_msg_overhead``/``type_engine_bw`` constants model.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from repro.exchange.base import PlannedExchanger, PlannedMessage, WireMessage
from repro.exchange.pack import array_neighbors, checked_dtype
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm
from repro.simmpi.datatypes import SubarrayType

__all__ = ["MPITypesExchanger"]


class MPITypesExchanger(PlannedExchanger):
    """Derived-datatype exchange over a lexicographic extended array."""

    method = "mpi_types"
    datatypes = True

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
        shape = tuple(e + 2 * self.ghost for e in reversed(self.extent))

        def subarray(box) -> SubarrayType:
            lo, ext = box
            return SubarrayType(
                shape=shape, subshape=tuple(reversed(ext)),
                start=tuple(reversed(lo)),
            )

        sends, recvs = [], []
        for peer, sbox, rbox, stag, rtag, spec in array_neighbors(
            comm, self.extent, self.ghost, self.dtype.itemsize
        ):
            send_t, recv_t = subarray(sbox), subarray(rbox)
            sent = PlannedMessage(peer, stag, send_t.count * self.dtype.itemsize)
            got = PlannedMessage(peer, rtag, recv_t.count * self.dtype.itemsize)
            if array is None:
                sends.append(WireMessage(sent, spec))
                recvs.append(WireMessage(got, spec))
                continue
            # "Inside MPI": the datatype engine extracts each selection
            # into a persistent wire buffer and inserts each arrival.
            sbuf = np.empty(send_t.count, self.dtype)
            rbuf = np.empty(recv_t.count, self.dtype)
            extract = functools.partial(send_t.extract_into, array, sbuf)
            insert = functools.partial(recv_t.insert, array, rbuf)
            sends.append(WireMessage(sent, spec, sbuf, extract))
            recvs.append(WireMessage(got, spec, rbuf, insert))
        self._bind(sends, recvs)
