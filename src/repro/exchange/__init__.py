"""Ghost-zone exchange engines.

Seven schemes -- four from the paper's evaluation, one from related work,
the paper's unmerged baseline and the degradation ladder's last rung --
each stating its message lists once; :class:`PlannedExchanger` derives
the static plan, pricing, persistent channel and per-message path:

* :class:`PackExchanger` -- the classic baseline (YASK-style): explicitly
  pack each neighbor's surface boxes into a contiguous buffer, one message
  per neighbor, unpack on arrival.  Maximum on-node data movement.
* :class:`MPITypesExchanger` -- MPI derived datatypes; the "library" packs
  internally (no application ``pack`` phase, but the interpretive datatype
  engine is charged inside MPI time).
* :class:`LayoutExchanger` -- pack-free: bricks are laid out so each
  message is a contiguous slot range sent straight out of brick storage
  (42 messages in 3-D instead of 26, zero copies).
* Basic (:class:`LayoutExchanger` with ``merge_runs=False``) -- pack-free,
  one message per (region, neighbor) pair: ``5^D - 3^D`` messages, the
  Figure 4 baseline and the ladder's middle rung.
* :class:`MemMapExchanger` -- pack-free *and* message-minimal: stitched
  virtual-memory views make each neighbor's regions virtually contiguous
  (26 messages, zero copies, page-padding network overhead).
* :class:`ShiftExchanger` -- related-work Shift algorithm: per-dimension
  face exchanges with corner forwarding (2D messages, extra
  synchronization).
* :class:`BrickPackExchanger` -- staged packing over brick storage, one
  message per neighbor: the rung a MemMap run demotes to when mapping
  fails, on the same storage.
"""

from repro.exchange.base import ExchangeResult, Exchanger, PlannedExchanger
from repro.exchange.boxes import neighbor_recv_box, neighbor_send_box
from repro.exchange.brickpack import BrickPackExchanger
from repro.exchange.envelope import Envelope, checksum, seal, verify
from repro.exchange.layout_ex import LayoutExchanger
from repro.exchange.memmap_ex import ExchangeView, MemMapExchanger
from repro.exchange.mpitypes import MPITypesExchanger
from repro.exchange.pack import PackExchanger
from repro.exchange.schedule import (
    MessageSpec,
    array_schedule,
    basic_brick_schedule,
    brick_recv_schedule,
    brick_send_schedule,
    memmap_schedule,
    shift_schedule,
)
from repro.exchange.shift import ShiftExchanger

__all__ = [
    "BrickPackExchanger",
    "Envelope",
    "ExchangeResult",
    "ExchangeView",
    "Exchanger",
    "LayoutExchanger",
    "MPITypesExchanger",
    "MemMapExchanger",
    "MessageSpec",
    "PackExchanger",
    "PlannedExchanger",
    "ShiftExchanger",
    "array_schedule",
    "basic_brick_schedule",
    "checksum",
    "seal",
    "verify",
    "brick_recv_schedule",
    "brick_send_schedule",
    "memmap_schedule",
    "shift_schedule",
    "neighbor_recv_box",
    "neighbor_send_box",
]
