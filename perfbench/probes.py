"""Wrappers around the public entry points of each layer of ``repro``.

The benchmark measures the program from outside: it never edits
``src/repro`` and never turns on ``repro.obs``.  Instead it replaces a
set of public functions and methods with thin wrappers for the length
of one ``run_executed`` call and puts the originals back afterwards.

Two probe sets exist:

* :class:`Stamps` -- the untraced run.  Records only what the
  end-to-end metrics need: the wall clock and the process CPU clock at
  each rank thread's first call into its exchange engine (the end of
  set-up) and when ``run_spmd`` returns (the end of the loop).  No spans.
* :class:`Spans` -- the traced run.  Every wrapped call records a span
  ``(id, name, start, end, parent, thread, run id)`` in memory; the
  end-to-end timestamps are derived from the same spans.

Span names are ``<layer>.<kind>:<function>``; the part before ``:`` is
the bucket the analysis sums (see ``analysis.py``).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

ENGINE_KINDS = ("channel.exchange", "channel.start", "exchanger.exchange")

Span = Tuple[int, str, float, float, int, str, int]


def _exchanger_classes():
    """Every concrete exchanger class `core.driver` can build."""
    from repro.core import driver  # noqa: F401  (imports all exchangers)
    from repro.exchange.base import Exchanger

    seen, todo = [], list(Exchanger.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return sorted(seen, key=lambda c: c.__name__)


def engine_targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, engine kind) of every exchange-engine entry."""
    from repro.exchange.base import ExchangeChannel

    out = [
        (ExchangeChannel, "exchange", "channel.exchange"),
        (ExchangeChannel, "start", "channel.start"),
        (ExchangeChannel, "complete", "channel.complete"),
    ]
    for cls in _exchanger_classes():
        if "exchange" in cls.__dict__:
            out.append((cls, "exchange", "exchanger.exchange"))
    return out


def span_targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) of every traced entry point."""
    from repro.brick.decomp import BrickDecomp
    from repro.ckpt.snapshot import RankCheckpointer
    from repro.core import driver
    from repro.exchange.base import Exchanger
    from repro.simmpi import fabric
    from repro.stencil import plan
    from repro.vmem import MemfdArena, SimArena

    F = fabric.SimFabric
    out = [
        (driver, "run_spmd", "core.spmd:run_spmd"),
        (F, "post_send_batch", "simmpi.post:post_send_batch"),
        (F, "post_send", "simmpi.post:post_send"),
        (fabric.PartitionedSendRequest, "pready_all", "simmpi.post:pready_all"),
        (F, "complete_recv_batch", "simmpi.recv:complete_recv_batch"),
        (F, "complete_recv", "simmpi.recv:complete_recv"),
        (F, "wait_send_batch", "simmpi.send_wait:wait_send_batch"),
        (F, "wait_send", "simmpi.send_wait:wait_send"),
        (F, "negotiate_channel", "simmpi.negotiate:negotiate_channel"),
        (F, "send_init", "simmpi.negotiate:send_init"),
        (F, "recv_init", "simmpi.negotiate:recv_init"),
        (Exchanger, "make_channel", "exchange.build:make_channel"),
        (plan.BrickStencilPlan, "execute", "stencil.execute:brick"),
        (plan.ArrayStencilPlan, "execute", "stencil.execute:array"),
        (plan.ArrayRegionPlan, "execute", "stencil.execute:region"),
        (plan, "batch_step_kernel", "stencil.cbackend:batch_step_kernel"),
        (BrickDecomp, "allocate", "brick.geometry:allocate"),
        (BrickDecomp, "mmap_alloc", "brick.geometry:mmap_alloc"),
        (BrickDecomp, "brick_info", "brick.geometry:brick_info"),
        (RankCheckpointer, "save", "ckpt.save:save"),
    ]
    for name in (
        "compile_brick_plan", "compile_array_plan",
        "compile_brick_phase_plans", "compile_array_phase_plans",
    ):
        out.append((driver, name, f"stencil.compile:{name}"))
    for name in ("extended_to_bricks", "bricks_to_extended",
                 "conversion_scratch"):
        out.append((driver, name, f"brick.convert:{name}"))
    for arena in (MemfdArena, SimArena):
        if arena is not None:
            out.append((arena, "__init__", f"vmem.map:{arena.__name__}"))
            out.append((arena, "make_view", "vmem.map:make_view"))
    for cls in _exchanger_classes():
        if "__init__" in cls.__dict__:
            out.append((cls, "__init__", f"exchange.build:{cls.__name__}"))
    for owner, attr, kind in engine_targets():
        out.append((owner, attr, f"exchange.engine:{kind}"))
    return out


class _Patch:
    """Install wrappers on (owner, attribute) pairs; restore on exit."""

    def __init__(self, wrapped: List[Tuple[object, str, Callable]]) -> None:
        self._wrapped = wrapped
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, wrapper in self._wrapped:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class Backend:
    """Records which kernel backend served each brick stencil plan.

    Installed once for the whole process (both traced and untraced
    runs): ``batch_step_kernel`` returns ``None`` when the NumPy plan
    path serves the kernel and a compiled function when cffi does.
    """

    def __init__(self) -> None:
        self.served: set = set()

    def install(self) -> _Patch:
        from repro.stencil import plan

        orig = plan.batch_step_kernel

        @functools.wraps(orig)
        def probe(*args, **kwargs):
            fn = orig(*args, **kwargs)
            self.served.add("numpy" if fn is None else "cffi")
            return fn

        return _Patch([(plan, "batch_step_kernel", probe)])


class Stamps:
    """Untraced probes: the timestamps the end-to-end metrics need.

    ``first_engine[thread] = (wall, cpu, engine kind)`` of each thread's
    first engine call; ``spmd = (wall at call, wall at return, cpu at
    return)``.  The CPU clock is the whole process's.
    """

    def __init__(self) -> None:
        self.first_engine: Dict[str, Tuple[float, float, str]] = {}
        self.spmd: Optional[Tuple[float, float, float]] = None

    def patch(self) -> _Patch:
        from repro.core import driver

        perf = time.perf_counter
        cpu = time.process_time
        first = self.first_engine
        wrapped = []
        for owner, attr, kind in engine_targets():
            orig = getattr(owner, attr)

            def make(orig=orig, kind=kind):
                @functools.wraps(orig)
                def probe(*args, **kwargs):
                    name = threading.current_thread().name
                    if name not in first:
                        first[name] = (perf(), cpu(), kind)
                    return orig(*args, **kwargs)

                return probe

            wrapped.append((owner, attr, make()))
        run_spmd = driver.run_spmd

        @functools.wraps(run_spmd)
        def spmd(*args, **kwargs):
            t0 = perf()
            try:
                return run_spmd(*args, **kwargs)
            finally:
                self.spmd = (t0, perf(), cpu())

        wrapped.append((driver, "run_spmd", spmd))
        return _Patch(wrapped)


class Spans:
    """Traced probes: one in-memory span per wrapped call.

    Parents are tracked per thread, so a span's children are the wrapped
    calls made by the same rank thread while it was open.  Spans stay in
    :attr:`spans` until the benchmark writes them out at the end.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.recv_sizes: List[int] = []

    def _thread(self) -> Tuple[list, str]:
        """This thread's open-span stack and name."""
        local = self._local
        try:
            return local.stack, local.name
        except AttributeError:
            local.stack, local.name = [], threading.current_thread().name
            return local.stack, local.name

    def patch(self, run_id: int, capture_sizes: bool = False) -> _Patch:
        """Wrappers for one traced call; *capture_sizes* records the
        per-message byte sizes rank 0 receives (for the copy floor)."""
        perf = time.perf_counter
        spans = self.spans
        ids = self._ids
        wrapped = []
        for owner, attr, name in span_targets():
            orig = getattr(owner, attr)

            def make(orig=orig, name=name):
                @functools.wraps(orig)
                def probe(*args, **kwargs):
                    stack, thread = self._thread()
                    parent = stack[-1] if stack else -1
                    sid = next(ids)
                    stack.append(sid)
                    t0 = perf()
                    try:
                        return orig(*args, **kwargs)
                    finally:
                        t1 = perf()
                        stack.pop()
                        spans.append(
                            (sid, name, t0, t1, parent, thread, run_id)
                        )

                return probe

            wrapped.append((owner, attr, make()))
        if capture_sizes:
            wrapped = [self._sizer(w) for w in wrapped]
        return _Patch(wrapped)

    def _sizer(self, item):
        """Also record the byte size of every message rank 0 receives."""
        owner, attr, probe = item
        if attr not in ("complete_recv_batch", "complete_recv"):
            return item
        sizes = self.recv_sizes
        batch = attr == "complete_recv_batch"

        @functools.wraps(probe)
        def sized(fab, *args, **kwargs):
            if batch and args[0] == 0:
                sizes.extend(int(buf.nbytes) for _, _, buf in args[1])
            elif not batch and args[1] == 0:
                sizes.append(int(args[3].nbytes))
            return probe(fab, *args, **kwargs)

        return owner, attr, sized


def rank_of(thread_name: str) -> int:
    """Rank index of a ``simmpi-rank-N`` thread, -1 for other threads."""
    head, _, tail = thread_name.rpartition("-")
    return int(tail) if head == "simmpi-rank" and tail.isdigit() else -1
