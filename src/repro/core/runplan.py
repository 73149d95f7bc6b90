"""Run plans: the executed timestep loop, compiled once and replayed.

Per-step, per-message work in the driver / exchanger / simmpi stack
(lock acquisitions, request objects, re-derived schedules) once cost
more wall clock than the compiled stencil kernels.  This module hoists
it to per-run time:

* **Exchange channels** (:class:`repro.exchange.base.ExchangeChannel`)
  flatten each exchanger's message plan into ``(peer, tag, buffer)``
  tuples over persistent buffers -- negotiated once, re-fired every
  step as a copy program over the fabric's edge slots.
* **A rank run plan** (:class:`RankRunPlan`) binds the exchange engines
  and one stencil plan per cycle position to the two buffers and
  replays the run: one engine fire, one plan execution, one buffer flip
  per step.

:class:`RankRunPlan` is the only executed step loop: plain, phased,
checkpointed, chaos, enveloped, degrading and traced runs all replay
through it.  Features are *step hooks* composed at build time by
:mod:`repro.core.driver`, objects defining any of

* ``before_step(plan, t, src)`` -- crash check, checkpoint snapshot,
  degradation vote (a demotion calls :meth:`RankRunPlan.rebind`);
* ``fire(engine, t) -> ExchangeResult`` -- fires the exchange in place
  of ``engine.exchange()`` (retry with envelope epochs; at most one);
* ``after_exchange(t, src, result)``, ``after_calc(t, pos, src)`` --
  dirty-range marking, metrics.

Hooks run in list order; a plan with no hooks is the plain fast path.
The ``driver.step`` / ``driver.exchange`` / ``driver.calc`` spans are
unconditional -- the tracer hands out a null span while disabled -- so
tracing never selects another loop.  Counters and measured calc seconds
are charged as the steps run, so hooks reading them mid-run (checkpoint
meta) see current totals.  Run plans hold per-rank mutable state (the
stencil plans' scratch buffers); build one per simulated rank.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.exchange.base import ExchangeChannel, Exchanger
from repro.obs import TRACER as _TRACER
from repro.util.timing import PhaseTimer

__all__ = ["RankRunPlan", "make_engines"]

#: Default per-message partition count of phased channels.  Any value
#: works (partitions are equal byte splits released together by
#: ``pready_all``); a handful keeps the per-partition slot traffic cheap
#: while still exercising genuinely partitioned transfer.
DEFAULT_PARTITIONS = 4


def make_engines(
    exchangers: Sequence[Exchanger], channels: bool, partitions: int = 1
) -> list:
    """The per-buffer exchange engines a run fires each step.

    With *channels* true, every exchanger that can be replayed as a
    persistent batch is replaced by its :class:`ExchangeChannel`
    (negotiated with *partitions* for phased use); the rest -- Shift, or
    any exchanger on a verified fabric -- keep their ``exchange()``.
    """
    if not channels:
        return list(exchangers)
    return [ex.make_channel(partitions) or ex for ex in exchangers]


class RankRunPlan:
    """Compiled per-rank program for one executed run.

    ``engines[i]`` is the exchange engine bound to double-buffer slot
    ``i`` (fired at cycle position 0 of whichever buffer is current);
    ``plans[pos]`` is the stencil plan for cycle position *pos*;
    ``buffers`` are the two operands the plans read and write.  *hooks*
    are the composed step hooks; *rank* and *method* label the spans.

    With *splits* -- an ``(interior, surface)`` plan pair replacing
    ``plans[0]`` -- each exchange step runs *phased*: ``channel.start()``,
    the interior sweep while messages are in flight,
    ``channel.complete()``, then the surface sweep over the fresh ghost
    data.  Interior work reads no ghost cells and interior + surface
    cover ``plans[0]`` exactly, so phased replay is bit-identical.  It
    requires a channel on every slot, hence no ``fire`` hook.
    """

    __slots__ = ("engines", "plans", "buffers", "period", "splits", "hooks",
                 "rank", "method")

    def __init__(
        self,
        engines: Sequence,
        plans: Sequence,
        buffers: Sequence,
        period: int,
        splits: Optional[Tuple] = None,
        hooks: Sequence = (),
        rank: Optional[int] = None,
        method: str = "",
    ) -> None:
        if len(plans) != period:
            raise ValueError("one stencil plan per cycle position")
        if splits is not None and len(splits) != 2:
            raise ValueError("splits must be an (interior, surface) plan pair")
        self.hooks = tuple(hooks)
        fires = sum(hasattr(h, "fire") for h in self.hooks)
        if fires > 1:
            raise ValueError("at most one step hook may fire the exchange")
        if fires and splits is not None:
            raise ValueError("phased replay fires its channels directly")
        self.plans = list(plans)
        self.buffers = list(buffers)
        self.period = int(period)
        self.splits = tuple(splits) if splits is not None else None
        self.rank = rank
        self.method = method
        self.rebind(engines)

    def rebind(self, engines: Sequence) -> None:
        """Install new per-buffer engines (degradation-ladder demotion)."""
        engines = list(engines)
        if len(engines) != len(self.buffers):
            raise ValueError("one exchange engine per double-buffer slot")
        if self.splits is not None and not all(
            isinstance(eng, ExchangeChannel) for eng in engines
        ):
            raise ValueError(
                "phased replay requires exchange channels on every"
                " double-buffer slot"
            )
        self.engines = engines

    def run(
        self,
        start_step: int,
        timesteps: int,
        counters: dict,
        timer: PhaseTimer,
    ) -> int:
        """Replay steps ``[start_step, timesteps)``; returns the final
        source buffer index.

        Adds each exchange's message/byte counts to *counters* and the
        measured calc seconds to *timer* as the steps run.  The replay
        always starts from buffer 0: checkpoint resumes restore into
        buffer 0 too.
        """
        hooks = self.hooks
        before = [h.before_step for h in hooks if hasattr(h, "before_step")]
        fire = next((h.fire for h in hooks if hasattr(h, "fire")), None)
        after_exchange = [
            h.after_exchange for h in hooks if hasattr(h, "after_exchange")
        ]
        after_calc = [h.after_calc for h in hooks if hasattr(h, "after_calc")]
        plans = self.plans
        bufs = self.buffers
        period = self.period
        phased = self.splits is not None
        interior, surface = self.splits if phased else (None, None)
        span = _TRACER.span
        rank, method = self.rank, self.method
        src, dst = 0, 1
        for t in range(start_step, timesteps):
            for hook in before:
                hook(self, t, src)
            pos = t % period
            plan = plans[pos]
            with span("driver.step", rank=rank, step=t):
                if pos == 0:
                    eng = self.engines[src]
                    if phased:
                        # Interior taps run while the partitioned messages
                        # are in flight; the surface sweep waits for every
                        # receive partition.
                        with span("driver.exchange", rank=rank, step=t,
                                  method=method):
                            eng.start()
                        if interior is not None:
                            with span("driver.calc", rank=rank, step=t):
                                with timer.phase("calc"):
                                    interior.execute(bufs[src], bufs[dst])
                        with span("driver.exchange", rank=rank, step=t,
                                  method=method):
                            res = eng.complete()
                        plan = surface
                    else:
                        with span("driver.exchange", rank=rank, step=t,
                                  method=method):
                            res = eng.exchange() if fire is None else fire(eng, t)
                    counters["msgs"] += res.messages_sent
                    counters["wire"] += res.wire_bytes_sent
                    counters["payload"] += res.payload_bytes_sent
                    for hook in after_exchange:
                        hook(t, src, res)
                if plan is not None:
                    with span("driver.calc", rank=rank, step=t):
                        with timer.phase("calc"):
                            plan.execute(bufs[src], bufs[dst])
                for hook in after_calc:
                    hook(t, pos, src)
            src, dst = dst, src
        return src
