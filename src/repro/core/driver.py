"""Executed distributed driver: real data movement over simulated ranks.

Runs a :class:`~repro.core.problem.StencilProblem` for a number of
timesteps with a chosen exchange method.  Each rank is a thread in the
:mod:`repro.simmpi` fabric; data really moves; stencils are really applied
(vectorized).  Per-timestep *times* are modelled via
:func:`repro.core.model.model_timestep` (the single source of truth the
figure benches also use), while the run additionally verifies itself: the
assembled global result must equal the serial periodic reference
bit-for-bit.

The launcher builds one read-only :class:`~repro.core.geometry.RunGeometry`
per world; each rank binds it into a :class:`RankOperand` (array or
brick form) holding only what the rank owns, and replays that through
:class:`~repro.core.runplan.RankRunPlan`, the one step loop; run
features -- crash check, checkpointing, degradation ladder, wire retry,
metrics -- are step hooks composed around it.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Tuple

import numpy as np

from repro.brick.convert import (
    bricks_to_extended,
    conversion_scratch,
    extended_to_bricks,
)
from repro.core.geometry import RunGeometry, build_run_geometry
from repro.core.methods import MethodInfo, method_info
from repro.core.metrics import RankMetrics, RunMetrics
from repro.core.model import (
    compute_time,
    compute_time_table,
    exchange_breakdown,
    make_transport,
    _schedules,
)
from repro.core.problem import StencilProblem
from repro.core.runplan import DEFAULT_PARTITIONS, RankRunPlan, make_engines
from repro.ckpt import (
    CheckpointConfig,
    CheckpointError,
    CheckpointStore,
    RankCheckpointer,
    negotiate_epoch,
    problem_key,
)
from repro.faults.errors import (
    ExchangeConfigError,
    ExchangeIntegrityError,
    ExchangeTimeoutError,
    InjectedCrashError,
    RankDeadError,
)
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.faults.runtime import FaultInjector
from repro.obs import METRICS as _METRICS
from repro.obs import TRACER as _TRACER
from repro.exchange.base import ExchangeChannel
from repro.exchange.brickpack import BrickPackExchanger
from repro.exchange.costs import overlap_times
from repro.exchange.layout_ex import LayoutExchanger
from repro.exchange.memmap_ex import MemMapExchanger
from repro.exchange.mpitypes import MPITypesExchanger
from repro.exchange.pack import PackExchanger
from repro.exchange.shift import ShiftExchanger
from repro.hardware.profiles import MachineProfile, generic_host
from repro.simmpi.collectives import allreduce
from repro.simmpi.comm import SimComm
from repro.simmpi.fabric import SimFabric
from repro.simmpi.launcher import (
    RankFailedError,
    run_spmd,
    run_spmd_restartable,
)
from repro.stencil.brick_kernels import apply_brick_stencil
from repro.stencil.kernels import apply_array_stencil, owned_slices
from repro.stencil.plan import (
    compile_array_phase_plans,
    compile_array_plan,
    compile_brick_phase_plans,
    compile_brick_plan,
    plans_enabled,
)
from repro.util.timing import PhaseTimer, TimeBreakdown

__all__ = ["ExecutedRun", "run_executed"]


@dataclass
class ExecutedRun:
    """Everything one executed run produced."""

    method: str
    global_result: np.ndarray
    metrics: RunMetrics
    fabric: SimFabric
    messages_per_rank: int
    wire_bytes_per_rank: int
    padding_fraction: float
    mapping_count: int  # MemMap only; 0 otherwise
    exchange_period: int = 1  # steps between exchanges (ghost expansion)
    final_method: str = ""  # exchange engine in use at the end of the run
    demotions: int = 0  # total degradation-ladder steps across all ranks
    faults: Optional[dict] = None  # injector summary (chaos runs only)
    restarts: int = 0  # world relaunches after survivable crashes
    resumed_epoch: int = -1  # negotiated restore epoch (-1: from scratch)
    checkpoint_saves: int = 0  # snapshots committed by rank 0
    checkpoint_bytes: int = 0  # snapshot bytes written across all ranks
    overlap: bool = False  # phased (interior/surface) execution ran
    hidden_comm_s: float = 0.0  # modelled wait hidden behind interior calc
    reshapes: int = 0  # elastic reshapes after permanent rank deaths
    final_rank_dims: Tuple[int, ...] = ()  # decomposition the run ended on
    dead_ranks: Tuple[int, ...] = ()  # old-world ranks lost permanently

    @property
    def hidden_comm_fraction(self) -> float:
        """Modelled fraction of wire wait hidden by interior compute.

        Rank 0's run totals, like the message counters: hidden over
        (hidden + still-visible wait).  Zero for unphased runs.
        """
        visible = self.metrics.ranks[0].totals.wait
        total = self.hidden_comm_s + visible
        return self.hidden_comm_s / total if total > 0.0 else 0.0


def _make_exchanger(base: str, cart, profile: MachineProfile, operand, buf):
    """The *base* method's exchanger over one of *operand*'s buffers,
    bound to the run geometry's message table for *base*."""
    problem = operand.problem
    ext, g = problem.subdomain_extent, problem.ghost
    if base in ("yask", "yask_ol"):
        return PackExchanger(cart, buf, ext, g, profile)
    if base == "mpi_types":
        return MPITypesExchanger(cart, buf, ext, g, profile)
    if base == "shift":
        return ShiftExchanger(cart, buf, ext, g, profile)
    geom = operand.geom
    args = (cart, geom.decomp, buf, geom.asn, profile)
    if base in ("layout", "basic"):
        return LayoutExchanger(
            *args, merge_runs=(base == "layout"), table=geom.tables[base]
        )
    if base == "memmap":
        return MemMapExchanger(*args, geom.page, table=geom.tables[base])
    if base == "brickpack":
        return BrickPackExchanger(*args, table=geom.tables[base])
    raise ValueError(f"method {base!r} is model-only and cannot execute")


def _close_all(exchangers) -> None:
    for ex in exchangers:
        close = getattr(ex, "close", None)
        if close:
            close()


# Degradation ladder for MemMap runs: when the mapping machinery fails
# (mmap refusal, vm.max_map_count budget), the run demotes -- collectively
# -- to basic Layout exchange over the same padded storage, and from there
# to staged brick packing.  Only the exchange engine changes; storage,
# assignment and results stay identical.
_LADDER = ("memmap", "basic", "brickpack")


def _build_rung(operand, level, cart, profile) -> int:
    """Build *operand*'s exchangers at ladder *level*; 1 when the mapping
    machinery refused (the rank's vote to demote), else 0."""
    operand.exchangers, operand.ladder_level = [], level
    try:
        for buf in operand.buffers:
            operand.exchangers.append(
                _make_exchanger(_LADDER[level], cart, profile, operand, buf)
            )
    except (OSError, ValueError):
        return 1
    return 0


def _vote_ladder(operand, want, cart, profile, injector, counters, step) -> bool:
    """Demote collectively while any rank votes to; True if it demoted.

    Every rank votes (allreduce-max) -- first *want*, then whether its
    rebuild at the next rung failed -- so demotion is all-or-none and
    peers always run wire-compatible engines.
    """
    start = level = operand.ladder_level
    while int(allreduce(cart, np.asarray(want), np.maximum)):
        if level + 1 >= len(_LADDER):
            raise RuntimeError(
                "degradation ladder exhausted: even brick packing failed"
            )
        _close_all(operand.exchangers)
        level += 1
        counters["demotions"] += 1
        if injector is not None:
            injector.record("demoted", src=cart.rank, step=step)
        if _METRICS.enabled:
            _METRICS.count("faults.demoted", 1, rank=cart.rank)
            _METRICS.gauge("exchange.ladder_level", level, rank=cart.rank)
        want = _build_rung(operand, level, cart, profile)
    return level != start


def _vmem_probe_failed(storage, page: int) -> bool:
    """Try the cheapest possible stitched view; True when mapping fails."""
    try:
        view = storage.make_view([(0, page)])
    except OSError:
        return True
    view.close()
    return False


def _modelled_totals(
    profile: MachineProfile,
    info: MethodInfo,
    problem: StencilProblem,
    page_size: Optional[int],
    timesteps: int,
    period: int,
    computed_points: list,
    overlap_points: Optional[int] = None,
) -> Tuple[TimeBreakdown, float]:
    """Accumulate modelled time over a run with exchange period *period*.

    ``computed_points[pos]`` is the number of stencil points evaluated at
    cycle position *pos* (redundant computation included).

    *overlap_points* (phased runs only) is the number of interior stencil
    points computed while the exchange is in flight: the modelled wire
    wait shrinks by the interior kernel time it hides behind, and the
    hidden seconds are returned separately so the run can report an
    overlap-efficiency figure.  Returns ``(totals, hidden_seconds)``.
    """
    ext = problem.subdomain_extent
    spec = problem.stencil
    exch = exchange_breakdown(
        profile, info.name, ext, problem.brick_dim, problem.ghost,
        problem.layout, page_size, spec.itemsize,
    )
    um_penalty = 0.0
    if info.transport == "um":
        transport = make_transport(info, profile)
        _, recvs, _ = _schedules(
            info, profile, ext, problem.brick_dim, problem.ghost,
            problem.layout, page_size, spec.itemsize,
        )
        um_penalty = transport.compute_penalty(recvs)

    interior_calc = (
        compute_time(profile, info, int(overlap_points), spec)
        if overlap_points is not None
        else None
    )

    # Per-cycle-position kernel times, priced once (the timing analogue
    # of the compiled execution plans: O(period) model evaluations, not
    # O(timesteps)).  Accumulation order is unchanged, so totals stay
    # bit-identical to the per-step evaluation.
    calc_table = compute_time_table(profile, info, computed_points, spec)
    totals = TimeBreakdown()
    hidden_total = 0.0
    for t in range(timesteps):
        pos = t % period
        calc = calc_table[pos]
        if pos == 0:
            calc += um_penalty
            wait = exch.wait
            if interior_calc is not None:
                # Phased execution: only the interior kernel time runs
                # while the wire completes, so exactly that much wait is
                # hidden (an explicit price, replacing the whole-calc
                # discount the overlapping GPU methods model).
                wait, hidden = overlap_times(wait, interior_calc)
                hidden_total += hidden
            elif info.overlaps:
                wait = max(0.0, wait - calc)
            totals.charge("pack", exch.pack)
            totals.charge("call", exch.call)
            totals.charge("wait", wait)
            totals.charge("move", exch.move)
        totals.charge("calc", calc)
    return totals, hidden_total


class RankOperand:
    """One rank's double-buffered field and everything bound to it.

    Reads the rank-invariant geometry -- period, cycle slots, snapshot
    chunk layout, the ranges an exchange dirties (``ghost_ranges``) --
    from the shared :class:`~repro.core.geometry.RunGeometry` and owns
    what the rank writes: the two buffers and the exchangers over them,
    one stencil plan per cycle position plus the phased (interior,
    surface) pair, result extraction and teardown.  The array and brick
    forms differ only in geometry.
    """

    ladder_level = None  # degradation-ladder rung; None without a ladder

    def __init__(self, geom: RunGeometry) -> None:
        self.geom = geom
        self.problem = problem = geom.problem
        self.own_slc = owned_slices(problem.subdomain_extent, problem.ghost)
        self.exchangers: list = []

    def compile(self, use_plans: bool) -> None:
        """One stencil plan per cycle position: the compiled execution
        plan, or with *use_plans* off the generic reference kernel behind
        the same ``execute(src, dst)`` call."""
        self.plans = [self._step(pos, use_plans) for pos in range(self.geom.period)]

    def close(self) -> None:
        _close_all(self.exchangers)


class ArrayOperand(RankOperand):
    """Array methods: two extended subdomain arrays."""

    def __init__(self, geom: RunGeometry) -> None:
        super().__init__(geom)
        problem = self.problem
        shape = tuple(
            e + 2 * problem.ghost for e in reversed(problem.subdomain_extent)
        )
        self.buffers = [np.zeros(shape, dtype=problem.dtype) for _ in range(2)]
        self._kernel_args = (problem.stencil, problem.subdomain_extent, problem.ghost)

    def load(self, owned: np.ndarray) -> None:
        self.buffers[0][self.own_slc] = owned

    def _step(self, pos: int, use_plans: bool):
        args = (*self._kernel_args, self.geom.margins[pos])
        if use_plans:
            return compile_array_plan(*args, self.problem.dtype)
        return SimpleNamespace(
            execute=lambda src, dst: apply_array_stencil(src, dst, *args)
        )

    def phase_plans(self) -> tuple:
        return compile_array_phase_plans(
            *self._kernel_args, self.geom.margins[0], self.problem.dtype
        )

    def chunk_views(self, src: int) -> list:
        return [("array", self.buffers[src].reshape(-1).view(np.uint8))]

    def result(self, src: int) -> np.ndarray:
        return self.buffers[src][self.own_slc].copy()


class BrickOperand(RankOperand):
    """Brick methods: two brick storages over the run's slot assignment.

    Snapshots are section-granular and cover the src storage only: the
    ghost-expansion invariant (bricks read at cycle position pos+1 were
    computed at pos) means the dst buffer never holds bytes a resumed
    run could read.
    """

    def __init__(self, geom: RunGeometry) -> None:
        super().__init__(geom)
        self.decomp, self.asn, self.page = geom.decomp, geom.asn, geom.page
        if geom.info.base == "memmap":
            alloc = functools.partial(self.decomp.mmap_alloc, self.page)
        else:
            alloc = self.decomp.allocate
        # Both calls find the geometry's assignment cached on the decomp.
        self.buffers = [alloc()[0], alloc()[0]]

    def _scratch(self) -> np.ndarray:
        """This rank's extended-array conversion scratch."""
        return conversion_scratch(self.decomp, owner=self)

    def load(self, owned: np.ndarray) -> None:
        ext = self._scratch()
        ext.fill(0)
        ext[self.own_slc] = owned
        extended_to_bricks(ext, self.decomp, self.buffers[0], self.asn)

    def _step(self, pos: int, use_plans: bool):
        # Compiled: the geometry's fused gather tables, this rank's
        # persistent halo/accumulator buffers and the batch kernel.
        geom = self.geom
        args = (self.problem.stencil, geom.binfo, geom.cycle_slots[pos])
        if use_plans:
            return compile_brick_plan(
                *args, 0, self.problem.dtype, owner=self,
                tables=geom.gather[pos],
            )
        spec, binfo, slots = args
        return SimpleNamespace(
            execute=lambda src, dst: apply_brick_stencil(
                spec, src, dst, binfo, slots
            )
        )

    def phase_plans(self) -> tuple:
        # Interior bricks are the slots whose adjacency references no
        # ghost-section slot; the geometry holds the split and its tables.
        geom = self.geom
        return compile_brick_phase_plans(
            self.problem.stencil, geom.binfo, self.asn, geom.cycle_slots[0],
            0, self.problem.dtype, owner=self, phases=geom.phases,
        )

    def chunk_views(self, src: int) -> list:
        storage = self.buffers[src]
        return [
            (spec.name, storage.slot_bytes(spec.start_slot, spec.nslots))
            for spec in self.geom.chunk_specs
        ]

    def result(self, src: int) -> np.ndarray:
        return bricks_to_extended(
            self.decomp, self.buffers[src], self.asn, out=self._scratch()
        )[self.own_slc].copy()

    def close(self) -> None:
        super().close()
        for st in self.buffers:
            st.close()


# Step hooks (see repro.core.runplan): each feature of a run is one hook
# object, composed by _rank_fn in the order crash check, checkpoint,
# degradation vote, exchange retry, metrics.


class _CrashHook:
    """Scheduled permanent deaths and survivable crashes of a fault plan."""

    def __init__(self, comm: SimComm, injector: FaultInjector) -> None:
        self.comm = comm
        self.injector = injector

    def before_step(self, plan, t: int, src: int) -> None:
        fabric, rank, injector = self.comm.fabric, self.comm.rank, self.injector
        fabric.heartbeat(rank)
        if injector.death_due(rank, t):
            # Permanent node loss, checked before the crash: death wins.
            # Marking the fabric makes peers targeting this rank fail
            # fast with the same typed error instead of timing out.
            fabric.mark_dead(rank)
            raise RankDeadError(
                f"rank {rank} died permanently at step {t} (scheduled by"
                f" fault plan seed {injector.plan.seed})"
            )
        if injector.crash_due(rank, t):
            raise InjectedCrashError(
                f"rank {rank} crashed at step {t} (scheduled by fault plan"
                f" seed {injector.plan.seed})"
            )


class _CheckpointHook:
    """Snapshot restore and save, plus the dirty marking incremental
    snapshots need.

    Snapshots run after the crash check (a rank never snapshots the step
    it dies on) and before the degradation vote (demotion events after
    the snapshot refire identically on replay, so they must not be
    double-counted).  The meta carries everything besides the field
    bytes a resumed rank needs back.
    """

    def __init__(self, cp, operand, counters, timer, injector) -> None:
        self.cp = cp
        self.operand = operand
        self.counters = counters
        self.timer = timer
        self.injector = injector
        self.start_step = 0

    def restore(self, epoch: int) -> dict:
        """Load *epoch* into buffer 0 and re-install its cursors.

        Restoring writes through the arena, so MemMap stitched views
        built afterwards alias the restored bytes (vmem re-attach).
        """
        op = self.operand
        meta = self.cp.restore(epoch, op.chunk_views(0))
        if int(meta["period"]) != op.geom.period:
            raise CheckpointError(
                f"snapshot was taken with exchange period {meta['period']},"
                f" this run uses {op.geom.period}"
            )
        if int(meta["adjacency_crc"]) != int(op.geom.adjacency_crc):
            raise CheckpointError(
                "snapshot adjacency/layout permutation does not match the"
                " rebuilt BrickInfo"
            )
        self.counters.update({k: int(v) for k, v in meta["counters"].items()})
        self.timer.breakdown = TimeBreakdown(**meta["measured"])
        if self.injector is not None:
            self.injector.mark_fired(meta.get("fired_crashes") or ())
        self.start_step = int(meta["step"])
        return meta

    def before_step(self, plan, t: int, src: int) -> None:
        if not self.cp.config.due(t, self.start_step):
            return
        op, injector = self.operand, self.injector
        self.cp.save(t, op.chunk_views(src), {
            "step": int(t),
            "counters": {k: int(v) for k, v in self.counters.items()},
            "measured": self.timer.breakdown.as_dict(),
            "ladder_level": op.ladder_level,
            "period": int(op.geom.period),
            "adjacency_crc": int(op.geom.adjacency_crc),
            "fired_crashes": injector.crashed() if injector is not None else [],
        })

    def after_exchange(self, t: int, src: int, res) -> None:
        # An exchange rewrites every ghost section of the src buffer.
        for start, n in self.operand.geom.ghost_ranges:
            self.cp.dirty.mark_range(start, n)

    def after_calc(self, t: int, pos: int, src: int) -> None:
        self.cp.dirty.mark_slots(self.operand.geom.cycle_slots[pos])


class _DegradeHook:
    """Collective demotion vote before each exchange (MemMap ladder).

    A rank whose mapping machinery fails a live probe asks for demotion;
    allreduce-max keeps every rank on the same (wire-compatible) engine.
    The rebuilt engines keep the run's channel setting and partition
    count, so phased peers never meet unpartitioned ones.
    """

    def __init__(self, cart, profile, operand, injector, counters,
                 engine_args: tuple) -> None:
        self.cart = cart
        self.profile = profile
        self.operand = operand
        self.injector = injector
        self.counters = counters
        self.engine_args = engine_args  # (channels, partitions)

    def before_step(self, plan, t: int, src: int) -> None:
        if t % plan.period:
            return
        op, injector, rank = self.operand, self.injector, self.cart.rank
        want = 0
        if (
            injector is not None
            and op.ladder_level + 1 < len(_LADDER)
            and injector.degrade_due(rank, t)
        ):
            with injector.vmem_armed("view_map_chunk"):
                if _vmem_probe_failed(op.buffers[src], op.page):
                    injector.record("vmem_fault", src=rank, step=t)
                    want = 1
        if _vote_ladder(op, want, self.cart, self.profile, injector,
                        self.counters, t):
            plan.rebind(make_engines(op.exchangers, *self.engine_args))


class _RetryHook:
    """Fire each exchange under its envelope epoch, healed by bounded
    retry-with-backoff.

    Safe because detected faults leave a pristine retransmit queued and
    the envelope fabric makes whole-exchange retries idempotent (posts
    suppressed, deliveries replayed); see DESIGN.md.
    """

    def __init__(self, comm: SimComm, retry: RetryPolicy, injector) -> None:
        self.comm = comm
        self.retry = retry
        self.injector = injector

    def fire(self, engine, t: int):
        comm, retry, injector = self.comm, self.retry, self.injector
        comm.set_epoch(t)
        try:
            for attempt in itertools.count():
                try:
                    result = engine.exchange()
                except (ExchangeIntegrityError, ExchangeTimeoutError):
                    if attempt >= retry.max_retries:
                        raise
                    if injector is not None:
                        injector.record("retry", src=comm.rank, step=t)
                    time.sleep(retry.sleep_for(attempt))
                    continue
                if attempt and injector is not None:
                    injector.record("healed", src=comm.rank, step=t)
                return result
        finally:
            comm.set_epoch(None)


class _MetricsHook:
    """Per-exchange driver counters, composed while metrics are on."""

    def __init__(self, rank: int) -> None:
        self.rank = rank

    def after_exchange(self, t: int, src: int, res) -> None:
        rank = self.rank
        _METRICS.count("driver.exchanges", 1, rank=rank)
        _METRICS.count("driver.messages", res.messages_sent, rank=rank)
        _METRICS.count("driver.wire_bytes", res.wire_bytes_sent, rank=rank)


def _rank_fn(
    comm: SimComm,
    problem: StencilProblem,
    method: str,
    profile: MachineProfile,
    timesteps: int,
    seed: int,
    page_size: Optional[int],
    exchange_period,
    use_plans: bool,
    overlap: bool,
    injector: Optional[FaultInjector],
    envelope: bool,
    retry: Optional[RetryPolicy],
    degrade_enabled: bool,
    ckpt: Optional[CheckpointConfig],
    deferred: list,
    geometry: RunGeometry,
):
    """One rank of an executed world.

    *geometry* is the world's shared, read-only :class:`RunGeometry`,
    built once by the launcher before any rank starts.
    """
    info = method_info(method)
    cart = comm.Create_cart(
        problem.rank_dims, periods=[problem.periodic] * problem.ndim
    )
    rank = comm.rank
    counters = {"msgs": 0, "wire": 0, "payload": 0, "maps": 0, "demotions": 0}
    timer = PhaseTimer()  # measured wall-clock of the real kernel path
    kind = BrickOperand if info.uses_bricks else ArrayOperand
    operand = kind(geometry)
    try:
        hooks: list = []
        if injector is not None:
            hooks.append(_CrashHook(comm, injector))
        resumed_epoch, meta, cp = -1, {}, None
        if ckpt is not None:
            key = problem_key(
                problem, seed, method, *geometry.slot_layout, geometry.period
            )
            cp = RankCheckpointer(
                ckpt, rank, geometry.chunk_specs, key, geometry.slot_layout[1]
            )
            ckpt_hook = _CheckpointHook(cp, operand, counters, timer, injector)
            hooks.append(ckpt_hook)
            if ckpt.resume:
                resumed_epoch = negotiate_epoch(
                    cart, cp.verified_epochs(), allreduce
                )
                if resumed_epoch >= 0:
                    meta = ckpt_hook.restore(resumed_epoch)
        if degrade_enabled and info.base == "memmap":
            failed = _build_rung(
                operand, int(meta.get("ladder_level") or 0), cart, profile
            )
            _vote_ladder(operand, failed, cart, profile, injector, counters, -1)
        else:
            operand.exchangers = [
                _make_exchanger(info.base, cart, profile, operand, buf)
                for buf in operand.buffers
            ]
        if resumed_epoch < 0:
            # Seeded initial state: this rank's block of the world's shared
            # field.  A world launched to restore draws none; a rank of it
            # that finds no snapshot draws its own, dropped once loaded.
            initial = geometry.initial
            if initial is None:
                initial = problem.initial_global(seed)
            operand.load(initial[problem.owned_slices(cart.coords)])
            del initial
        operand.compile(use_plans)
        # Exchange engines: persistent channels (negotiated once, re-fired
        # batched every step) wherever the method and fabric allow, the
        # per-message exchangers otherwise.  Plans off disables the whole
        # run-plan layer, channels included.
        engine_args = (use_plans and not envelope,
                       DEFAULT_PARTITIONS if overlap else 1)
        engines = make_engines(operand.exchangers, *engine_args)
        # Phasing engages exactly when every engine is a channel (plans
        # on, no envelope, not Shift) and composes with every hook.
        splits = overlap_points = None
        if overlap and all(isinstance(e, ExchangeChannel) for e in engines):
            splits = operand.phase_plans()
            overlap_points = splits[0].cells if splits[0] is not None else 0
        if operand.ladder_level is not None:
            hooks.append(_DegradeHook(
                cart, profile, operand, injector, counters, engine_args
            ))
        if envelope:
            hooks.append(_RetryHook(comm, retry, injector))
        if _METRICS.enabled:
            hooks.append(_MetricsHook(rank))
        rp = RankRunPlan(
            engines, operand.plans, operand.buffers, geometry.period, splits,
            hooks, rank=rank, method=info.name,
        )
        start_step = int(meta.get("step", 0))
        src = rp.run(start_step, timesteps, counters, timer)
        if info.base == "memmap":
            # After a demotion the live engine may have no mappings at all.
            counters["maps"] = getattr(operand.exchangers[0], "mapping_count", 0)
            if _METRICS.enabled:
                _METRICS.gauge("memmap.regions", counters["maps"], rank=rank)
        result = operand.result(src)
        final_method = operand.exchangers[0].method
    except BaseException:
        # Peers of a failing world may still be copying out of buffers
        # this rank posted, and closing unmaps MemMap views under them:
        # the driver runs this teardown once the world is joined.
        deferred.append(operand.close)
        raise
    operand.close()

    totals, hidden_s = _modelled_totals(
        profile, info, problem, page_size, timesteps, geometry.period,
        geometry.computed_points, overlap_points,
    )
    return {
        "coords": cart.coords,
        "result": result,
        "totals": totals,
        "measured": timer.breakdown,
        "counters": counters,
        "period": geometry.period,
        "final_method": final_method,
        "resumed_epoch": resumed_epoch,
        "ckpt_saves": cp.saves if cp is not None else 0,
        "ckpt_bytes": cp.saved_bytes if cp is not None else 0,
        "overlap": splits is not None,
        "hidden_s": hidden_s,
    }


def _elastic_reshape(
    cur_problem: StencilProblem,
    cur_ckpt: CheckpointConfig,
    method: str,
    info: MethodInfo,
    profile: MachineProfile,
    seed: int,
    page_size: Optional[int],
    exchange_period,
    injector: FaultInjector,
    topology,
    n: int,
):
    """One elastic recovery round after a permanent rank death.

    Plans the shrunken world, negotiates the newest epoch verified on
    every old rank, re-bricks it into a fresh store under the old one
    (``reshape<n>/``) and returns ``(new_problem, new_ckpt, dead)`` for
    the relaunch.  No common epoch degrades to a from-scratch reshape:
    the new world starts empty and recomputes -- still bit-exact.
    Imported lazily: :mod:`repro.elastic` sits above this module.
    """
    from repro.elastic.rebrick import rebrick, resolved_period, snapshot_key
    from repro.elastic.recovery import negotiate_recovery_epoch, plan_recovery

    # Sweep every scheduled death into this reshape.  Which of several
    # concurrently-dying ranks raises first is a thread race (the abort
    # may beat the others to their death step), but the plan says all of
    # them are gone: folding them in here keeps the event log, the
    # survivor set and the reshape plan deterministic per seed.
    for r, s in injector.plan.deaths:
        injector.death_due(r, s)
    dead = sorted({r for r, _ in injector.died()})
    plan = plan_recovery(cur_problem, dead, topology, profile.network)
    page = page_size or (
        profile.gpu.page_size if info.is_gpu and profile.gpu else profile.page_size
    )
    period = resolved_period(cur_problem, method, exchange_period)
    old_key = snapshot_key(cur_problem, method, seed, period, page)
    epoch = negotiate_recovery_epoch(
        cur_ckpt.store, cur_problem.nranks, len(plan.survivors), old_key
    )
    new_store = CheckpointStore(cur_ckpt.store.root / f"reshape{n}")
    with _TRACER.span("elastic.reshape", epoch=epoch,
                      new_nranks=plan.new_nranks):
        if epoch >= 0:
            rebrick(
                cur_ckpt.store, cur_problem, epoch, new_store,
                plan.new_problem, method=method, seed=seed,
                exchange_period=exchange_period, page=page,
            )
    injector.record("reshaped", step=-1)
    # The plan's death schedule names old-world ranks; after the reshape
    # those nodes are excluded and ranks renumbered, so it is spent.
    injector.deaths_disabled = True
    if _METRICS.enabled:
        _METRICS.count("elastic.reshapes", 1)
        _METRICS.gauge("elastic.nranks", plan.new_nranks)
    new_ckpt = CheckpointConfig(
        store=new_store,
        period=cur_ckpt.period,
        mode=cur_ckpt.mode,
        resume=epoch >= 0,
    )
    return plan.new_problem, new_ckpt, dead


def run_executed(
    problem: StencilProblem,
    method: str,
    profile: Optional[MachineProfile] = None,
    timesteps: int = 1,
    seed: int = 0,
    page_size: Optional[int] = None,
    exchange_period=None,
    use_plans: Optional[bool] = None,
    overlap: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    verify_wire: bool = False,
    retry: Optional[RetryPolicy] = None,
    degrade: Optional[bool] = None,
    fabric_timeout: Optional[float] = None,
    checkpoint_dir=None,
    checkpoint_period: Optional[int] = None,
    checkpoint_mode: str = "incr",
    resume: bool = False,
    max_restarts: Optional[int] = None,
    elastic: bool = False,
    topology=None,
    max_reshapes: Optional[int] = None,
    check: Optional[str] = None,
) -> ExecutedRun:
    """Run the problem end-to-end on simulated ranks; see module docs.

    *exchange_period*: exchange every N steps instead of every step,
    computing redundantly into the ghost shell in between (ghost-cell
    expansion / communication avoiding).  ``"auto"`` uses the maximum
    period the ghost width supports; the default (None) exchanges every
    step as the paper's main experiments do.

    *use_plans*: run the timestep loop through compiled execution plans
    (:mod:`repro.stencil.plan`) -- the default -- or force the generic
    kernels with ``False``.  ``None`` defers to the ``REPRO_NO_PLAN``
    environment variable.  Results are bit-identical either way.

    *overlap*: phase each exchange step for compute-comm overlap --
    start the partitioned persistent channel, compute the interior
    stencil work while messages are in flight, complete the receives,
    then sweep the surface.  Results are bit-identical to the unphased
    path.  Phasing composes with checkpointing, tracing and the
    degradation ladder; it needs a channel on every engine, so plans-off
    runs, verified-envelope and chaos runs (per-message protocol) and
    channel-less methods (``shift``) run unphased, reported via
    ``ExecutedRun.overlap``.

    Chaos-fabric knobs (see README "Robustness"):

    *fault_plan*: a seeded :class:`~repro.faults.FaultPlan` to inject
    wire faults / crashes / degradation events.  Implies verified
    (enveloped) exchange.  *verify_wire* turns envelopes on without any
    injection.  Envelope headers and retries cost wall-clock only:
    modelled bytes/times and the numerical results are unchanged.

    *retry*: :class:`~repro.faults.RetryPolicy` healing detected faults
    (defaults to the standard policy whenever envelopes are on; pass
    ``RetryPolicy(max_retries=0)`` to fail on first detection).

    *degrade*: enable the MemMap->Layout->Pack demotion ladder (defaults
    to on exactly when the plan schedules degradation events).

    *fabric_timeout*: deadlock timeout in seconds (else the
    ``REPRO_FABRIC_TIMEOUT`` environment variable, else 30 s).

    Checkpoint/restart knobs (see README "Checkpoint/restart"):

    *checkpoint_dir*: directory for the content-verified snapshot store;
    enables checkpointing.  *checkpoint_period* snapshots every N steps
    (default 1).  *checkpoint_mode* is ``"incr"`` (dirty-section
    incremental, the default) or ``"full"``.  With a checkpoint store,
    scheduled crashes in *fault_plan* become survivable: the world is
    relaunched from the latest globally consistent epoch and the run
    continues bit-exactly.  *resume* restores from an existing store
    before the first step (cold restart).  *max_restarts* bounds the
    relaunches (default: the number of distinct scheduled crashes).

    *check*: ahead-of-run static verification (``repro.check``).
    ``"strict"`` verifies the schedule and plan memory before the first
    rank launches and raises
    :class:`~repro.check.CheckFailedError` on any violation;
    ``"warn"`` prints the findings and runs anyway.  The verifier
    reconstructs the plan from the same geometry the run will use
    (partition count included), so a clean check proves deadlock
    freedom and split agreement for this exact configuration.

    Elastic restart knobs (see README "Robustness" and DESIGN.md 10):

    *elastic*: survive *permanent* rank deaths (``fault_plan.deaths``).
    Requires a checkpoint store.  When a rank dies, the survivors agree
    on a shrunken decomposition that avoids the failed nodes
    (*topology*, a :class:`~repro.elastic.ClusterTopology`; default one
    rank per node), negotiate the newest epoch verified on every old
    rank, re-brick that epoch's snapshots onto the new decomposition and
    relaunch.  With no common epoch the reshaped world recomputes from
    the seeded initial state -- still bit-exact, just slower.
    *max_reshapes* bounds reshape rounds (default: the number of
    distinct scheduled deaths).  Elastic restart requires a periodic
    problem (ghost shells are rebuilt by periodic wrap).  Without a
    checkpoint store a death is still *detected* -- peers fail fast with
    :class:`~repro.faults.RankDeadError` -- but not recovered.
    """
    if timesteps <= 0:
        raise ValueError("timesteps must be positive")
    profile = profile or generic_host()
    info = method_info(method)
    if info.base == "network":
        raise ValueError(
            "'network' is the modelled communication floor; use"
            " repro.core.model.model_timestep for it"
        )
    if check not in (None, "strict", "warn"):
        raise ValueError(
            f"check={check!r}: expected None, 'strict' or 'warn'"
        )
    if info.base == "shift" and fault_plan is not None and (
        fault_plan.loses_messages
    ):
        # Healing re-runs the whole exchange, but a Shift peer may already
        # wait at a later per-axis barrier: the run would deadlock.
        raise ExchangeConfigError(
            "method 'shift' cannot heal dropped or corrupted messages"
            " (its per-axis barriers make a whole-exchange retry unsafe);"
            " inject only duplicate/delay faults or pick another method"
        )
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    envelope = verify_wire or injector is not None
    if envelope and retry is None:
        retry = RetryPolicy()
    if degrade is None:
        degrade = bool(fault_plan is not None and fault_plan.degrade)

    ckpt = None
    if checkpoint_dir is not None:
        ckpt = CheckpointConfig(
            store=CheckpointStore(checkpoint_dir),
            period=int(checkpoint_period if checkpoint_period is not None else 1),
            mode=checkpoint_mode,
            resume=bool(resume),
        )
    elif resume or checkpoint_period is not None:
        raise ValueError(
            "resume/checkpoint_period require a checkpoint_dir"
        )
    if ckpt is not None and injector is not None:
        # Checkpointing turns scheduled crashes into survivable events:
        # each fires once, then the relaunched world sails past it.
        injector.survivable = True
    if max_restarts is None:
        max_restarts = (
            len(set(fault_plan.crashes))
            if ckpt is not None and fault_plan is not None
            else 0
        )
    if max_reshapes is None:
        max_reshapes = (
            len({r for r, _ in fault_plan.deaths})
            if elastic and fault_plan is not None
            else 0
        )

    use_plans = plans_enabled(use_plans)

    def world_geometry(
        prob: StencilProblem, wckpt: Optional[CheckpointConfig]
    ) -> RunGeometry:
        """*prob*'s world geometry, built here before its ranks start:
        the gather tables its compiled (and, when phased, split) plans
        read, the message table of every scheme its ranks may run -- the
        whole degradation ladder when *degrade* applies -- and, unless
        the world is launched to restore from *wckpt*, the initial field.

        A geometry error is the setup error every rank would raise, so
        it surfaces the way a failed world reports one: as rank 0's.
        """
        try:
            return build_run_geometry(
                prob, info, profile, page_size, exchange_period,
                seed=seed if wckpt is None or not wckpt.resume else None,
                plans=use_plans,
                phased=overlap and not envelope,
                schemes=_LADDER if degrade and info.base == "memmap" else (),
            )
        except Exception as err:  # noqa: BLE001 - re-raised with its cause
            raise RankFailedError(f"rank 0 failed: {err!r}") from err

    geometry = world_geometry(problem, ckpt)
    if check is not None:
        from repro.check import run_checks

        report = run_checks(
            problem, method,
            page_size=page_size,
            profile=profile,
            partitions=DEFAULT_PARTITIONS if overlap else 1,
            passes=("schedule", "memory"),
            strict=(check == "strict"),
            geometry=geometry,
        )
        if not report.ok:  # only reachable in warn mode
            import sys as _sys

            print(report.render(), file=_sys.stderr)

    cur_problem = problem
    cur_ckpt = ckpt
    reshapes = 0
    restarts = 0
    dead_total: List[int] = []
    # Teardowns of ranks that raised, run once their world is joined.
    deferred: list = []

    def close_deferred() -> None:
        while deferred:
            deferred.pop()()

    while True:

        def make_fabric() -> SimFabric:
            fab = SimFabric(cur_problem.nranks, timeout=fabric_timeout)
            if envelope:
                fab.enable_envelope(injector)
            return fab

        rank_args = (
            cur_problem,
            method,
            profile,
            timesteps,
            seed,
            page_size,
            exchange_period,
            use_plans,
            overlap,
            injector,
            envelope,
            retry,
            degrade,
            cur_ckpt,
            deferred,
            geometry,
        )
        try:
            if cur_ckpt is not None and max_restarts > 0:

                def on_restart(n: int, cause, _ck=cur_ckpt) -> None:
                    close_deferred()
                    _ck.resume = True
                    if injector is not None:
                        injector.record("restarted", step=-1)
                    if _METRICS.enabled:
                        _METRICS.count("ckpt.restarts", 1)

                outs, fabric, n_restarts = run_spmd_restartable(
                    cur_problem.nranks,
                    _rank_fn,
                    *rank_args,
                    make_fabric=make_fabric,
                    max_restarts=max_restarts,
                    should_restart=lambda c: isinstance(c, InjectedCrashError),
                    on_restart=on_restart,
                )
            else:
                fabric = make_fabric()
                n_restarts = 0
                outs = run_spmd(
                    cur_problem.nranks, _rank_fn, *rank_args, fabric=fabric
                )
            restarts += n_restarts
            break
        except RuntimeError as err:
            # Elastic recovery: a *permanent* death is never restartable
            # in place -- the node is gone.  Reshape onto the survivors
            # and relaunch; anything else propagates unchanged.
            recoverable = (
                elastic
                and cur_ckpt is not None
                and injector is not None
                and reshapes < max_reshapes
                and isinstance(err.__cause__, RankDeadError)
                and injector.died()
            )
            if not recoverable:
                raise
            cur_problem, cur_ckpt, newly_dead = _elastic_reshape(
                cur_problem, cur_ckpt, method, info, profile, seed,
                page_size, exchange_period, injector, topology,
                reshapes + 1,
            )
            dead_total.extend(newly_dead)
            reshapes += 1
            geometry = world_geometry(cur_problem, cur_ckpt)
        finally:
            close_deferred()

    global_result = np.empty(
        tuple(reversed(cur_problem.global_extent)), dtype=cur_problem.dtype
    )
    for out in outs:
        global_result[cur_problem.owned_slices(out["coords"])] = out["result"]

    ranks = [
        RankMetrics(
            rank=i,
            timesteps=timesteps,
            totals=out["totals"],
            measured=out["measured"],
        )
        for i, out in enumerate(outs)
    ]
    metrics = RunMetrics(
        method=method,
        points_per_rank=cur_problem.points_per_rank,
        nranks=cur_problem.nranks,
        timesteps=timesteps,
        ranks=ranks,
    )
    c0 = outs[0]["counters"]
    payload = c0["payload"]
    period = outs[0]["period"]
    n_exchanges = max(1, -(-timesteps // period))
    return ExecutedRun(
        method=method,
        global_result=global_result,
        metrics=metrics,
        fabric=fabric,
        messages_per_rank=c0["msgs"] // n_exchanges,
        wire_bytes_per_rank=c0["wire"] // n_exchanges,
        padding_fraction=(c0["wire"] - payload) / payload if payload else 0.0,
        mapping_count=c0["maps"],
        exchange_period=period,
        final_method=outs[0]["final_method"],
        demotions=sum(out["counters"]["demotions"] for out in outs),
        faults=injector.summary() if injector is not None else None,
        restarts=restarts,
        resumed_epoch=outs[0]["resumed_epoch"],
        checkpoint_saves=outs[0]["ckpt_saves"],
        checkpoint_bytes=sum(out["ckpt_bytes"] for out in outs),
        overlap=outs[0]["overlap"],
        hidden_comm_s=outs[0]["hidden_s"],
        reshapes=reshapes,
        final_rank_dims=tuple(cur_problem.rank_dims),
        dead_ranks=tuple(sorted(set(dead_total))),
    )
