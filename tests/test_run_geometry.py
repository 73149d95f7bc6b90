"""The run geometry: built once per world, shared read-only by every rank.

Everything rank-invariant (decomposition, slot assignment, adjacency,
cycle slots, plan gather tables, message tables, initial field) is
built once per executed world and frozen; what a rank writes (storages,
conversion scratch, plan scratch) stays its own.  Repeated runs guard
the shared-state races this sharing could introduce.
"""

import numpy as np
import pytest

from repro.brick.convert import element_permutation
from repro.brick.decomp import SlotAssignment
from repro.brick.info import BrickInfo
from repro.check import build_rank_geometries, run_checks
from repro.core import driver
from repro.core.driver import run_executed
from repro.core.geometry import build_run_geometry
from repro.core.methods import method_info
from repro.core.problem import StencilProblem
from repro.exchange.layout_ex import LayoutExchanger, layout_message_table
from repro.faults import FaultPlan
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import generic_host
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT

STEPS = 2


def _problem(n=32):
    return StencilProblem(
        global_extent=(n, n, n),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


def _reference(problem, steps=STEPS):
    return apply_periodic_reference(
        problem.initial_global(0), problem.stencil, steps
    )


def _counting(monkeypatch, cls):
    """Count constructions of *cls* for the rest of the test."""
    calls = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


# (method, steps, fault plan, final exchange scheme); the brickpack row
# walks the whole degradation ladder memmap -> basic -> brickpack.
RUNS = [
    ("layout", STEPS, None, "layout"),
    ("memmap", STEPS, None, "memmap"),
    ("basic", STEPS, None, "basic"),
    ("memmap", 3, FaultPlan(seed=2, degrade=((1, 1), (5, 2))), "brickpack"),
]


class TestBuiltOncePerRun:
    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize(
        "method,steps,fault_plan,final", RUNS, ids=[r[3] for r in RUNS]
    )
    def test_assignment_and_brick_info_built_once(
        self, monkeypatch, method, steps, fault_plan, final, use_plans
    ):
        problem = _problem()
        assignments = _counting(monkeypatch, SlotAssignment)
        infos = _counting(monkeypatch, BrickInfo)
        run = run_executed(
            problem, method, timesteps=steps, use_plans=use_plans,
            fault_plan=fault_plan, fabric_timeout=10.0,
        )
        assert run.final_method == final
        assert len(assignments) == 1
        assert len(infos) == 1
        np.testing.assert_array_equal(
            run.global_result, _reference(problem, steps)
        )

    def test_ranks_share_the_tables_and_own_their_storages(self, monkeypatch):
        ops = []

        class Recording(driver.BrickOperand):
            def __init__(self, geom):
                super().__init__(geom)
                ops.append(self)

        monkeypatch.setattr(driver, "BrickOperand", Recording)
        # 4^3-brick subdomains: a non-empty interior phase too.
        problem = _problem(64)
        run = run_executed(problem, "layout", timesteps=STEPS, overlap=True)
        assert run.overlap
        assert len(ops) == problem.nranks
        geom = ops[0].geom
        assert all(op.geom is geom for op in ops)
        # One table for every rank's plan at each cycle position, and
        # one split (with its tables) for every rank's phase plans ...
        for pos in range(geom.period):
            assert all(op.plans[pos].chunks is geom.gather[pos] for op in ops)
        for op in ops:
            for plan, (slots, tables) in zip(op.phase_plans(), geom.phases):
                assert plan.slots is slots and plan.chunks is tables
        # ... and 16 storages, two per rank.
        assert len({id(st) for op in ops for st in op.buffers}) == 16


class TestFrozen:
    @pytest.mark.parametrize("method", ["layout", "memmap"])
    def test_every_shared_array_is_read_only(self, method):
        # 4^3-brick subdomains: a non-empty interior phase too.
        geom = build_run_geometry(
            _problem(64), method_info(method), generic_host(), seed=0,
            plans=True, phased=True,
        )
        chunks = [ch for tables in geom.gather for ch in tables]
        chunks += [ch for _, tables in geom.phases for ch in tables]
        assert chunks and all(len(part) for part, _ in geom.phases)
        shared = [
            geom.asn.grid_index,
            geom.asn.slot_coords,
            geom.binfo.adjacency,
            element_permutation(geom.decomp, geom.asn),
            geom.initial,
            *geom.cycle_slots,
            *(part for part, _ in geom.phases),
            *(ch.index for ch in chunks),
            *(ch.slots for ch in chunks),
            *(ch.absent for ch in chunks if ch.absent is not None),
        ]
        for arr in shared:
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[0] = arr.reshape(-1)[0]

    def test_array_method_geometry_shares_only_the_field(self):
        geom = build_run_geometry(
            _problem(), method_info("yask"), generic_host(), seed=0
        )
        assert geom.decomp is None and not geom.tables
        with pytest.raises(ValueError, match="read-only"):
            geom.initial[0, 0, 0] = 1.0


class TestPerRankState:
    def test_storages_scratch_and_plan_scratch_are_per_rank(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        ops = []

        class Recording(driver.BrickOperand):
            def __init__(self, geom):
                super().__init__(geom)
                ops.append(self)

        monkeypatch.setattr(driver, "BrickOperand", Recording)
        problem = _problem()
        run = run_executed(problem, "layout", timesteps=STEPS, overlap=True)
        assert run.overlap
        np.testing.assert_array_equal(run.global_result, _reference(problem))
        assert len(ops) == problem.nranks

        def distinct(arrays):
            arrays = list(arrays)
            assert len({id(a) for a in arrays}) == len(arrays)
            for i, a in enumerate(arrays):
                for b in arrays[i + 1:]:
                    assert not np.shares_memory(a, b)

        distinct(st.data for op in ops for st in op.buffers)
        distinct(op._scratch() for op in ops)
        # A rank's plans, once each (with no interior bricks the surface
        # plan is the unphased one).
        plans = [
            p for op in ops
            for p in {id(p): p for p in (*op.plans, *op.phase_plans())
                      if p is not None}.values()
        ]
        assert all(p._ckernel is None for p in plans)  # NumPy plan path
        for attr in ("_halo", "_acc", "_tmp"):
            distinct(getattr(p, attr) for p in plans)


class TestRepeatedRuns:
    @pytest.mark.parametrize("backend", ["numpy", "auto"])
    @pytest.mark.parametrize("method", ["layout", "memmap"])
    def test_twenty_runs_bit_identical(self, monkeypatch, method, backend):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        problem = _problem()
        ref = _reference(problem)
        for _ in range(20):
            run = run_executed(problem, method, timesteps=STEPS)
            np.testing.assert_array_equal(run.global_result, ref)


class TestCheckerSharesTheGeometry:
    @pytest.mark.parametrize("method", ["layout", "memmap", "brickpack"])
    def test_every_rank_binds_one_run_geometry(self, method):
        geoms = build_rank_geometries(_problem(), method)
        run = geoms[0].run
        assert all(g.run is run for g in geoms)
        assert all(g.exchanger.decomp is run.decomp for g in geoms)
        assert all(g.exchanger.assignment is run.asn for g in geoms)

    def test_run_check_verifies_the_run_geometry(self):
        geom = build_run_geometry(
            _problem(), method_info("memmap"), generic_host(),
            exchange_period=1, plans=True,
        )
        report = run_checks(
            _problem(), "memmap", passes=("schedule", "memory"),
            geometry=geom,
        )
        assert report.ok


class TestSharedTablesAreChecked:
    def test_a_table_built_for_another_scheme_is_refused(self):
        geom = build_run_geometry(
            _problem(), method_info("layout"), generic_host()
        )
        run = build_rank_geometries(_problem(), "layout", geometry=geom)
        basic = layout_message_table(geom.decomp, geom.asn, merge_runs=False)
        with pytest.raises(ExchangeConfigError, match="cannot drive"):
            LayoutExchanger(
                run[0].cart, geom.decomp, None, geom.asn, table=basic
            )

    def test_merge_runs_over_padded_storage_is_refused_with_a_table(self):
        # 4-brick pages pad every section.
        geom = build_run_geometry(
            _problem(), method_info("memmap"), generic_host(),
            page_size=4 * 4096, schemes=("basic",),
        )
        assert geom.asn.alignment == 4
        run = build_rank_geometries(_problem(), "memmap", geometry=geom)
        with pytest.raises(ExchangeConfigError, match="unpadded storage"):
            LayoutExchanger(
                run[0].cart, geom.decomp, None, geom.asn,
                table=geom.tables["basic"],
            )


class TestInitialField:
    def test_a_world_launched_to_restore_draws_no_shared_field(
        self, monkeypatch, tmp_path
    ):
        built = []
        build = driver.build_run_geometry

        def recording(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(driver, "build_run_geometry", recording)
        problem = _problem()
        run_executed(problem, "layout", timesteps=STEPS, checkpoint_dir=tmp_path)
        resumed = run_executed(
            problem, "layout", timesteps=STEPS, checkpoint_dir=tmp_path,
            resume=True,
        )
        assert built[0].initial is not None and built[1].initial is None
        assert resumed.resumed_epoch >= 0
        np.testing.assert_array_equal(
            resumed.global_result, _reference(problem)
        )

    def test_a_restoring_world_without_a_snapshot_starts_cold(self, tmp_path):
        problem = _problem()
        run = run_executed(
            problem, "memmap", timesteps=STEPS, checkpoint_dir=tmp_path,
            resume=True,
        )
        assert run.resumed_epoch < 0
        np.testing.assert_array_equal(run.global_result, _reference(problem))
