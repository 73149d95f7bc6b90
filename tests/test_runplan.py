"""Run-plan layer acceptance: bit-exactness vs the legacy per-step loop,
composition with chaos fault seeds and checkpoint resume, batched fabric
semantics, and the compiled (C) kernel backend.

The run plan (:mod:`repro.core.runplan`) replays an executed run with
minimal per-step Python -- channel re-fire, plan execution, buffer flip.
Everything here pins the contract that made that safe to ship: plans on
and plans off are bit-identical, and every featured path (faults,
checkpoints, observability) composes with plans without changing a bit.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.core.runplan import RankRunPlan
from repro.faults import FaultPlan
from repro.simmpi.fabric import SimFabric
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT

STEPS = 4


def _problem():
    return StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


def _pair(method, **kwargs):
    """The same run with plans on and off; everything else identical."""
    on = run_executed(
        _problem(), method, timesteps=STEPS, seed=0, use_plans=True, **kwargs
    )
    off = run_executed(
        _problem(), method, timesteps=STEPS, seed=0, use_plans=False, **kwargs
    )
    return on, off


class TestPlanBitExactness:
    # Every executable top-level method: brick paths (layout, basic,
    # memmap) take the RankRunPlan replay; array paths (yask, mpi_types)
    # and the phased shift scheme exercise the array plan / channel-less
    # engines respectively.
    @pytest.mark.parametrize(
        "method", ["layout", "basic", "memmap", "yask", "mpi_types", "shift"]
    )
    def test_plans_match_legacy(self, method):
        on, off = _pair(method)
        np.testing.assert_array_equal(on.global_result, off.global_result)
        # Communication accounting is precomputed on the plan path and
        # measured on the legacy path; the constants must agree.
        assert on.messages_per_rank == off.messages_per_rank
        assert on.wire_bytes_per_rank == off.wire_bytes_per_rank
        # Modelled virtual-second totals, rank by rank.
        for r_on, r_off in zip(on.metrics.ranks, off.metrics.ranks):
            assert r_on.totals.as_dict() == r_off.totals.as_dict()

    def test_plans_match_reference(self):
        on, _ = _pair("layout")
        reference = apply_periodic_reference(
            _problem().initial_global(0), SEVEN_POINT, STEPS
        )
        np.testing.assert_array_equal(on.global_result, reference)

    def test_plans_match_with_exchange_period(self):
        # Multi-position cycles bind one stencil plan per position; the
        # ghost-expansion positions must replay exactly too.  Fine bricks
        # so the ghost zone supports a 2-step cycle.
        problem = StencilProblem(
            global_extent=(32, 32, 32),
            rank_dims=(2, 2, 2),
            stencil=SEVEN_POINT,
            brick_dim=(4, 4, 4),
            ghost=8,
        )
        on = run_executed(
            problem, "layout", timesteps=STEPS, seed=0, use_plans=True,
            exchange_period=2,
        )
        off = run_executed(
            problem, "layout", timesteps=STEPS, seed=0, use_plans=False,
            exchange_period=2,
        )
        np.testing.assert_array_equal(on.global_result, off.global_result)
        assert on.messages_per_rank == off.messages_per_rank

    def test_observed_run_matches_tight_loop(self):
        # Live observability forces the instrumented loop (which still
        # fires the channels); the answer must not depend on which loop
        # ran.
        plain = run_executed(
            _problem(), "layout", timesteps=STEPS, seed=0, use_plans=True
        )
        with obs.observed():
            observed = run_executed(
                _problem(), "layout", timesteps=STEPS, seed=0, use_plans=True
            )
            spans = [ev.name for ev in obs.TRACER.events()]
        np.testing.assert_array_equal(
            observed.global_result, plain.global_result
        )
        # The channels really ran: batched posting spans are present.
        assert "exchange.post" in spans
        assert "exchange.wait" in spans
        assert spans.count("driver.step") == _problem().nranks * STEPS


class TestRankRunPlanObject:
    def test_engine_buffer_mismatch_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            RankRunPlan([object()], [object()], [object(), object()], 1)

    def test_plan_period_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cycle position"):
            RankRunPlan(
                [object(), object()], [object()], [object(), object()], 2
            )


class TestBatchedFabric:
    def test_batch_roundtrip_matches_payload(self):
        fabric = SimFabric(2, timeout=5.0)
        rng = np.random.default_rng(0)
        sends = [rng.random(16), rng.random(8)]
        entries = fabric.post_send_batch(
            0, [(1, 11, sends[0]), (1, 12, sends[1])]
        )
        outs = [np.zeros(16), np.zeros(8)]
        fabric.complete_recv_batch(1, [(0, 11, outs[0]), (0, 12, outs[1])])
        fabric.wait_send_batch(entries, 0)
        np.testing.assert_array_equal(outs[0], sends[0])
        np.testing.assert_array_equal(outs[1], sends[1])

    def test_envelope_fabric_refuses_batches(self):
        # The batch path skips the sequence/CRC machinery by design; a
        # verified fabric must hard-refuse it, never silently bypass.
        fabric = SimFabric(2, timeout=5.0)
        fabric.enable_envelope()
        buf = np.zeros(4)
        with pytest.raises(RuntimeError, match="verified fabric"):
            fabric.post_send_batch(0, [(1, 7, buf)])
        with pytest.raises(RuntimeError, match="verified fabric"):
            fabric.complete_recv_batch(1, [(0, 7, buf)])


class TestChaosComposition:
    def test_fault_seeded_runs_identical_with_plans(self):
        # Fault injection enables the verified fabric, which drops the
        # run back to the instrumented loop -- but use_plans=True must
        # still compose transparently: same healing, same schedule, same
        # bits.
        plan = FaultPlan(seed=3, drop=0.04, corrupt=0.04)
        on = run_executed(
            _problem(), "memmap", timesteps=2, seed=0, use_plans=True,
            fault_plan=plan, fabric_timeout=10.0,
        )
        off = run_executed(
            _problem(), "memmap", timesteps=2, seed=0, use_plans=False,
            fault_plan=plan, fabric_timeout=10.0,
        )
        np.testing.assert_array_equal(on.global_result, off.global_result)
        assert on.faults["schedule_digest"] == off.faults["schedule_digest"]
        assert on.faults["events"] == off.faults["events"]


class TestCheckpointComposition:
    def test_crash_resume_with_plans_bit_exact(self, tmp_path):
        base = run_executed(
            _problem(), "layout", timesteps=STEPS, seed=0, use_plans=False
        )
        plan = FaultPlan(seed=1, crashes=((1, 2),))
        run = run_executed(
            _problem(), "layout", timesteps=STEPS, seed=0, use_plans=True,
            fault_plan=plan, checkpoint_dir=tmp_path, checkpoint_period=1,
            fabric_timeout=15.0,
        )
        assert run.restarts == 1
        assert run.faults["events"].get("restarted") == 1
        np.testing.assert_array_equal(run.global_result, base.global_result)
        assert run.messages_per_rank == base.messages_per_rank
        assert run.wire_bytes_per_rank == base.wire_bytes_per_rank

    def test_cold_resume_with_plans(self, tmp_path):
        base = run_executed(
            _problem(), "layout", timesteps=STEPS, seed=0, use_plans=True
        )
        run_executed(
            _problem(), "layout", timesteps=2, seed=0, use_plans=True,
            checkpoint_dir=tmp_path, checkpoint_period=1,
        )
        resumed = run_executed(
            _problem(), "layout", timesteps=STEPS, seed=0, use_plans=True,
            checkpoint_dir=tmp_path, checkpoint_period=1, resume=True,
        )
        assert resumed.resumed_epoch == 1
        np.testing.assert_array_equal(
            resumed.global_result, base.global_result
        )
        # Counters restored from the snapshot meta plus the resumed
        # steps' own: the snapshot must have seen current totals.
        assert resumed.messages_per_rank == base.messages_per_rank
        assert resumed.wire_bytes_per_rank == base.wire_bytes_per_rank


class TestKernelBackends:
    def _plan_under(self, monkeypatch, backend):
        from repro.brick.decomp import BrickDecomp
        from repro.stencil.plan import compile_brick_plan

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        decomp = BrickDecomp((16, 16, 16), (8, 8, 8), 8)
        src, asn = decomp.allocate()
        dst, _ = decomp.allocate()
        src.data[:] = np.random.default_rng(0).random(src.data.shape)
        info = decomp.brick_info(asn)
        slots = decomp.compute_slots(asn)
        plan = compile_brick_plan(SEVEN_POINT, info, slots)
        plan.execute(src, dst)
        return plan, dst.data.copy()

    def test_c_and_numpy_backends_bit_identical(self, monkeypatch):
        from repro.stencil.cbackend import _compiler, cffi

        if cffi is None or _compiler() is None:
            pytest.skip("no C toolchain in this environment")
        plan_np, out_np = self._plan_under(monkeypatch, "numpy")
        plan_c, out_c = self._plan_under(monkeypatch, "cffi")
        assert plan_np._ckernel is None
        assert plan_c._ckernel is not None
        np.testing.assert_array_equal(out_c, out_np)

    def test_backend_choice_validation(self, monkeypatch):
        from repro.stencil.cbackend import backend_choice

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "fortran")
        with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
            backend_choice()

    def test_cffi_forced_rejects_non_float64(self, monkeypatch):
        from repro.stencil.cbackend import batch_step_kernel

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cffi")
        with pytest.raises(RuntimeError, match="float64"):
            batch_step_kernel(
                SEVEN_POINT.taps, (8, 8, 8), SEVEN_POINT.radius, 0, 512,
                np.float32,
            )

    def test_auto_skips_non_float64(self, monkeypatch):
        from repro.stencil.cbackend import batch_step_kernel

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        assert batch_step_kernel(
            SEVEN_POINT.taps, (8, 8, 8), SEVEN_POINT.radius, 0, 512,
            np.float32,
        ) is None

    def test_numpy_forced_run_still_bit_exact(self, monkeypatch):
        # The whole-run contract holds on the pure-NumPy fallback too.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        on, off = _pair("layout")
        np.testing.assert_array_equal(on.global_result, off.global_result)
