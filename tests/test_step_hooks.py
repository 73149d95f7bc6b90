"""Step hooks around the one executed step loop.

Every executed run replays through ``RankRunPlan``; run features are
hooks composed around it.  These tests pin the hook protocol (order,
counter visibility, the single ``fire`` slot) and a composition the
public API cannot reach on its own: a mid-run ladder demotion while the
run is phased.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import driver
from repro.core.geometry import build_run_geometry
from repro.core.methods import method_info
from repro.core.problem import StencilProblem
from repro.core.runplan import DEFAULT_PARTITIONS, RankRunPlan
from repro.faults import FaultPlan
from repro.faults.runtime import FaultInjector
from repro.hardware.profiles import generic_host
from repro.simmpi.fabric import SimFabric
from repro.simmpi.launcher import run_spmd
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT
from repro.util.timing import PhaseTimer


def _loop(events, period=2, hooks=()):
    result = SimpleNamespace(
        messages_sent=3, wire_bytes_sent=24, payload_bytes_sent=16
    )

    class Engine:
        def exchange(self):
            events.append("exchange")
            return result

    plans = [
        SimpleNamespace(execute=lambda s, d: events.append("calc"))
        for _ in range(period)
    ]
    return RankRunPlan(
        [Engine(), Engine()], plans, [object(), object()], period,
        hooks=hooks,
    )


class Recorder:
    def __init__(self, name, events, counters):
        self.name, self.events, self.counters = name, events, counters

    def before_step(self, plan, t, src):
        self.events.append((self.name, "before", t, self.counters["msgs"]))

    def after_exchange(self, t, src, res):
        self.events.append((self.name, "exchanged", t))

    def after_calc(self, t, pos, src):
        self.events.append((self.name, "computed", t, pos))


class TestHookProtocol:
    def test_hooks_wrap_each_step_in_list_order(self):
        events = []
        counters = {"msgs": 0, "wire": 0, "payload": 0}
        hooks = [Recorder("a", events, counters), Recorder("b", events, counters)]
        src = _loop(events, hooks=hooks).run(0, 3, counters, PhaseTimer())
        assert src == 1
        assert events == [
            ("a", "before", 0, 0), ("b", "before", 0, 0),
            "exchange", ("a", "exchanged", 0), ("b", "exchanged", 0),
            "calc", ("a", "computed", 0, 0), ("b", "computed", 0, 0),
            # Counters are charged as the run goes: step 1's hooks see
            # step 0's exchange.
            ("a", "before", 1, 3), ("b", "before", 1, 3),
            "calc", ("a", "computed", 1, 1), ("b", "computed", 1, 1),
            ("a", "before", 2, 3), ("b", "before", 2, 3),
            "exchange", ("a", "exchanged", 2), ("b", "exchanged", 2),
            "calc", ("a", "computed", 2, 0), ("b", "computed", 2, 0),
        ]
        assert counters == {"msgs": 6, "wire": 48, "payload": 32}

    def test_fire_hook_replaces_the_plain_exchange(self):
        events = []

        class Fire:
            def fire(self, engine, t):
                events.append(("fire", t))
                return engine.exchange()

        counters = {"msgs": 0, "wire": 0, "payload": 0}
        _loop(events, hooks=[Fire()]).run(0, 1, counters, PhaseTimer())
        assert events == [("fire", 0), "exchange", "calc"]

    def test_at_most_one_fire_hook(self):
        fire = SimpleNamespace(fire=lambda engine, t: None)
        with pytest.raises(ValueError, match="at most one"):
            _loop([], hooks=[fire, fire])

    def test_phased_plan_refuses_a_fire_hook(self):
        fire = SimpleNamespace(fire=lambda engine, t: None)
        with pytest.raises(ValueError, match="fires its channels"):
            RankRunPlan(
                [object(), object()], [object()], [object(), object()], 1,
                splits=(None, None), hooks=[fire],
            )


class TestPhasedDemotion:
    def test_midrun_demotion_rebuilds_partitioned_channels(self, monkeypatch):
        # run_executed pairs an injector with the enveloped (unphased)
        # fabric; driving the rank function on a plain fabric phases the
        # run while rank 3's probe demotes the world at step 1.  The
        # rebuilt engines must keep the run's partition count.
        problem = StencilProblem(
            global_extent=(64, 64, 64), rank_dims=(2, 2, 2),
            stencil=SEVEN_POINT, brick_dim=(8, 8, 8), ghost=8,
        )
        partitions = []
        make_engines = driver.make_engines

        def recording(exchangers, channels, parts=1):
            partitions.append(parts)
            return make_engines(exchangers, channels, parts)

        monkeypatch.setattr(driver, "make_engines", recording)
        injector = FaultInjector(FaultPlan(seed=2, degrade=((3, 1),)))
        deferred = []
        # The world geometry run_executed would build for this phased,
        # degrading world.
        geometry = build_run_geometry(
            problem, method_info("memmap"), generic_host(), seed=0,
            plans=True, phased=True, schemes=driver._LADDER,
        )
        outs = run_spmd(
            problem.nranks, driver._rank_fn, problem, "memmap",
            generic_host(), 3, 0, None, None, True, True, injector, False,
            None, True, None, deferred, geometry,
            fabric=SimFabric(problem.nranks, timeout=15.0),
        )
        assert not deferred
        assert all(out["overlap"] for out in outs)
        assert {out["final_method"] for out in outs} == {"basic"}
        assert sum(out["counters"]["demotions"] for out in outs) == 8
        assert partitions == [DEFAULT_PARTITIONS] * (2 * problem.nranks)
        result = np.empty(tuple(reversed(problem.global_extent)))
        for out in outs:
            result[problem.owned_slices(out["coords"])] = out["result"]
        np.testing.assert_array_equal(
            result,
            apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, 3),
        )
