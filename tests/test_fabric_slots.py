"""Edge-slot protocol of the fabric: copy program, targeted wake-ups,
partitions as slot slices, and the typed refusals at fabric entry."""

import threading
import time

import numpy as np
import pytest

import repro.simmpi.fabric as fabric_mod
from repro.simmpi import SimFabric
from repro.simmpi.fabric import (
    AbortedError,
    DeadlockError,
    ExchangeConfigError,
    ProtocolError,
    RankDeadError,
)


class CountingCondition(threading.Condition):
    """Condition that counts how often a waiter went to sleep and woke."""

    def __init__(self, lock):
        super().__init__(lock)
        self.entered = 0
        self.returned = 0

    def wait(self, timeout=None):
        self.entered += 1
        try:
            return super().wait(timeout)
        finally:
            self.returned += 1


def _instrument(fab, rank):
    cond = CountingCondition(fab._lock)
    fab._wake[rank] = cond
    return cond


def _until(pred, limit=5.0):
    deadline = time.monotonic() + limit
    while not pred():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


def _spawn(fn):
    """Run *fn* on a thread; the box collects its exception, if any."""
    box = {}

    def body():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - inspected by the test
            box["error"] = exc

    t = threading.Thread(target=body, daemon=True)
    t.start()
    return t, box


class TestCopyProgram:
    def test_round_trip_across_epochs(self):
        fab = SimFabric(2, timeout=5.0)
        src = np.arange(32, dtype=np.float64)
        dst = np.zeros(32)
        fab.negotiate_channel(0, [(1, 4, src)], [])
        fab.negotiate_channel(1, [], [(0, 4, dst)])
        for step in range(3):
            src[:] = step
            posted = fab.post_send_batch(0, [(1, 4, src)])
            assert fab.pending_messages == 1
            fab.complete_recv_batch(1, [(0, 4, dst)])
            fab.wait_send_batch(posted, 0)
            np.testing.assert_array_equal(dst, src)
        assert fab.pending_messages == 0
        assert fab.stats[0].sends == 3
        assert fab.stats[1].bytes_received == 3 * src.nbytes

    def test_alternating_buffers_rebind(self):
        # A double-buffered run fires two channels on the same edges.
        fab = SimFabric(2, timeout=5.0)
        srcs = [np.full(8, 1.0), np.full(8, 2.0)]
        dsts = [np.zeros(8), np.zeros(8)]
        for step in range(4):
            k = step % 2
            posted = fab.post_send_batch(0, [(1, 0, srcs[k])])
            fab.complete_recv_batch(1, [(0, 0, dsts[k])])
            fab.wait_send_batch(posted, 0)
        np.testing.assert_array_equal(dsts[0], srcs[0])
        np.testing.assert_array_equal(dsts[1], srcs[1])

    def test_second_post_in_flight_refused(self):
        fab = SimFabric(2, timeout=5.0)
        buf = np.zeros(4)
        fab.post_send_batch(0, [(1, 0, buf)])
        with pytest.raises(ProtocolError, match="posted again"):
            fab.post_send_batch(0, [(1, 0, buf)])
        assert fab.pending_messages == 1

    def test_size_mismatch_is_typed(self):
        from repro.simmpi import SplitMismatchError

        fab = SimFabric(2, timeout=5.0)
        fab.post_send_batch(0, [(1, 0, np.zeros(4))])
        with pytest.raises(SplitMismatchError, match="size mismatch"):
            fab.complete_recv_batch(1, [(0, 0, np.zeros(5))])

    def test_release_buffers_unpins_storage(self):
        fab = SimFabric(2, timeout=5.0)
        src, dst = np.ones(4), np.zeros(4)
        posted = fab.post_send_batch(0, [(1, 0, src)])
        fab.complete_recv_batch(1, [(0, 0, dst)])
        fab.wait_send_batch(posted, 0)
        fab.release_buffers()
        slot = fab._slots[(0, 1, 0)]
        assert slot.sbuf is None and slot.rbuf is None
        # The edge re-binds on its next use.
        posted = fab.post_send_batch(0, [(1, 0, src)])
        fab.complete_recv_batch(1, [(0, 0, dst)])
        fab.wait_send_batch(posted, 0)
        assert fab.stats[0].sends == 2


class TestSteadyStateAllocations:
    def test_channel_steps_build_no_event_and_no_entry(
        self, monkeypatch, small_problem, theta
    ):
        """Extra steps of an 8-rank layout run construct no Event and no
        per-message send entry: only setup and teardown allocate any."""
        from repro.core.driver import run_executed

        counts = {"event": 0, "entry": 0}
        real_event = threading.Event
        real_entry = fabric_mod._SendEntry

        class CountingEvent(real_event):
            def __init__(self, *args, **kwargs):
                counts["event"] += 1
                super().__init__(*args, **kwargs)

        class CountingEntry(real_entry):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                counts["entry"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Event", CountingEvent)
        monkeypatch.setattr(fabric_mod, "_SendEntry", CountingEntry)

        def run(steps):
            counts.update(event=0, entry=0)
            res = run_executed(small_problem, "layout", theta, timesteps=steps)
            assert res.fabric.pending_messages == 0
            return dict(counts), res

        short, run_short = run(2)
        long, run_long = run(6)
        assert long == short
        assert long["entry"] == 0
        stats = run_long.fabric.total_stats()
        assert stats.sends == run_long.messages_per_rank * 8 * 6
        assert stats.bytes_received == stats.bytes_sent


class TestTargetedWakeups:
    @pytest.mark.parametrize("path", ["batch", "mailbox"])
    def test_post_wakes_only_its_destination(self, path):
        fab = SimFabric(4, timeout=30.0)
        conds = {r: _instrument(fab, r) for r in (2, 3)}
        outs = {r: np.zeros(4) for r in (2, 3)}

        def waiter(r):
            if path == "batch":
                return lambda: fab.complete_recv_batch(r, [(0, r, outs[r])])
            return lambda: fab.complete_recv(0, r, r, outs[r])

        threads = [_spawn(waiter(r)) for r in (2, 3)]
        _until(lambda: all(c.entered == 1 for c in conds.values()))

        payload = np.arange(4.0)
        out1 = np.zeros(4)
        if path == "batch":
            posted = fab.post_send_batch(0, [(1, 1, payload)])
            fab.complete_recv_batch(1, [(0, 1, out1)])
            fab.wait_send_batch(posted, 0)
        else:
            entry = fab.post_send(0, 1, 1, payload)
            fab.complete_recv(0, 1, 1, out1)
            fab.wait_send(entry)
        np.testing.assert_array_equal(out1, payload)
        time.sleep(0.05)
        assert [c.returned for c in conds.values()] == [0, 0]

        for r in (2, 3):
            if path == "batch":
                fab.post_send_batch(0, [(r, r, payload)])
            else:
                fab.post_send(0, r, r, payload)
        for t, box in threads:
            t.join(5.0)
            assert not t.is_alive() and "error" not in box
        for r in (2, 3):
            np.testing.assert_array_equal(outs[r], payload)


    def test_consumption_before_sleep_is_not_lost(self):
        # The sender sees its send unconsumed, then the receiver consumes
        # (and notifies) before the sender sleeps: the sender must
        # re-check under the lock rather than sleep until the timeout.
        fab = SimFabric(2, timeout=2.0)
        src, dst = np.arange(4.0), np.zeros(4)
        posted = fab.post_send_batch(0, [(1, 0, src)])
        with fab._lock:
            t, box = _spawn(lambda: fab.wait_send_batch(posted, 0))
            time.sleep(0.05)  # the waiter is now blocked on the lock
            fab.complete_recv_batch(1, [(0, 0, dst)])
        t.join(1.0)
        assert not t.is_alive() and "error" not in box
        np.testing.assert_array_equal(dst, src)


class TestPartitionSlices:
    def _pair(self, partitions=4, timeout=5.0):
        fab = SimFabric(2, timeout=timeout)
        src = np.arange(64, dtype=np.float64)
        dst = np.zeros(64)
        psend = fab.send_init(0, [(1, 3, src)], partitions)
        precv = fab.recv_init(1, [(0, 3, dst)], partitions)
        return fab, src, dst, psend, precv

    def test_pready_one_at_a_time_from_another_thread(self):
        fab, src, dst, psend, precv = self._pair()
        for step in range(3):
            src[:] = np.arange(64) + 100 * step
            precv.start()
            psend.start()

            def release():
                for part in (3, 1, 0, 2):
                    time.sleep(0.01)
                    psend.pready(0, part)
                psend.wait()

            t, box = _spawn(release)
            precv.complete()
            t.join(5.0)
            assert not t.is_alive() and "error" not in box
            np.testing.assert_array_equal(dst, src)
        assert fab.stats[0].sends == 3 * 4
        assert fab.pending_messages == 0

    def test_dropped_partition_raises_deadlock(self):
        _fab, _src, _dst, psend, precv = self._pair(timeout=0.3)
        precv.start()
        psend.start()
        t, _box = _spawn(lambda: [psend.pready(0, p) for p in (0, 1, 3)])
        t.join(5.0)
        with pytest.raises(DeadlockError):
            precv.complete()


def _op_complete_recv_batch(fab):
    return lambda: fab.complete_recv_batch(1, [(0, 0, np.zeros(4))]), 1, 0


def _op_wait_send_batch(fab):
    posted = fab.post_send_batch(0, [(1, 0, np.zeros(4))])
    return lambda: fab.wait_send_batch(posted, 0), 0, 1


def _op_partitioned_complete(fab):
    precv = fab.recv_init(1, [(0, 0, np.zeros(8))], 2)
    precv.start()
    return precv.complete, 1, 0


def _op_complete_recv(fab):
    return lambda: fab.complete_recv(0, 1, 0, np.zeros(4)), 1, 0


class TestFailureWakeups:
    """abort() and mark_dead() reach every kind of sleeping waiter."""

    @pytest.mark.parametrize("trigger", ["abort", "mark_dead"])
    @pytest.mark.parametrize(
        "make_op",
        [
            _op_complete_recv_batch,
            _op_wait_send_batch,
            _op_partitioned_complete,
            _op_complete_recv,
        ],
        ids=["complete_recv_batch", "wait_send_batch",
             "partitioned_complete", "complete_recv"],
    )
    def test_waiter_fails_fast(self, make_op, trigger):
        fab = SimFabric(2, timeout=30.0)
        op, rank, peer = make_op(fab)
        cond = _instrument(fab, rank)
        t, box = _spawn(op)
        _until(lambda: cond.entered >= 1)
        if trigger == "abort":
            fab.abort()
            expected = AbortedError
        else:
            fab.mark_dead(peer)
            expected = RankDeadError
        t.join(5.0)
        assert not t.is_alive(), "waiter was never woken"
        assert isinstance(box.get("error"), expected)


class TestEntryRefusals:
    @pytest.mark.parametrize("form", ["complete_recv", "complete_recv_batch"])
    def test_non_contiguous_receive_refused(self, form):
        fab = SimFabric(2, timeout=5.0)
        payload = np.arange(8.0)
        if form == "complete_recv":
            fab.post_send(0, 1, 0, payload)
        else:
            fab.post_send_batch(0, [(1, 0, payload)])
        strided = np.zeros((4, 4))[:, :2]
        with pytest.raises(ExchangeConfigError, match="C-contiguous"):
            if form == "complete_recv":
                fab.complete_recv(0, 1, 0, strided)
            else:
                fab.complete_recv_batch(1, [(0, 0, strided)])
        # Nothing was consumed or counted: the message is still on the wire.
        assert fab.pending_messages == 1
        assert fab.stats[1].bytes_received == 0
        out = np.zeros(8)
        if form == "complete_recv":
            fab.complete_recv(0, 1, 0, out)
        else:
            fab.complete_recv_batch(1, [(0, 0, out)])
        np.testing.assert_array_equal(out, payload)

    @pytest.mark.parametrize("peer", [2, 5, -1])
    def test_batch_ops_check_peers(self, peer):
        fab = SimFabric(2, timeout=5.0)
        with pytest.raises(ExchangeConfigError, match="outside communicator"):
            fab.post_send_batch(0, [(peer, 0, np.zeros(4))])
        with pytest.raises(ExchangeConfigError, match="outside communicator"):
            fab.complete_recv_batch(1, [(peer, 0, np.zeros(4))])
        assert fab.pending_messages == 0
        assert fab.stats[0].sends == 0
