"""Cooperative sessions: Charge/Waiter/Resource and the Scheduler."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.scheduler import (
    Charge,
    Resource,
    Scheduler,
    SchedulerError,
    Session,
    Waiter,
)


class TestCharge:
    def test_negative_rejected(self):
        with pytest.raises(SchedulerError):
            Charge(-0.1)

    def test_zero_allowed(self):
        assert Charge(0.0).seconds == 0.0


class TestWaiter:
    def test_resolve_delivers_value(self):
        waiter = Waiter("w")
        waiter.resolve(42)
        assert waiter.done and waiter.value == 42

    def test_reject_raises_on_value(self):
        waiter = Waiter("w")
        waiter.reject(ValueError("boom"))
        with pytest.raises(ValueError):
            waiter.value

    def test_value_before_done_rejected(self):
        with pytest.raises(SchedulerError):
            Waiter("w").value

    def test_double_completion_rejected(self):
        waiter = Waiter("w")
        waiter.resolve(1)
        with pytest.raises(SchedulerError):
            waiter.resolve(2)
        with pytest.raises(SchedulerError):
            waiter.reject(ValueError())

    def test_callback_after_done_fires_immediately(self):
        waiter = Waiter("w")
        waiter.resolve("x")
        seen = []
        waiter.add_done(seen.append)
        assert seen == [waiter]

    def test_callback_before_done_fires_on_completion(self):
        waiter = Waiter("w")
        seen = []
        waiter.add_done(seen.append)
        assert seen == []
        waiter.resolve(None)
        assert seen == [waiter]


class TestResource:
    def test_uncontended_acquire_is_immediate(self):
        resource = Resource("dev")
        waiter = resource.acquire("a")
        assert waiter.done and waiter.value is resource
        assert resource.busy and resource.holder == "a"

    def test_fifo_queue_hands_over_on_release(self):
        resource = Resource("dev")
        resource.acquire("a")
        second = resource.acquire("b")
        third = resource.acquire("c")
        assert not second.done and resource.queued == 2
        resource.release()
        assert second.done and resource.holder == "b"
        assert not third.done
        resource.release()
        assert third.done and resource.holder == "c"

    def test_try_acquire(self):
        resource = Resource("dev")
        assert resource.try_acquire("a")
        assert not resource.try_acquire("b")
        resource.release()
        assert resource.try_acquire("b")

    def test_release_unheld_rejected(self):
        with pytest.raises(SchedulerError):
            Resource("dev").release()


class TestScheduler:
    def test_charges_interleave_on_the_shared_clock(self):
        clock = SimClock()
        scheduler = Scheduler(clock)
        trace = []

        def session(name, step):
            for _ in range(3):
                yield Charge(step)
                trace.append((name, clock.now))

        scheduler.spawn(session("a", 1.0), name="a")
        scheduler.spawn(session("b", 1.5), name="b")
        scheduler.run()
        # The t=3.0 tie resolves FIFO by timer creation: b scheduled its
        # timer at t=1.5, before a scheduled its own at t=2.0.
        assert trace == [("a", 1.0), ("b", 1.5), ("a", 2.0),
                         ("b", 3.0), ("a", 3.0), ("b", 4.5)]

    def test_staggered_start(self):
        clock = SimClock()
        scheduler = Scheduler(clock)
        seen = []

        def session():
            seen.append(clock.now)
            yield Charge(1.0)
            return clock.now

        handle = scheduler.spawn(session(), at=5.0)
        scheduler.run()
        assert seen == [5.0]
        assert handle.state == Session.DONE and handle.result == 6.0

    def test_start_in_the_past_rejected(self):
        clock = SimClock(start=10.0)
        with pytest.raises(SchedulerError):
            Scheduler(clock).spawn(iter(()), at=9.0)

    def test_session_error_is_recorded_not_raised(self):
        scheduler = Scheduler(SimClock())

        def session():
            yield Charge(1.0)
            raise RuntimeError("died")

        handle = scheduler.spawn(session())
        scheduler.run()
        assert handle.state == Session.FAILED
        assert isinstance(handle.error, RuntimeError)

    def test_deadlock_names_stuck_sessions(self):
        scheduler = Scheduler(SimClock())

        def session():
            yield Waiter("never resolved")

        scheduler.spawn(session(), name="stuck")
        with pytest.raises(SchedulerError, match="stuck"):
            scheduler.run()

    def test_uncontended_acquire_does_not_suspend(self):
        clock = SimClock()
        scheduler = Scheduler(clock)
        resource = Resource("dev")

        def session():
            got = yield resource.acquire("s")
            assert got is resource
            return clock.now

        handle = scheduler.spawn(session())
        scheduler.run()
        assert handle.result == 0.0  # no time passed waiting

    def test_queued_acquire_resumes_on_release(self):
        clock = SimClock()
        scheduler = Scheduler(clock)
        resource = Resource("dev")
        order = []

        def holder():
            yield resource.acquire("holder")
            yield Charge(2.0)
            order.append(("holder done", clock.now))
            resource.release()

        def waiterland():
            yield resource.acquire("waiter")
            order.append(("waiter got it", clock.now))
            resource.release()

        scheduler.spawn(holder())
        scheduler.spawn(waiterland())
        scheduler.run()
        assert order == [("holder done", 2.0), ("waiter got it", 2.0)]

    def test_rejected_waiter_throws_into_session(self):
        scheduler = Scheduler(SimClock())
        waiter = Waiter("w")

        def failer():
            yield Charge(1.0)
            waiter.reject(ValueError("no"))

        def session():
            try:
                yield waiter
            except ValueError:
                return "caught"

        handle = scheduler.spawn(session())
        scheduler.spawn(failer())
        scheduler.run()
        assert handle.result == "caught"

    def test_op_failures_are_thrown_back_in(self):
        class FailingOp:
            def submit(self, clock):
                waiter = Waiter("op")
                clock.call_after(1.0, lambda: waiter.reject(
                    ValueError("op died")))
                return waiter

        def session():
            try:
                yield FailingOp()
            except ValueError:
                return "caught"

        scheduler = Scheduler(SimClock())
        handle = scheduler.spawn(session())
        scheduler.run()
        assert handle.state == Session.DONE and handle.result == "caught"

    def test_unknown_yield_rejected(self):
        def session():
            yield object()

        scheduler = Scheduler(SimClock())
        handle = scheduler.spawn(session(), name="odd")
        scheduler.run()
        assert handle.state == Session.FAILED
        assert isinstance(handle.error, SchedulerError)
        assert "odd" in str(handle.error)


class TestTimeLedger:
    def test_charges_land_in_working_seconds(self):
        clock = SimClock()
        scheduler = Scheduler(clock)

        def session():
            yield Charge(1.5)
            yield 0.5

        handle = scheduler.spawn(session())
        scheduler.run()
        assert handle.working_s == pytest.approx(2.0)
        assert handle.blocked == {}
        assert handle.finished_at - handle.started_at == pytest.approx(2.0)

    def test_resource_wait_lands_under_the_resource_kind(self):
        clock = SimClock()
        scheduler = Scheduler(clock)
        resource = Resource("dev", clock=clock)

        def holder():
            yield resource.acquire("holder")
            yield Charge(3.0)
            resource.release()

        def waiter_session():
            yield resource.acquire("waiter")
            resource.release()

        scheduler.spawn(holder())
        handle = scheduler.spawn(waiter_session())
        scheduler.run()
        assert handle.blocked["resource"] == pytest.approx(3.0)
        assert handle.working_s == pytest.approx(0.0)

    def test_inline_handoff_time_stays_off_the_releasers_ledger(self):
        """A release resumes its next waiter synchronously; the resumed
        session's inline work must not inflate the releaser's ledger."""
        clock = SimClock()
        scheduler = Scheduler(clock)
        resource = Resource("dev", clock=clock)

        def first():
            yield resource.acquire("first")
            yield Charge(1.0)
            resource.release()  # second runs 2.0s inline, right here

        def second():
            yield resource.acquire("second")
            clock.advance(2.0)
            resource.release()

        first_handle = scheduler.spawn(first())
        second_handle = scheduler.spawn(second())
        scheduler.run()
        assert first_handle.working_s == pytest.approx(1.0)
        assert second_handle.working_s == pytest.approx(2.0)
        assert second_handle.blocked["resource"] == pytest.approx(1.0)

    def test_reentrant_advance_time_is_kept_by_both_sessions(self):
        """Two sessions advancing the clock inline at the same instant
        overlap in virtual time: each keeps its own elapsed interval."""
        clock = SimClock()
        scheduler = Scheduler(clock)

        def session():
            yield Charge(0.0)
            clock.advance(2.0)

        a = scheduler.spawn(session())
        b = scheduler.spawn(session())
        scheduler.run()
        # b's advance runs nested inside a's (re-entrant timers) and
        # moves time for both; each session still claims its elapsed.
        assert a.working_s + b.working_s >= 2.0
        for handle in (a, b):
            assert handle.working_s == pytest.approx(
                handle.finished_at - handle.started_at)

    def test_waiter_kind_defaults_and_resource_kind(self):
        assert Waiter("w").kind == "wait"
        clock = SimClock()
        resource = Resource("dev", clock=clock)
        resource.try_acquire("x")
        assert resource.acquire("y").kind == "resource"
