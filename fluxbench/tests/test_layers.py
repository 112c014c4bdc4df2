import math
import types

import pytest

from fluxbench.layers import Ledger, Patcher, charged_per_resume, wrap_call


class FakeClock:
    """A clock that moves only when the test says work happened."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def ledger(clock):
    return Ledger(clock)


def test_nested_calls_split_self_time(clock, ledger):
    def inner():
        clock.work(2.0)

    wrapped_inner = wrap_call(ledger, "inner", inner, count="inner.calls")

    def outer():
        clock.work(1.0)
        wrapped_inner()
        clock.work(0.5)
        wrapped_inner()

    wrapped_outer = wrap_call(ledger, "outer", outer, timer="outer_s")

    def root():
        clock.work(0.25)
        wrapped_outer()

    _, wall = ledger.measure("other", root)
    assert wall == 5.75
    assert ledger.self_s == {"inner": 4.0, "outer": 1.5, "other": 0.25}
    assert ledger.inclusive_s["outer_s"] == 5.5
    assert ledger.counts["inner.calls"] == 2
    assert sum(ledger.self_s.values()) == wall


def test_reentrant_call_counts_inclusive_time_once(clock, ledger):
    def recurse(depth):
        clock.work(1.0)
        if depth:
            wrapped(depth - 1)

    wrapped = wrap_call(ledger, "rec", recurse, timer="rec_s", count="rec.n")
    _, wall = ledger.measure("other", wrapped, 2)
    assert wall == 3.0
    assert ledger.self_s["rec"] == 3.0
    assert ledger.inclusive_s["rec_s"] == 3.0      # not 3 + 2 + 1
    assert ledger.counts["rec.n"] == 3


def test_count_only_wrapper_leaves_time_with_the_caller(clock, ledger):
    def compensate():
        clock.work(1.0)

    counted = wrap_call(ledger, None, compensate, count="undo")
    _, wall = ledger.measure("other", counted)
    assert ledger.self_s == {"other": 1.0}
    assert ledger.counts["undo"] == 1


def test_generator_is_charged_per_resume(clock, ledger):
    def steps():
        clock.work(1.0)
        got = yield "a"
        clock.work(2.0 if got == "x" else 100.0)
        yield "b"
        clock.work(4.0)
        return "done"

    wrapped_steps = wrap_call(ledger, "stage", steps, gen=True)

    def driver():
        gen = wrapped_steps()           # creating it runs no body
        clock.work(0.5)
        assert next(gen) == "a"
        clock.work(8.0)                 # the driver's own work between resumes
        assert gen.send("x") == "b"
        with pytest.raises(StopIteration) as stop:
            next(gen)
        return stop.value.value

    result, wall = ledger.measure("other", driver)
    assert result == "done"
    assert ledger.self_s["stage"] == 7.0
    assert ledger.self_s["other"] == 8.5
    assert math.isclose(sum(ledger.self_s.values()), wall)


def test_proxy_forwards_throw_and_close(clock, ledger):
    seen = []

    def steps():
        try:
            yield 1
        except KeyError as error:
            seen.append(error)
            yield 2
        finally:
            seen.append("closed")

    gen = charged_per_resume(ledger, "stage", steps())
    assert next(gen) == 1
    assert gen.throw(KeyError("k")) == 2
    gen.close()
    assert isinstance(seen[0], KeyError) and seen[1] == "closed"
    assert ledger.depth == 0


def test_proxy_under_yield_from_keeps_the_return_value(clock, ledger):
    def inner():
        clock.work(1.0)
        yield "op"
        return 42

    def outer():
        value = yield from charged_per_resume(ledger, "inner", inner())
        clock.work(3.0)
        return value

    def drive():
        gen = outer()
        assert next(gen) == "op"
        with pytest.raises(StopIteration) as stop:
            next(gen)
        return stop.value.value

    result, wall = ledger.measure("other", drive)
    assert result == 42
    assert ledger.self_s == {"inner": 1.0, "other": 3.0}


def test_exception_closes_the_frame(clock, ledger):
    def boom():
        clock.work(1.0)
        raise ValueError("x")

    wrapped = wrap_call(ledger, "boom", boom)
    with pytest.raises(ValueError):
        ledger.measure("other", wrapped)
    assert ledger.depth == 0
    assert ledger.self_s == {"boom": 1.0, "other": 0.0}


def test_patcher_wraps_and_restores_everywhere():
    package = types.ModuleType("fakepkg")
    user = types.ModuleType("fakepkg.user")

    def helper():
        return "helper"

    class Thing:
        def method(self):
            return "method"

        @classmethod
        def build(cls):
            return cls.__name__

    package.helper = helper
    package.Thing = Thing
    user.alias = helper
    import sys
    sys.modules["fakepkg"] = package
    sys.modules["fakepkg.user"] = user
    try:
        patcher = Patcher("fakepkg")
        mark = lambda fn: (lambda *a, **k: ("wrapped", fn(*a, **k)))
        assert patcher.wrap_function(helper, mark) == 2
        patcher.wrap_method(Thing, "method", mark)
        patcher.wrap_method(Thing, "build", mark)
        assert user.alias() == ("wrapped", "helper")
        assert Thing().method() == ("wrapped", "method")
        assert Thing.build() == ("wrapped", "Thing")
        patcher.restore()
        assert package.helper is helper and user.alias is helper
        assert Thing.__dict__["method"].__name__ == "method"
        assert isinstance(Thing.__dict__["build"], classmethod)
        assert Thing().method() == "method" and Thing.build() == "Thing"
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.user"]
