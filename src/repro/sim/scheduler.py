"""Cooperative sessions over the discrete-event clock.

A *session* is a generator that yields instead of advancing the shared
:class:`~repro.sim.clock.SimClock` directly.  Yield points:

* :class:`Charge` (or a bare float) — virtual seconds of work.  The
  scheduler turns it into a clock timer; the session resumes when the
  sweep reaches the deadline.
* :class:`Waiter` — a one-shot future.  The session resumes with the
  waiter's value when someone resolves it, or the exception is thrown
  back into the generator when someone rejects it.
* any object with ``submit(clock) -> Waiter`` — an asynchronous
  operation (e.g. a link flow) that the scheduler submits and then
  waits on.

:class:`Scheduler` is the one driver.  It interleaves many sessions on
clock timers so that concurrent migrations contend for shared resources
deterministically; a single migration is simply a one-session scheduler
(:meth:`repro.core.migration.migration.MigrationService.migrate`).

Determinism contract: sessions are resumed only by clock timers and
waiter resolutions, both of which fire in deadline order with FIFO
tie-breaking (the clock's monotonic timer sequence).  Given the same
spawn order and the same yields, the interleaving is a pure function of
the virtual timeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Generator, List, Optional

from collections import deque

from repro.sim.clock import SimClock
from repro.sim.timeline import Timeline


class SchedulerError(Exception):
    """Raised on invalid scheduler operations."""


@dataclass(frozen=True)
class Charge:
    """Virtual seconds of work a session wants charged to the clock."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise SchedulerError(f"negative charge {self.seconds!r}")


class Waiter:
    """A one-shot future a session can yield on.

    Exactly one of :meth:`resolve` / :meth:`reject` may be called, once.
    Callbacks added after completion fire immediately, which lets the
    scheduler treat already-completed waiters (e.g. an uncontended
    resource acquire) without a spurious suspension.

    ``kind`` classifies what the wait *is* — ``"resource"`` for
    admission queues, ``"flow"`` for link flows, ``"wait"`` otherwise —
    so the scheduler's blocked-time ledger can attribute suspensions by
    cause without inspecting the waiter's owner.
    """

    __slots__ = ("description", "kind", "_done", "_value", "_error",
                 "_callbacks")

    def __init__(self, description: str = "", kind: str = "wait") -> None:
        self.description = description
        self.kind = kind
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["Waiter"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SchedulerError(f"waiter {self.description!r} not done")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def resolve(self, value: Any = None) -> None:
        self._complete(value=value)

    def reject(self, error: BaseException) -> None:
        self._complete(error=error)

    def _complete(self, value: Any = None,
                  error: Optional[BaseException] = None) -> None:
        if self._done:
            raise SchedulerError(
                f"waiter {self.description!r} completed twice")
        self._done = True
        self._value = value
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done(self, callback: Callable[["Waiter"], None]) -> None:
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)


class Resource:
    """An exclusive resource with a FIFO wait queue.

    The scenario layer models "device X is already hosting a migration"
    as holding that device's resource; admission control either queues
    on :meth:`acquire` or refuses when :attr:`busy`.

    With a ``clock`` the resource keeps an admission ledger — per-waiter
    enqueue→grant latency in :attr:`waits`, grant count, cumulative
    :attr:`held_seconds` — and with ``events``/``timeline`` it emits
    ``resource.enqueue``/``resource.grant`` causal events (carrying who
    was ahead and the queue depth) and samples the queue-depth series on
    every edge.  ``resource.grant`` is emitted for *every* grant,
    including uncontended ones with ``waited=0.0``: the grant instant is
    the admission boundary the blame decomposition anchors on.
    """

    def __init__(self, name: str, clock: Optional[SimClock] = None,
                 timeline: Optional[Timeline] = None,
                 events=None) -> None:
        self.name = name
        self._clock = clock
        self.timeline = timeline if timeline is not None \
            else Timeline(enabled=False)
        self.events = events
        self._holder: Optional[str] = None
        self._queue: Deque[tuple] = deque()
        self._acquired_at: float = 0.0
        #: who -> cumulative enqueue→grant seconds (0.0 entries for
        #: uncontended grants, so every holder appears in the ledger).
        self.waits: Dict[str, float] = {}
        self.grants = 0
        self.held_seconds = 0.0

    @property
    def busy(self) -> bool:
        return self._holder is not None

    @property
    def holder(self) -> Optional[str]:
        return self._holder

    @property
    def queued(self) -> int:
        return len(self._queue)

    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def _granted(self, who: str, waited: float,
                 behind: Optional[str] = None) -> None:
        self._holder = who
        self._acquired_at = self._now()
        self.waits[who] = self.waits.get(who, 0.0) + waited
        self.grants += 1
        if self.events is not None:
            attrs = {"resource": self.name, "who": who,
                     "waited": round(waited, 6), "depth": len(self._queue)}
            if behind is not None:
                attrs["behind"] = behind
            self.events.emit("resource.grant", **attrs)

    def acquire(self, who: str = "?") -> Waiter:
        """A waiter that resolves (with this resource) once held by ``who``."""
        waiter = Waiter(f"acquire {self.name} for {who}", kind="resource")
        if self._holder is None:
            self._granted(who, 0.0)
            waiter.resolve(self)
        else:
            self._queue.append((who, waiter, self._now(), self._holder))
            if self.events is not None:
                self.events.emit("resource.enqueue", resource=self.name,
                                 who=who, holder=self._holder,
                                 depth=len(self._queue))
            self.timeline.sample("resource/queue_depth", len(self._queue),
                                 resource=self.name)
        return waiter

    def try_acquire(self, who: str = "?") -> bool:
        if self._holder is not None:
            return False
        self._granted(who, 0.0)
        return True

    def release(self) -> None:
        if self._holder is None:
            raise SchedulerError(f"resource {self.name!r} not held")
        self._holder = None
        self.held_seconds += self._now() - self._acquired_at
        if self._queue:
            who, waiter, enqueued_at, behind = self._queue.popleft()
            self._granted(who, self._now() - enqueued_at, behind=behind)
            self.timeline.sample("resource/queue_depth", len(self._queue),
                                 resource=self.name)
            waiter.resolve(self)


class Session:
    """Handle for one spawned generator.

    Alongside control state the handle carries the scheduler's
    *time ledger* for this session: :attr:`working_s` is virtual time
    spent runnable (charges plus any clock advance the generator makes
    inline), :attr:`blocked` maps a wait kind (``"resource"``,
    ``"flow"``, ``"wait"``) to the total seconds suspended on waiters of
    that kind.  ``started_at``/``finished_at`` bound the session's wall
    interval; the ledger covers exactly the session's *own* share of it
    (``working_s + sum(blocked.values())``) — time other sessions
    consumed nested inside this one's resumes (an inline resource
    hand-off, a re-entrant clock advance) is excluded, so the
    wait-profile decomposition sums to the session's true wall time.
    """

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    def __init__(self, name: str, gen: Generator, seq: int) -> None:
        self.name = name
        self.seq = seq
        self.state = Session.PENDING
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._gen = gen
        self.working_s = 0.0
        self.blocked: Dict[str, float] = {}
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.state in (Session.DONE, Session.FAILED)

    @property
    def blocked_s(self) -> float:
        return sum(self.blocked.values())


class Scheduler:
    """Drives cooperative sessions on a shared :class:`SimClock`.

    An optional :class:`Timeline` receives a ``scheduler/sessions_in_flight``
    sample on every start/finish edge.  The per-session ledger (see
    :class:`Session`) is maintained unconditionally — it is plain float
    accounting on values the scheduler already reads, never advances the
    clock and never draws RNG, so it cannot perturb a simulation.
    """

    def __init__(self, clock: SimClock,
                 timeline: Optional[Timeline] = None) -> None:
        self.clock = clock
        self.timeline = timeline if timeline is not None \
            else Timeline(enabled=False)
        self.sessions: List[Session] = []
        self._seq = itertools.count()
        self._live = 0
        self._in_flight = 0
        #: Monotonic total of virtual seconds consumed by *synchronously
        #: nested* steps — another session resumed inline from this
        #: session's own frame (a resource release handing off to its
        #: next waiter).  A send bracket subtracts the growth it
        #: observes: that time belongs to the resumed session's ledger.
        #: Steps reached through a timer callback (a re-entrant clock
        #: advance firing a due timer) are *concurrent* in virtual time
        #: and are not subtracted — both sessions legitimately claim
        #: the same interval.
        self._nested_time = 0.0
        #: Dispatch tokens of the active send brackets, innermost last.
        #: A child step whose entry token matches the top entry was
        #: reached without any timer firing in between — synchronous.
        self._send_stack: List[int] = []

    def spawn(self, gen: Generator, name: Optional[str] = None,
              at: Optional[float] = None) -> Session:
        """Register ``gen`` to start at virtual time ``at`` (default now)."""
        session = Session(name or f"session-{len(self.sessions)}",
                          gen, next(self._seq))
        self.sessions.append(session)
        self._live += 1
        start = self.clock.now if at is None else float(at)
        if start < self.clock.now:
            raise SchedulerError(
                f"session {session.name!r} starts at {start} in the past "
                f"(now {self.clock.now})")
        self.clock.call_at(start, lambda: self._step(session, None, None))
        return session

    def run(self) -> None:
        """Advance the clock until every spawned session has finished."""
        while self._live:
            deadline = self.clock.next_deadline()
            if deadline is None:
                stuck = [s.name for s in self.sessions if not s.finished]
                raise SchedulerError(
                    f"deadlock: no timers pending but sessions still "
                    f"waiting: {stuck}")
            self.clock.advance_to(deadline)

    # -- session stepping --------------------------------------------

    def _finish(self, session: Session, state: str, *,
                result: Any = None,
                error: Optional[BaseException] = None) -> None:
        session.state = state
        session.result = result
        session.error = error
        session.finished_at = self.clock.now
        self._live -= 1
        self._in_flight -= 1
        self.timeline.sample("scheduler/sessions_in_flight",
                             self._in_flight)

    def _step(self, session: Session, value: Any,
              error: Optional[BaseException]) -> None:
        """Resume ``session`` with ``value`` (or throw ``error`` into it).

        Loops over immediately-ready yields (already-resolved waiters)
        so an uncontended acquire never recurses or suspends.

        Ledger: every send/throw is bracketed by clock reads, so any
        virtual time the generator body consumes inline lands in
        :attr:`Session.working_s`; charge seconds are credited when the
        charge is scheduled; suspension intervals are measured by the
        resume callback and land in :attr:`Session.blocked` under the
        waiter's kind.  A send can run *other* sessions' steps nested
        inside it: a resource release resumes its next waiter inline
        (synchronous — that time belongs to the resumed session's
        ledger and is subtracted from this bracket), while a re-entrant
        ``clock.advance`` fires due timers (concurrent in virtual time —
        both sessions keep the interval).
        """
        entered_at = self.clock.now
        outer_nested = self._nested_time
        synchronous = bool(self._send_stack) and \
            self.clock.dispatch_token == self._send_stack[-1]
        try:
            self._step_inner(session, value, error)
        finally:
            # A synchronous hand-off reports its full elapsed time to
            # the enclosing bracket (absorbing, not double-counting,
            # whatever its own nested children reported).  A step that
            # arrived through a timer callback runs concurrently in
            # virtual time and reports nothing.
            self._nested_time = outer_nested + (
                self.clock.now - entered_at if synchronous else 0.0)

    def _step_inner(self, session: Session, value: Any,
                    error: Optional[BaseException]) -> None:
        if session.started_at is None:
            session.started_at = self.clock.now
            self._in_flight += 1
            self.timeline.sample("scheduler/sessions_in_flight",
                                 self._in_flight)
        session.state = Session.RUNNING
        while True:
            resumed_at = self.clock.now
            nested_before = self._nested_time
            self._send_stack.append(self.clock.dispatch_token)
            try:
                if error is not None:
                    err, error = error, None
                    op = session._gen.throw(err)
                else:
                    op = session._gen.send(value)
            except StopIteration as stop:
                self._credit_work(session, resumed_at, nested_before)
                self._finish(session, Session.DONE, result=stop.value)
                return
            except BaseException as exc:  # session died with its error
                self._credit_work(session, resumed_at, nested_before)
                self._finish(session, Session.FAILED, error=exc)
                return
            finally:
                self._send_stack.pop()
            self._credit_work(session, resumed_at, nested_before)
            value = None
            if isinstance(op, (int, float)):
                op = Charge(float(op))
            if isinstance(op, Charge):
                session.state = Session.PENDING
                session.working_s += op.seconds
                self.clock.call_after(
                    op.seconds, lambda: self._step(session, None, None))
                return
            if not isinstance(op, Waiter):
                submit = getattr(op, "submit", None)
                if submit is None:
                    self._finish(session, Session.FAILED,
                                 error=SchedulerError(
                                     f"session {session.name!r} "
                                     f"yielded {op!r}"))
                    session._gen.close()
                    return
                op = submit(self.clock)
            if op.done and op.error is None:
                value = op._value
                continue
            if op.done:
                error = op.error
                continue
            session.state = Session.PENDING
            waiter = op

            def _resume(w: Waiter, session: Session = session,
                        since: float = self.clock.now,
                        kind: str = waiter.kind) -> None:
                session.blocked[kind] = (session.blocked.get(kind, 0.0)
                                         + (self.clock.now - since))
                self._step(session, w._value, w._error)

            waiter.add_done(_resume)
            return

    def _credit_work(self, session: Session, resumed_at: float,
                     nested_before: float) -> None:
        """Credit one send bracket to ``session.working_s``, excluding
        virtual time consumed by other sessions' steps nested inside."""
        elapsed = self.clock.now - resumed_at
        foreign = self._nested_time - nested_before
        session.working_s += elapsed - foreign
