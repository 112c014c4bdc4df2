"""Host-time attribution for the traced run: a frame ledger plus patching.

The benchmark times the simulator's layers from outside: it replaces
public functions of the layer modules with wrappers that open a *frame*
on a :class:`Ledger` for the duration of the call.  A frame's self time
is its duration minus the durations of the wrapped frames nested
directly inside it, so the self times of one measured iteration add up
to the iteration's duration exactly (the root frame takes what no layer
claimed).

Generator entry points (``Stage.steps``, scheduler sessions) return a
generator whose body runs later, one resume at a time, from whichever
frame resumes it.  :func:`charged_per_resume` wraps such a generator so
that every resume is a frame of its own layer, nested inside the frame
that resumed it.

Nothing here imports the simulator; ``targets.py`` says what to wrap.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class _Frame:
    __slots__ = ("layer", "timer", "start", "child")

    def __init__(self, layer: str, timer: Optional[str], start: float) -> None:
        self.layer = layer
        self.timer = timer
        self.start = start
        self.child = 0.0


class Ledger:
    """Self time per layer, inclusive time per timer, and counters.

    ``self_s[layer]`` sums, over the layer's frames, each frame's
    duration minus the time of frames nested directly inside it.
    ``inclusive_s[timer]`` sums the durations of a timer's outermost
    frames only, so a re-entrant call (a timer nested in itself) is not
    counted twice.  ``counts`` and ``extra`` are plain tallies the
    wrappers and hooks bump.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self._stack: List[_Frame] = []
        self._timer_depth: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, Any] = defaultdict(float)
        self.instances: Dict[str, List[Any]] = defaultdict(list)

    @property
    def depth(self) -> int:
        return len(self._stack)

    def enter(self, layer: str, timer: Optional[str] = None) -> _Frame:
        if timer is not None:
            self._timer_depth[timer] += 1
        frame = _Frame(layer, timer, self.clock())
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame`` (the innermost open one); returns its duration."""
        elapsed = self.clock() - frame.start
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"ledger frames closed out of order: "
                               f"{frame.layer!r} inside {top.layer!r}")
        self.self_s[frame.layer] += elapsed - frame.child
        if self._stack:
            self._stack[-1].child += elapsed
        if frame.timer is not None:
            self._timer_depth[frame.timer] -= 1
            if self._timer_depth[frame.timer] == 0:
                self.inclusive_s[frame.timer] += elapsed
        return elapsed

    def measure(self, layer: str, fn: Callable[..., Any], *args: Any,
                **kwargs: Any) -> Tuple[Any, float]:
        """Run ``fn`` as a root frame of ``layer``; (result, duration)."""
        if self._stack:
            raise RuntimeError("measure() opens a root frame; the ledger "
                               "still has open frames")
        frame = self.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self.exit(frame)
        return result, elapsed


def charged_per_resume(ledger: Ledger, layer: str, gen: Iterator[Any],
                       timer: Optional[str] = None):
    """Proxy ``gen`` so each resume is a ``layer`` frame on ``ledger``.

    Values sent in, exceptions thrown in, ``close()`` and the return
    value all pass through unchanged, so the proxy can stand in for the
    generator under ``yield from`` or a scheduler's ``send``/``throw``.
    """
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        frame = ledger.enter(layer, timer)
        try:
            if error is None:
                op = gen.send(value)
            else:
                op = gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            ledger.exit(frame)
        error = None
        try:
            value = yield op
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # forwarded into gen, never lost
            value, error = None, thrown


Hook = Callable[[Ledger, tuple, dict, Any], None]


def wrap_call(ledger: Ledger, layer: Optional[str], fn: Callable[..., Any], *,
              timer: Optional[str] = None, count: Optional[str] = None,
              hook: Optional[Hook] = None, gen: bool = False,
              gen_arg: Optional[int] = None) -> Callable[..., Any]:
    """A wrapper charging calls of ``fn`` to ``layer``.

    ``count`` names a counter bumped per call; ``hook(ledger, args,
    kwargs, result)`` runs inside the frame after the call returns.
    ``layer=None`` opens no frame: the call only counts (and hooks), and
    its time stays with the enclosing frame.
    ``gen=True`` charges the generator ``fn`` returns per resume;
    ``gen_arg=i`` does the same for the generator passed as positional
    argument ``i`` (a scheduler's ``spawn``).
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if count is not None:
            ledger.counts[count] += 1
        if gen_arg is not None:
            args = (args[:gen_arg]
                    + (charged_per_resume(ledger, layer, args[gen_arg]),)
                    + args[gen_arg + 1:])
        if layer is None:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(ledger, args, kwargs, result)
            return result
        frame = ledger.enter(layer, timer)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(ledger, args, kwargs, result)
        finally:
            ledger.exit(frame)
        if gen:
            return charged_per_resume(ledger, layer, result, timer)
        return result

    return wrapper


class Patcher:
    """Installs wrappers over class attributes and module functions, and
    puts every original back.

    A module-level function is replaced in every loaded module of the
    package that holds a reference to it (``from x import f`` copies the
    reference), so callers see the wrapper whichever name they use.
    """

    def __init__(self, package: str) -> None:
        self.package = package
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap_method(self, cls: type, name: str,
                    make: Callable[[Callable[..., Any]], Callable[..., Any]]
                    ) -> None:
        raw = cls.__dict__.get(name)
        if raw is None:
            raise AttributeError(f"{cls.__qualname__} defines no {name!r}")
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        elif isinstance(raw, types.FunctionType):
            replacement = make(raw)
        else:
            raise TypeError(f"{cls.__qualname__}.{name} is not a function")
        self._undo.append((cls, name, raw))
        setattr(cls, name, replacement)

    def wrap_function(self, fn: Callable[..., Any],
                      make: Callable[[Callable[..., Any]], Callable[..., Any]]
                      ) -> int:
        """Replace ``fn`` everywhere in the package; returns the number
        of module attributes replaced."""
        replacement = make(fn)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == self.package
                                      or module_name.startswith(
                                          self.package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, replacement)
                    replaced += 1
        if not replaced:
            raise LookupError(f"{fn.__qualname__} not found in any "
                              f"{self.package} module")
        return replaced

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
