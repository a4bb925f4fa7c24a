"""A small generator-coroutine discrete-event simulator.

Processes are Python generators that ``yield`` wait conditions:

* ``Timeout(dt)`` — resume after ``dt`` simulated seconds;
* ``WaitFlag(flag, value)`` — resume when ``flag`` reaches ``value``;
* ``WaitEvent(event)`` — resume when an :class:`Event` is triggered;
* ``AllOf([...])`` — resume when every sub-condition has resolved;
* ``AnyOf([...])`` — resume when the *first* sub-condition resolves;
  the ``yield`` expression evaluates to the index of the winner, which
  is how the protocol's armed fault hooks tell "flag arrived" from
  "timed out".

The engine is deliberately minimal — the runtime package needs exactly
these five primitives — but fully deterministic: simultaneous events
fire in scheduling order.  Timeouts racing inside an ``AnyOf`` are
cancelled when they lose; a cancelled timer is skipped by the event
loop *without advancing the clock*, so arming a timeout that never
fires costs zero simulated time — the property that lets an armed
protocol run whose faults never fire keep the unarmed timings.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "Event",
    "WaitEvent",
    "Flag",
    "WaitFlag",
    "AllOf",
    "AnyOf",
]


class Timeout:
    """Resume the process after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        self.delay = delay


class Event:
    """A one-shot event processes can wait on."""

    __slots__ = ("triggered", "_waiters", "payload")

    def __init__(self) -> None:
        self.triggered = False
        self.payload: Any = None
        self._waiters: List[Callable[[], None]] = []

    def trigger(self, payload: Any = None) -> None:
        """Fire the event (idempotent); wakes every waiter."""
        if self.triggered:
            return
        self.triggered = True
        self.payload = payload
        waiters, self._waiters = self._waiters, []
        for wake in waiters:
            wake()

    def add_waiter(self, wake: Callable[[], None]) -> None:
        """Register a wake callback (fires immediately if already met)."""
        if self.triggered:
            wake()
        else:
            self._waiters.append(wake)


class WaitEvent:
    """Resume the process when ``event`` triggers."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event


class Flag:
    """An integer cell with waiters — the paper's ready/done flags."""

    __slots__ = ("value", "_waiters", "name")

    def __init__(self, name: str = "", value: int = 0) -> None:
        self.name = name
        self.value = value
        self._waiters: List[tuple] = []  # (target, wake)

    def set(self, value: int) -> None:
        """Store ``value`` and wake waiters whose target is reached."""
        self.value = value
        if not self._waiters:
            return
        ready = [(t, w) for t, w in self._waiters if self.value >= t]
        self._waiters = [(t, w) for t, w in self._waiters if self.value < t]
        for _, wake in ready:
            wake()

    def increment(self) -> None:
        """Add one to the flag value."""
        self.set(self.value + 1)

    def add_waiter(self, target: int, wake: Callable[[], None]) -> None:
        """Register a wake callback (fires immediately if already met)."""
        if self.value >= target:
            wake()
        else:
            self._waiters.append((target, wake))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Flag({self.name!r}, value={self.value})"


class WaitFlag:
    """Resume once ``flag.value >= target`` (monotone flags only)."""

    __slots__ = ("flag", "target")

    def __init__(self, flag: Flag, target: int = 1) -> None:
        self.flag = flag
        self.target = target


class AllOf:
    """Resume when every sub-condition resolves."""

    __slots__ = ("conditions",)

    def __init__(self, conditions: Iterable[Any]) -> None:
        self.conditions = list(conditions)


class AnyOf:
    """Resume when the first sub-condition resolves.

    The ``yield AnyOf([...])`` expression evaluates to the index of the
    winning condition.  Losing :class:`Timeout` timers are cancelled
    and skipped without advancing the clock; losing flag/event waiters
    become no-ops.
    """

    __slots__ = ("conditions",)

    def __init__(self, conditions: Iterable[Any]) -> None:
        self.conditions = list(conditions)
        if not self.conditions:
            raise ValueError("AnyOf needs at least one condition")


class _CancellableTimer:
    """A scheduled callback that can be disarmed before it fires."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __call__(self) -> None:
        if not self.cancelled:
            self.fn()


class Process:
    """One coroutine driven by the simulator."""

    __slots__ = ("sim", "generator", "name", "finished", "done_event")

    def __init__(self, sim: "Simulator", generator: Generator, name: str) -> None:
        self.sim = sim
        self.generator = generator
        self.name = name
        self.finished = False
        self.done_event = Event()

    def _advance(self, value: Any = None) -> None:
        try:
            condition = self.generator.send(value)
        except StopIteration:
            self.finished = True
            self.done_event.trigger()
            return
        self._wait_on(condition)

    def _wait_on(self, condition: Any) -> None:
        if isinstance(condition, Timeout):
            self.sim.schedule(condition.delay, self._advance)
        elif isinstance(condition, WaitFlag):
            condition.flag.add_waiter(
                condition.target, lambda: self.sim.schedule(0.0, self._advance)
            )
        elif isinstance(condition, WaitEvent):
            condition.event.add_waiter(
                lambda: self.sim.schedule(0.0, self._advance)
            )
        elif isinstance(condition, AllOf):
            remaining = len(condition.conditions)
            if remaining == 0:
                self.sim.schedule(0.0, self._advance)
                return
            state = {"left": remaining}

            def one_done() -> None:
                state["left"] -= 1
                if state["left"] == 0:
                    self.sim.schedule(0.0, self._advance)

            for sub in condition.conditions:
                if isinstance(sub, WaitFlag):
                    sub.flag.add_waiter(sub.target, one_done)
                elif isinstance(sub, WaitEvent):
                    sub.event.add_waiter(one_done)
                elif isinstance(sub, Timeout):
                    self.sim.schedule(sub.delay, one_done)
                else:
                    raise TypeError(f"cannot wait on {sub!r} inside AllOf")
        elif isinstance(condition, AnyOf):
            state = {"fired": False}
            timers: List[_CancellableTimer] = []

            def fire(index: int) -> None:
                if state["fired"]:
                    return
                state["fired"] = True
                for timer in timers:
                    timer.cancel()
                self.sim.schedule(0.0, lambda: self._advance(index))

            for i, sub in enumerate(condition.conditions):
                if isinstance(sub, WaitFlag):
                    sub.flag.add_waiter(sub.target, lambda i=i: fire(i))
                elif isinstance(sub, WaitEvent):
                    sub.event.add_waiter(lambda i=i: fire(i))
                elif isinstance(sub, Timeout):
                    timer = _CancellableTimer(lambda i=i: fire(i))
                    timers.append(timer)
                    self.sim.schedule(sub.delay, timer)
                else:
                    raise TypeError(f"cannot wait on {sub!r} inside AnyOf")
        else:
            raise TypeError(f"process {self.name!r} yielded {condition!r}")


class Simulator:
    """Deterministic event queue with a simulated clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[tuple] = []
        self._seq = itertools.count()
        self._processes: List[Process] = []

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"cannot schedule into the past, got {delay!r}")
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), callback))

    def spawn(self, generator: Generator, name: str = "proc") -> Process:
        """Start a new coroutine process at the current time."""
        process = Process(self, generator, name)
        self._processes.append(process)
        self.schedule(0.0, process._advance)
        return process

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Drain the event queue; returns the final clock value."""
        events = 0
        while self._queue:
            time, _, callback = self._queue[0]
            if isinstance(callback, _CancellableTimer) and callback.cancelled:
                # A timer that lost an AnyOf race: drop it WITHOUT
                # advancing the clock, so arming timeouts is free.
                heapq.heappop(self._queue)
                continue
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            if time < self.now - 1e-15:
                raise RuntimeError("event queue went backwards")
            self.now = max(self.now, time)
            callback()
            events += 1
            if events > max_events:
                raise RuntimeError(
                    "event budget exhausted — livelocked protocol?"
                )
        stuck = [p.name for p in self._processes if not p.finished]
        if not self._queue and stuck and until is None:
            raise RuntimeError(f"deadlock: processes never finished: {stuck}")
        return self.now

    def shutdown(self) -> List[str]:
        """Tear down an aborted run: close every unfinished coroutine.

        When an armed protocol run raises (``UnrecoverableFaultError``,
        ``DeviceLostError``), sender/receiver/heartbeat/monitor
        coroutines may still be suspended mid-``yield``.  Closing their
        generators releases everything their frames pin (buffers, the
        network, the injector) so nothing leaks across the many runs of
        a chaos soak.  Returns the names of the processes that were
        still live, for the cleanup regression test.
        """
        stuck = []
        for process in self._processes:
            if not process.finished:
                stuck.append(process.name)
                try:
                    process.generator.close()
                except RuntimeError:  # pragma: no cover - a coroutine
                    pass  # refusing GeneratorExit must not mask the abort
                process.finished = True
        self._queue.clear()
        return stuck
