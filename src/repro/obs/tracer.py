"""Span-based tracing on the simulated clock.

A :class:`Tracer` collects :class:`Span` records — named intervals of
simulated time attached to a *track* (one per device, one per physical
connection, one for the trainer's phase view).  Nothing here reads the
wall clock: every timestamp comes from the discrete-event simulators,
so two runs of the same seed produce byte-identical traces, and an
unarmed run (no tracer attached) executes the exact same events it
always did.

Three recording styles cover the codebase's flows:

* :meth:`Tracer.add_span` — the interval is already known (the network
  simulator returns per-flow start/finish times after the fact);
* :meth:`Tracer.span` — a context manager around synchronous code with
  a clock callable (the trainers' phase spans);
* :meth:`Tracer.begin` / :meth:`Tracer.end` — explicit handles for
  asynchronous flows that start in one coroutine step and finish in
  another (the runtime protocol's flag waits and transfers).

Spans are exported via :mod:`repro.obs.export` (Chrome/Perfetto
``trace_event`` JSON, JSONL event logs).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "device_track", "connection_track",
           "TRAINER_TRACK"]

#: Track naming conventions, used by the exporters to group rows.
DEVICE_TRACK = "device:{0}"
CONNECTION_TRACK = "conn:{0}"
TRAINER_TRACK = "trainer"


@dataclass(frozen=True)
class Span:
    """One named interval of simulated time on one track."""

    name: str
    cat: str     # "comm" | "stage" | "flag" | "compute" | "phase" | "fault"
    track: str   # "device:3", "conn:qpi:m0:0->1", "trainer"
    start: float
    finish: float
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        return self.finish - self.start

    def args_dict(self) -> Dict[str, object]:
        """The span's key/value annotations as a plain dict."""
        return dict(self.args)


def _freeze_args(args: Dict[str, object]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(args.items()))


class Tracer:
    """Deterministic span collector for one run.

    The tracer also carries a *phase clock* (:attr:`now`): callers that
    execute a sequence of simulated collectives, each reported relative
    to its own time zero, advance the clock between calls so their
    spans land back to back on one absolute timeline.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Base simulated time for the next relative recording.
        self.now = 0.0
        self._open: Dict[int, Tuple[str, str, str, float, Tuple]] = {}
        self._next_handle = 0

    # -- recording ------------------------------------------------------
    def add_span(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        finish: float,
        **args: object,
    ) -> Span:
        """Record a completed interval (absolute simulated seconds)."""
        span = Span(name, cat, track, start, finish, _freeze_args(args))
        self.spans.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        cat: str,
        track: str,
        clock: Callable[[], float],
        **args: object,
    ) -> Iterator[None]:
        """Span around synchronous code; ``clock`` reads simulated time."""
        start = clock()
        try:
            yield
        finally:
            self.add_span(name, cat, track, start, clock(), **args)

    def begin(self, name: str, cat: str, track: str, time: float,
              **args: object) -> int:
        """Open an async span; returns a handle for :meth:`end`."""
        handle = self._next_handle
        self._next_handle += 1
        self._open[handle] = (name, cat, track, time, _freeze_args(args))
        return handle

    def end(self, handle: int, time: float, **args: object) -> Span:
        """Close an async span opened by :meth:`begin`."""
        name, cat, track, start, frozen = self._open.pop(handle)
        merged = dict(frozen)
        merged.update(args)
        span = Span(name, cat, track, start, time, _freeze_args(merged))
        self.spans.append(span)
        return span

    def advance(self, dt: float) -> None:
        """Advance the phase clock (relative recordings that follow shift)."""
        self.now += dt

    # -- inspection -----------------------------------------------------
    def events(self) -> List[Span]:
        """All spans in deterministic order (start, finish, track, name)."""
        return sorted(
            self.spans, key=lambda s: (s.start, s.finish, s.track, s.name)
        )

    def tracks(self) -> List[str]:
        """Every track that received at least one span, sorted."""
        return sorted({s.track for s in self.spans})

    def duration(self) -> float:
        """Finish time of the last span (0.0 when empty)."""
        return max((s.finish for s in self.spans), default=0.0)

    def by_track(self, track: str) -> List[Span]:
        """Spans on one track, in deterministic event order."""
        return [s for s in self.events() if s.track == track]

    def by_cat(self, cat: str) -> List[Span]:
        """Spans of one category, in deterministic event order."""
        return [s for s in self.events() if s.cat == cat]

    def signature(self) -> Tuple[Tuple[str, str, str, float, float], ...]:
        """Hashable content view (used to assert trace reproducibility)."""
        return tuple(
            (s.name, s.cat, s.track, s.start, s.finish) for s in self.events()
        )

    def clear(self) -> None:
        """Forget every span and reset the phase clock."""
        self.spans.clear()
        self._open.clear()
        self.now = 0.0
        self._next_handle = 0

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(spans={len(self.spans)}, tracks={len(self.tracks())}, "
            f"until={self.duration() * 1e6:.2f}us)"
        )


def device_track(device: int) -> str:
    """Track name for one simulated device."""
    return DEVICE_TRACK.format(device)


def connection_track(name: str) -> str:
    """Track name for one physical connection."""
    return CONNECTION_TRACK.format(name)
