"""One handle on a run's telemetry sinks.

Components take a single ``telemetry=`` value instead of four optional
sink arguments, and a session owns one.  ``Telemetry()`` is disarmed:
it holds no sink, and every recording call below returns at once, so an
unarmed run executes the same simulation it always did.  Armed or not,
recording is post hoc — no call here feeds back into a simulated
timing or a training numeric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.obs.audit import CostModelAuditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import FlightRecorder
from repro.obs.tracer import TRAINER_TRACK, Tracer

__all__ = ["Telemetry"]


@dataclass(frozen=True)
class Telemetry:
    """The :mod:`repro.obs` sinks of one run, each optional.

    * ``tracer`` — spans on the simulated clock, and the phase clock
      (:attr:`now`) that sequential collectives are laid out on;
    * ``metrics`` — counters and histograms;
    * ``auditor`` — the staged cost model's prediction audited against
      each executed collective;
    * ``recorder`` — the flight recorder a
      :class:`~repro.obs.profile.RunProfile` is digested from.
    """

    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    auditor: Optional[CostModelAuditor] = None
    recorder: Optional[FlightRecorder] = None

    @classmethod
    def full(cls, tracer: Optional[Tracer] = None,
             metrics: Optional[MetricsRegistry] = None,
             auditor: Optional[CostModelAuditor] = None,
             recorder: Optional[FlightRecorder] = None) -> "Telemetry":
        """A handle holding all four sinks: those given, fresh ones for
        the rest.  A fresh auditor feeds the handle's metrics."""
        metrics = metrics if metrics is not None else MetricsRegistry()
        if auditor is None:
            auditor = CostModelAuditor(metrics=metrics)
        return cls(
            tracer if tracer is not None else Tracer(),
            metrics,
            auditor,
            recorder if recorder is not None else FlightRecorder(),
        )

    @property
    def armed(self) -> bool:
        """True when any sink is attached.

        Callers check this only to skip work a disarmed handle would
        throw away (pricing a collective, walking a report's flows).
        """
        return (self.tracer is not None or self.metrics is not None
                or self.auditor is not None or self.recorder is not None)

    # -- the phase clock and spans ---------------------------------------
    @property
    def now(self) -> float:
        """The tracer's phase clock (0.0 without a tracer)."""
        return self.tracer.now if self.tracer is not None else 0.0

    def advance(self, dt: float) -> None:
        """Move the phase clock on by ``dt`` simulated seconds."""
        if self.tracer is not None:
            self.tracer.advance(dt)

    def span(self, name: str, cat: str, track: str, start: float,
             finish: float, **args: object) -> None:
        """Record one finished interval (absolute simulated seconds)."""
        if self.tracer is not None:
            self.tracer.add_span(name, cat, track, start, finish, **args)

    def phase(self, name: str, seconds: float, **args: object) -> None:
        """A ``"phase"`` span of ``seconds`` from :attr:`now` on the
        trainer track, then advance the clock past it."""
        if self.tracer is not None:
            t0 = self.tracer.now
            self.tracer.add_span(name, "phase", TRAINER_TRACK, t0,
                                 t0 + seconds, **args)
            self.tracer.advance(seconds)

    # -- metrics ----------------------------------------------------------
    def count(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` to the counter ``name{labels}``."""
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Fold ``value`` into the histogram ``name{labels}``."""
        if self.metrics is not None:
            self.metrics.histogram(name, **labels).observe(value)

    # -- audit and flight recording ---------------------------------------
    def audit(self, tuples: Sequence, report, bytes_per_unit: float,
              label: str, fidelity: str) -> None:
        """Audit one executed collective against the staged cost model."""
        if self.auditor is not None:
            self.auditor.record_tuples(tuples, report, bytes_per_unit,
                                       label=label, fidelity=fidelity)

    def record(self, label: str, report, base: Optional[float] = None) -> None:
        """Keep one finished report for profiling.

        ``base`` is its absolute start; by default the phase clock, or
        without a tracer the end of the previous recorded collective.
        """
        if self.recorder is not None:
            if base is None:
                base = (self.tracer.now if self.tracer is not None
                        else self.recorder.clock)
            self.recorder.add(label, base, report)
