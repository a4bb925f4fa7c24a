"""Telemetry for the DGCL reproduction: tracing, metrics, exporters.

``repro.obs`` is the measurement layer the evaluation chapters lean on:
every span and every metric is driven by the *simulated* clock, so
telemetry is deterministic (same seed, byte-identical trace) and free
when unarmed (a disarmed handle means the hot paths run the exact
code they always did).  No sink lives at module scope: every registry,
tracer, auditor and recorder belongs to the run that created it.

* :class:`~repro.obs.telemetry.Telemetry` — the one handle components
  take (``telemetry=``) and a session owns: the four sinks below, each
  optional; ``Telemetry()`` holds none and records nothing;
* :class:`~repro.obs.tracer.Tracer` — span collection per device,
  per physical connection, per trainer phase;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms with deterministic snapshots and streaming p50/p90/p99
  digests (:mod:`repro.obs.quantile`);
* :mod:`repro.obs.profile` — the flight recorder and
  :class:`~repro.obs.profile.RunProfile` attribution (per stage, per
  connection, critical path);
* :mod:`repro.obs.audit` — the live Fig. 10: staged cost-model
  predictions audited against executed times, stage by stage;
* :mod:`repro.obs.report` — profile documents (JSON, render, diff);
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON,
  JSONL event logs interleaving the fault log, human stats tables;
* :mod:`repro.obs.console` — the leveled stderr logger library modules
  use instead of ``print()`` (``REPRO_LOG`` / ``--verbose``).
"""

from repro.obs import console
from repro.obs.audit import (
    AuditRecord,
    CostModelAuditor,
    DEFAULT_AUDIT_THRESHOLD,
    StageAudit,
)
from repro.obs.export import (
    chrome_trace_json,
    soak_summary_json,
    stats_table,
    to_chrome_trace,
    to_jsonl_events,
    write_chrome_trace,
    write_jsonl,
    write_soak_summary,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    ConnectionProfile,
    CriticalHop,
    FlightRecorder,
    RunProfile,
    StageProfile,
    critical_path,
)
from repro.obs.quantile import QuantileDigest
from repro.obs.report import (
    diff_profiles,
    load_profile,
    profile_json,
    render_diff,
    render_profile,
    write_profile,
)
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import (
    Span,
    Tracer,
    TRAINER_TRACK,
    connection_track,
    device_track,
)

__all__ = [
    "console",
    "Telemetry",
    "Span",
    "Tracer",
    "TRAINER_TRACK",
    "device_track",
    "connection_track",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileDigest",
    "CostModelAuditor",
    "AuditRecord",
    "StageAudit",
    "DEFAULT_AUDIT_THRESHOLD",
    "FlightRecorder",
    "RunProfile",
    "ConnectionProfile",
    "StageProfile",
    "CriticalHop",
    "critical_path",
    "profile_json",
    "write_profile",
    "load_profile",
    "render_profile",
    "diff_profiles",
    "render_diff",
    "to_chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "to_jsonl_events",
    "write_jsonl",
    "stats_table",
    "soak_summary_json",
    "write_soak_summary",
]
