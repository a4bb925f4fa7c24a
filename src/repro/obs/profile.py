"""Run profiles: where did the simulated communication time go?

:class:`FlightRecorder` is a passive executor sink that keeps every
finished :class:`~repro.simulator.executor.ExecutionReport` (with the
simulated-clock offset it ran at).  :class:`RunProfile` then digests a
recorder into the three views the paper's figures are drawn from:

* **per-stage attribution** — how long each pipeline stage ran, how many
  flows and bytes it moved, and which physical connection bottlenecked it;
* **per-connection attribution** — busy time (union of flow intervals),
  utilization against the run horizon, and a contention factor (flow
  seconds per busy second — above 1.0 means fair-sharing was splitting
  the wire);
* **the critical path** — the dependency chain of flows that bounds the
  slowest collective, stage by stage, named end to end.

Everything is computed post hoc from finished reports, so arming a
recorder never perturbs simulated timings, and every number is a pure
function of the run: profiles serialise byte-identically per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "FlightRecorder",
    "RecordedRun",
    "ConnectionProfile",
    "StageProfile",
    "CriticalHop",
    "RunProfile",
    "critical_path",
]


@dataclass(frozen=True)
class RecordedRun:
    """One executed collective: label, clock offset and its report."""

    label: str
    base: float
    report: object  # duck-typed ExecutionReport

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe run header (timings only, not the flows)."""
        return {
            "label": self.label,
            "base_seconds": self.base,
            "total_seconds": self.report.total_time,
            "flows": len(getattr(self.report, "flows", ()) or ()),
            "stages": len(getattr(self.report, "stage_finish", {}) or {}),
        }


class FlightRecorder:
    """Accumulates executed collectives for later profiling.

    The recorder keeps its own simulated clock: when the executor has no
    tracer to read an absolute time from, each run is appended at the
    finish of the previous one, which reproduces the phase-sequential
    timeline the session tracer would have produced.
    """

    def __init__(self) -> None:
        """Create an empty recorder at simulated time zero."""
        self.runs: List[RecordedRun] = []
        self._clock = 0.0

    @property
    def clock(self) -> float:
        """Simulated finish time of the last recorded collective."""
        return self._clock

    def add(self, label: str, base: float, report) -> RecordedRun:
        """Append one finished report at absolute offset ``base``."""
        run = RecordedRun(label=str(label), base=float(base), report=report)
        self.runs.append(run)
        self._clock = max(self._clock, run.base + report.total_time)
        return run

    def clear(self) -> None:
        """Drop all recorded runs and reset the clock."""
        self.runs.clear()
        self._clock = 0.0

    def __len__(self) -> int:
        """Number of recorded collectives."""
        return len(self.runs)

    def __iter__(self) -> Iterator[RecordedRun]:
        """Iterate the recorded collectives in execution order."""
        return iter(self.runs)


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
def _flow_order_key(result) -> Tuple:
    """Deterministic ordering for flow results (ties break on the tag)."""
    tag = result.flow.tag
    return (
        result.finish_time,
        result.start_time,
        tag.stage,
        tag.src,
        tag.dst,
    )


def critical_path(report) -> List:
    """The chain of flows bounding each stage of one executed report.

    Walks backwards from the last-finishing flow: the binding
    predecessor of a stage-``k`` flow is the latest-finishing
    earlier-stage flow sharing one of its endpoints — exactly the
    dependency the decentralized protocol waits on before releasing the
    transfer.  Ties break deterministically on ``(finish, start, stage,
    src, dst)``.  Returns :class:`~repro.simulator.network.FlowResult`
    objects in stage order; empty for cost-fidelity reports (no flows).
    """
    flows = [
        r for r in getattr(report, "flows", ()) or ()
        if r.flow.tag is not None and hasattr(r.flow.tag, "src")
    ]
    if not flows:
        return []
    current = max(flows, key=_flow_order_key)
    chain = [current]
    while True:
        tag = current.flow.tag
        endpoints = {tag.src, tag.dst}
        predecessors = [
            r for r in flows
            if r.flow.tag.stage < tag.stage
            and (r.flow.tag.src in endpoints or r.flow.tag.dst in endpoints)
        ]
        if not predecessors:
            break
        current = max(predecessors, key=_flow_order_key)
        chain.append(current)
    chain.reverse()
    return chain


# ----------------------------------------------------------------------
# Attribution rows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConnectionProfile:
    """Aggregate use of one physical connection across the whole run."""

    name: str
    kind: str
    busy_seconds: float
    flow_seconds: float
    payload_bytes: float
    flows: int
    utilization: float
    contention: float

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe view of this connection row."""
        return {
            "name": self.name,
            "kind": self.kind,
            "busy_seconds": self.busy_seconds,
            "flow_seconds": self.flow_seconds,
            "payload_bytes": self.payload_bytes,
            "flows": self.flows,
            "utilization": self.utilization,
            "contention": self.contention,
        }


@dataclass(frozen=True)
class StageProfile:
    """Aggregate time/traffic of one pipeline stage across the run."""

    stage: int
    seconds: float
    flows: int
    payload_bytes: float
    bottleneck: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe view of this stage row."""
        return {
            "stage": self.stage,
            "seconds": self.seconds,
            "flows": self.flows,
            "payload_bytes": self.payload_bytes,
            "bottleneck": self.bottleneck,
        }


@dataclass(frozen=True)
class CriticalHop:
    """One flow on the critical path, named end to end."""

    stage: int
    src: int
    dst: int
    connection: str
    start: float
    finish: float
    payload_bytes: float

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe view of this hop."""
        return {
            "stage": self.stage,
            "src": self.src,
            "dst": self.dst,
            "connection": self.connection,
            "start_seconds": self.start,
            "finish_seconds": self.finish,
            "payload_bytes": self.payload_bytes,
        }


def _union_seconds(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of (start, finish) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    total += cur_end - cur_start
    return total


# ----------------------------------------------------------------------
# The profile
# ----------------------------------------------------------------------
class RunProfile:
    """Digested attribution of one run's recorded collectives."""

    def __init__(
        self,
        collectives: List[Dict[str, object]],
        stages: List[StageProfile],
        connections: List[ConnectionProfile],
        critical: List[CriticalHop],
        critical_label: str,
        total_seconds: float,
        horizon_seconds: float,
        audit: Optional[Dict[str, object]] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        """Assemble a profile from already-computed attribution rows."""
        self.collectives = collectives
        self.stages = stages
        self.connections = connections
        self.critical = critical
        self.critical_label = critical_label
        self.total_seconds = total_seconds
        self.horizon_seconds = horizon_seconds
        self.audit = audit
        self.meta = dict(meta or {})

    # ------------------------------------------------------------------
    @classmethod
    def from_recorder(
        cls,
        recorder: FlightRecorder,
        audit=None,
        meta: Optional[Dict[str, object]] = None,
    ) -> "RunProfile":
        """Digest a flight recorder (and optionally an auditor).

        ``audit`` is duck-typed on ``as_dict()`` — pass the
        :class:`~repro.obs.audit.CostModelAuditor` that watched the same
        executor and the profile will embed its predicted-vs-actual
        table.
        """
        stage_seconds: Dict[int, float] = {}
        stage_flows: Dict[int, int] = {}
        stage_bytes: Dict[int, float] = {}
        stage_conn_bytes: Dict[int, Dict[str, float]] = {}
        conn_intervals: Dict[str, List[Tuple[float, float]]] = {}
        conn_flow_seconds: Dict[str, float] = {}
        conn_bytes: Dict[str, float] = {}
        conn_flows: Dict[str, int] = {}
        conn_kind: Dict[str, str] = {}
        horizon = 0.0
        total = 0.0
        slowest: Optional[RecordedRun] = None

        for run in recorder:
            report = run.report
            total += report.total_time
            horizon = max(horizon, run.base + report.total_time)
            if slowest is None or report.total_time > slowest.report.total_time:
                slowest = run
            flows = getattr(report, "flows", ()) or ()
            if flows:
                stage_span: Dict[int, Tuple[float, float]] = {}
                for result in flows:
                    tag = result.flow.tag
                    size = result.flow.size_bytes
                    start = run.base + result.start_time
                    finish = run.base + result.finish_time
                    for conn in result.flow.path:
                        conn_intervals.setdefault(conn.name, []).append(
                            (start, finish)
                        )
                        conn_flow_seconds[conn.name] = (
                            conn_flow_seconds.get(conn.name, 0.0)
                            + (finish - start)
                        )
                        conn_bytes[conn.name] = (
                            conn_bytes.get(conn.name, 0.0) + size
                        )
                        conn_flows[conn.name] = conn_flows.get(conn.name, 0) + 1
                        conn_kind[conn.name] = conn.kind.value
                    if tag is None or not hasattr(tag, "stage"):
                        continue
                    k = tag.stage
                    stage_flows[k] = stage_flows.get(k, 0) + 1
                    stage_bytes[k] = stage_bytes.get(k, 0.0) + size
                    row = stage_conn_bytes.setdefault(k, {})
                    for conn in result.flow.path:
                        row[conn.name] = row.get(conn.name, 0.0) + size
                    lo, hi = stage_span.get(
                        k, (result.start_time, result.finish_time)
                    )
                    stage_span[k] = (
                        min(lo, result.start_time),
                        max(hi, result.finish_time),
                    )
                for k, (lo, hi) in stage_span.items():
                    stage_seconds[k] = stage_seconds.get(k, 0.0) + (hi - lo)
            else:
                # Cost-fidelity report: stage_finish deltas only.
                previous = 0.0
                for k in sorted(report.stage_finish):
                    stage_seconds[k] = stage_seconds.get(k, 0.0) + (
                        report.stage_finish[k] - previous
                    )
                    previous = report.stage_finish[k]

        stages = []
        for k in sorted(stage_seconds):
            row = stage_conn_bytes.get(k, {})
            bottleneck = ""
            if row:
                bottleneck = max(row.items(), key=lambda kv: (kv[1], kv[0]))[0]
            stages.append(StageProfile(
                stage=k,
                seconds=stage_seconds[k],
                flows=stage_flows.get(k, 0),
                payload_bytes=stage_bytes.get(k, 0.0),
                bottleneck=bottleneck,
            ))

        connections = []
        for name in sorted(conn_intervals):
            busy = _union_seconds(conn_intervals[name])
            flow_seconds = conn_flow_seconds[name]
            connections.append(ConnectionProfile(
                name=name,
                kind=conn_kind[name],
                busy_seconds=busy,
                flow_seconds=flow_seconds,
                payload_bytes=conn_bytes[name],
                flows=conn_flows[name],
                utilization=busy / horizon if horizon > 0 else 0.0,
                contention=flow_seconds / busy if busy > 0 else 0.0,
            ))

        critical: List[CriticalHop] = []
        critical_label = ""
        if slowest is not None:
            critical_label = slowest.label
            for result in critical_path(slowest.report):
                tag = result.flow.tag
                critical.append(CriticalHop(
                    stage=tag.stage,
                    src=tag.src,
                    dst=tag.dst,
                    connection="+".join(c.name for c in result.flow.path),
                    start=slowest.base + result.start_time,
                    finish=slowest.base + result.finish_time,
                    payload_bytes=result.flow.size_bytes,
                ))

        return cls(
            collectives=[run.as_dict() for run in recorder],
            stages=stages,
            connections=connections,
            critical=critical,
            critical_label=critical_label,
            total_seconds=total,
            horizon_seconds=horizon,
            audit=audit.as_dict() if audit is not None else None,
            meta=meta,
        )

    # ------------------------------------------------------------------
    def hottest_connections(self, n: int = 5) -> List[ConnectionProfile]:
        """Top-``n`` connections by busy time (ties break on the name)."""
        ranked = sorted(
            self.connections, key=lambda c: (-c.busy_seconds, c.name)
        )
        return ranked[:n]

    def critical_seconds(self) -> float:
        """Total duration covered by the critical-path hops."""
        if not self.critical:
            return 0.0
        return self.critical[-1].finish - self.critical[0].start

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe document; serialising it is byte-stable per seed."""
        return {
            "kind": "dgcl-profile",
            "format": 1,
            "meta": self.meta,
            "total_seconds": self.total_seconds,
            "horizon_seconds": self.horizon_seconds,
            "collectives": self.collectives,
            "stages": [s.as_dict() for s in self.stages],
            "connections": [c.as_dict() for c in self.connections],
            "critical_path": {
                "label": self.critical_label,
                "seconds": self.critical_seconds(),
                "hops": [h.as_dict() for h in self.critical],
            },
            "audit": self.audit,
        }

    def summary(self, top: int = 5) -> str:
        """Human-readable profile (delegates to the shared renderer)."""
        from repro.obs.report import render_profile

        return render_profile(self.as_dict(), top=top)

    def __repr__(self) -> str:
        """Debug summary with collective count and total time."""
        return (
            f"RunProfile(collectives={len(self.collectives)}, "
            f"total={self.total_seconds:.6g}s, "
            f"connections={len(self.connections)})"
        )
