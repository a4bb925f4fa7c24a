"""The serving control plane: ``ServeSession`` and its run reports.

One :class:`ServeSession` owns a *static* serving workload — graph,
topology, tenants, planned forward-only communication — and ``run()``
executes one fully deterministic open-loop campaign on the simulated
clock.  The request path is:

1. **admission** at arrival time: per-tenant token bucket
   (``rate-limit``), bounded queue (``queue-full``) and the ladder's
   tenant shed (``tenant-shed``) — every rejection is a typed
   :class:`~repro.errors.AdmissionRejected` outcome, never a drop;
2. **expiry**: queued requests past their hard deadline terminate with
   a typed :class:`~repro.errors.DeadlineExpired` outcome;
3. **scheduling**: weighted-fair queuing picks the next tenant, the
   coalescing batcher merges compatible requests while the head's SLO
   headroom allows;
4. **dispatch**: the seeds' in-edges from other devices, less rows
   served stale or lost to crashed owners, are planned by a per-run
   :class:`~repro.sampling.planner.BatchPlanner` (memo hit, else cold
   SPST) and priced forward-only; the full deployment's plan is resolved
   through the shared :class:`~repro.autotune.cache.PlanCache` if given.
   Faults from :mod:`repro.faults` drive the retry → repair → degrade
   ladder per batch, with exponential backoff on the simulated clock;
5. **feedback**: windowed per-tenant p99 (via
   :class:`~repro.obs.quantile.QuantileDigest`, merged into the
   tenant's running digest with :meth:`QuantileDigest.merge`) drives
   the :class:`~repro.serve.degrade.DegradationLadder` and, when
   configured, a scale-out of the device set after sustained SLO
   violation.

Every request reaches exactly one terminal outcome from
:data:`OUTCOMES`; :func:`repro.chaos.oracles.check_serve_accounting`
holds runs to that invariant.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autotune.cache import PlanCache
from repro.autotune.fingerprint import cache_key
from repro.autotune.resolver import PlanResolver
from repro.core.plan import CommPlan
from repro.core.relation import CommRelation
from repro.core.spst import SPSTPlanner
from repro.errors import (
    AdmissionRejected,
    DeadlineExpired,
    ElasticSpecError,
    ServeSpecError,
    UnrecoverableFaultError,
)
from repro.faults.injector import FaultInjector
from repro.faults.log import FaultLog
from repro.faults.policy import DefaultPolicy
from repro.faults.repair import repair_plan
from repro.graph.csr import Graph
from repro.obs.quantile import QuantileDigest
from repro.obs.telemetry import Telemetry
from repro.partition import partition
from repro.runtime.protocol import DEFAULT_CONTROL_LATENCY
from repro.sampling.planner import BatchPlanner
from repro.serve.admission import BoundedQueue, FairPicker, TokenBucket
from repro.serve.arrivals import (
    ArrivalSpec,
    InferenceRequest,
    SeedSampler,
    arrival_times,
)
from repro.serve.batcher import Batch, CoalescingBatcher
from repro.serve.degrade import DegradationLadder, LEVELS, ReplicaStore
from repro.serve.forward import (
    ForwardOnlyPlan,
    cross_in_edges,
    forward_only,
    plan_connections,
    restrict_forward,
)
from repro.simulator.executor import PlanExecutor
from repro.topology.topology import Topology

__all__ = [
    "TenantSpec",
    "AutoscaleSpec",
    "ServeConfig",
    "RequestRecord",
    "ServeReport",
    "ServeSession",
    "OUTCOMES",
]

#: Every terminal request outcome.  ``completed`` is the only success;
#: the rest are the typed refusals/aborts ("no silent drops" means the
#: per-tenant outcome counts always sum to the submitted count).
OUTCOMES = (
    "completed",
    "rejected-rate",
    "rejected-queue",
    "rejected-shed",
    "expired",
    "fault-aborted",
)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: arrival process, SLO and admission knobs."""

    name: str
    #: Soft latency target (seconds): the ladder's p99 reference.
    slo: float
    #: Arrival process over the horizon.
    arrival: ArrivalSpec = ArrivalSpec()
    #: Hard queue timeout (seconds); ``None`` means ``4 * slo``.
    timeout: Optional[float] = None
    #: WFQ share.
    weight: float = 1.0
    #: Shedding order under ladder rung 3 (lowest priority goes first).
    priority: int = 0
    #: Mean seed vertices per request.
    seeds_per_request: int = 4
    #: Fraction of requests drawn from the hot vertex set.
    hot_fraction: float = 0.0
    #: Bounded-queue capacity (backpressure depth).
    queue_capacity: int = 32
    #: Token-bucket sustained rate; ``None`` means ``1.5 * arrival.rate``.
    bucket_rate: Optional[float] = None
    #: Token-bucket burst size.
    bucket_burst: float = 8.0

    def __post_init__(self) -> None:
        """Validate before any simulated time elapses."""
        if not self.name:
            raise ServeSpecError("tenant name must be non-empty")
        if self.slo <= 0:
            raise ServeSpecError(f"tenant {self.name!r}: slo must be positive")
        if self.timeout is not None and self.timeout < self.slo:
            raise ServeSpecError(
                f"tenant {self.name!r}: timeout below the SLO target"
            )
        if self.weight <= 0:
            raise ServeSpecError(f"tenant {self.name!r}: weight must be > 0")
        if self.queue_capacity < 1:
            raise ServeSpecError(
                f"tenant {self.name!r}: queue capacity must be >= 1"
            )
        if self.bucket_rate is not None and self.bucket_rate <= 0:
            raise ServeSpecError(
                f"tenant {self.name!r}: bucket rate must be positive"
            )

    @property
    def hard_deadline(self) -> float:
        """Queue-expiry timeout in seconds."""
        return self.timeout if self.timeout is not None else 4.0 * self.slo


@dataclass(frozen=True)
class AutoscaleSpec:
    """Scale-out policy: grow to the full device set under sustained pain."""

    #: Devices the deployment starts on (a prefix of the topology).
    initial_devices: int
    #: Consecutive SLO-violating windows before growing.
    violation_windows: int = 3
    #: Control RTTs per device charged as handoff downtime.
    drain_rtts: int = 2

    def __post_init__(self) -> None:
        """Validate the scale-out knobs."""
        if self.initial_devices < 2:
            raise ServeSpecError("autoscale needs at least 2 initial devices")
        if self.violation_windows < 1:
            raise ServeSpecError("violation_windows must be >= 1")
        if self.drain_rtts < 0:
            raise ServeSpecError("drain_rtts must be non-negative")


@dataclass(frozen=True)
class ServeConfig:
    """Campaign-wide knobs (tenant-independent)."""

    #: Campaign length in simulated seconds.
    horizon: float = 1e-3
    #: Maximum requests coalesced into one batch.
    max_batch: int = 8
    #: Maximum artificial coalescing delay; ``None`` = min SLO / 4.
    coalesce_window: Optional[float] = None
    #: Feature-row payload per plan unit.
    bytes_per_unit: float = 16.0
    #: Executor fidelity for batch pricing: ``"cost"`` or ``"event"``.
    fidelity: str = "cost"
    #: Feedback windows over the horizon.
    windows: int = 8
    #: Ladder hysteresis: violating windows to climb one rung.
    engage_after: int = 2
    #: Ladder hysteresis: healthy windows to descend one rung.
    recover_after: int = 3
    #: Per-batch retry/repair/degrade attempts before a typed abort.
    max_attempts: int = 4
    #: First retry backoff (doubles per attempt) on the simulated clock.
    retry_backoff: float = 4 * DEFAULT_CONTROL_LATENCY
    #: Staleness bound of the replica store.
    stale_ttl: float = float("inf")
    #: Fixed per-batch dispatch overhead (seconds).
    batch_overhead: float = DEFAULT_CONTROL_LATENCY
    #: Per-request model compute (seconds).
    compute_seconds: float = DEFAULT_CONTROL_LATENCY / 4
    #: Partitioner seed (plan identity; request streams seed separately).
    partition_seed: int = 0
    #: Optional scale-out policy.
    autoscale: Optional[AutoscaleSpec] = None

    def __post_init__(self) -> None:
        """Validate the campaign knobs before any simulated time elapses:
        a NaN or infinite time would empty the campaign or never end it.
        Every comparison below is False for NaN."""
        def finite_non_negative(value: float) -> bool:
            return 0.0 <= value < math.inf

        checks = [
            (0.0 < self.horizon < math.inf,
             "horizon must be finite and positive"),
            (self.max_batch >= 1, "max_batch must be >= 1"),
            (self.coalesce_window is None
             or finite_non_negative(self.coalesce_window),
             "coalesce_window must be finite and non-negative"),
            (finite_non_negative(self.bytes_per_unit),
             "bytes_per_unit must be finite and non-negative"),
            (self.fidelity in ("cost", "event"),
             "fidelity must be 'cost' or 'event'"),
            (self.windows >= 1, "windows must be >= 1"),
            (self.engage_after >= 1, "engage_after must be >= 1"),
            (self.recover_after >= 1, "recover_after must be >= 1"),
            (self.max_attempts >= 1, "max_attempts must be >= 1"),
            (finite_non_negative(self.retry_backoff),
             "retry_backoff must be finite and non-negative"),
            (self.stale_ttl > 0, "stale_ttl must be positive"),
            (finite_non_negative(self.batch_overhead),
             "batch_overhead must be finite and non-negative"),
            (finite_non_negative(self.compute_seconds),
             "compute_seconds must be finite and non-negative"),
            (self.partition_seed >= 0, "partition_seed must be >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ServeSpecError(message)


@dataclass
class RequestRecord:
    """One request's full lifecycle, for reports and oracles."""

    rid: int
    tenant: str
    arrival: float
    deadline: float
    outcome: str = ""
    finish: Optional[float] = None
    latency: Optional[float] = None
    stale_rows: int = 0
    attempts: int = 0
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form with stable key order."""
        return {
            "rid": self.rid,
            "tenant": self.tenant,
            "arrival": self.arrival,
            "deadline": self.deadline,
            "outcome": self.outcome,
            "finish": self.finish,
            "latency": self.latency,
            "stale_rows": self.stale_rows,
            "attempts": self.attempts,
            "detail": self.detail,
        }


class _Deployment:
    """One device set's planned serving state (immutable once built)."""

    def __init__(
        self,
        graph: Graph,
        base_topology: Topology,
        devices: Sequence[int],
        config: "ServeConfig",
        plan_cache=None,
    ) -> None:
        """Partition, plan and pre-compute lookup tables for ``devices``;
        the plan comes from ``plan_cache`` on a hit."""
        self.devices: Tuple[int, ...] = tuple(devices)
        n = len(self.devices)
        if n == base_topology.num_devices:
            self.topology = base_topology
        else:
            self.topology = base_topology.restrict(self.devices)
        seed = config.partition_seed
        part = partition(graph, n, seed=seed)
        self.assignment = part.assignment
        self.relation = CommRelation(graph, part.assignment, n)
        resolution = PlanResolver(plan_cache).resolve(
            self.relation,
            self.topology,
            lambda: cache_key(
                graph, self.assignment, self.topology,
                {"purpose": "serve-forward", "strategy": "spst", "seed": seed},
            ),
            lambda: SPSTPlanner(self.topology, seed=seed).plan(self.relation),
            meta={"purpose": "serve-forward"},
        )
        #: Which rung produced the plan ("cache" or "planned").
        self.source = resolution.source
        self.plan: ForwardOnlyPlan = forward_only(resolution.plan)
        self.connections = frozenset(plan_connections(self.plan))
        total_units = max(1, self.plan.total_units())
        self.base_service = self.plan.estimated_cost(config.bytes_per_unit)
        self.unit_service = self.base_service / total_units
        self._graph = graph

    def needed_for(self, seeds: np.ndarray) -> np.ndarray:
        """Rows a one-layer forward pass over ``seeds`` moves: the
        distinct in-neighbors owned by a device other than the seed's."""
        tails, _ = cross_in_edges(self._graph, self.assignment, seeds)
        return np.unique(tails)

    def estimate(self, needed: int, config: ServeConfig, batch: int) -> float:
        """Cheap service-time proxy used for batch close times."""
        return (
            config.batch_overhead
            + batch * config.compute_seconds
            + needed * self.unit_service
        )


class _TenantState:
    """Per-run mutable state of one tenant."""

    def __init__(self, spec: TenantSpec) -> None:
        """Fresh bucket, queue and digests for one campaign."""
        self.spec = spec
        rate = (
            spec.bucket_rate
            if spec.bucket_rate is not None
            else 1.5 * spec.arrival.rate
        )
        self.bucket = TokenBucket(rate, spec.bucket_burst)
        self.queue = BoundedQueue(spec.queue_capacity)
        self.digest = QuantileDigest()
        self.window_digest = QuantileDigest(32)
        self.counts: Dict[str, int] = {o: 0 for o in OUTCOMES}
        self.slo_hits = 0


class ServeSession:
    """A long-lived serving deployment over one planned workload.

    The session is reusable: every :meth:`run` starts from fresh
    control-plane state, so two calls with the same ``seed`` and
    ``fault_plan`` produce bit-identical :class:`ServeReport`\\ s — the
    chaos soak's serving determinism oracle simply compares report
    signatures.
    """

    def __init__(
        self,
        graph: Graph,
        topology: Topology,
        tenants: Sequence[TenantSpec],
        config: Optional[ServeConfig] = None,
        plan_cache=None,
        scenario: str = "custom",
    ) -> None:
        """Build the deployments (small + full when autoscaling); with a
        shared plan cache the full deployment's plan is resolved
        through it."""
        if not tenants:
            raise ServeSpecError("a serving session needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ServeSpecError(f"duplicate tenant names in {names}")
        self.graph = graph
        self.topology = topology
        self.tenants: Tuple[TenantSpec, ...] = tuple(
            sorted(tenants, key=lambda t: t.name)
        )
        self.config = config if config is not None else ServeConfig()
        self.scenario = scenario
        cfg = self.config
        self.full = _Deployment(
            graph, topology, range(topology.num_devices), cfg, plan_cache
        )
        self.small: Optional[_Deployment] = None
        if cfg.autoscale is not None:
            k = cfg.autoscale.initial_devices
            if k >= topology.num_devices:
                raise ServeSpecError(
                    "autoscale initial_devices must be below the "
                    "topology's device count"
                )
            self.small = _Deployment(graph, topology, range(k), cfg)
        self.plan_cache = plan_cache
        self.plan_cache_source = (
            self.full.source if plan_cache is not None else ""
        )

    # ------------------------------------------------------------------
    # Request-stream generation (pure function of the seed)
    # ------------------------------------------------------------------
    def _generate_requests(self, seed: int) -> List[InferenceRequest]:
        """Draw every tenant's open-loop stream and merge by arrival."""
        cfg = self.config
        raw: List[Tuple[float, str, np.ndarray]] = []
        for ti, spec in enumerate(self.tenants):
            rng = np.random.default_rng([seed, ti, 7])
            sampler = SeedSampler(
                self.graph.num_vertices,
                seeds_per_request=spec.seeds_per_request,
                hot_fraction=spec.hot_fraction,
                seed=ti,
            )
            for t in arrival_times(spec.arrival, cfg.horizon, rng):
                raw.append((t, spec.name, sampler.sample(rng)))
        raw.sort(key=lambda item: (item[0], item[1]))
        requests = []
        deadline_of = {t.name: t.hard_deadline for t in self.tenants}
        for rid, (t, name, seeds) in enumerate(raw):
            requests.append(InferenceRequest(
                rid=rid, tenant=name, arrival=t,
                deadline=t + deadline_of[name], vertices=seeds,
            ))
        return requests

    # ------------------------------------------------------------------
    # One campaign
    # ------------------------------------------------------------------
    def run(
        self,
        seed: int = 0,
        fault_plan=None,
        telemetry: Telemetry = Telemetry(),
    ) -> "ServeReport":
        """Execute one deterministic serving campaign.

        ``fault_plan`` arms a fresh :class:`FaultInjector` whose
        link/device state the dispatch loop consults; ``telemetry``'s
        metrics count request outcomes and latencies, and its flight
        recorder keeps each priced batch on the serving clock.
        """
        cfg = self.config
        run = _RunState(self, seed, fault_plan, telemetry)
        requests = self._generate_requests(seed)
        i = 0
        while i < len(requests) or run.total_queued() > 0:
            if run.total_queued() == 0:
                run.advance(max(run.now, requests[i].arrival))
            i = run.admit_until(requests, i, run.now)
            run.expire_queues(run.now)
            eligible = run.eligible_tenants()
            if not eligible:
                if i < len(requests):
                    run.advance(max(run.now, requests[i].arrival))
                    continue
                break
            name = run.picker.pick(eligible)
            state = run.tenants[name]
            dep = run.deployment
            head = state.queue.peek()
            est = dep.estimate(
                dep.needed_for(head.vertices).size, cfg, len(state.queue)
            )
            close = run.batcher.close_time(
                state.queue, run.now, est, state.spec.slo,
                run.ladder.window_scale,
            )
            if close > run.now:
                i = run.admit_until(requests, i, close)
                run.advance(close)
                run.expire_queues(run.now)
                if not len(state.queue):
                    continue
            batch = run.batcher.form(state.queue, run.now)
            if not len(state.queue):
                run.picker.drain(name)
            run.picker.charge(name, float(batch.size))
            run.dispatch(batch)
        run.close_windows(final=True)
        return run.build_report(requests)


class _RunState:
    """All mutable state of one campaign (thrown away after the run)."""

    def __init__(self, session: ServeSession, seed, fault_plan,
                 telemetry: Telemetry) -> None:
        """Fresh admission, ladder, replica and fault state."""
        self.session = session
        self.cfg = session.config
        self.seed = seed
        self.now = 0.0
        self.blocked_until = 0.0
        self.telemetry = telemetry
        #: Batch executors count bytes only: their spans and records
        #: would sit on the phase clock, not the serving clock.
        self._executor_telemetry = Telemetry(metrics=telemetry.metrics)
        self.tenants: Dict[str, _TenantState] = {
            t.name: _TenantState(t) for t in session.tenants
        }
        self.picker = FairPicker(
            {t.name: t.weight for t in session.tenants}
        )
        window = (
            self.cfg.coalesce_window
            if self.cfg.coalesce_window is not None
            else min(t.slo for t in session.tenants) / 4.0
        )
        self.batcher = CoalescingBatcher(self.cfg.max_batch, window)
        self.ladder = DegradationLadder(
            self.cfg.engage_after, self.cfg.recover_after
        )
        self.store = ReplicaStore(self.cfg.stale_ttl)
        self.policy = DefaultPolicy()
        self.log = FaultLog()
        self.injector = (
            FaultInjector(fault_plan, log=self.log)
            if fault_plan is not None else None
        )
        self.deployment = (
            session.small if session.small is not None else session.full
        )
        self.scaled_out = False
        self.autoscale_events: List[Dict[str, object]] = []
        self.records: Dict[int, RequestRecord] = {}
        self._new_planner()
        self.cache_hits = 0
        self.cache_misses = 0
        self.units = 0
        self.batches = 0
        self.window_len = self.cfg.horizon / self.cfg.windows
        self.window_idx = 0
        self.windows: List[Dict[str, object]] = []
        self._violation_streak = 0
        #: Shed target under ladder rung 3: lowest priority, then name.
        self.shed_target = min(
            session.tenants, key=lambda t: (t.priority, t.name)
        ).name

    # ------------------------------------------------------------------
    # Clock and windows
    # ------------------------------------------------------------------
    def advance(self, to: float) -> None:
        """Move the simulated clock forward, closing crossed windows."""
        if to < self.now:
            return
        while (
            self.window_idx < self.cfg.windows
            and (self.window_idx + 1) * self.window_len <= to
        ):
            self._close_window((self.window_idx + 1) * self.window_len)
        self.now = to

    def _close_window(self, boundary: float) -> None:
        """Fold one feedback window into the ladder and the digests."""
        violating = []
        summary: Dict[str, object] = {
            "window": self.window_idx,
            "end": boundary,
            "level": LEVELS[self.ladder.level],
        }
        per_tenant: Dict[str, object] = {}
        for name, state in sorted(self.tenants.items()):
            wd = state.window_digest
            p99 = wd.quantile(0.99) if wd.count else None
            bad = p99 is not None and p99 > state.spec.slo
            if bad:
                violating.append(name)
            per_tenant[name] = {
                "completed": wd.count,
                "p99": p99,
                "violating": bad,
            }
            state.digest.merge(wd)
            state.window_digest = QuantileDigest(32)
        summary["tenants"] = per_tenant
        summary["violating"] = sorted(violating)
        transition = self.ladder.feedback(
            bool(violating), boundary, self.window_idx
        )
        if transition is not None:
            action = (
                "degrade" if transition.direction == "engage" else "recover"
            )
            self.log.append(
                boundary, "serve", action, f"ladder:{LEVELS[transition.level]}",
                f"window {self.window_idx} p99 feedback",
            )
        self._violation_streak = (
            self._violation_streak + 1 if violating else 0
        )
        summary["level_after"] = LEVELS[self.ladder.level]
        self.windows.append(summary)
        self.window_idx += 1
        self._maybe_autoscale(boundary)

    def _maybe_autoscale(self, boundary: float) -> None:
        """Grow to the full device set after sustained SLO violation."""
        spec = self.cfg.autoscale
        if (
            spec is None or self.scaled_out
            or self.session.small is None
            or self._violation_streak < spec.violation_windows
        ):
            return
        before = self.deployment
        self.deployment = self.session.full
        self.scaled_out = True
        downtime = (
            spec.drain_rtts * DEFAULT_CONTROL_LATENCY
            * len(self.deployment.devices)
        )
        self.blocked_until = max(self.blocked_until, boundary + downtime)
        # Ownership changed: replicas and batch plans are void.
        self.store.clear()
        self._new_planner()
        self.log.append(
            boundary, "serve", "scale-out",
            f"devices:{len(before.devices)}->{len(self.deployment.devices)}",
            f"sustained SLO violation over {self._violation_streak} windows",
        )
        self.autoscale_events.append({
            "time": boundary,
            "from_devices": len(before.devices),
            "to_devices": len(self.deployment.devices),
            "downtime": downtime,
        })
        self._violation_streak = 0

    # ------------------------------------------------------------------
    # Admission and expiry
    # ------------------------------------------------------------------
    def total_queued(self) -> int:
        """Requests currently queued across tenants."""
        return sum(len(s.queue) for s in self.tenants.values())

    def eligible_tenants(self) -> List[str]:
        """Tenant names with a non-empty queue."""
        return [n for n, s in sorted(self.tenants.items()) if len(s.queue)]

    def _record(self, req: InferenceRequest) -> RequestRecord:
        rec = RequestRecord(
            rid=req.rid, tenant=req.tenant,
            arrival=req.arrival, deadline=req.deadline,
        )
        self.records[req.rid] = rec
        return rec

    def _count(self, tenant: str, outcome: str) -> None:
        self.tenants[tenant].counts[outcome] += 1
        self.telemetry.count("serve.requests", tenant=tenant, outcome=outcome)

    def admit_until(
        self, requests: List[InferenceRequest], i: int, until: float
    ) -> int:
        """Process every arrival at or before ``until``; returns the
        next unprocessed index.  Decisions use each request's own
        arrival time, so admission is independent of dispatch order."""
        while i < len(requests) and requests[i].arrival <= until:
            req = requests[i]
            i += 1
            rec = self._record(req)
            state = self.tenants[req.tenant]
            if self.ladder.shed_tenant and req.tenant == self.shed_target:
                rec.outcome = "rejected-shed"
                rec.detail = str(AdmissionRejected(
                    req.tenant, "tenant-shed", req.arrival
                ))
                self._count(req.tenant, "rejected-shed")
                continue
            if not state.bucket.try_take(req.arrival):
                rec.outcome = "rejected-rate"
                rec.detail = str(AdmissionRejected(
                    req.tenant, "rate-limit", req.arrival
                ))
                self._count(req.tenant, "rejected-rate")
                continue
            if state.queue.full:
                rec.outcome = "rejected-queue"
                rec.detail = str(AdmissionRejected(
                    req.tenant, "queue-full", req.arrival
                ))
                self._count(req.tenant, "rejected-queue")
                continue
            state.queue.push(req)
            self.picker.backlog(req.tenant)
        return i

    def expire_queues(self, now: float) -> None:
        """Time out queued requests whose hard deadline has passed."""
        for name, state in sorted(self.tenants.items()):
            for req in state.queue.expire(now):
                rec = self.records[req.rid]
                rec.outcome = "expired"
                rec.finish = now
                rec.detail = str(DeadlineExpired(name, req.deadline, now))
                self._count(name, "expired")
            if not len(state.queue):
                self.picker.drain(name)

    # ------------------------------------------------------------------
    # Dispatch: the per-batch fault ladder and pricing
    # ------------------------------------------------------------------
    def _crashed_devices(self) -> List[int]:
        """Base-topology device ids crashed at the current time."""
        if self.injector is None or not self.injector.is_armed:
            return []
        out = []
        for dev in range(self.session.topology.num_devices):
            at = self.injector.crash_time(dev)
            if at is not None and at <= self.now:
                out.append(dev)
        return out

    def _new_planner(self) -> None:
        """A fresh batch planner and memo for the current deployment."""
        dep = self.deployment
        self.plan_memo = PlanCache(None)
        self.planner = BatchPlanner(
            self.session.graph, dep.assignment, dep.topology,
            plan_cache=self.plan_memo, incremental=False,
            seed=self.cfg.partition_seed,
        )

    def _batch_plan(
        self, seeds: np.ndarray, fresh: np.ndarray
    ) -> ForwardOnlyPlan:
        """Forward plan moving the ``fresh`` rows to the seeds reading
        them: a memo hit, else a cold SPST plan."""
        batch = restrict_forward(
            self.session.graph, self.deployment.assignment, seeds, fresh
        )
        planned = self.planner.plan_batch(batch)
        cold = planned.plan_source == "planned"
        self.cache_misses += cold
        self.cache_hits += not cold
        return forward_only(planned.plan)

    def dispatch(self, batch: Batch) -> None:
        """Serve one batch: fault ladder, pricing, completion records."""
        cfg = self.cfg
        dep = self.deployment
        if self.blocked_until > self.now:
            self.advance(self.blocked_until)
        state = self.tenants[batch.tenant]
        self.batches += 1

        # ---- split the needed set: fresh wire bytes vs stale replicas
        seeds = np.concatenate([r.vertices for r in batch.requests])
        needed = dep.needed_for(seeds)
        stale_rows = 0
        if self.ladder.stale_serve and needed.size:
            needed, stale = self.store.split(needed, self.now)
            stale_rows = int(stale.size)

        # ---- crashed owners: stale if possible, typed abort otherwise
        aborted: List[InferenceRequest] = []
        crashed = self._crashed_devices()
        if crashed and needed.size:
            dep_crashed = [
                i for i, b in enumerate(dep.devices) if b in crashed
            ]
            owner = dep.assignment[needed]
            lost = needed[np.isin(owner, dep_crashed)]
            if lost.size:
                can_stale = self.store.covers(lost, self.now)
                if can_stale:
                    stale_rows += int(lost.size)
                    needed = needed[~np.isin(needed, lost)]
                    self.log.append(
                        self.now, "serve", "degrade",
                        f"batch:{batch.tenant}",
                        f"{lost.size} rows from crashed owners served stale",
                    )
                else:
                    lost_set = set(lost.tolist())
                    keep = []
                    for req in batch.requests:
                        req_needed = dep.needed_for(req.vertices)
                        if lost_set & set(req_needed.tolist()):
                            aborted.append(req)
                        else:
                            keep.append(req)
                    batch.requests = keep
                    for req in aborted:
                        rec = self.records[req.rid]
                        rec.outcome = "fault-aborted"
                        rec.finish = self.now
                        rec.detail = (
                            "needed features owned by crashed device(s) "
                            f"{sorted(set(crashed))} with no replica"
                        )
                        self._count(req.tenant, "fault-aborted")
                    self.log.append(
                        self.now, "serve", "abort",
                        f"batch:{batch.tenant}",
                        f"{len(aborted)} request(s) lost to crashed owners",
                    )
                    if not batch.requests:
                        return
                    seeds = np.concatenate(
                        [r.vertices for r in batch.requests]
                    )
                    needed = dep.needed_for(seeds)
                    if self.ladder.stale_serve and needed.size:
                        needed, stale = self.store.split(needed, self.now)
                        stale_rows = int(stale.size)
                    needed = needed[~np.isin(needed, lost)]

        # ---- link fault ladder: retry -> repair -> degrade, typed abort
        plan: Optional[CommPlan] = (
            self._batch_plan(seeds, needed) if needed.size else None
        )
        attempts = 0
        if plan is not None and self.injector is not None \
                and self.injector.is_armed:
            conns = plan_connections(plan)
            while True:
                dead = set(self.injector.dead_connections(self.now))
                hit = conns & dead
                if not hit:
                    break
                attempts += 1
                if attempts >= cfg.max_attempts:
                    self._abort_batch(batch, attempts, sorted(hit))
                    return
                decision = self.policy.decide("transfer-timeout", attempts)
                if decision == "retry":
                    backoff = cfg.retry_backoff * (2 ** (attempts - 1))
                    self.log.append(
                        self.now, "serve", "retry",
                        f"batch:{batch.tenant}",
                        f"dead wire(s) {sorted(hit)}; backoff "
                        f"{backoff * 1e6:.3f} us",
                    )
                    self.advance(self.now + backoff)
                    continue
                if decision == "repair":
                    try:
                        result = repair_plan(
                            plan, dead_connections=sorted(dead), seed=0
                        )
                    except (UnrecoverableFaultError, ElasticSpecError) as exc:
                        self.log.append(
                            self.now, "serve", "detect",
                            f"batch:{batch.tenant}",
                            f"repair failed: {type(exc).__name__}",
                        )
                        decision = "degrade"
                    else:
                        plan = result.plan
                        conns = plan_connections(plan)
                        self.log.append(
                            self.now, "serve", "repair",
                            f"batch:{batch.tenant}",
                            f"rerouted {result.touched} route(s) around "
                            f"{sorted(hit)}",
                        )
                        continue
                if decision == "degrade":
                    if self.store.covers(needed, self.now):
                        stale_rows += int(needed.size)
                        self.log.append(
                            self.now, "serve", "degrade",
                            f"batch:{batch.tenant}",
                            f"{needed.size} rows served stale around "
                            f"dead wire(s) {sorted(hit)}",
                        )
                        plan = None
                        needed = np.empty(0, np.int64)
                        break
                    self._abort_batch(batch, attempts, sorted(hit))
                    return

        # ---- price the batch and complete its requests
        comm = 0.0
        report = None
        if plan is not None and needed.size:
            capacity_of = (
                self.injector.capacity_fn_at(self.now)
                if self.injector is not None and self.injector.is_armed
                else None
            )
            executor = PlanExecutor(
                dep.topology, capacity_of=capacity_of,
                telemetry=self._executor_telemetry,
            )
            report = executor.execute(
                plan, cfg.bytes_per_unit, fidelity=cfg.fidelity,
                label=f"serve-batch-{self.batches}",
            )
            comm = report.total_time
            self.units += plan.total_units()
        service = (
            cfg.batch_overhead
            + cfg.compute_seconds * len(batch.requests)
            + comm
        )
        start = self.now
        finish = start + service
        if report is not None:
            self.telemetry.record(
                f"w{self.window_idx}-batch{self.batches}", report, base=start
            )
        if needed.size:
            self.store.record(needed, finish)
        self.store.stale_rows_served += stale_rows
        self.advance(finish)
        for req in batch.requests:
            rec = self.records[req.rid]
            rec.outcome = "completed"
            rec.finish = finish
            rec.latency = finish - req.arrival
            rec.attempts = attempts
            rec.stale_rows = stale_rows
            self._count(req.tenant, "completed")
            state.window_digest.observe(rec.latency)
            if rec.latency <= state.spec.slo:
                state.slo_hits += 1
            self.telemetry.observe("serve.latency_us", rec.latency * 1e6,
                                   tenant=req.tenant)

    def _abort_batch(
        self, batch: Batch, attempts: int, dead: List[str]
    ) -> None:
        """Typed fault abort of every request in the batch."""
        for req in batch.requests:
            rec = self.records[req.rid]
            rec.outcome = "fault-aborted"
            rec.finish = self.now
            rec.attempts = attempts
            rec.detail = (
                f"retry/repair budget exhausted after {attempts} "
                f"attempt(s); dead wire(s) {dead}"
            )
            self._count(req.tenant, "fault-aborted")
        self.log.append(
            self.now, "serve", "giveup", f"batch:{batch.tenant}",
            f"{len(batch.requests)} request(s) aborted after "
            f"{attempts} attempt(s)",
        )

    # ------------------------------------------------------------------
    def close_windows(self, final: bool = False) -> None:
        """Close every window still open at the end of the campaign."""
        if not final:
            return
        while self.window_idx < self.cfg.windows:
            self._close_window((self.window_idx + 1) * self.window_len)

    def build_report(
        self, requests: List[InferenceRequest]
    ) -> "ServeReport":
        """Assemble the campaign's immutable report."""
        session = self.session
        tenant_stats: Dict[str, Dict[str, object]] = {}
        for name, state in sorted(self.tenants.items()):
            completed = state.counts["completed"]
            submitted = sum(state.counts.values())
            tenant_stats[name] = {
                "slo": state.spec.slo,
                "timeout": state.spec.hard_deadline,
                "weight": state.spec.weight,
                "priority": state.spec.priority,
                "submitted": submitted,
                "outcomes": dict(state.counts),
                "latency": state.digest.as_dict(),
                "slo_attainment": (
                    state.slo_hits / completed if completed else None
                ),
                "goodput_rps": completed / self.cfg.horizon,
            }
        return ServeReport(
            scenario=session.scenario,
            seed=self.seed,
            horizon=self.cfg.horizon,
            submitted=len(requests),
            batches=self.batches,
            records=[self.records[r.rid] for r in requests],
            tenants=tenant_stats,
            windows=self.windows,
            ladder=[t.as_dict() for t in self.ladder.transitions],
            final_level=LEVELS[self.ladder.level],
            autoscale=list(self.autoscale_events),
            batch_cache={
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "plans": len(self.plan_memo),
                "units": self.units,
            },
            stale_rows=self.store.stale_rows_served,
            fault_log=[
                [t, category, action, subject]
                for t, category, action, subject in self.log.signature()
            ],
            plan_cache_source=session.plan_cache_source,
        )


@dataclass(frozen=True)
class ServeReport:
    """One campaign's complete, deterministic outcome."""

    scenario: str
    seed: int
    horizon: float
    submitted: int
    batches: int
    records: List[RequestRecord]
    tenants: Dict[str, Dict[str, object]]
    windows: List[Dict[str, object]]
    ladder: List[Dict[str, object]]
    final_level: str
    autoscale: List[Dict[str, object]]
    batch_cache: Dict[str, int]
    stale_rows: int
    fault_log: List[List[object]]
    plan_cache_source: str

    # ------------------------------------------------------------------
    def outcome_counts(self) -> Dict[str, int]:
        """Terminal outcome totals across tenants."""
        counts = {o: 0 for o in OUTCOMES}
        for rec in self.records:
            counts[rec.outcome] = counts.get(rec.outcome, 0) + 1
        return counts

    @property
    def completed(self) -> int:
        """Requests that got a response."""
        return self.outcome_counts()["completed"]

    @property
    def shed(self) -> int:
        """Typed admission rejections (all three reasons)."""
        counts = self.outcome_counts()
        return (
            counts["rejected-rate"]
            + counts["rejected-queue"]
            + counts["rejected-shed"]
        )

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests shed at admission."""
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def unaccounted(self) -> int:
        """Requests without a terminal outcome — always 0 by design."""
        known = sum(self.outcome_counts().values())
        return self.submitted - known

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready full report (stable ordering throughout)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "horizon": self.horizon,
            "submitted": self.submitted,
            "batches": self.batches,
            "outcomes": self.outcome_counts(),
            "shed_rate": self.shed_rate,
            "unaccounted": self.unaccounted,
            "tenants": self.tenants,
            "windows": self.windows,
            "ladder": self.ladder,
            "final_level": self.final_level,
            "autoscale": self.autoscale,
            "batch_cache": dict(self.batch_cache),
            "stale_rows": self.stale_rows,
            "fault_log": self.fault_log,
            "plan_cache_source": self.plan_cache_source,
            "records": [r.as_dict() for r in self.records],
        }

    def signature(self) -> str:
        """SHA-256 over the canonical JSON — the determinism oracle's
        whole-run fingerprint."""
        doc = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()

    def summary(self) -> str:
        """Terminal-friendly few-line verdict."""
        counts = self.outcome_counts()
        lines = [
            f"serve {self.scenario!r}: {self.submitted} request(s), "
            f"{self.batches} batch(es), horizon "
            f"{self.horizon * 1e6:.1f} us",
            f"  outcomes: " + ", ".join(
                f"{k}={v}" for k, v in counts.items() if v
            ),
            f"  ladder: {len(self.ladder)} transition(s), final level "
            f"{self.final_level!r}; stale rows served: {self.stale_rows}",
        ]
        for name, stats in self.tenants.items():
            lat = stats["latency"]
            att = stats["slo_attainment"]
            if att is None:
                lines.append(f"  {name}: {stats['submitted']} in, none served")
                continue
            lines.append(
                f"  {name}: {stats['submitted']} in, "
                f"{stats['outcomes']['completed']} served, "
                f"p50={lat['p50'] * 1e6:.2f} us "
                f"p99={lat['p99'] * 1e6:.2f} us "
                f"(SLO {stats['slo'] * 1e6:.2f} us, attainment {att:.1%})"
            )
        if self.autoscale:
            lines.append(f"  autoscale: {self.autoscale}")
        return "\n".join(lines)
