"""The DGCL user-facing API (paper §4.2 and Listing 1).

The entry point is :func:`session`; the :class:`DGCLSession` it returns
is a context manager that guarantees cleanup::

    import repro.api as dgcl

    with dgcl.session(topology, strategy="auto") as s:
        report = s.build_comm_info(graph)    # partition + plan -> PlanReport
        local_feats = s.dispatch_features(features)
        for layer in model.layers:
            embeddings = s.graph_allgather(local_feats)
            ...                              # single-GPU layer per device
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autotune.fingerprint import cache_key
from repro.autotune.resolver import PlanResolver
from repro.comm.allgather import CompiledAllgather
from repro.core.plan import CommPlan
from repro.core.relation import CommRelation, LocalGraph
from repro.core.spst import SPSTPlanner
from repro.elastic.controller import (
    ElasticPolicy, TransitionReport, validate_transition,
)
from repro.faults.injector import FaultInjector
from repro.faults.log import FaultLog
from repro.faults.repair import repair_plan
from repro.faults.spec import FaultPlan
from repro.graph.csr import Graph
from repro.obs.audit import CostModelAuditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import FlightRecorder, RunProfile
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import TRAINER_TRACK, Tracer
from repro.partition.hierarchical import hierarchical_partition
from repro.runtime.bootstrap import simulate_bootstrap
from repro.schemes import register_scheme, resolve_strategy
from repro.runtime.protocol import DEFAULT_CONTROL_LATENCY
from repro.simulator.executor import PlanExecutor
from repro.topology.topology import Topology

__all__ = [
    "DGCLSession",
    "PlanReport",
    "session",
    "serve",
    "register_scheme",
]

#: The historical session vocabulary, kept for compatibility.  The live
#: set — every plan-based scheme in the :mod:`repro.schemes` registry,
#: custom registrations included — is
#: :func:`repro.schemes.session_strategy_names`; a session's
#: ``strategy=`` is validated against the registry, not this tuple.
SESSION_STRATEGIES = ("spst", "p2p", "auto")

#: Executor fidelities a session accepts.
SESSION_FIDELITIES = ("event", "cost")


@dataclass(frozen=True)
class PlanReport:
    """What a session-level planning call returns.

    ``plan`` is the executable :class:`~repro.core.plan.CommPlan`
    (``communication_plan()`` returns the same object for Listing-1
    compatibility); the rest records how it was produced: where it came
    from (``plan_source``: "planned", "cache", "patched" or
    "replanned"), which executor fidelity was in effect, and the staged
    cost breakdown in unit-seconds.
    """

    plan: CommPlan
    plan_source: str
    fidelity: str
    stage_costs: Tuple[float, ...]
    total_cost: float
    tune_report: object = field(default=None, repr=False)

    @property
    def num_stages(self) -> int:
        return len(self.stage_costs)

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary (without the plan object)."""
        return {
            "plan_source": self.plan_source,
            "fidelity": self.fidelity,
            "stage_costs": list(self.stage_costs),
            "total_cost": self.total_cost,
            "num_routes": len(self.plan.routes),
        }


class DGCLSession:
    """One distributed-training context: topology, plan, runtime.

    ``strategy`` picks how :meth:`build_comm_info` plans: ``"spst"``
    (the paper's planner, default), ``"p2p"`` (direct peer-to-peer
    routing), ``"auto"`` (cost-guided selection over the plan-based
    candidates — :mod:`repro.autotune`), or any plan-based scheme in
    the :mod:`repro.schemes` registry (``cagnet-1.5d``, ``cagnet-2d``,
    ``distgnn-delayed``, custom :func:`~repro.schemes.register_scheme`
    entries).  ``plan_cache`` — a
    :class:`~repro.autotune.cache.PlanCache` or a directory path —
    makes planning persistent: repeated runs on identical inputs load
    the stored plan, and drifted inputs are patched incrementally.
    ``elastic`` — an :class:`~repro.elastic.controller.ElasticPolicy` —
    governs :meth:`grow`/:meth:`shrink` transitions (floor/ceiling,
    replan mode); without one, transitions run under the default
    policy.
    """

    def __init__(
        self,
        topology: Topology,
        fault_plan: Optional[FaultPlan] = None,
        strategy: str = "spst",
        plan_cache=None,
        fidelity: str = "event",
        elastic: Optional[ElasticPolicy] = None,
    ) -> None:
        resolve_strategy(strategy)  # raises UnknownSchemeError if invalid
        if fidelity not in SESSION_FIDELITIES:
            raise ValueError(
                f"unknown fidelity {fidelity!r}; "
                f"available: {SESSION_FIDELITIES}"
            )
        #: The physical topology the session was created on; the active
        #: topology (:attr:`topology`) is its restriction to
        #: :attr:`active_devices` after elastic transitions.
        self.base_topology = topology
        self.topology = topology
        #: Active device ids in the base topology's numbering.
        self.active_devices: List[int] = list(range(topology.num_devices))
        #: Elastic policy for :meth:`grow`/:meth:`shrink` (may be None).
        self.elastic = elastic
        #: Planned transitions this session ran, in order.
        self.transitions: List[TransitionReport] = []
        self.strategy = strategy
        #: Executor fidelity for this session's collectives.
        self.fidelity = fidelity
        #: True once :meth:`shutdown` ran; the session refuses new work.
        self.closed = False
        self.plan_cache = None
        if plan_cache is not None:
            from repro.autotune.cache import PlanCache

            self.plan_cache = (
                plan_cache if isinstance(plan_cache, PlanCache)
                else PlanCache(plan_cache)
            )
        self.relation: Optional[CommRelation] = None
        self.plan: Optional[CommPlan] = None
        #: Where the active plan came from: "planned", "cache",
        #: "patched", "replanned", or None before build_comm_info.
        self.plan_source: Optional[str] = None
        #: The auto-tuner's report when strategy="auto" actually tuned.
        self.tune_report = None
        self._allgather: Optional[CompiledAllgather] = None
        self.executor = PlanExecutor(topology)
        #: Simulated seconds spent in communication since init.
        self.simulated_comm_seconds = 0.0
        #: The session's one telemetry handle: disarmed until
        #: :meth:`arm_telemetry`, which fills all four sinks at once.
        self.telemetry = Telemetry()
        #: Plan-cache key of the active plan (annotation target).
        self._cache_key = None
        #: Audit records already propagated to the plan cache.
        self._audit_seen = 0
        #: Chaos layer: None until :meth:`inject_faults` attaches one.
        self.injector: Optional[FaultInjector] = None
        self._repaired_conns: set = set()
        #: Session-lifetime log: fault handling and elastic transitions
        #: both land here (the injector shares it when armed).
        self._fault_log = FaultLog()
        #: Inputs of the last build_comm_info, replayed on transitions.
        self._build_args: Optional[Dict[str, object]] = None
        #: (graph, seed, topology) when the last build derived its own
        #: partition, so sample_loader can reuse it; None otherwise.
        self._derived_partition: Optional[tuple] = None
        self._feature_dim = 0
        if fault_plan is not None:
            self.inject_faults(fault_plan)

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "DGCLSession":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False  # never swallow the body's exception

    def shutdown(self) -> None:
        """Release the session's runtime state; safe to call twice.

        Drops the compiled allgather, plan, relation, fault injector and
        telemetry sinks.  Subsequent planning or collective calls raise
        ``RuntimeError``.
        """
        if self.closed:
            return
        self.closed = True
        self._allgather = None
        self.plan = None
        self.relation = None
        self.plan_source = None
        self.injector = None
        self.telemetry = Telemetry()

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("session is shut down")

    # ------------------------------------------------------------------
    def arm_telemetry(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        auditor: Optional[CostModelAuditor] = None,
        recorder: Optional[FlightRecorder] = None,
    ) -> "DGCLSession":
        """Attach span/metric/audit/profile sinks to every collective.

        Creates fresh sinks unless given existing ones, and rebuilds the
        session executor so per-flow spans land on the tracer's clock
        (kept in lockstep with :attr:`simulated_comm_seconds`).  The
        auditor collects predicted-vs-actual records per collective and
        the flight recorder keeps the reports :meth:`profile` digests.
        The priced timings themselves are unchanged — telemetry is
        strictly post-hoc.  Returns the session for chaining.
        """
        self.telemetry = Telemetry.full(tracer, metrics, auditor, recorder)
        self._catch_up_clock()
        self.executor = self._build_executor()
        return self

    def _catch_up_clock(self) -> None:
        """Move the trace clock up to :attr:`simulated_comm_seconds`."""
        telemetry = self.telemetry
        if telemetry.now < self.simulated_comm_seconds:
            telemetry.advance(self.simulated_comm_seconds - telemetry.now)

    def _build_executor(self, capacity_of=None) -> PlanExecutor:
        """An executor on the active topology with the session's telemetry."""
        return PlanExecutor(self.topology, capacity_of=capacity_of,
                            telemetry=self.telemetry)

    def inject_faults(self, fault_plan) -> FaultInjector:
        """Attach a :class:`~repro.faults.spec.FaultPlan` to the session.

        Accepts a plan object or a path to a ``--fault-spec`` JSON file.
        Subsequent collectives are priced under the plan's degraded
        capacities, dead wires trigger an incremental plan repair, and
        every intervention lands in :attr:`fault_log`.
        """
        if not isinstance(fault_plan, FaultPlan):
            fault_plan = FaultPlan.load(fault_plan)
        self.injector = FaultInjector(fault_plan, log=self._fault_log)
        return self.injector

    @property
    def fault_log(self) -> FaultLog:
        """The session's intervention log.

        Fault handling *and* planned ``scale-out``/``scale-in``
        transitions land here, so one log tells the whole availability
        story of a session (and the injector appends to the same log
        when faults are armed).
        """
        return self._fault_log

    def _priced_executor(self) -> PlanExecutor:
        """The executor for the next collective, fault-aware if armed."""
        if self.injector is None or not self.injector.is_armed:
            return self.executor
        self._maybe_repair()
        capacity_fn = self.injector.capacity_fn_at(self.simulated_comm_seconds)
        if capacity_fn is None:
            return self.executor
        return self._build_executor(capacity_of=capacity_fn)

    def _maybe_repair(self) -> None:
        """Re-route the plan around wires that died on the session clock."""
        now = self.simulated_comm_seconds
        dead = [
            n
            for n in self.injector.dead_connections(now)
            if n not in self._repaired_conns
        ]
        if not dead or self.plan is None:
            return
        self._repaired_conns.update(dead)
        log = self.injector.log
        for name in dead:
            log.append(now, "link", "detect", name, "dead wire on session clock")
        result = repair_plan(self.plan, dead_connections=dead)
        if result.touched:
            self.plan = result.plan
            self._allgather = CompiledAllgather(self.relation, self.plan)
            log.append(
                now,
                "link",
                "repair",
                ", ".join(dead),
                f"re-routed {result.touched} vertex classes",
            )

    # ------------------------------------------------------------------
    def build_comm_info(
        self,
        graph: Graph,
        *,
        assignment: Optional[np.ndarray] = None,
        seed: int = 0,
        chunks_per_class: int = 4,
        strategy: Optional[str] = None,
        tune_kwargs: Optional[dict] = None,
    ) -> PlanReport:
        """Partition the graph, build the relation, and plan.

        Mirrors ``dgcl.buildCommInfo(graph, topology)``: afterwards the
        session can dispatch features and run graphAllgather.  All
        options after the graph are keyword-only.  Pass an explicit
        ``assignment`` to bring your own partitioner; ``strategy``
        overrides the session default for this call.

        Returns a :class:`PlanReport`; the bare plan stays available as
        ``report.plan`` and through :meth:`communication_plan`.

        With a :attr:`plan_cache`, the plan for these exact inputs is
        loaded instead of computed when present (``plan_source ==
        "cache"``); on a miss with a drifted sibling entry the cached
        plan is patched incrementally (``"patched"``, or ``"replanned"``
        when the patch regressed past the threshold); a cold cache plans
        normally and stores the result.
        """
        self._check_open()
        strategy = strategy or self.strategy
        spec = resolve_strategy(strategy)  # None for "auto"
        # Remember how this plan was asked for, so an elastic transition
        # can replay the build on the re-sized topology.  An explicit
        # assignment is deliberately not replayed: transitions repartition.
        self._build_args = {
            "graph": graph,
            "seed": seed,
            "chunks_per_class": chunks_per_class,
            "strategy": strategy,
            "tune_kwargs": tune_kwargs,
        }
        self._derived_partition = None
        if assignment is None:
            assignment = hierarchical_partition(
                graph, self.topology, seed=seed
            ).assignment
            self._derived_partition = (graph, seed, self.topology)
        self.relation = CommRelation(graph, assignment, self.topology.num_devices)
        assignment = self.relation.assignment

        self.tune_report = None  # only a build that tunes repopulates it
        meta = {"strategy": strategy}

        def key():
            # Key on the *canonical* scheme name and its registered
            # version: alias spellings share a cache entry, and bumping
            # a scheme implementation invalidates its cached plans.
            return cache_key(graph, assignment, self.topology, {
                "strategy": spec.name if spec is not None else "auto",
                "scheme_version": spec.version if spec is not None else "0",
                "chunks_per_class": chunks_per_class,
                "seed": seed,
            })

        def cold() -> CommPlan:
            if spec is None:  # "auto": the tuner picks, then builds
                self.tune_report = self.tune(
                    graph,
                    seed=seed,
                    chunks_per_class=chunks_per_class,
                    plan_based_only=True,
                    assignment=self.relation.assignment,
                    **(tune_kwargs or {}),
                )
                meta["picked"] = self.tune_report.candidate.config()
                return self.tune_report.build_plan()
            if spec.name == "peer-to-peer":
                from repro.core.baseline_planners import peer_to_peer_plan

                return peer_to_peer_plan(self.relation, self.topology)
            if spec.name in ("dgcl", "dgcl-cache"):
                planner = SPSTPlanner(
                    self.topology, chunks_per_class=chunks_per_class,
                    seed=seed,
                )
                return planner.plan(self.relation)
            # Any other plan-based registry scheme (CAGNET trees, delayed
            # aggregation, custom registrations) compiles via its builder.
            return spec.build_plan(
                self.relation, self.topology,
                chunks_per_class=chunks_per_class, seed=seed,
            )

        cache = self.plan_cache
        resolution = PlanResolver(cache).resolve(
            self.relation, self.topology, key, cold,
            donor=cache.find_sibling if cache is not None else None,
            chunks_per_class=chunks_per_class, seed=seed, meta=meta,
        )
        self._cache_key = resolution.key
        return self._install_plan(resolution.plan, resolution.source)

    def _install_plan(self, plan: CommPlan, source: str) -> PlanReport:
        """Activate a plan, compile the runtime, and report on it."""
        self.plan = plan
        self.plan_source = source
        self._allgather = CompiledAllgather(self.relation, self.plan)
        model = plan.cost_model()
        return PlanReport(
            plan=plan,
            plan_source=source,
            fidelity=self.fidelity,
            stage_costs=tuple(model.stage_times()),
            total_cost=model.total_cost(),
            tune_report=self.tune_report,
        )

    def tune(
        self,
        graph: Graph,
        *,
        seed: int = 0,
        chunks_per_class: int = 4,
        plan_based_only: bool = False,
        assignment: Optional[np.ndarray] = None,
        **kwargs,
    ):
        """Run the cost-guided auto-tuner for ``graph`` on this topology.

        Everything after the graph is keyword-only.  Returns a
        :class:`~repro.autotune.tuner.TuneReport`; extra keyword
        arguments are forwarded to
        :class:`~repro.autotune.tuner.AutoTuner`.
        """
        self._check_open()
        from repro.autotune.space import SearchSpace
        from repro.autotune.tuner import AutoTuner

        space = kwargs.pop("space", None)
        if space is None:
            # An explicit assignment collapses the partitioner dimension.
            partitioners = (
                ("hierarchical",) if assignment is not None
                else ("hierarchical", "metis")
            )
            space = SearchSpace(
                self.topology,
                partitioners=partitioners,
                chunk_options=(chunks_per_class,),
                plan_based_only=plan_based_only,
                # A session executes its plan every epoch, so a
                # plan-bound tune must price exact (staleness 0)
                # aggregation; amortised stale pricing would pick a
                # schedule the session runtime cannot honour.
                staleness_options=(0,) if plan_based_only else None,
            )
        # An armed session audits the tuner's full-fidelity rung too.
        kwargs.setdefault("telemetry",
                          Telemetry(auditor=self.telemetry.auditor))
        tuner = AutoTuner(
            graph,
            self.topology,
            seed=seed,
            space=space,
            assignment=assignment,
            **kwargs,
        )
        return tuner.tune()

    def sample_loader(
        self,
        graph: Graph,
        *,
        batch_size: int,
        fanouts: Optional[Tuple[int, ...]] = None,
        hops: Optional[int] = None,
        train_vertices: Optional[np.ndarray] = None,
        assignment: Optional[np.ndarray] = None,
        seed: int = 0,
        chunks_per_class: int = 4,
        drop_last: bool = True,
        incremental: bool = True,
    ):
        """Build the mini-batch sampling pipeline for ``graph``.

        Everything after the graph is keyword-only.  Returns the triple
        ``(loader, sampler, planner)``: a
        :class:`~repro.sampling.loader.SeedLoader` over
        ``train_vertices`` (default: every vertex), a sampler — uniform
        :class:`~repro.sampling.samplers.NeighborSampler` when
        ``fanouts`` is given, full
        :class:`~repro.sampling.samplers.KHopSampler` when ``hops`` is
        (exactly one must be) — and a
        :class:`~repro.sampling.planner.BatchPlanner` bound to this
        session's topology, plan cache and telemetry.  The triple
        feeds :class:`~repro.gnn.minibatch.MiniBatchTrainer` directly.

        ``assignment`` overrides the parent partition (default: the
        same hierarchical partition ``build_comm_info`` would derive,
        reused when the last build partitioned this graph at this seed);
        ``incremental=False`` disarms the patch-from-previous-batch
        rung so every cache miss plans cold.
        """
        self._check_open()
        from repro.sampling import (
            BatchPlanner,
            KHopSampler,
            NeighborSampler,
            SeedLoader,
        )

        if (fanouts is None) == (hops is None):
            raise ValueError(
                "pass exactly one of fanouts= (neighbor sampling) "
                "or hops= (full k-hop expansion)"
            )
        if fanouts is not None:
            sampler = NeighborSampler(graph, fanouts, seed=seed)
        else:
            sampler = KHopSampler(graph, hops)
        loader = SeedLoader(
            graph,
            batch_size,
            train_vertices=train_vertices,
            seed=seed,
            drop_last=drop_last,
        )
        if assignment is None:
            derived = self._derived_partition
            if (derived is not None and derived[0] is graph
                    and derived[1] == seed and derived[2] is self.topology):
                assignment = self.relation.assignment  # already partitioned
            else:
                assignment = hierarchical_partition(
                    graph, self.topology, seed=seed
                ).assignment
        planner = BatchPlanner(
            graph,
            assignment,
            self.topology,
            plan_cache=self.plan_cache,
            chunks_per_class=chunks_per_class,
            seed=seed,
            incremental=incremental,
            telemetry=self.telemetry,
        )
        return loader, sampler, planner

    def _require_plan(self) -> CompiledAllgather:
        if self._allgather is None:
            raise RuntimeError("call build_comm_info() before communicating")
        return self._allgather

    def dispatch_features(self, features: np.ndarray) -> List[np.ndarray]:
        """Split global vertex features into per-device local blocks."""
        self._check_open()
        if self.relation is None:
            raise RuntimeError("call build_comm_info() before dispatching")
        if features.shape[0] != self.relation.graph.num_vertices:
            raise ValueError("features must cover every vertex")
        self._feature_dim = features.shape[1] if features.ndim == 2 else 1
        return [
            features[self.relation.local_vertices[d]].copy()
            for d in range(self.relation.num_devices)
        ]

    def graph_allgather(self, local_embeddings: List[np.ndarray]) -> List[np.ndarray]:
        """Fetch every device's remote rows (synchronous collective).

        Returns per-device matrices in LocalGraph layout (local rows
        first, then remote rows) and advances the simulated clock.
        """
        self._check_open()
        executor = self._priced_executor()
        runtime = self._require_plan()
        result = runtime.forward(local_embeddings)
        dim = local_embeddings[0].shape[1] if local_embeddings[0].ndim == 2 else 1
        report = executor.execute(self.plan, dim * 4, fidelity=self.fidelity)
        self._advance(report, "graph_allgather")
        return result

    def scatter_gradients(self, full_grads: List[np.ndarray]) -> List[np.ndarray]:
        """Backward counterpart: return remote-row gradients to owners."""
        self._check_open()
        executor = self._priced_executor()
        runtime = self._require_plan()
        result = runtime.backward(full_grads)
        dim = full_grads[0].shape[1]
        report = executor.execute(self.plan, dim * 4, backward=True,
                                  fidelity=self.fidelity)
        self._advance(report, "scatter_gradients")
        return result

    def _advance(self, report, name: str) -> None:
        """Advance the session clock (and, if armed, the trace clock)."""
        self.simulated_comm_seconds += report.total_time
        self.telemetry.phase(name, report.total_time,
                             bytes=report.bytes_moved())
        self._annotate_cache()

    def _annotate_cache(self) -> None:
        """Stamp the cached plan with its latest observed audit error.

        With the auditor and a plan cache both armed, every executed
        collective refreshes the cache entry's ``observed_error`` /
        ``audited_runs`` metadata (an annotation, never a store — CI
        counts stores).  Best effort: a missing or foreign entry is
        simply skipped.
        """
        telemetry = self.telemetry  # armed means all four sinks
        records = telemetry.auditor.records if telemetry.armed else []
        if (
            self.plan_cache is None
            or self._cache_key is None
            or len(records) <= self._audit_seen
        ):
            return
        record = records[-1]
        self._audit_seen = len(records)
        error = record.signed_error
        self.plan_cache.annotate(
            self._cache_key,
            observed_error=error if error != float("inf") else None,
            audited_runs=self._audit_seen,
        )

    def profile(self, meta: Optional[Dict[str, object]] = None) -> RunProfile:
        """Digest the session's recorded collectives into a profile.

        Requires :meth:`arm_telemetry` first (that is what attaches the
        flight recorder).  The returned
        :class:`~repro.obs.profile.RunProfile` carries per-stage and
        per-connection attribution, the critical path of the slowest
        collective, and — when the auditor saw the same runs — the
        embedded cost-model audit.
        """
        self._check_open()
        if not self.telemetry.armed:
            raise RuntimeError(
                "call arm_telemetry() before profile(): the flight "
                "recorder is what captures the collectives"
            )
        info: Dict[str, object] = {
            "source": "session",
            "strategy": self.strategy,
            "devices": len(self.active_devices),
        }
        info.update(meta or {})
        return RunProfile.from_recorder(
            self.telemetry.recorder, audit=self.telemetry.auditor, meta=info
        )

    def local_graphs(self) -> List[LocalGraph]:
        """Re-indexed per-device training graphs (paper §4.1)."""
        if self.relation is None:
            raise RuntimeError("call build_comm_info() first")
        return [
            self.relation.local_graph(d)
            for d in range(self.relation.num_devices)
        ]

    def communication_plan(self) -> CommPlan:
        """The active :class:`CommPlan` (after :meth:`build_comm_info`)."""
        if self.plan is None:
            raise RuntimeError("call build_comm_info() first")
        return self.plan

    # -- elastic transitions -------------------------------------------
    def grow(self, devices) -> TransitionReport:
        """Add base-topology ``devices`` to the session's active set.

        A planned handoff on the session clock: drain the in-flight
        collectives, restrict the base topology onto the new set,
        replay the last :meth:`build_comm_info` on it (repartition +
        replan — the plan cache, when armed, patches incrementally),
        and price the §6.3 re-dispatch.  Recorded as a ``scale-out``
        intervention in :attr:`fault_log`.  After a transition,
        re-dispatch features: the local blocks changed owners.
        """
        return self._elastic_transition("grow", devices)

    def shrink(self, devices) -> TransitionReport:
        """Remove base-topology ``devices`` from the active set.

        The ``scale-in`` counterpart of :meth:`grow`; same handoff,
        same pricing, same logging.
        """
        return self._elastic_transition("shrink", devices)

    def _elastic_transition(self, kind: str, devices) -> TransitionReport:
        self._check_open()
        policy = self.elastic or ElasticPolicy()
        delta, after = validate_transition(
            kind, devices, self.active_devices,
            self.base_topology.num_devices, policy,
        )

        before = tuple(self.active_devices)
        start = self.simulated_comm_seconds
        drain = policy.drain_rtts * DEFAULT_CONTROL_LATENCY * len(before)
        self.simulated_comm_seconds += drain

        self.active_devices = after
        if len(after) == self.base_topology.num_devices:
            self.topology = self.base_topology
        else:
            self.topology = self.base_topology.restrict(after)
        self.executor = self._build_executor()

        plan_source = "deferred"  # no plan yet: nothing to hand off
        replan_start = self.simulated_comm_seconds
        boot = 0.0
        if self.plan is not None and self._build_args is not None:
            args = dict(self._build_args)
            report = self.build_comm_info(
                args["graph"],
                seed=args["seed"],
                chunks_per_class=args["chunks_per_class"],
                strategy=args["strategy"],
                tune_kwargs=args["tune_kwargs"],
            )
            plan_source = report.plan_source
            boot = simulate_bootstrap(
                self.relation,
                self.plan,
                feature_bytes_per_vertex=self._feature_dim * 4,
            ).total_seconds
            self.simulated_comm_seconds += boot
        replan = self.simulated_comm_seconds - replan_start - boot

        action = "scale-out" if kind == "grow" else "scale-in"
        downtime = self.simulated_comm_seconds - start
        self._fault_log.append(
            self.simulated_comm_seconds,
            "trainer",
            action,
            f"device(s) {delta}",
            f"{len(before)}->{len(after)} devices via {plan_source} plan; "
            f"downtime {downtime * 1e6:.1f} us",
        )
        self.telemetry.count("elastic.transition", kind=action)
        self.telemetry.span(
            action, "phase", TRAINER_TRACK, start,
            self.simulated_comm_seconds,
            devices=len(after), plan=plan_source,
        )
        self._catch_up_clock()
        report = TransitionReport(
            kind=kind,
            delta=tuple(delta),
            devices_before=before,
            devices_after=tuple(after),
            start=start,
            finish=self.simulated_comm_seconds,
            drain_seconds=drain,
            checkpoint_seconds=0.0,
            replan_seconds=replan,
            bootstrap_seconds=boot,
            plan_source=plan_source,
        )
        self.transitions.append(report)
        return report


def session(
    topology: Topology,
    *,
    fault_plan: Optional[FaultPlan] = None,
    strategy: str = "spst",
    plan_cache=None,
    fidelity: str = "event",
    elastic: Optional[ElasticPolicy] = None,
) -> DGCLSession:
    """Create a session — the entry point of the API.

    Use it as a context manager so shutdown is guaranteed even when the
    body raises::

        with dgcl.session(topology, strategy="auto") as s:
            report = s.build_comm_info(graph)
    """
    return DGCLSession(
        topology, fault_plan=fault_plan, strategy=strategy,
        plan_cache=plan_cache, fidelity=fidelity, elastic=elastic,
    )


def serve(
    scenario: str = "poisson",
    *,
    gpus: int = 8,
    topology: str = "dgx",
    seed: int = 0,
    horizon_scale: float = 1.0,
    fault_plan: Optional[FaultPlan] = None,
    plan_cache=None,
) -> ServeReport:
    """Run one online-inference serving campaign (ROADMAP item 2).

    Builds the named :mod:`repro.serve` scenario (``poisson``,
    ``bursty``, ``diurnal``, ``hotspot`` or ``overload``), runs it to
    its horizon on the simulated clock and returns the deterministic
    :class:`~repro.serve.ServeReport` — per-tenant latency digests,
    typed outcome counts, degradation-ladder transitions and the fault
    log.  ``fault_plan`` injects faults during serving; ``plan_cache``
    (a :class:`~repro.autotune.cache.PlanCache` or directory path)
    lets repeated campaigns reuse the planned forward communication.

    A standalone helper rather than a session method: serving owns its
    deployment lifecycle (including autoscaling), so it would fight a
    session's single active plan.
    """
    from repro.serve import build_scenario

    if plan_cache is not None:
        from repro.autotune.cache import PlanCache

        if not isinstance(plan_cache, PlanCache):
            plan_cache = PlanCache(plan_cache)
    campaign = build_scenario(
        scenario,
        gpus=gpus,
        topology=topology,
        horizon_scale=horizon_scale,
        plan_cache=plan_cache,
    )
    return campaign.run(seed=seed, fault_plan=fault_plan)

