"""The soak runner: N seeds of chaos, every run held to the oracles.

One :class:`SoakRunner` owns a fixed workload (graph, partition, SPST
plan, payload blocks and their compiled-allgather reference) and a
:class:`~repro.chaos.generator.FaultPlanGenerator` whose horizon is the
workload's fault-free run time.  ``run(seeds)`` then executes one
hardened protocol run per seed — twice, because determinism is itself
an oracle — and scores each against :mod:`repro.chaos.oracles`; every
``train_every``-th seed additionally trains a small model under the
same fault plan and checks gradient parity with a single-device
reference.

Two **test-only hooks** exist so the shrinker's acceptance test can
manufacture failures on demand:

* ``policy_factory`` — swap the recovery policy (e.g. a
  :class:`~repro.faults.policy.RetryOnlyPolicy` that never repairs, so
  a dead wire becomes a liveness violation);
* ``dedupe_flags`` — run with the flag board's duplicate suppression
  off, so a duplicated done flag releases receivers early and the
  delivery oracle catches the corruption.

Leave both at their defaults and a violation means a real bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.generator import FaultPlanGenerator
from repro.chaos.oracles import (
    ORACLES,
    RunObservation,
    Violation,
    check_bytes,
    check_delivery,
    check_determinism,
    check_liveness,
    check_serve_accounting,
    check_serve_deadline,
    check_timeline,
)
from repro.comm.allgather import CompiledAllgather
from repro.core.relation import CommRelation
from repro.core.spst import SPSTPlanner
from repro.faults.injector import FaultInjector
from repro.faults.log import FaultLog
from repro.faults.policy import (
    DefaultPolicy,
    DeviceLostError,
    UnrecoverableFaultError,
)
from repro.faults.spec import FaultPlan
from repro.graph.generators import rmat
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import Tracer
from repro.partition import partition
from repro.runtime.flags import FlagBoard
from repro.runtime.protocol import ProtocolRunner
from repro.topology import pcie_only, topology_for_gpu_count

__all__ = ["SoakConfig", "SoakRunner", "SeedResult", "SoakReport",
           "staleness_tolerance"]


def staleness_tolerance(staleness: int) -> Tuple[float, float]:
    """The gradient-parity tolerance ladder for delayed aggregation.

    Returns ``(rtol, atol)`` for comparing per-epoch losses of a
    staleness-``s`` :class:`~repro.schemes.distgnn.DistGNNTrainer`
    against the exact single-device reference.  Rung 0 is the exact
    rung — the same bound the plain gradient-parity oracle uses, float
    reduction order only.  Higher rungs widen linearly with the number
    of delayed epochs: the drift of bounded-staleness aggregation is
    proportional to how many updates the stale remote rows missed,
    while a *broken* implementation (wrong rows, dropped local
    gradients) lands orders of magnitude outside the ladder.
    """
    if staleness <= 0:
        return 1e-4, 1e-6
    return min(0.05, 2e-3 * staleness), min(1e-2, 1e-3 * staleness)


def _resolve_topology(name: str, gpus: int):
    """The CLI's topology presets: ``dgx`` (default) or ``pcie``."""
    if name == "pcie":
        return pcie_only(gpus)
    return topology_for_gpu_count(gpus)


@dataclass
class SoakConfig:
    """Knobs of one soak campaign (all deterministic)."""

    gpus: int = 8
    topology: str = "dgx"
    density: float = 4.0
    burstiness: float = 0.0
    correlated: bool = False
    mix: Optional[Dict[str, float]] = None
    #: Every Nth seed also trains under the plan and checks gradient
    #: parity (0 = protocol-level oracles only).
    train_every: int = 0
    train_epochs: int = 3
    #: Staleness values the training seeds additionally sweep with the
    #: delayed-aggregation trainer, each held to its
    #: :func:`staleness_tolerance` rung and to monotone degradation.
    #: Fault-independent, so the sweep runs once per campaign
    #: (() = no staleness sweep).
    staleness_ladder: Tuple[int, ...] = (0, 1, 2)
    #: Every Nth seed additionally runs one epoch of sampled mini-batch
    #: training (seeded sampler/loader from the chaos seed) twice and
    #: holds it to the determinism and minibatch-parity oracles
    #: (0 = no sampled runs).
    sample_every: int = 0
    sample_batch_size: int = 32
    sample_fanouts: Tuple[int, ...] = (4, 4)
    #: Every Nth seed additionally interleaves a seeded random
    #: grow/shrink schedule with the fault plan and holds the elastic
    #: run to the determinism, gradient-parity and delivery oracles
    #: (0 = no elastic actions).
    elastic_every: int = 0
    elastic_epochs: int = 4
    elastic_min_devices: int = 2
    elastic_density: float = 2.0
    #: Every Nth seed additionally runs a scaled-down serving campaign
    #: (:func:`repro.serve.build_scenario`) under the same fault plan
    #: and holds it to the serve-accounting, serve-deadline and
    #: determinism oracles (0 = no serving runs).
    serve_every: int = 0
    serve_scenario: str = "bursty"
    serve_horizon_scale: float = 0.25
    # Workload shape (matches the protocol test suite's fixture).
    num_vertices: int = 250
    num_edges: int = 1800
    graph_seed: int = 4
    partition_seed: int = 0
    feature_dim: int = 5
    coordination: str = "decentralized"
    # ---- test-only hooks (defaults are the honest configuration) ----
    policy_factory: Optional[Callable[[], object]] = None
    dedupe_flags: bool = True

    def knobs(self) -> Dict[str, object]:
        """JSON-ready view of the campaign parameters."""
        return {
            "gpus": self.gpus,
            "topology": self.topology,
            "density": self.density,
            "burstiness": self.burstiness,
            "correlated": self.correlated,
            "mix": dict(self.mix) if self.mix else None,
            "train_every": self.train_every,
            "staleness_ladder": list(self.staleness_ladder),
            "sample_every": self.sample_every,
            "elastic_every": self.elastic_every,
            "elastic_epochs": self.elastic_epochs,
            "serve_every": self.serve_every,
            "serve_scenario": self.serve_scenario,
            "broken_policy": self.policy_factory is not None,
            "dedupe_flags": self.dedupe_flags,
        }


@dataclass
class SeedResult:
    """One seed's verdict."""

    seed: int
    events: int
    outcome: str  # "ok" | "crash-abort" | "violation"
    violations: List[Violation] = field(default_factory=list)
    total_time: float = 0.0
    plan: Optional[FaultPlan] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (the plan itself is saved separately)."""
        return {
            "seed": self.seed,
            "events": self.events,
            "outcome": self.outcome,
            "violations": [v.as_dict() for v in self.violations],
        }


@dataclass
class SoakReport:
    """The campaign's verdict, exportable via ``repro.obs``."""

    results: List[SeedResult]
    config: Dict[str, object]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> List[SeedResult]:
        return [r for r in self.results if not r.passed]

    def time_quantiles(self) -> Dict[str, float]:
        """p50/p90/p99 of per-seed simulated run time (seconds).

        Fed through the deterministic
        :class:`~repro.obs.quantile.QuantileDigest`, so the numbers are
        reproducible for a given seed range.  Empty campaigns report
        zeros.
        """
        from repro.obs.quantile import QuantileDigest

        digest = QuantileDigest()
        for r in self.results:
            digest.observe(float(r.total_time))
        return digest.quantiles()

    def as_dict(self) -> Dict[str, object]:
        """The exportable campaign summary (see ``repro.obs``)."""
        by_oracle: Dict[str, int] = {name: 0 for name in ORACLES}
        outcomes: Dict[str, int] = {}
        for r in self.results:
            outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
            for v in r.violations:
                by_oracle[v.oracle] = by_oracle.get(v.oracle, 0) + 1
        return {
            "seeds": len(self.results),
            "passed": sum(1 for r in self.results if r.passed),
            "failed": len(self.failures),
            "outcomes": dict(sorted(outcomes.items())),
            "total_time_quantiles": self.time_quantiles(),
            "violations_by_oracle": {
                k: v for k, v in by_oracle.items() if v
            },
            "failures": [r.as_dict() for r in self.failures],
            "config": self.config,
        }

    def summary(self) -> str:
        """A terminal-friendly few-line verdict."""
        d = self.as_dict()
        q = d["total_time_quantiles"]
        lines = [
            f"chaos soak: {d['passed']}/{d['seeds']} seeds passed "
            f"({d['outcomes']})",
            f"  run time: p50={q['p50'] * 1e6:.3f} "
            f"p90={q['p90'] * 1e6:.3f} p99={q['p99'] * 1e6:.3f} us",
        ]
        if d["violations_by_oracle"]:
            lines.append(f"  violations: {d['violations_by_oracle']}")
        for r in self.failures[:10]:
            worst = ", ".join(sorted({v.oracle for v in r.violations}))
            lines.append(
                f"  seed {r.seed}: {len(r.violations)} violation(s) "
                f"[{worst}] over {r.events} fault event(s)"
            )
        return "\n".join(lines)


class SoakRunner:
    """Executes chaos campaigns against one fixed workload."""

    def __init__(self, config: Optional[SoakConfig] = None) -> None:
        self.config = config if config is not None else SoakConfig()
        cfg = self.config
        self.topology = _resolve_topology(cfg.topology, cfg.gpus)
        g = rmat(cfg.num_vertices, cfg.num_edges, seed=cfg.graph_seed)
        part = partition(g, cfg.gpus, seed=cfg.partition_seed)
        self.relation = CommRelation(g, part.assignment, cfg.gpus)
        self.plan = SPSTPlanner(self.topology, seed=cfg.partition_seed).plan(
            self.relation
        )
        rng = np.random.default_rng(12)
        feats = rng.standard_normal(
            (g.num_vertices, cfg.feature_dim)
        ).astype(np.float32)
        self.blocks = [
            feats[self.relation.local_vertices[d]] for d in range(cfg.gpus)
        ]
        #: Delivery oracle reference: the compiled allgather's output.
        self.expected = CompiledAllgather(self.relation, self.plan).forward(
            self.blocks
        )
        # Fault-free run: the generator's horizon and the bytes oracle's
        # per-wire cost model both come from here.
        _, baseline = ProtocolRunner(
            self.relation, self.plan, coordination=cfg.coordination
        ).run_data(self.blocks)
        self.baseline = baseline
        bytes_per_unit = cfg.feature_dim * 4  # float32 payload rows
        tuples = list(self.plan.tuples())
        self.num_tuples = len(tuples)
        self.planned_bytes: Dict[str, float] = {}
        for t in tuples:
            size = t.units * bytes_per_unit
            for conn in t.link.connections:
                self.planned_bytes[conn.name] = (
                    self.planned_bytes.get(conn.name, 0.0) + size
                )
        self.generator = FaultPlanGenerator(
            horizon=baseline.total_time,
            devices=range(cfg.gpus),
            connections=sorted(self.topology.connections),
            topology=self.topology,
            density=cfg.density,
            mix=cfg.mix,
            burstiness=cfg.burstiness,
            correlated=cfg.correlated,
            stages=self.plan.num_stages,
        )
        self._ref_losses: Dict[int, List[float]] = {}
        self._train_task = None
        #: Memoised staleness-ladder verdict (fault-independent).
        self._staleness_violations: Optional[List[Violation]] = None
        self._elastic_generator = None
        self._serve_session = None

    # ------------------------------------------------------------------
    def _policy(self):
        if self.config.policy_factory is not None:
            return self.config.policy_factory()
        return DefaultPolicy()

    def _execute(self, plan: FaultPlan) -> RunObservation:
        """One hardened run of ``plan``; never raises."""
        injector = FaultInjector(plan, log=FaultLog())
        telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        runner = ProtocolRunner(
            self.relation,
            self.plan,
            coordination=self.config.coordination,
            injector=injector,
            policy=self._policy(),
            telemetry=telemetry,
        )
        saved_dedupe = FlagBoard.dedupe
        FlagBoard.dedupe = self.config.dedupe_flags
        gathered = None
        report = None
        error = ""
        detail = ""
        try:
            gathered, report = runner.run_data(self.blocks)
        except (DeviceLostError, UnrecoverableFaultError) as exc:
            error = type(exc).__name__
            detail = str(exc)
        except RuntimeError as exc:  # deadlock / event-budget blowup
            error = type(exc).__name__
            detail = str(exc)
        finally:
            FlagBoard.dedupe = saved_dedupe
        return RunObservation(
            gathered=gathered,
            total_time=report.total_time if report is not None else 0.0,
            transfers=report.transfers if report is not None else 0,
            device_finish=dict(report.device_finish) if report else {},
            stage_finish=dict(report.stage_finish) if report else {},
            log_signature=injector.log.signature(),
            trace_signature=telemetry.tracer.signature(),
            metrics=telemetry.metrics.snapshot(),
            error=error,
            error_detail=detail,
        )

    @staticmethod
    def _rerouted(log_signature) -> bool:
        """Did any repair/degrade move traffic off its planned wires?"""
        return any(action in ("repair", "degrade")
                   for _, _, action, _ in log_signature)

    def check_plan(
        self, plan: FaultPlan
    ) -> Tuple[List[Violation], RunObservation]:
        """Score one plan against every protocol-level oracle.

        Runs the plan twice (fresh injector each time): the pair feeds
        the determinism oracle, the first observation feeds the rest.
        """
        obs1 = self._execute(plan)
        obs2 = self._execute(plan)
        violations: List[Violation] = []
        violations += check_liveness(obs1, bool(plan.crashed_devices))
        violations += check_delivery(obs1, self.expected)
        violations += check_bytes(
            obs1,
            self.planned_bytes,
            self.num_tuples,
            rerouted=self._rerouted(obs1.log_signature),
        )
        violations += check_timeline(obs1)
        violations += check_determinism(obs1, obs2)
        return violations, obs1

    # ------------------------------------------------------------------
    # Gradient parity (training-level oracle)
    def _training_task(self):
        if self._train_task is None:
            from repro.gnn import build_gcn  # noqa: F401 (lazy heavy import)

            g = rmat(200, 1400, seed=4)
            rng = np.random.default_rng(0)
            features = rng.standard_normal((g.num_vertices, 6)).astype(
                np.float32
            )
            labels = rng.integers(0, 4, g.num_vertices)
            self._train_task = (g, features, labels)
        return self._train_task

    def _model(self):
        from repro.gnn import build_gcn

        return build_gcn(6, 8, 4, seed=7)

    def _reference_losses(self, epochs: Optional[int] = None) -> List[float]:
        epochs = self.config.train_epochs if epochs is None else int(epochs)
        if epochs not in self._ref_losses:
            from repro.gnn import SingleDeviceTrainer

            g, features, labels = self._training_task()
            trainer = SingleDeviceTrainer(g, self._model(), features, labels)
            self._ref_losses[epochs] = [
                float(trainer.run_epoch().loss) for _ in range(epochs)
            ]
        return self._ref_losses[epochs]

    def check_training(self, plan: FaultPlan) -> List[Violation]:
        """Gradient parity with the single-device reference.

        Chaos that does not kill a device must leave the *math*
        untouched: per-epoch losses match the single-GPU run up to
        float reduction order.  Crash plans are skipped — losing a
        partition legitimately changes the training trajectory.
        """
        if plan.crashed_devices:
            return []
        from repro.gnn import ResilientTrainer

        g, features, labels = self._training_task()
        hook_violations: List[Violation] = []
        clock_state = {"last": -1.0}

        def oracle_hook(epoch: int, loss: float, clock: float) -> None:
            if not np.isfinite(loss):
                hook_violations.append(Violation(
                    "gradient-parity", f"epoch {epoch}: non-finite loss",
                ))
            if clock <= clock_state["last"]:
                hook_violations.append(Violation(
                    "timeline",
                    f"epoch {epoch}: trainer clock went backwards "
                    f"({clock} after {clock_state['last']})",
                ))
            clock_state["last"] = clock

        trainer = ResilientTrainer(
            g, self.topology, self._model(), features, labels,
            fault_plan=plan, oracle_hook=oracle_hook,
        )
        try:
            report = trainer.train(self.config.train_epochs)
        except (DeviceLostError, UnrecoverableFaultError) as exc:
            return [Violation(
                "gradient-parity",
                f"training aborted under a recoverable plan: "
                f"{type(exc).__name__}: {exc}",
            )]
        violations = list(hook_violations)
        ref = self._reference_losses()
        if len(report.losses) != len(ref):
            violations.append(Violation(
                "gradient-parity",
                f"{len(report.losses)} epochs trained, expected {len(ref)}",
            ))
        elif not np.allclose(report.losses, ref, rtol=1e-4, atol=1e-6):
            gaps = [abs(a - b) for a, b in zip(report.losses, ref)]
            violations.append(Violation(
                "gradient-parity",
                f"losses diverged from the single-device reference "
                f"(max gap {max(gaps):.3e})",
            ))
        return violations

    def check_staleness(self) -> List[Violation]:
        """Delayed aggregation against the gradient-parity ladder.

        Trains the soak's training task once per rung of
        ``config.staleness_ladder`` under the delayed-aggregation
        trainer (fault-free: the ladder judges the *scheme*, the fault
        plans judge the protocol) and holds each run to two
        invariants:

        * every rung's per-epoch losses sit within its
          :func:`staleness_tolerance` band of the single-device
          reference — rung 0 is therefore exact parity;
        * degradation is monotone: a rung's worst loss gap never
          *shrinks* below the previous rung's beyond float slack
          (staler aggregates cannot be more accurate).
        """
        from repro.core.baseline_planners import peer_to_peer_plan
        from repro.partition.hierarchical import hierarchical_partition
        from repro.schemes.distgnn import DistGNNTrainer

        ladder = tuple(self.config.staleness_ladder)
        if not ladder:
            return []
        # Fault-independent (and deterministic): sweep once per campaign.
        if self._staleness_violations is not None:
            return list(self._staleness_violations)
        g, features, labels = self._training_task()
        assignment = hierarchical_partition(
            g, self.topology, seed=self.config.partition_seed
        ).assignment
        relation = CommRelation(g, assignment, self.topology.num_devices)
        plan = peer_to_peer_plan(relation, self.topology,
                                 name="distgnn-delayed")
        ref = self._reference_losses()
        violations: List[Violation] = []
        gaps: List[Tuple[int, float]] = []
        for staleness in sorted(ladder):
            trainer = DistGNNTrainer(
                relation, plan, self._model(), features, labels,
                staleness=staleness,
            )
            losses = [
                float(trainer.run_epoch().loss)
                for _ in range(self.config.train_epochs)
            ]
            rtol, atol = staleness_tolerance(staleness)
            gap = max(abs(a - b) for a, b in zip(losses, ref))
            gaps.append((staleness, gap))
            if not np.allclose(losses, ref, rtol=rtol, atol=atol):
                violations.append(Violation(
                    "staleness-parity",
                    f"staleness {staleness}: losses left the tolerance "
                    f"band (max gap {gap:.3e}, rtol {rtol:g}, "
                    f"atol {atol:g})",
                ))
        for (s_lo, gap_lo), (s_hi, gap_hi) in zip(gaps, gaps[1:]):
            if gap_hi + 1e-6 + 0.25 * gap_lo < gap_lo:
                violations.append(Violation(
                    "staleness-parity",
                    f"degradation not monotone: staleness {s_hi} gap "
                    f"{gap_hi:.3e} below staleness {s_lo} gap "
                    f"{gap_lo:.3e}",
                ))
        self._staleness_violations = violations
        return list(violations)

    # ------------------------------------------------------------------
    # Sampled mini-batch soak (per-batch planning + parity oracle)
    def _run_minibatch(self, seed: int):
        """One epoch of sampled training; returns (losses, sources)."""
        from repro.gnn import MiniBatchTrainer
        from repro.sampling import BatchPlanner, NeighborSampler, SeedLoader

        cfg = self.config
        g, features, labels = self._training_task()
        part = partition(g, cfg.gpus, seed=cfg.partition_seed)
        loader = SeedLoader(g, cfg.sample_batch_size, seed=seed)
        sampler = NeighborSampler(g, cfg.sample_fanouts, seed=seed)
        planner = BatchPlanner(g, part.assignment, self.topology)
        trainer = MiniBatchTrainer(
            self._model(), features, labels, sampler, loader, planner
        )
        trainer.train_epoch(0)
        return list(trainer.loss_history), [
            r.plan_source for r in trainer.results
        ]

    def check_minibatch(self, plan: FaultPlan, seed: int) -> List[Violation]:
        """Oracles over one epoch of sampled mini-batch training.

        The sampled stream is seeded from the chaos seed and run twice:

        * **determinism** — both runs must produce bit-identical
          per-batch losses and identical plan-source ladders (cold /
          patched / replanned per batch);
        * **minibatch-parity** — the distributed trainer's per-batch
          losses must match a single-device
          :class:`~repro.gnn.minibatch.MiniBatchOracle` replaying the
          same batch stream, which end-to-end checks that every
          patched or replanned batch plan still delivers the right
          rows.

        Crash plans are skipped like the other training oracles:
        losing a partition legitimately changes the trajectory.
        """
        if plan.crashed_devices:
            return []
        from repro.gnn import MiniBatchOracle

        losses1, sources1 = self._run_minibatch(seed)
        losses2, sources2 = self._run_minibatch(seed)
        violations: List[Violation] = []
        if losses1 != losses2:
            violations.append(Violation(
                "determinism",
                "sampled runs diverged in per-batch losses",
            ))
        if sources1 != sources2:
            violations.append(Violation(
                "determinism",
                f"sampled runs diverged in plan sources "
                f"({sources1} vs {sources2})",
            ))

        cfg = self.config
        g, features, labels = self._training_task()
        oracle = MiniBatchOracle(self._model(), features, labels)
        from repro.sampling import NeighborSampler, SeedLoader

        loader = SeedLoader(g, cfg.sample_batch_size, seed=seed)
        sampler = NeighborSampler(g, cfg.sample_fanouts, seed=seed)
        for i, seeds in enumerate(loader.batches(0)):
            oracle.run_batch(sampler.sample(seeds, batch_index=i))
        if len(oracle.loss_history) != len(losses1):
            violations.append(Violation(
                "minibatch-parity",
                f"{len(losses1)} batch(es) trained, oracle ran "
                f"{len(oracle.loss_history)}",
            ))
        elif not np.allclose(losses1, oracle.loss_history,
                             rtol=1e-4, atol=1e-6):
            gaps = [abs(a - b)
                    for a, b in zip(losses1, oracle.loss_history)]
            violations.append(Violation(
                "minibatch-parity",
                f"sampled losses diverged from the single-device "
                f"oracle (max gap {max(gaps):.3e})",
            ))
        return violations

    # ------------------------------------------------------------------
    # Mixed elastic soak (faults + randomized grow/shrink)
    def _elastic_schedule(self, seed: int):
        if self._elastic_generator is None:
            from repro.chaos.generator import ElasticScheduleGenerator

            cfg = self.config
            self._elastic_generator = ElasticScheduleGenerator(
                num_devices=cfg.gpus,
                epochs=cfg.elastic_epochs,
                min_devices=min(cfg.elastic_min_devices, cfg.gpus),
                density=cfg.elastic_density,
            )
        return self._elastic_generator.sample(seed)

    def _run_elastic(self, plan: FaultPlan, schedule):
        """One elastic training run under ``plan``; never raises."""
        from repro.elastic import ElasticPolicy, ElasticSpecError
        from repro.elastic.controller import ElasticController

        g, features, labels = self._training_task()
        trainer = ElasticController(
            g, self.topology, self._model(), features, labels,
            elastic=ElasticPolicy(
                min_devices=min(self.config.elastic_min_devices,
                                self.config.gpus),
            ),
            fault_plan=plan,
        )
        try:
            report = trainer.train_with_schedule(
                self.config.elastic_epochs, schedule
            )
        except (DeviceLostError, UnrecoverableFaultError,
                ElasticSpecError) as exc:
            return None, [Violation(
                "liveness",
                f"elastic run aborted under a recoverable plan: "
                f"{type(exc).__name__}: {exc}",
            )]
        return trainer, report

    def check_elastic(self, plan: FaultPlan, seed: int) -> List[Violation]:
        """Oracles over a run mixing ``plan`` with random grow/shrink.

        The same seeded elastic schedule is interleaved with the fault
        plan and the run is held to three invariants:

        * **determinism** — a second identical run produces the same
          losses, the same final clock and the same fault-log
          signature (handoffs included);
        * **gradient-parity** — planned transitions keep the live
          weights, so the loss trajectory still matches the
          single-device reference;
        * **delivery** — the post-transition plan still delivers every
          device's full feature matrix byte-exactly.

        Crash plans are skipped for the same reason
        :meth:`check_training` skips them: losing a partition
        legitimately changes the trajectory (and a crashed device is
        not a legal grow target).
        """
        if plan.crashed_devices:
            return []
        schedule = self._elastic_schedule(seed)
        first = self._run_elastic(plan, schedule)
        if first[0] is None:
            return first[1]
        second = self._run_elastic(plan, schedule)
        if second[0] is None:
            return second[1]
        trainer, report = first
        trainer2, report2 = second
        violations: List[Violation] = []

        if list(report.losses) != list(report2.losses):
            violations.append(Violation(
                "determinism", "elastic runs diverged in per-epoch losses",
            ))
        if trainer.clock != trainer2.clock:
            violations.append(Violation(
                "determinism",
                f"elastic runs diverged in simulated time "
                f"({trainer.clock} vs {trainer2.clock})",
            ))
        if trainer.log.signature() != trainer2.log.signature():
            violations.append(Violation(
                "determinism", "elastic runs diverged in fault-log records",
            ))

        if len(trainer.transitions) != len(schedule):
            violations.append(Violation(
                "timeline",
                f"{len(trainer.transitions)} transition(s) ran, schedule "
                f"had {len(schedule)}",
            ))
        for t in trainer.transitions:
            if t.downtime_seconds <= 0:
                violations.append(Violation(
                    "timeline",
                    f"{t.kind} at epoch {t.epoch} took no simulated time",
                ))

        ref = self._reference_losses(self.config.elastic_epochs)
        if len(report.losses) != len(ref):
            violations.append(Violation(
                "gradient-parity",
                f"{len(report.losses)} epochs trained, expected {len(ref)}",
            ))
        elif not np.allclose(report.losses, ref, rtol=1e-4, atol=1e-6):
            gaps = [abs(a - b) for a, b in zip(report.losses, ref)]
            violations.append(Violation(
                "gradient-parity",
                f"elastic losses diverged from the single-device "
                f"reference (max gap {max(gaps):.3e})",
            ))

        # Delivery on the final plan: every device still receives its
        # full feature matrix byte-exactly after all the handoffs.
        features = self._training_task()[1]
        relation, final_plan = trainer.relation, trainer.plan
        blocks = [
            features[relation.local_vertices[d]]
            for d in range(relation.num_devices)
        ]
        gathered = CompiledAllgather(relation, final_plan).forward(blocks)
        for d in range(relation.num_devices):
            expected = features[relation.local_graph(d).global_ids]
            if not np.array_equal(gathered[d], expected):
                violations.append(Violation(
                    "delivery",
                    f"device {d}: post-transition plan delivered wrong "
                    f"bytes",
                ))
                break
        return violations

    # ------------------------------------------------------------------
    # Serving soak (online-inference oracles under the same fault plan)
    def _serving_session(self):
        """The shared serving workload (scenario built once, reused)."""
        if self._serve_session is None:
            from repro.serve import build_scenario

            cfg = self.config
            self._serve_session = build_scenario(
                cfg.serve_scenario,
                gpus=cfg.gpus,
                topology=cfg.topology,
                horizon_scale=cfg.serve_horizon_scale,
            )
        return self._serve_session

    def check_serve(self, plan: FaultPlan, seed: int) -> List[Violation]:
        """Serving oracles over one campaign run under ``plan``.

        The scaled-down scenario campaign runs twice with the same seed
        and fault plan: the pair must produce bit-identical report
        signatures (determinism), and the first report must satisfy the
        serve-accounting and serve-deadline invariants — typed outcomes
        only, even while the injector is killing wires and devices.
        """
        session = self._serving_session()
        first = session.run(seed=seed, fault_plan=plan)
        second = session.run(seed=seed, fault_plan=plan)
        violations: List[Violation] = []
        if first.signature() != second.signature():
            violations.append(Violation(
                "determinism",
                "serving campaign reports diverged across identical runs",
            ))
        violations += check_serve_accounting(first)
        violations += check_serve_deadline(first)
        return violations

    # ------------------------------------------------------------------
    def run_seed(
        self,
        seed: int,
        train: bool = False,
        elastic: bool = False,
        serve: bool = False,
        sample: bool = False,
    ) -> SeedResult:
        """Generate, execute and score one seed."""
        plan = self.generator.sample(seed)
        violations, obs = self.check_plan(plan)
        if train:
            violations += self.check_training(plan)
            violations += self.check_staleness()
        if sample:
            violations += self.check_minibatch(plan, seed)
        if elastic:
            violations += self.check_elastic(plan, seed)
        if serve:
            violations += self.check_serve(plan, seed)
        if violations:
            outcome = "violation"
        elif obs.error == "DeviceLostError":
            outcome = "crash-abort"
        else:
            outcome = "ok"
        return SeedResult(
            seed=seed,
            events=len(plan),
            outcome=outcome,
            violations=violations,
            total_time=obs.total_time,
            plan=plan,
        )

    def run(self, seeds: int, start_seed: int = 0) -> SoakReport:
        """The campaign: ``seeds`` consecutive seeds from ``start_seed``."""
        cfg = self.config
        results = []
        for i in range(seeds):
            train = cfg.train_every > 0 and i % cfg.train_every == 0
            sample = cfg.sample_every > 0 and i % cfg.sample_every == 0
            elastic = cfg.elastic_every > 0 and i % cfg.elastic_every == 0
            serve = cfg.serve_every > 0 and i % cfg.serve_every == 0
            results.append(
                self.run_seed(
                    start_seed + i, train=train, elastic=elastic,
                    serve=serve, sample=sample,
                )
            )
        return SoakReport(results=results, config=cfg.knobs())
