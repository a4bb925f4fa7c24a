"""Planned elastic transitions: grow/shrink as a zero-surprise handoff.

:class:`ElasticController` inverts the crash-recovery machinery of
:class:`~repro.gnn.resilient.ResilientTrainer` into *voluntary*
elasticity.  Where a crash is detected late, rolls training back to the
last checkpoint and repartitions in a hurry, a planned transition runs
the same moves in a controlled order, with nothing lost:

1. **drain** — in-flight collectives finish; priced as control round
   trips across the active devices;
2. **checkpoint** — a safety snapshot via :mod:`repro.gnn.checkpoint`
   (never restored on the happy path: the live model and optimizer
   carry over, which is why gradient parity holds across transitions);
3. **repartition** — vertex ownership is re-cut over the new device
   set by the same hierarchical partitioner crash recovery uses,
   generalised from "survivors only" to additions;
4. **plan patch** — the shared
   :class:`~repro.autotune.resolver.PlanResolver` ladder: a memo hit
   first (re-entering a previously-planned device set returns that
   plan verbatim), then a patch of the previous plan's surviving trees,
   then a cold SPST plan;
5. **resume** — the §6.3 re-dispatch of sub-graphs and tables is
   priced via :func:`~repro.runtime.bootstrap.simulate_bootstrap` and
   training continues on the same weights.

The whole handoff lands on the simulated clock as a measured
*downtime* window, recorded as a ``scale-out`` / ``scale-in``
intervention in the :class:`~repro.faults.log.FaultLog` (so Gantt
charts mark it next to the faults) and, armed, spanned on the trainer
track.  Because the controller *is* a ResilientTrainer, elastic
transitions compose with chaos: faults can land before, during and
after a handoff and the usual retry/repair/degrade ladder still runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.autotune.cache import PlanCache
from repro.autotune.fingerprint import cache_key
from repro.autotune.resolver import PlanResolver
from repro.core.relation import CommRelation
from repro.core.spst import SPSTPlanner
from repro.errors import ElasticSpecError
from repro.gnn.checkpoint import snapshot
from repro.gnn.resilient import FaultRecoveryReport, ResilientTrainer
from repro.obs.tracer import TRAINER_TRACK
from repro.runtime.protocol import DEFAULT_CONTROL_LATENCY
from repro.topology.topology import Topology

__all__ = ["ElasticPolicy", "TransitionReport", "ElasticController",
           "validate_transition"]

#: Chunking used for every plan the controller grows — kept equal to
#: the SPSTPlanner and incremental_replan defaults so a memoised cold
#: plan and a patched plan live in the same plan family.
CHUNKS_PER_CLASS = 4


@dataclass(frozen=True)
class ElasticPolicy:
    """Knobs governing planned transitions."""

    #: Shrinking below this many devices is refused.
    min_devices: int = 1
    #: Growing beyond this many devices is refused (None = topology size).
    max_devices: Optional[int] = None
    #: "incremental" patches the previous plan; "full" always replans.
    replan: str = "incremental"
    #: Control RTTs per active device charged for the drain barrier.
    drain_rtts: int = 2

    def __post_init__(self) -> None:
        if self.min_devices < 1:
            raise ElasticSpecError("min_devices must be at least 1")
        if self.max_devices is not None and self.max_devices < self.min_devices:
            raise ElasticSpecError("max_devices below min_devices")
        if self.replan not in ("incremental", "full"):
            raise ElasticSpecError(
                f"replan must be 'incremental' or 'full', not {self.replan!r}"
            )
        if self.drain_rtts < 0:
            raise ElasticSpecError("drain_rtts must be non-negative")


@dataclass(frozen=True)
class TransitionReport:
    """One planned handoff, fully priced on the simulated clock."""

    kind: str  # "grow" | "shrink"
    delta: Tuple[int, ...]       # devices added or removed (base ids)
    devices_before: Tuple[int, ...]
    devices_after: Tuple[int, ...]
    start: float
    finish: float
    drain_seconds: float
    checkpoint_seconds: float
    replan_seconds: float
    bootstrap_seconds: float
    plan_source: str  # "memo" | "patched" | "replanned" | "planned"
    #: Training epoch the handoff ran at; -1 for session-level
    #: transitions, which have no epoch counter.
    epoch: int = -1

    @property
    def downtime_seconds(self) -> float:
        """The full handoff window: drain to resumed training."""
        return self.finish - self.start

    def as_dict(self) -> dict:
        """JSON-ready view of the handoff, every phase itemised."""
        return {
            "kind": self.kind,
            "delta": list(self.delta),
            "devices_before": list(self.devices_before),
            "devices_after": list(self.devices_after),
            "epoch": self.epoch,
            "start": self.start,
            "finish": self.finish,
            "downtime_seconds": self.downtime_seconds,
            "drain_seconds": self.drain_seconds,
            "checkpoint_seconds": self.checkpoint_seconds,
            "replan_seconds": self.replan_seconds,
            "bootstrap_seconds": self.bootstrap_seconds,
            "plan_source": self.plan_source,
        }

    def summary(self) -> str:
        """One line: kind, delta, device counts, downtime, plan rung."""
        where = f" at epoch {self.epoch}" if self.epoch >= 0 else ""
        return (
            f"{self.kind} {list(self.delta)}{where}: "
            f"{len(self.devices_before)}->{len(self.devices_after)} devices, "
            f"downtime {self.downtime_seconds * 1e6:.1f} us "
            f"(plan: {self.plan_source})"
        )


class ElasticController(ResilientTrainer):
    """A resilient trainer whose device set changes on purpose.

    Accepts every :class:`~repro.gnn.resilient.ResilientTrainer`
    argument plus ``devices`` (the initially active subset of the base
    topology, default all) and ``elastic`` (an :class:`ElasticPolicy`).
    """

    def __init__(
        self,
        graph,
        topology: Topology,
        model,
        features,
        labels,
        devices: Optional[Sequence[int]] = None,
        elastic: Optional[ElasticPolicy] = None,
        **kwargs,
    ) -> None:
        self.elastic = elastic or ElasticPolicy()
        self._initial_devices = (
            self._validated_subset(topology, devices) if devices is not None else None
        )
        #: Memo of planned device sets, by content fingerprint: a grow
        #: back onto a previously-planned set is a pure lookup, so the
        #: plan equals the cold plan for that set *exactly*.
        self._resolver = PlanResolver(PlanCache(None))
        #: Donor for incremental patching: the previous plan's device
        #: set (base ids) and its donor document.
        self._donor: Optional[Tuple[List[int], dict]] = None
        self.transitions: List[TransitionReport] = []
        super().__init__(graph, topology, model, features, labels, **kwargs)

    # ------------------------------------------------------------------
    @staticmethod
    def _validated_subset(topology: Topology, devices: Sequence[int]) -> List[int]:
        devs = sorted(set(int(d) for d in devices))
        if not devs:
            raise ElasticSpecError("the active device set must not be empty")
        bad = [d for d in devs if not 0 <= d < topology.num_devices]
        if bad:
            raise ElasticSpecError(
                f"unknown device(s) {bad}: the base topology has "
                f"{topology.num_devices} devices"
            )
        return devs

    # ------------------------------------------------------------------
    # Planning ladder
    def _plan_for(self, topology: Topology, relation: CommRelation, assignment):
        if self._initial_devices is not None:
            # First _build runs inside ResilientTrainer.__init__, which
            # starts from the full device set; apply the requested
            # initial subset exactly once, then rebuild on it.
            self.devices = list(self._initial_devices)
            self._initial_devices = None
            if len(self.devices) != self.base_topology.num_devices:
                self._build()
                return self.plan

        def key():
            return cache_key(self.graph, assignment, topology, {
                "strategy": "spst",
                "seed": self.seed,
                "chunks_per_class": CHUNKS_PER_CLASS,
                "elastic": True,
            })

        def cold():
            return SPSTPlanner(
                topology, chunks_per_class=CHUNKS_PER_CLASS, seed=self.seed
            ).plan(relation)

        def donor(_key):
            return _remapped_donor_doc(*self._donor, self.devices)

        patch = self._donor is not None and self.elastic.replan == "incremental"
        resolution = self._resolver.resolve(
            relation, topology, key, cold, donor=donor if patch else None,
            chunks_per_class=CHUNKS_PER_CLASS, seed=self.seed,
        )
        self.plan_source = resolution.source
        self._donor = (list(self.devices), resolution.donor())
        return resolution.plan

    # ------------------------------------------------------------------
    # Planned transitions
    def grow(self, devices: Sequence[int]) -> TransitionReport:
        """Add ``devices`` (base-topology ids) to the active set."""
        return self._transition("grow", devices)

    def shrink(self, devices: Sequence[int]) -> TransitionReport:
        """Remove ``devices`` (base-topology ids) from the active set."""
        return self._transition("shrink", devices)

    def _transition(self, kind: str, devices: Sequence[int]) -> TransitionReport:
        delta, after = validate_transition(
            kind, devices, self.devices, self.base_topology.num_devices,
            self.elastic, lost=self.lost_devices,
        )
        start = self.clock
        before = tuple(self.devices)

        # 1. drain: let in-flight collectives land (a control barrier
        # across the currently active devices).
        drain = self.elastic.drain_rtts * DEFAULT_CONTROL_LATENCY * len(before)
        self.clock += drain

        # 2. safety checkpoint — kept, not restored: the live weights
        # carry straight over, so the loss trajectory is untouched.
        self._checkpoint = snapshot(
            self.model, self.optimizer, epoch=self.epoch,
            loss_history=self.losses,
        )
        self.checkpoints_taken += 1
        ckpt_seconds = self._checkpoint_seconds(self._checkpoint.nbytes())
        self.clock += ckpt_seconds
        self.log.append(
            self.clock, "trainer", "checkpoint", f"epoch {self.epoch}",
            f"handoff safety point ({self._checkpoint.nbytes()} B)",
        )

        # 3+4. repartition onto the new set and run the plan ladder.
        self.devices = after
        self._build()
        # Plan surgery priced like the repair path: control round trips
        # to update the touched send/receive tables everywhere.
        replan_seconds = 2 * DEFAULT_CONTROL_LATENCY * max(len(self.plan.routes), 1)
        self.clock += replan_seconds

        # 5. re-dispatch sub-graphs, features and routing tables (§6.3).
        boot_seconds = self._bootstrap_seconds()
        self.clock += boot_seconds

        action = "scale-out" if kind == "grow" else "scale-in"
        self.log.append(
            self.clock,
            "trainer",
            action,
            f"device(s) {delta}",
            f"{len(before)}->{len(after)} devices via {self.plan_source} "
            f"plan; downtime {(self.clock - start) * 1e6:.1f} us",
        )
        self.telemetry.span(
            action, "phase", TRAINER_TRACK, start, self.clock,
            devices=len(after), plan=self.plan_source,
        )
        report = TransitionReport(
            kind=kind,
            delta=tuple(delta),
            devices_before=before,
            devices_after=tuple(after),
            start=start,
            finish=self.clock,
            drain_seconds=drain,
            checkpoint_seconds=ckpt_seconds,
            replan_seconds=replan_seconds,
            bootstrap_seconds=boot_seconds,
            plan_source=self.plan_source,
            epoch=self.epoch,
        )
        self.transitions.append(report)
        return report

    # ------------------------------------------------------------------
    def train_with_schedule(
        self,
        epochs: int,
        actions: Sequence[Tuple[int, str, Sequence[int]]] = (),
    ) -> FaultRecoveryReport:
        """Train to ``epochs``, applying ``(epoch, kind, devices)`` actions.

        Each action fires at the end of its named epoch (clamped to the
        run); ``kind`` is ``"grow"`` or ``"shrink"``.  Scheduler
        :class:`~repro.elastic.scheduler.ElasticAction` objects adapt
        via ``(epoch, action.kind, action.devices)``.
        """
        pending = sorted(
            ((int(e), str(kind), tuple(devs)) for e, kind, devs in actions),
            key=lambda t: t[0],
        )
        for e, kind, devs in pending:
            target = min(max(e, self.epoch), epochs)
            if target > self.epoch:
                self.train(target)
            if kind == "grow":
                self.grow(devs)
            elif kind == "shrink":
                self.shrink(devs)
            else:
                raise ElasticSpecError(
                    f"unknown elastic action kind {kind!r}"
                )
        return self.train(epochs)


def validate_transition(
    kind: str,
    devices: Sequence[int],
    active: Sequence[int],
    num_devices: int,
    policy: ElasticPolicy,
    lost: Sequence[int] = (),
) -> Tuple[List[int], List[int]]:
    """Check a grow/shrink of base-topology ``devices`` against the
    ``active`` set, ``policy`` and ``lost`` (crashed, cannot rejoin)
    devices; returns ``(delta, devices_after)`` or raises
    :class:`~repro.errors.ElasticSpecError`."""
    delta = sorted(set(int(d) for d in devices))
    if not delta:
        raise ElasticSpecError(f"{kind}: empty device set")
    bad = [d for d in delta if not 0 <= d < num_devices]
    if bad:
        raise ElasticSpecError(
            f"{kind}: unknown device(s) {bad}: the base topology has "
            f"{num_devices} devices"
        )
    active = set(active)
    if kind == "grow":
        overlap = sorted(set(delta) & active)
        if overlap:
            raise ElasticSpecError(
                f"grow: device(s) {overlap} are already active"
            )
        crashed = sorted(set(delta) & set(lost))
        if crashed:
            raise ElasticSpecError(
                f"grow: device(s) {crashed} crashed earlier and cannot rejoin"
            )
        ceiling = policy.max_devices or num_devices
        if len(active) + len(delta) > ceiling:
            raise ElasticSpecError(
                f"grow: {len(active)} + {len(delta)} devices exceeds "
                f"the policy ceiling of {ceiling}"
            )
        return delta, sorted(active | set(delta))
    missing = sorted(set(delta) - active)
    if missing:
        raise ElasticSpecError(f"shrink: device(s) {missing} are not active")
    after = sorted(active - set(delta))
    floor = max(policy.min_devices, 1)
    if len(after) < floor:
        raise ElasticSpecError(
            f"shrink: {len(after)} device(s) would remain, policy "
            f"floor is {floor}"
        )
    return delta, after


def _remapped_donor_doc(
    old_devices: Sequence[int], donor: dict, new_devices: Sequence[int]
) -> Optional[dict]:
    """Re-number a donor plan document onto a new active device set.

    The donor plan addressed devices in its own restricted numbering;
    the new plan will address the new restriction's.  Both restrictions
    share the base topology's ids, so routes remap old-local -> base ->
    new-local.  Routes whose endpoints left the set are dropped (their
    classes regrow from the new relation); routes whose *transit* edges
    left keep their identity but lose their tree, forced onto the
    regrow list via an unresolvable sentinel edge.  Returns None when
    nothing survives.
    """
    old_to_base = dict(enumerate(old_devices))
    base_to_new = {d: i for i, d in enumerate(sorted(set(new_devices)))}
    routes = []
    for rd in donor["plan"]["routes"]:
        src = base_to_new.get(old_to_base.get(rd["source"]))
        dests = [base_to_new.get(old_to_base.get(d)) for d in rd["destinations"]]
        if src is None or any(d is None for d in dests):
            continue
        edges = []
        for e in rd["edges"]:
            es = base_to_new.get(old_to_base.get(e["src"]))
            ed = base_to_new.get(old_to_base.get(e["dst"]))
            if es is None or ed is None:
                # A hop through a departed device: the route survives
                # but its tree must regrow.
                edges = [{"src": -1, "dst": -1,
                          "hops": ["__elastic-dropped__"], "stage": 0}]
                break
            edges.append({"src": es, "dst": ed,
                          "hops": list(e["hops"]), "stage": e["stage"]})
        routes.append(
            {
                "source": src,
                "destinations": sorted(dests),
                "vertices": rd["vertices"],
                "edges": edges,
            }
        )
    if not routes:
        return None
    return {"plan": {"routes": routes}, "meta": donor["meta"]}
