"""Fault-tolerant training: chaos in, a finished model out.

:class:`ResilientTrainer` wraps the distributed trainer in the full
recovery stack of this repo's robustness layer, accounting every epoch
on the simulated clock:

* **link faults** (degrade / flap / loss) slow the priced allgathers;
  wires that die between epochs trigger an incremental plan repair
  (:func:`~repro.faults.repair.repair_plan`) or, if the policy says so,
  a degraded peer-to-peer fallback;
* **control-plane faults** (dropped / delayed flags) are priced as the
  hardened protocol's re-fetch retries;
* **device stalls** stretch the epoch they land in;
* **device crashes** lose the victim's partition state: the trainer
  rolls back to its last checkpoint
  (:mod:`~repro.gnn.checkpoint`), restricts the topology to the
  survivors, repartitions ownership, re-dispatches the sub-graphs
  (priced via :func:`~repro.runtime.bootstrap.simulate_bootstrap`), and
  resumes training.

Numerics are exact: chaos that does not change the partition leaves the
model bit-identical to a fault-free run (the compiled allgather moves
the same rows, only slower); after a crash-driven repartition the final
model still matches the single-GPU reference up to float reduction
order.  Every intervention lands in a
:class:`~repro.faults.log.FaultLog` with simulated timestamps, so the
whole recovery story is reproducible from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.relation import CommRelation
from repro.core.spst import SPSTPlanner
from repro.errors import ElasticSpecError, UnrecoverableFaultError
from repro.faults.injector import FaultInjector
from repro.faults.log import FaultLog
from repro.faults.policy import DefaultPolicy, DeviceLostError, RecoveryPolicy
from repro.faults.repair import filter_topology, repair_plan
from repro.faults.spec import DeviceCrash, DeviceStall, FaultPlan, FlagDelay, FlagDrop
from repro.gnn.checkpoint import Checkpoint, restore, snapshot
from repro.gnn.distributed import DistributedTrainer
from repro.gnn.models import GNNModel, SGD
from repro.gnn.training import EpochResult
from repro.obs import console
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import TRAINER_TRACK
from repro.partition.hierarchical import hierarchical_partition
from repro.runtime.bootstrap import simulate_bootstrap
from repro.runtime.protocol import DEFAULT_CONTROL_LATENCY
from repro.simulator.executor import PlanExecutor
from repro.simulator.network import DEFAULT_ALPHA
from repro.topology.topology import Topology

__all__ = ["FaultRecoveryReport", "ResilientTrainer"]

#: Master-side crash confirmation latency: ``miss_limit`` consecutive
#: heartbeat windows of the hardened protocol (3 x 12 control RTTs).
DETECTION_SECONDS = 36 * DEFAULT_CONTROL_LATENCY

#: Cost of one flag re-fetch retry: the armed waiter's timeout budget
#: (20 control RTTs, mirroring ``ProtocolRunner.flag_timeout``) plus the
#: re-fetch round trip itself.
FLAG_RETRY_SECONDS = 22 * DEFAULT_CONTROL_LATENCY

#: Host bandwidth assumed when a device has no modelled staging path.
FALLBACK_HOST_BYTES_PER_SECOND = 12.8e9


@dataclass
class FaultRecoveryReport:
    """What resilient training cost, and what the faults did to it."""

    epochs: int
    epochs_executed: int
    total_seconds: float
    baseline_seconds: float
    epoch_seconds: List[float] = field(default_factory=list)
    checkpoints: int = 0
    rollbacks: int = 0
    lost_devices: List[int] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    log: FaultLog = field(default_factory=FaultLog)

    @property
    def overhead_seconds(self) -> float:
        """Simulated seconds the faults added over the fault-free run."""
        return max(self.total_seconds - self.baseline_seconds, 0.0)

    @property
    def overhead_ratio(self) -> float:
        """Overhead as a fraction of the fault-free cost."""
        if self.baseline_seconds <= 0:
            return 0.0
        return self.overhead_seconds / self.baseline_seconds

    def policy_counts(self) -> Dict[str, int]:
        """Recovery interventions per policy: retry / repair / degrade."""
        return self.log.policy_counts()

    def summary(self) -> str:
        """One-paragraph digest for benchmarks and the CLI."""
        lines = [
            f"resilient training: {self.epochs} epochs "
            f"({self.epochs_executed} executed, {self.rollbacks} rollbacks, "
            f"{self.checkpoints} checkpoints)",
            f"  simulated time {self.total_seconds * 1e3:.3f} ms "
            f"(fault-free {self.baseline_seconds * 1e3:.3f} ms, "
            f"overhead {self.overhead_ratio * 100:.1f}%)",
            f"  lost devices: {self.lost_devices or 'none'}; "
            f"policies: {self.policy_counts()}",
        ]
        return "\n".join(lines)


class ResilientTrainer:
    """Distributed training that survives the fault plan thrown at it."""

    def __init__(
        self,
        graph,
        topology: Topology,
        model: GNNModel,
        features: np.ndarray,
        labels: np.ndarray,
        lr: float = 0.01,
        optimizer=None,
        fault_plan: Optional[FaultPlan] = None,
        policy: Optional[RecoveryPolicy] = None,
        checkpoint_every: int = 2,
        seed: int = 0,
        alpha: float = DEFAULT_ALPHA,
        bytes_per_float: int = 4,
        telemetry: Telemetry = Telemetry(),
        oracle_hook=None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        self.graph = graph
        self.base_topology = topology
        self.model = model
        self.features = features
        self.labels = labels
        self.optimizer = optimizer or SGD(model, lr=lr)
        self.injector = FaultInjector(fault_plan)
        self.log = self.injector.log
        self.policy = policy if policy is not None else DefaultPolicy()
        self.checkpoint_every = checkpoint_every
        self.seed = seed
        self.alpha = alpha
        self.bytes_per_float = bytes_per_float
        #: Optional telemetry: recovery-lifecycle spans on self.clock.
        self.telemetry = telemetry
        #: Optional chaos-oracle callback ``(epoch, loss, clock)`` fired
        #: after every *executed* epoch (so a soak can assert invariants
        #: mid-run, e.g. gradient parity or clock monotonicity, instead
        #: of only post-mortem).  Purely observational: it must not
        #: mutate trainer state.
        self.oracle_hook = oracle_hook

        #: Simulated clock (seconds) across bootstrap, epochs, recovery.
        self.clock = 0.0
        #: Surviving devices, in the base topology's numbering.
        self.devices: List[int] = list(range(topology.num_devices))
        self.lost_devices: List[int] = []
        self.epoch = 0
        self.losses: List[float] = []
        self.checkpoints_taken = 0
        self.rollbacks = 0
        self._epochs_executed = 0
        self._handled_dead_conns: set = set()
        self._seen_degraded: set = set()
        self._consumed_stalls: set = set()
        self._control_charged = False

        self._build()
        #: Fault-free per-epoch comm cost of the *initial* plan (the
        #: baseline against which recovery overhead is measured).
        self._fault_free_epoch_seconds = self._comm_seconds(capacity_fn=None)
        self._initial_bootstrap_seconds = self._bootstrap_seconds()
        self.clock += self._initial_bootstrap_seconds
        self.telemetry.span(
            "bootstrap", "phase", TRAINER_TRACK, 0.0, self.clock,
            devices=len(self.devices),
        )
        self._checkpoint: Checkpoint = snapshot(
            self.model, self.optimizer, epoch=0, loss_history=[]
        )

    # ------------------------------------------------------------------
    # Cluster (re)construction
    def _build(self) -> None:
        """(Re)partition + (re)plan over the surviving hardware."""
        if len(self.devices) == self.base_topology.num_devices:
            topo = self.base_topology
        else:
            topo = self.base_topology.restrict(self.devices)
        dead = [
            n
            for n in self.injector.dead_connections(self.clock)
            if _topology_has_connection(topo, n)
        ]
        if dead:
            topo = filter_topology(topo, dead_connections=dead)
            self._handled_dead_conns.update(dead)
        part = hierarchical_partition(self.graph, topo, seed=self.seed)
        self.topology = topo
        self.relation = CommRelation(self.graph, part.assignment, topo.num_devices)
        self.plan = self._plan_for(topo, self.relation, part.assignment)
        self._rebuild_trainer()

    def _plan_for(self, topology: Topology, relation: CommRelation, assignment):
        """Plan the relation on ``topology`` — subclass hook.

        The base trainer always plans from scratch;
        :class:`~repro.elastic.controller.ElasticController` overrides
        this with a memo/patch ladder so planned transitions reuse
        surviving trees instead of paying Table 8's full planning cost.
        """
        return SPSTPlanner(topology, seed=self.seed).plan(relation)

    def _rebuild_trainer(self) -> None:
        """Fresh DistributedTrainer over the current plan, same weights."""
        self.trainer = DistributedTrainer(
            self.relation,
            self.plan,
            self.model,
            self.features,
            self.labels,
            optimizer=self.optimizer,
        )

    def _bootstrap_seconds(self) -> float:
        """Price the §6.3 dispatch of the current partition."""
        report = simulate_bootstrap(
            self.relation,
            self.plan,
            feature_bytes_per_vertex=self.features.shape[1] * self.bytes_per_float,
            alpha=self.alpha,
        )
        return report.total_seconds

    def _comm_seconds(self, capacity_fn) -> float:
        """One epoch's allgather + scatter cost under given capacities."""
        executor = PlanExecutor(
            self.plan.topology, alpha=self.alpha, capacity_of=capacity_fn
        )
        dims = self.model.layer_dims
        total = 0.0
        for li in range(self.model.num_layers):
            total += executor.execute(
                self.plan, dims[li] * self.bytes_per_float
            ).total_time
        for li in range(1, self.model.num_layers):
            total += executor.execute(
                self.plan, dims[li] * self.bytes_per_float, backward=True
            ).total_time
        return total

    def _checkpoint_seconds(self, payload_bytes: int) -> float:
        """Host round-trip cost of moving one snapshot payload."""
        bandwidth = FALLBACK_HOST_BYTES_PER_SECOND
        master = 0  # snapshots stage through the first survivor's host path
        path = self.topology.host_write_path(master)
        if path:
            bandwidth = min(c.bytes_per_second for c in path)
        return self.alpha + payload_bytes / bandwidth

    def _snapshot_payload_bytes(self) -> int:
        """Bytes one checkpoint writes (model + optimizer state)."""
        payload = self.model.state_bytes()
        if hasattr(self.optimizer, "state_bytes"):
            payload += self.optimizer.state_bytes()
        return payload

    # ------------------------------------------------------------------
    # Fault bookkeeping at epoch granularity
    def _pending_crashes(self, horizon: float) -> List[int]:
        """Surviving devices whose crash time falls at or before ``horizon``."""
        crashed = []
        for ev in self.injector.plan.of_type(DeviceCrash):
            if ev.device in self.devices and ev.time <= horizon:
                crashed.append(ev.device)
        return sorted(set(crashed))

    def _note_degraded_links(self) -> None:
        """Log newly observed slow (but alive) wires, once each."""
        for name, scale in sorted(self.injector.degraded_connections(self.clock).items()):
            key = (name, scale)
            if key in self._seen_degraded:
                continue
            self._seen_degraded.add(key)
            self.log.append(self.clock, "link", "inject", name, f"degraded to {scale:.2f}x")
            self.log.append(self.clock, "link", "detect", name, "slow transfers observed")

    def _handle_dead_links(self) -> float:
        """Repair (or degrade) the plan around newly dead wires.

        Returns the simulated seconds the re-plan cost; raises
        :class:`~repro.faults.policy.UnrecoverableFaultError` if even
        the degraded fallback cannot route around the loss.
        """
        dead_now = [
            n
            for n in self.injector.dead_connections(self.clock)
            if n not in self._handled_dead_conns
            and _topology_has_connection(self.plan.topology, n)
        ]
        if not dead_now:
            return 0.0
        self._handled_dead_conns.update(dead_now)
        for name in dead_now:
            self.log.append(self.clock, "link", "inject", name, "dead")
            self.log.append(self.clock, "link", "detect", name, "stalled transfers")

        overhead = DETECTION_SECONDS
        decision = self.policy.decide("link-dead", 1)
        result = None
        if decision == "repair":
            try:
                result = repair_plan(
                    self.plan, dead_connections=dead_now, seed=self.seed
                )
            except (UnrecoverableFaultError, ElasticSpecError):
                result = None  # fall through to the degraded path
        if result is not None:
            self.plan = result.plan
            if result.repaired_routes:
                self.log.append(
                    self.clock,
                    "link",
                    "repair",
                    ", ".join(dead_now),
                    f"re-routed {result.repaired_routes} vertex classes",
                )
            overhead += 2 * DEFAULT_CONTROL_LATENCY * max(result.touched, 1)
        else:
            from repro.core.baseline_planners import peer_to_peer_plan

            survivors = filter_topology(
                self.plan.topology, dead_connections=dead_now
            )
            self.plan = peer_to_peer_plan(self.relation, survivors)
            self.log.append(
                self.clock,
                "link",
                "degrade",
                ", ".join(dead_now),
                "full peer-to-peer fallback",
            )
            overhead += 2 * DEFAULT_CONTROL_LATENCY * len(self.plan.routes)
        if result is None or result.touched:
            self._rebuild_trainer()
        return overhead

    def _control_plane_seconds(self) -> float:
        """Price the plan's flag faults as hardened-protocol retries."""
        if self._control_charged:
            return 0.0
        self._control_charged = True
        overhead = 0.0
        for ev in self.injector.plan.of_type(FlagDrop):
            subject = f"{ev.kind}[d{ev.device},s{ev.stage}]"
            self.log.append(self.clock, "control", "inject", subject,
                            f"{ev.count} message(s) dropped")
            self.log.append(self.clock, "control", "detect", subject, "flag wait timed out")
            self.log.append(self.clock, "control", "retry", subject,
                            f"re-fetched peer state x{ev.count}")
            overhead += ev.count * FLAG_RETRY_SECONDS
        for ev in self.injector.plan.of_type(FlagDelay):
            subject = f"{ev.kind}[d{ev.device},s{ev.stage}]"
            self.log.append(self.clock, "control", "inject", subject,
                            f"message delayed {ev.delay * 1e6:.1f} us")
            self.log.append(self.clock, "control", "detect", subject, "late flag delivery")
            overhead += ev.delay
        return overhead

    def _stall_seconds(self, start: float, end: float) -> float:
        """Price device stalls overlapping the epoch window [start, end)."""
        overhead = 0.0
        for idx, ev in enumerate(self.injector.plan.of_type(DeviceStall)):
            if idx in self._consumed_stalls or ev.device not in self.devices:
                continue
            if start <= ev.time < end:
                self._consumed_stalls.add(idx)
                subject = f"device {ev.device}"
                self.log.append(self.clock, "device", "inject", subject,
                                f"transient stall {ev.duration * 1e6:.1f} us")
                self.log.append(self.clock, "device", "detect", subject,
                                "no transfer progress")
                self.log.append(self.clock, "device", "retry", subject,
                                "transfers resumed after stall")
                overhead += ev.duration
        return overhead

    # ------------------------------------------------------------------
    # Crash recovery
    def _recover_from_crashes(self, crashed: List[int]) -> None:
        """Roll back, shrink the cluster, repartition, re-dispatch."""
        for d in crashed:
            crash_t = self.injector.crash_time(d)
            self.log.append(crash_t, "device", "inject", f"device {d}", "permanent crash")
        detect_t = max(self.injector.crash_time(d) for d in crashed) + DETECTION_SECONDS
        self.clock = max(self.clock, detect_t)
        self.log.append(
            self.clock,
            "device",
            "detect",
            ", ".join(f"device {d}" for d in crashed),
            "heartbeats missed; peers confirmed dead",
        )
        for d in crashed:
            self.devices.remove(d)
            self.lost_devices.append(d)
        self.lost_devices.sort()
        if not self.devices:
            raise DeviceLostError(crashed, self.clock, fault_log=self.log)

        # Roll back to the last checkpoint: the victims' partition state
        # (their activations and any un-checkpointed progress) is gone.
        rollback_start = self.clock
        restore(self._checkpoint, self.model, self.optimizer)
        rolled_back = self.epoch - self._checkpoint.epoch
        self.epoch = self._checkpoint.epoch
        self.losses = list(self._checkpoint.loss_history)
        self.rollbacks += 1
        self.clock += self._checkpoint_seconds(self._snapshot_payload_bytes())
        self.log.append(
            self.clock,
            "trainer",
            "rollback",
            f"epoch {self.epoch}",
            f"restored checkpoint, re-running {rolled_back} epoch(s)",
        )
        self.telemetry.span(
            "rollback", "fault", TRAINER_TRACK, rollback_start,
            self.clock, epoch=self.epoch, rolled_back=rolled_back,
        )
        console.info(
            "rolled back to epoch %d after losing device(s) %s",
            self.epoch, sorted(crashed),
        )

        # Repartition ownership over the survivors and pay the §6.3
        # re-dispatch of sub-graphs, features and tables.
        repartition_start = self.clock
        self._build()
        self.clock += self._bootstrap_seconds()
        self.log.append(
            self.clock,
            "trainer",
            "repair",
            f"{len(self.devices)} survivors",
            f"repartitioned after losing device(s) {sorted(crashed)}",
        )
        self.telemetry.span(
            "repartition", "fault", TRAINER_TRACK, repartition_start,
            self.clock, survivors=len(self.devices),
        )
        console.info("repartitioned over %d survivors", len(self.devices))

    # ------------------------------------------------------------------
    def run_epoch(self, update: bool = True) -> EpochResult:
        """One epoch on the current (possibly shrunken) cluster."""
        return self.trainer.run_epoch(update=update)

    def train(self, epochs: int) -> FaultRecoveryReport:
        """Train to ``epochs`` completed epochs, surviving the fault plan.

        Returns a :class:`FaultRecoveryReport`; raises
        :class:`~repro.faults.policy.DeviceLostError` only if every
        device crashes, and
        :class:`~repro.faults.policy.UnrecoverableFaultError` if the
        surviving topology cannot carry the traffic at all.
        """
        epoch_seconds: List[float] = []
        # The fault-free cost of the same run: bootstrap, every epoch's
        # comm, and the proactive checkpoints a healthy run also takes.
        planned_checkpoints = sum(
            1 for e in range(1, epochs) if e % self.checkpoint_every == 0
        )
        baseline = (
            self._initial_bootstrap_seconds
            + epochs * self._fault_free_epoch_seconds
            + planned_checkpoints
            * self._checkpoint_seconds(self._snapshot_payload_bytes())
        )
        while self.epoch < epochs:
            epoch_start = self.clock
            overhead = self._control_plane_seconds()
            overhead += self._handle_dead_links()
            self._note_degraded_links()

            comm = self._comm_seconds(self.injector.capacity_fn_at(self.clock))
            comm += self._stall_seconds(epoch_start, epoch_start + comm)

            crashed = self._pending_crashes(self.clock + comm)
            if crashed:
                self._recover_from_crashes(crashed)
                del epoch_seconds[self.epoch:]
                continue

            result = self.trainer.run_epoch()
            self._epochs_executed += 1
            self.losses.append(result.loss)
            self.epoch += 1
            self.clock += comm + overhead
            epoch_seconds.append(self.clock - epoch_start)
            if self.oracle_hook is not None:
                self.oracle_hook(self.epoch - 1, float(result.loss), self.clock)
            self.telemetry.span(
                f"epoch {self.epoch - 1}", "epoch", TRAINER_TRACK,
                epoch_start, self.clock, loss=float(result.loss),
            )
            console.debug(
                "epoch %d: %.3f ms simulated", self.epoch - 1,
                (self.clock - epoch_start) * 1e3,
            )

            if self.epoch % self.checkpoint_every == 0 and self.epoch < epochs:
                self._checkpoint = snapshot(
                    self.model, self.optimizer, epoch=self.epoch,
                    loss_history=self.losses,
                )
                self.checkpoints_taken += 1
                ckpt_start = self.clock
                self.clock += self._checkpoint_seconds(self._checkpoint.nbytes())
                self.telemetry.span(
                    "checkpoint", "phase", TRAINER_TRACK, ckpt_start,
                    self.clock, epoch=self.epoch,
                    bytes=self._checkpoint.nbytes(),
                )
                if self.injector.is_armed:
                    self.log.append(
                        self.clock,
                        "trainer",
                        "checkpoint",
                        f"epoch {self.epoch}",
                        f"{self._checkpoint.nbytes()} B to host",
                    )

        return FaultRecoveryReport(
            epochs=self.epoch,
            epochs_executed=self._epochs_executed,
            total_seconds=self.clock,
            baseline_seconds=baseline,
            epoch_seconds=epoch_seconds,
            checkpoints=self.checkpoints_taken,
            rollbacks=self.rollbacks,
            lost_devices=list(self.lost_devices),
            losses=list(self.losses),
            log=self.log,
        )

    # ------------------------------------------------------------------
    def gather_logits(self) -> np.ndarray:
        """Globally ordered logits from the current distributed state."""
        return self.trainer.run_epoch(update=False).logits


def _topology_has_connection(topology: Topology, name: str) -> bool:
    """True if any link of ``topology`` carries a connection ``name``."""
    for link in topology.links:
        if any(c.name == name for c in link.connections):
            return True
    return False
