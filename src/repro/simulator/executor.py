"""Execution of communication plans on the simulated network.

:class:`PlanExecutor` runs the compiled ``(d_i, d_j, k, T_s, T_r)``
tuples of a :class:`~repro.core.plan.CommPlan` under the decentralized
coordination protocol of paper §6.1: a transfer of stage ``k`` between
devices ``i`` and ``j`` starts as soon as *both* endpoints have finished
all their stage ``< k`` transfers — no global barrier, so independent
device pairs drift through stages at their own pace and transient
stragglers do not block unrelated traffic.  The centralized master
barrier it is argued against lives in one place only:
:class:`~repro.runtime.protocol.ProtocolRunner`.

:class:`SwapExecutor` models the NeuGraph-style Swap baseline: every
device dumps its local embeddings to host memory, a barrier, then every
device loads its remote set back — including the chain-transfer
optimisation where the two GPUs under one PCIe switch deduplicate their
host reads and forward the shared part GPU-to-GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.methods import MethodTable
from repro.core.plan import CommPlan, CommTuple
from repro.core.relation import CommRelation
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import connection_track, device_track
from repro.simulator.network import (
    DEFAULT_ALPHA,
    Flow,
    FlowResult,
    NetworkSimulator,
    _check_amount,
    bottleneck_seconds,
)
from repro.topology.links import LinkKind
from repro.topology.topology import Topology

__all__ = ["ExecutionReport", "PlanExecutor", "SwapExecutor",
           "record_report"]

#: Effective receive throughput under atomic gradient accumulation
#: (§6.2): colliding atomicAdds on the receive path derate the transfer
#: pipeline.  Calibrated to the paper's Table 9 (1.3-1.6x slowdown).
#: Non-atomic sub-stage execution pays no such derating; its per-receiver
#: serialisation is absorbed by inbound-link bandwidth sharing.
ATOMIC_RECEIVE_EFFICIENCY = 0.75


@dataclass
class ExecutionReport:
    """Outcome of executing one graphAllgather (or one swap round)."""

    total_time: float
    flows: List[FlowResult] = field(default_factory=list)
    stage_finish: Dict[int, float] = field(default_factory=dict)
    extra_time: float = 0.0  # e.g. atomic-aggregation penalty

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    def bytes_moved(self) -> float:
        """Total payload bytes across all flows."""
        return sum(r.flow.size_bytes for r in self.flows)

    def time_on_kinds(self, kinds: Sequence[LinkKind]) -> float:
        """Finish time of the last flow whose tag-link kind is in ``kinds``."""
        wanted = set(kinds)
        finish = [
            r.finish_time
            for r in self.flows
            if getattr(r.flow.tag, "link", None) is not None
            and r.flow.tag.link.kind in wanted
        ]
        return max(finish, default=0.0)


def record_report(
    report: ExecutionReport,
    telemetry: Telemetry,
    base: float = 0.0,
    phase: str = "allgather",
) -> None:
    """Post-hoc telemetry for one executed collective.

    The flow simulator already returns exact per-flow timings, so
    telemetry never touches the hot path: spans and metrics are derived
    from the finished :class:`ExecutionReport`, shifted by ``base``
    (the caller's simulated clock) onto one absolute timeline.  With a
    disarmed handle this is a no-op.
    """
    if not telemetry.armed:
        return
    per_device: Dict[Tuple[int, int], List[FlowResult]] = {}
    per_stage: Dict[int, List[FlowResult]] = {}
    for result in report.flows:
        tag = result.flow.tag
        size = result.flow.size_bytes
        has_tuple = tag is not None and hasattr(tag, "src")
        args = {"bytes": size}
        if has_tuple:
            name = f"{tag.src}->{tag.dst} s{tag.stage}"
            per_device.setdefault((tag.src, tag.stage), []).append(result)
            if tag.dst != tag.src:
                per_device.setdefault((tag.dst, tag.stage), []).append(result)
            per_stage.setdefault(tag.stage, []).append(result)
            args.update(src=tag.src, dst=tag.dst, stage=tag.stage,
                        kind=tag.link.kind.value)
        else:
            name = phase
        for conn in result.flow.path:
            telemetry.count("comm.bytes", size, conn=conn.name)
            telemetry.count("comm.bytes", size, kind=conn.kind.value)
        telemetry.count("comm.flows")
        telemetry.observe("comm.queue_seconds",
                          result.start_time - result.flow.release_time)
        for conn in result.flow.path:
            telemetry.span(
                name, "comm", connection_track(conn.name),
                base + result.start_time, base + result.finish_time,
                **args,
            )
    for (dev, stage), results in sorted(per_device.items()):
        telemetry.span(
            f"stage {stage}", "stage", device_track(dev),
            base + min(r.start_time for r in results),
            base + max(r.finish_time for r in results),
            flows=len(results),
            bytes=sum(r.flow.size_bytes for r in results),
        )
    for stage, results in sorted(per_stage.items()):
        finishes = [r.finish_time for r in results]
        telemetry.observe("stage.straggler_gap", max(finishes) - min(finishes))


class PlanExecutor:
    """Executes compiled communication tuples on the flow simulator."""

    def __init__(
        self,
        topology: Topology,
        alpha: float = DEFAULT_ALPHA,
        packing_efficiency: float = 1.0,
        methods: Optional[MethodTable] = None,
        capacity_of=None,
        telemetry: Telemetry = Telemetry(),
    ) -> None:
        if not 0.0 < packing_efficiency <= 1.0:
            raise ValueError("packing_efficiency must be in (0, 1]")
        self.topology = topology
        self.alpha = alpha
        #: Bandwidth override hook (fault injection); None = nominal.
        self.capacity_of = capacity_of
        self.network = NetworkSimulator(alpha=alpha, capacity_of=capacity_of)
        self.packing_efficiency = packing_efficiency
        #: Per-pair transfer mechanisms (§6.2); None = ideal transfers.
        self.methods = methods
        #: Telemetry sinks: spans, metrics, audits and flight records
        #: of finished reports only — arming them never changes a
        #: simulated timing.
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def execute(self, plan: CommPlan, bytes_per_unit: float,
                backward: bool = False,
                fidelity: str = "event",
                label: Optional[str] = None) -> ExecutionReport:
        """Run one graphAllgather (forward) or gradient scatter (backward).

        ``fidelity="event"`` is the full flow-level simulation;
        ``fidelity="cost"`` prices the same tuples from the aggregate
        per-stage traffic only — O(stages x connections), no events.
        ``label`` names the collective in audit/profile records.
        """
        tuples = plan.backward_tuples() if backward else plan.tuples()
        if label is None:
            label = "scatter" if backward else "allgather"
        return self.execute_tuples(tuples, bytes_per_unit, fidelity=fidelity,
                                   label=label)

    def execute_backward(
        self,
        tuples: Sequence[CommTuple],
        bytes_per_unit: float,
        atomic: bool,
        fidelity: str = "event",
        label: Optional[str] = None,
    ) -> ExecutionReport:
        """Gradient scatter with or without atomic accumulation (§6.2).

        Atomic mode derates the receive pipeline by
        :data:`ATOMIC_RECEIVE_EFFICIENCY`; the non-atomic sub-stage
        schedule runs at full rate.
        """
        eff = ATOMIC_RECEIVE_EFFICIENCY if atomic else 1.0
        return self.execute_tuples(tuples, bytes_per_unit / eff,
                                   fidelity=fidelity,
                                   label=label or "scatter")

    def execute_tuples(
        self, tuples: Sequence[CommTuple], bytes_per_unit: float,
        fidelity: str = "event",
        label: Optional[str] = None,
    ) -> ExecutionReport:
        """Run an arbitrary tuple subset (used for per-link breakdowns)."""
        if fidelity not in ("event", "cost"):
            raise ValueError("fidelity must be 'event' or 'cost'")
        _check_amount("bytes_per_unit", bytes_per_unit)
        if not tuples:
            return ExecutionReport(total_time=0.0)
        if fidelity == "cost":
            report = self._execute_cost_only(tuples, bytes_per_unit)
        else:
            report = self._execute_decentralized(tuples, bytes_per_unit)
        telemetry = self.telemetry
        record_report(report, telemetry, base=telemetry.now)
        telemetry.audit(tuples, report, bytes_per_unit,
                        label=label or "collective", fidelity=fidelity)
        telemetry.record(label or "collective", report)
        return report

    def _flow_bytes(self, t: CommTuple, bytes_per_unit: float) -> float:
        size = t.units * bytes_per_unit / self.packing_efficiency
        if self.methods is not None:
            size /= self.methods.profile(t.src, t.dst).efficiency
        return size

    def _setup_extra(self, t: CommTuple) -> float:
        """Extra setup latency beyond the base alpha (method dependent)."""
        if self.methods is None:
            return 0.0
        factor = self.methods.profile(t.src, t.dst).alpha_factor
        return self.alpha * (factor - 1.0)

    # -- cost-only: stage times straight from the traffic matrix --------
    def _execute_cost_only(
        self, tuples: Sequence[CommTuple], bytes_per_unit: float
    ) -> ExecutionReport:
        """Coarse pricing: per-stage bottleneck serialisation, no events.

        Each stage's duration is the load of its most contended
        connection (the fluid model's lower bound) plus one startup
        latency, and stages run back-to-back — a barrier-style
        approximation of the decentralized protocol.  Per-pair method
        efficiency, packing efficiency, and the fault injector's
        ``capacity_of`` overrides all apply exactly as in the event
        simulation; what is lost is fair-sharing contention detail and
        cross-stage overlap.  The report carries ``stage_finish`` but no
        flows.
        """
        stage_bytes: Dict[int, Dict[object, float]] = {}
        stage_setup: Dict[int, float] = {}
        for t in tuples:
            size = self._flow_bytes(t, bytes_per_unit)
            row = stage_bytes.setdefault(t.stage, {})
            for conn in t.link.connections:
                row[conn] = row.get(conn, 0.0) + size
            setup = self.alpha + self._setup_extra(t)
            if setup > stage_setup.get(t.stage, 0.0):
                stage_setup[t.stage] = setup
        now = 0.0
        stage_finish: Dict[int, float] = {}
        for k in sorted(stage_bytes):
            now += stage_setup[k] + bottleneck_seconds(
                stage_bytes[k], capacity_of=self.capacity_of
            )
            stage_finish[k] = now
        return ExecutionReport(total_time=now, flows=[],
                               stage_finish=stage_finish)

    # -- decentralized: dependency-triggered stage starts ---------------
    def _execute_decentralized(
        self, tuples: Sequence[CommTuple], bytes_per_unit: float
    ) -> ExecutionReport:
        num_devices = self.topology.num_devices
        # outstanding[d][k]: transfers of stage k touching device d that
        # have not finished yet (pending or in flight).
        stages = sorted({t.stage for t in tuples})
        outstanding = [dict.fromkeys(stages, 0) for _ in range(num_devices)]
        for t in tuples:
            outstanding[t.src][t.stage] += 1
            if t.dst != t.src:
                outstanding[t.dst][t.stage] += 1

        def ready(t: CommTuple) -> bool:
            for dev in (t.src, t.dst):
                for k in stages:
                    if k >= t.stage:
                        break
                    if outstanding[dev][k] > 0:
                        return False
            return True

        pending: List[CommTuple] = [t for t in tuples if t.stage != stages[0]]
        initial = [t for t in tuples if t.stage == stages[0]]
        # Non-first-stage tuples with no earlier-stage work at either
        # endpoint may also start immediately.
        startable = [t for t in pending if ready(t)]
        pending = [t for t in pending if not ready(t)]
        initial.extend(startable)

        def make_flow(t: CommTuple, release: float) -> Flow:
            return Flow(
                path=t.link.connections,
                size_bytes=self._flow_bytes(t, bytes_per_unit),
                release_time=release + self._setup_extra(t),
                tag=t,
            )

        state = {"pending": pending}

        def on_complete(result: FlowResult, now: float) -> List[Flow]:
            t: CommTuple = result.flow.tag
            outstanding[t.src][t.stage] -= 1
            if t.dst != t.src:
                outstanding[t.dst][t.stage] -= 1
            released: List[Flow] = []
            still_pending = []
            for cand in state["pending"]:
                if ready(cand):
                    released.append(make_flow(cand, now))
                else:
                    still_pending.append(cand)
            state["pending"] = still_pending
            return released

        results = self.network.run(
            [make_flow(t, 0.0) for t in initial], on_complete=on_complete
        )
        if state["pending"]:
            raise RuntimeError(
                f"{len(state['pending'])} transfers never became ready; "
                "the plan's stage dependencies are cyclic"
            )
        total = max(r.finish_time for r in results)
        stage_finish: Dict[int, float] = {}
        for r in results:
            k = r.flow.tag.stage
            stage_finish[k] = max(stage_finish.get(k, 0.0), r.finish_time)
        return ExecutionReport(total_time=total, flows=results,
                               stage_finish=stage_finish)


class SwapExecutor:
    """The NeuGraph-style Swap baseline (§7, "Swap").

    Per layer: every GPU dumps all its local vertex embeddings to host
    memory over PCIe, then — after a barrier, since consumers must see
    complete data — every GPU loads its remote set back.  Reads of
    vertices owned by GPUs on the other socket additionally cross QPI.
    The chain-transfer optimisation deduplicates host reads between the
    two GPUs under one PCIe switch and forwards the shared vertices
    GPU-to-GPU through the switch.
    """

    def __init__(self, topology: Topology, alpha: float = DEFAULT_ALPHA,
                 chain_transfer: bool = True,
                 host_efficiency: float = 0.5,
                 telemetry: Telemetry = Telemetry()) -> None:
        if topology.num_machines() > 1:
            raise ValueError(
                "Swap stages through one machine's host memory; the paper "
                "does not run it across machines"
            )
        for dev in topology.devices():
            if not topology.has_host_staging(dev):
                raise ValueError(f"device {dev} lacks a host staging path")
        self.topology = topology
        self.network = NetworkSimulator(alpha=alpha)
        self.chain_transfer = chain_transfer
        self.telemetry = telemetry
        if not 0.0 < host_efficiency <= 1.0:
            raise ValueError("host_efficiency must be in (0, 1]")
        #: Fraction of peak PCIe bandwidth the CPU-mediated staging path
        #: achieves (pageable copies, chunk scheduling, no overlap).
        self.host_efficiency = host_efficiency

    def execute(
        self,
        relation: CommRelation,
        read_bytes_per_unit: float,
        dump_bytes_per_unit: Optional[float] = None,
    ) -> ExecutionReport:
        """One swap round: optional dump phase, barrier, read phase.

        ``dump_bytes_per_unit`` is None at the input-feature boundary —
        features already live in host memory, so only reads happen
        (this asymmetry is why Swap does comparatively well on dense
        graphs with fat input features, cf. the paper's Reddit results).
        """
        topo = self.topology
        eff = self.host_efficiency

        # Phase 1: dump freshly computed local embeddings to host.
        dump_flows = []
        if dump_bytes_per_unit is not None:
            dump_flows = [
                Flow(
                    path=topo.host_write_path(d),
                    size_bytes=relation.local_vertices[d].size
                    * dump_bytes_per_unit / eff,
                    tag=None,
                )
                for d in topo.devices()
                if relation.local_vertices[d].size
            ]
        dump_results = self.network.run(dump_flows)
        barrier = max((r.finish_time for r in dump_results), default=0.0)
        bytes_per_unit = read_bytes_per_unit / eff

        # Phase 2: load each device's remote set from host memory.
        load_flows: List[Flow] = []
        switch_members: Dict[int, List[int]] = {}
        for d in topo.devices():
            switch_members.setdefault(topo.switch_of[d], []).append(d)

        qpi_conns = {
            name: conn
            for name, conn in topo.connections.items()
            if conn.kind == LinkKind.QPI
        }

        def read_paths(device: int, cross_socket: bool):
            path = list(topo.host_read_path(device))
            if cross_socket and qpi_conns:
                # Embeddings live on the owner's socket; pulling them
                # crosses the inter-socket interconnect first.
                target_socket = topo.socket_of[device]
                qpi = None
                for name, conn in qpi_conns.items():
                    if name.endswith(f"->{target_socket}"):
                        qpi = conn
                        break
                if qpi is None:
                    qpi = next(iter(qpi_conns.values()))
                path = [qpi] + path
            return tuple(path)

        for members in switch_members.values():
            # NeuGraph streams the graph in chunks: after a dump, a GPU
            # re-loads every row it trains on — local and remote alike.
            remote_sets = {
                d: np.union1d(
                    relation.remote_vertices[d], relation.local_vertices[d]
                )
                for d in members
            }
            shared: np.ndarray = np.empty(0, dtype=np.int64)
            if self.chain_transfer and len(members) == 2:
                a, b = members
                shared = np.intersect1d(remote_sets[a], remote_sets[b])
            for d in members:
                need = remote_sets[d]
                if self.chain_transfer and shared.size and d != members[0]:
                    need = np.setdiff1d(need, shared)
                if need.size == 0:
                    continue
                owners = relation.assignment[need]
                owner_socket = np.asarray(
                    [topo.socket_of[o] for o in owners], dtype=np.int64
                )
                same = int((owner_socket == topo.socket_of[d]).sum())
                cross = int(need.size - same)
                if same:
                    load_flows.append(
                        Flow(read_paths(d, False), same * bytes_per_unit,
                             release_time=barrier)
                    )
                if cross:
                    load_flows.append(
                        Flow(read_paths(d, True), cross * bytes_per_unit,
                             release_time=barrier)
                    )
            if self.chain_transfer and shared.size and len(members) == 2:
                # Forward the deduplicated part through the switch.
                a, b = members
                link = topo.direct_link(a, b)
                if link is not None:
                    load_flows.append(
                        Flow(link.connections, shared.size * bytes_per_unit,
                             release_time=barrier, tag=None)
                    )
        load_results = self.network.run(load_flows)
        total = max((r.finish_time for r in load_results), default=barrier)
        base = self.telemetry.now
        record_report(
            ExecutionReport(total_time=barrier, flows=dump_results),
            self.telemetry, base=base, phase="swap dump",
        )
        record_report(
            ExecutionReport(total_time=total, flows=load_results),
            self.telemetry, base=base, phase="swap load",
        )
        return ExecutionReport(
            total_time=total,
            flows=dump_results + load_results,
            stage_finish={0: barrier, 1: total},
        )
