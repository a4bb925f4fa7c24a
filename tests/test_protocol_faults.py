"""Edge cases of the hardened protocol: chaos in, correct rows out.

Every test runs the full master/client protocol with an armed
:class:`~repro.faults.injector.FaultInjector` and checks the paper's
correctness bar — gathered rows bit-identical to the compiled
allgather — plus the robustness contracts: timing invariance without
faults, typed errors on confirmed device loss and exhausted retry
budgets, and reproducible fault logs.
"""

import hashlib
import threading

import numpy as np
import pytest

from repro.comm.allgather import CompiledAllgather
from repro.core import CommRelation, SPSTPlanner
from repro.chaos import SoakConfig, SoakRunner
from repro.faults import (
    DeviceCrash,
    DeviceLostError,
    DeviceStall,
    FaultInjector,
    FaultPlan,
    FlagDrop,
    FlagDuplicate,
    LinkFlap,
    LinkLoss,
    NetworkPartition,
    RetryOnlyPolicy,
    UnrecoverableFaultError,
)
from repro.graph.generators import rmat
from repro.partition import partition
from repro.runtime import ProtocolRunner
from repro.runtime.events import Simulator, Timeout
from repro.runtime.flags import FlagBoard
from repro.obs import Telemetry, Tracer
from repro.topology import dgx1, pcie_only, ring
from repro.topology.presets import torus


@pytest.fixture(scope="module")
def workload():
    g = rmat(250, 1800, seed=4)
    r = partition(g, 8, seed=0)
    rel = CommRelation(g, r.assignment, 8)
    plan = SPSTPlanner(dgx1(), seed=0).plan(rel)
    return g, rel, plan


@pytest.fixture(scope="module")
def blocks(workload):
    g, rel, _ = workload
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((g.num_vertices, 5)).astype(np.float32)
    return [feats[rel.local_vertices[d]] for d in range(8)]


@pytest.fixture(scope="module")
def expected(workload, blocks):
    _, rel, plan = workload
    return CompiledAllgather(rel, plan).forward(blocks)


@pytest.fixture(scope="module")
def baseline_time(workload, blocks):
    _, rel, plan = workload
    _, report = ProtocolRunner(rel, plan).run_data(blocks)
    return report.total_time


def run_with(workload, blocks, fault_plan, policy=None):
    _, rel, plan = workload
    runner = ProtocolRunner(
        rel, plan, injector=FaultInjector(fault_plan), policy=policy
    )
    return runner, runner.run_data(blocks)


def last_stage_pair(plan):
    last = plan.num_stages - 1
    t = next(t for t in plan.tuples() if t.stage == last)
    return t.src, t.dst, last


def used_connection(plan) -> str:
    route = next(r for r in plan.routes if r.edges)
    return route.edges[0][0].connections[0].name


class TestTimingInvariance:
    def test_unarmed_injector_is_byte_identical(
        self, workload, blocks, expected, baseline_time
    ):
        """An attached-but-empty chaos layer costs exactly nothing."""
        runner, (result, report) = run_with(workload, blocks, FaultPlan())
        assert report.total_time == baseline_time
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))
        assert runner.injector.log.is_empty

    def test_chaos_run_still_bit_identical(
        self, workload, blocks, expected, baseline_time
    ):
        _, _, plan = workload
        fault_plan = FaultPlan([
            FlagDrop(kind="ready", device=2, stage=0, count=1),
            LinkFlap(
                connection=used_connection(plan),
                time=baseline_time * 0.3,
                period=baseline_time * 0.2,
                count=1,
            ),
        ])
        _, (result, report) = run_with(workload, blocks, fault_plan)
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))
        assert report.total_time >= baseline_time


class TestFlagEdgeCases:
    def test_done_flag_dropped_at_last_stage(
        self, workload, blocks, expected, baseline_time
    ):
        """The final hand-off message is lost; the re-fetch saves it."""
        _, _, plan = workload
        src, dst, last = last_stage_pair(plan)
        fault_plan = FaultPlan([
            FlagDrop(kind="done", device=src, peer=dst, stage=last, count=1)
        ])
        runner, (result, report) = run_with(workload, blocks, fault_plan)
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))
        assert report.total_time > baseline_time
        counts = runner.injector.log.counts()
        assert counts.get("inject", 0) >= 1
        assert counts.get("recover", 0) >= 1

    def test_retry_budget_exhaustion_is_typed(self, workload, blocks):
        """Fifty straight losses of one flag must exhaust the budget."""
        _, _, plan = workload
        src, dst, _ = last_stage_pair(plan)
        fault_plan = FaultPlan([
            FlagDrop(kind="done", device=src, peer=dst, stage=0, count=50)
        ])
        policy = RetryOnlyPolicy(max_retries=3)
        with pytest.raises(UnrecoverableFaultError) as err:
            run_with(workload, blocks, fault_plan, policy=policy)
        assert err.value.attempts == policy.max_retries + 1


class TestDeviceEdgeCases:
    def test_two_simultaneous_crashes(self, workload, blocks, baseline_time):
        t = baseline_time * 0.25
        fault_plan = FaultPlan([
            DeviceCrash(device=2, time=t),
            DeviceCrash(device=5, time=t),
        ])
        with pytest.raises(DeviceLostError) as err:
            run_with(workload, blocks, fault_plan)
        assert err.value.devices == [2, 5]
        assert err.value.fault_log is not None
        assert not err.value.fault_log.is_empty

    def test_transient_stall_recovers(
        self, workload, blocks, expected, baseline_time
    ):
        fault_plan = FaultPlan([
            DeviceStall(
                device=1, time=baseline_time * 0.2, duration=baseline_time
            )
        ])
        _, (result, report) = run_with(workload, blocks, fault_plan)
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))
        assert report.total_time > baseline_time


class TestLinkEdgeCases:
    def test_link_flap_mid_stage(
        self, workload, blocks, expected, baseline_time
    ):
        _, _, plan = workload
        fault_plan = FaultPlan([
            LinkFlap(
                connection=used_connection(plan),
                time=baseline_time * 0.25,
                period=baseline_time * 0.5,
                count=2,
            )
        ])
        _, (result, report) = run_with(workload, blocks, fault_plan)
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))
        assert report.total_time > baseline_time

    def test_permanent_link_loss_triggers_reroute(
        self, workload, blocks, expected, baseline_time
    ):
        _, _, plan = workload
        fault_plan = FaultPlan([
            LinkLoss(connection=used_connection(plan), time=baseline_time * 0.2)
        ])
        runner, (result, report) = run_with(workload, blocks, fault_plan)
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))
        policies = runner.injector.log.policy_counts()
        assert policies["repair"] + policies["degrade"] >= 1


class TestNetworkPartitions:
    def test_short_blackout_recovers_in_place(
        self, workload, blocks, expected, baseline_time
    ):
        """Every wire goes dark briefly; in-flight transfers ride it out."""
        _, _, plan = workload
        fault_plan = FaultPlan([
            NetworkPartition(
                connections=tuple(sorted(plan.topology.connections)),
                time=baseline_time * 0.3,
                duration=baseline_time * 0.5,
            )
        ])
        _, (result, report) = run_with(workload, blocks, fault_plan)
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))
        assert report.total_time > baseline_time

    def test_long_blackout_waits_for_heal(
        self, workload, blocks, expected, baseline_time
    ):
        """The blackout outlives the retry ladder: with no surviving path
        anywhere, the protocol must wait for the scheduled heal instead of
        burning its retry budget — and still deliver exact rows."""
        _, _, plan = workload
        fault_plan = FaultPlan([
            NetworkPartition(
                connections=tuple(sorted(plan.topology.connections)),
                time=baseline_time * 0.3,
                duration=baseline_time * 10,
            )
        ])
        runner, (result, report) = run_with(workload, blocks, fault_plan)
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))
        assert report.total_time > baseline_time * 10
        waits = [
            r for r in runner.injector.log.records
            if "waiting for heal" in r.detail
        ]
        assert waits and all(r.action == "degrade" for r in waits)


class TestFlagDuplication:
    def test_duplicated_done_flag_is_suppressed(
        self, workload, blocks, expected
    ):
        """Stale duplicates of the final hand-off arrive late; the board
        dedupes them, so no receiver is released before its payload."""
        _, _, plan = workload
        src, dst, last = last_stage_pair(plan)
        fault_plan = FaultPlan([
            FlagDuplicate(
                kind="done", device=src, peer=dst, stage=last,
                copies=2, jitter=1e-8, count=1,
            )
        ])
        runner, (result, _) = run_with(workload, blocks, fault_plan)
        assert all(np.array_equal(a, b) for a, b in zip(result, expected))
        suppressed = [
            r for r in runner.injector.log.records
            if "stale duplicate suppressed" in r.detail
        ]
        assert len(suppressed) == 2

    def _board_run(self, dedupe: bool):
        sim = Simulator()
        injector = FaultInjector(FaultPlan([
            FlagDuplicate(kind="ready", device=0, stage=0,
                          copies=2, jitter=1e-7, count=1)
        ]))
        board = FlagBoard(sim, injector=injector)
        saved = FlagBoard.dedupe
        FlagBoard.dedupe = dedupe
        try:
            def setter():
                board.set_ready(0, 0)
                yield Timeout(1e-6)

            sim.spawn(setter(), "setter")
            sim.run()
        finally:
            FlagBoard.dedupe = saved
        return board.ready_flag(0, 0).value

    def test_board_dedupe_hook(self):
        """The test-only hook: dedupe on holds the monotone flag at its
        true value; off, stale copies overshoot it (the bug the chaos
        delivery oracle exists to catch)."""
        assert self._board_run(dedupe=True) == 1
        assert self._board_run(dedupe=False) == 3


class TestCleanShutdown:
    """Satellite 2: an aborting run must not leak simulator processes
    (or OS threads — the runtime is single-threaded by design)."""

    def _assert_clean(self, runner):
        sim = runner._last_sim
        assert sim is not None
        assert all(p.finished for p in sim._processes)

    def test_no_leaks_after_device_loss(self, workload, blocks, baseline_time):
        before = threading.active_count()
        fault_plan = FaultPlan([DeviceCrash(device=2, time=baseline_time * 0.25)])
        _, rel, plan = workload
        runner = ProtocolRunner(rel, plan, injector=FaultInjector(fault_plan))
        with pytest.raises(DeviceLostError):
            runner.run_data(blocks)
        assert threading.active_count() == before
        self._assert_clean(runner)

    def test_no_leaks_after_unrecoverable_fault(self, workload, blocks):
        before = threading.active_count()
        _, rel, plan = workload
        src, dst, _ = last_stage_pair(plan)
        fault_plan = FaultPlan([
            FlagDrop(kind="done", device=src, peer=dst, stage=0, count=50)
        ])
        runner = ProtocolRunner(
            rel, plan, injector=FaultInjector(fault_plan),
            policy=RetryOnlyPolicy(max_retries=3),
        )
        with pytest.raises(UnrecoverableFaultError):
            runner.run_data(blocks)
        assert threading.active_count() == before
        self._assert_clean(runner)

    def test_shutdown_reports_stuck_processes(self):
        sim = Simulator()

        def stuck():
            yield Timeout(1.0)

        sim.spawn(stuck(), "stuck-proc")
        sim.run(until=0.1)
        assert sim.shutdown() == ["stuck-proc"]
        assert sim.shutdown() == []  # idempotent


class TestReproducibility:
    def test_identical_runs_identical_logs(self, workload, blocks, baseline_time):
        _, _, plan = workload
        events = [
            FlagDrop(kind="ready", device=3, stage=0, count=1),
            LinkLoss(connection=used_connection(plan), time=baseline_time * 0.2),
            DeviceStall(
                device=6, time=baseline_time * 0.4, duration=baseline_time * 0.5
            ),
        ]
        runs = []
        for _ in range(2):
            runner, (result, report) = run_with(
                workload, blocks, FaultPlan(events, seed=3)
            )
            runs.append((report.total_time, runner.injector.log.signature()))
        assert runs[0] == runs[1]


def _report_digest(report, log_signature=()):
    """sha256 over every timing a report carries, exact to the ulp."""
    record = (
        report.total_time,
        sorted(report.stage_finish.items()),
        sorted(report.device_finish.items()),
        log_signature,
        report.transfers,
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _rmat_cells(topology):
    """rmat(400, 3000) seeds 0-5 on ``topology``, SPST-planned."""
    for seed in range(6):
        g = rmat(400, 3000, seed=seed)
        rel = CommRelation(g, partition(g, 8, seed=0).assignment, 8)
        yield seed, rel, SPSTPlanner(topology, seed=0).plan(rel)


#: Recorded before the legacy and hardened protocol bodies were merged.
#: Armed: one digest per soak config over seeds 0-23.
ARMED_DIGESTS = {
    "default": "f3b945fbb399f51c946655d9a6309df02be75716ced4bb258f9a5d8d4737fe88",
    "centralized": "9f29c9ad88c03c498d81bcfc077bb33c770028d8188624f98de8e47c643459ae",
    "gpus=16": "b3041a3f7560edc97751a840eeeab5a291831b7435918c942adb2869129815fb",
    "pcie": "87858897eec6ca5d27ae59c0940007518b6062c0a26c53513709f054c795fb0f",
}
ARMED_CONFIGS = {
    "default": {},
    "centralized": {"coordination": "centralized"},
    "gpus=16": {"gpus": 16},
    "pcie": {"topology": "pcie"},
}
#: Unarmed: one digest per topology over rmat seeds 0-5, both
#: coordinations, with and without a straggler.  These topologies have
#: one link per device pair, so every receiver waits for one transfer.
UNARMED_DIGESTS = {
    "ring": "993f658aea660c3aff395019ebe7a38bef731eacbec7bd841031054695e91bf6",
    "torus": "bb8e56408ec2da97bf013ccd8a5cf6c650123b581cc942e7d0fa1a05d77d04bc",
    "pcie_only": "2a08d3310f355af9b06336c3b0b117e21819bb0e350f2191d944771a9a40a5a8",
}
UNARMED_TOPOLOGIES = {
    "ring": lambda: ring(8),
    "torus": lambda: torus(2, 4),
    "pcie_only": lambda: pcie_only(8),
}


class TestGoldenProtocolTimes:
    """Protocol timings pinned exactly: any change to the event order of
    either the armed or the unarmed protocol moves a digest."""

    @pytest.mark.parametrize("name", sorted(ARMED_CONFIGS))
    def test_armed_soak_runs(self, name):
        runner = SoakRunner(SoakConfig(**ARMED_CONFIGS[name]))
        h = hashlib.sha256()
        for seed in range(24):
            obs = runner._execute(runner.generator.sample(seed))
            record = (
                obs.total_time,
                sorted(obs.stage_finish.items()),
                sorted(obs.device_finish.items()),
                obs.log_signature,
                obs.transfers,
            )
            h.update(hashlib.sha256(repr(record).encode()).digest())
        assert h.hexdigest() == ARMED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(UNARMED_TOPOLOGIES))
    def test_unarmed_runs(self, name):
        h = hashlib.sha256()
        for _, rel, plan in _rmat_cells(UNARMED_TOPOLOGIES[name]()):
            for coordination in ("decentralized", "centralized"):
                for delays in (None, {3: 2e-7}):
                    report = ProtocolRunner(
                        rel, plan, coordination=coordination,
                        device_delays=delays,
                    ).run_timed(256)
                    h.update(_report_digest(report).encode())
        assert h.hexdigest() == UNARMED_DIGESTS[name]


@pytest.fixture(scope="module")
def dgx1_cells():
    return list(_rmat_cells(dgx1()))


class TestReceiverWaitsForAllTransfers:
    """On dgx1, SPST can send several vertex classes between one device
    pair in one stage over both links; the receiver's done flag counts
    them all."""

    @pytest.mark.parametrize("coordination", ["decentralized", "centralized"])
    def test_no_transfer_lands_after_its_receivers_stage(
        self, dgx1_cells, coordination
    ):
        for seed, rel, plan in dgx1_cells:
            tracer = Tracer()
            report = ProtocolRunner(
                rel, plan, coordination=coordination,
                telemetry=Telemetry(tracer=tracer),
            ).run_timed(256)
            late = [
                span for span in tracer.spans
                if span.cat == "comm" and span.finish > report.stage_finish[
                    (span.args_dict()["dst"], span.args_dict()["stage"])
                ]
            ]
            assert late == [], f"seed {seed}: {len(late)} late landings"

    @pytest.mark.parametrize("coordination", ["decentralized", "centralized"])
    def test_far_future_fault_changes_nothing(self, dgx1_cells, coordination):
        """Arming the fault hooks with a fault that fires long after the
        run ends leaves every timing exactly as unarmed."""
        for seed, rel, plan in dgx1_cells:
            unarmed = ProtocolRunner(
                rel, plan, coordination=coordination
            ).run_timed(256)
            injector = FaultInjector(FaultPlan([
                LinkFlap(
                    connection=used_connection(plan), time=1e6, period=1e-3
                )
            ]))
            armed = ProtocolRunner(
                rel, plan, coordination=coordination, injector=injector
            ).run_timed(256)
            assert armed == unarmed, f"seed {seed}"
            during_run = [
                r for r in injector.log.records if r.time <= armed.total_time
            ]
            assert during_run == [], f"seed {seed}"
