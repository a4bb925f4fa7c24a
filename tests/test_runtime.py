"""Tests for the protocol-level runtime (events, live network, flags,
and the §6.1 master/client coordination)."""

import numpy as np
import pytest

from repro.comm.allgather import CompiledAllgather
from repro.core import CommRelation, SPSTPlanner
from repro.graph.generators import rmat
from repro.partition import partition
from repro.runtime import (
    Flag,
    LiveNetwork,
    ProtocolRunner,
    Simulator,
    Timeout,
    WaitFlag,
)
from repro.runtime.events import AllOf, Event, WaitEvent
from repro.schemes.registry import global_registry
from repro.simulator.executor import PlanExecutor
from repro.topology import dgx1
from repro.topology.links import LinkKind, PhysicalConnection
from repro.topology.presets import pcie_only, ring, torus


class TestSimulator:
    def test_timeout_ordering(self):
        sim = Simulator()
        log = []

        def proc(name, delay):
            yield Timeout(delay)
            log.append((name, sim.now))

        sim.spawn(proc("b", 2.0), "b")
        sim.spawn(proc("a", 1.0), "a")
        sim.run()
        assert log == [("a", 1.0), ("b", 2.0)]

    def test_flag_wakeup(self):
        sim = Simulator()
        flag = Flag("f")
        log = []

        def waiter():
            yield WaitFlag(flag, 2)
            log.append(sim.now)

        def setter():
            yield Timeout(1.0)
            flag.increment()
            yield Timeout(1.0)
            flag.increment()

        sim.spawn(waiter(), "w")
        sim.spawn(setter(), "s")
        sim.run()
        assert log == [2.0]

    def test_event_payload_and_idempotence(self):
        ev = Event()
        ev.trigger("x")
        ev.trigger("y")
        assert ev.payload == "x"

    def test_allof(self):
        sim = Simulator()
        a, b = Event(), Event()
        log = []

        def waiter():
            yield AllOf([WaitEvent(a), WaitEvent(b)])
            log.append(sim.now)

        def trig():
            yield Timeout(1.0)
            a.trigger()
            yield Timeout(2.0)
            b.trigger()

        sim.spawn(waiter(), "w")
        sim.spawn(trig(), "t")
        sim.run()
        assert log == [3.0]

    def test_deadlock_detected(self):
        sim = Simulator()

        def stuck():
            yield WaitFlag(Flag("never"), 1)

        sim.spawn(stuck(), "stuck")
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)


class TestLiveNetwork:
    def conn(self, bw=10.0, name="c"):
        return PhysicalConnection(name, LinkKind.NV1, bw)

    def test_single_transfer_time(self):
        sim = Simulator()
        net = LiveNetwork(sim, alpha=1e-6)
        handle = net.transfer((self.conn(),), 10e9)

        def observer():
            yield WaitEvent(handle.done)

        sim.spawn(observer(), "obs")
        total = sim.run()
        assert total == pytest.approx(1.0 + 1e-6, rel=1e-6)

    def test_dynamic_arrival_shares_bandwidth(self):
        """A flow arriving mid-way slows the first one down fairly."""
        sim = Simulator()
        net = LiveNetwork(sim, alpha=0.0)
        c = self.conn()
        finish = {}

        def first():
            h = net.transfer((c,), 10e9, tag="first")
            yield WaitEvent(h.done)
            finish["first"] = sim.now

        def second():
            yield Timeout(0.5)
            h = net.transfer((c,), 5e9, tag="second")
            yield WaitEvent(h.done)
            finish["second"] = sim.now

        sim.spawn(first(), "f")
        sim.spawn(second(), "s")
        sim.run()
        # first: 5 GB alone (0.5 s), then shares: both at 5 GB/s.
        # remaining 5 GB of first and 5 GB of second drain together by 1.5.
        assert finish["first"] == pytest.approx(1.5, rel=1e-6)
        assert finish["second"] == pytest.approx(1.5, rel=1e-6)

    def test_zero_byte_transfer_completes(self):
        sim = Simulator()
        net = LiveNetwork(sim, alpha=1e-6)
        h = net.transfer((self.conn(),), 0.0)

        def obs():
            yield WaitEvent(h.done)

        sim.spawn(obs(), "o")
        assert sim.run() == pytest.approx(1e-6)

    def test_empty_path_rejected(self):
        sim = Simulator()
        net = LiveNetwork(sim)
        with pytest.raises(ValueError):
            net.transfer((), 10.0)

    @pytest.mark.parametrize("size", [-5.0, float("nan"), float("inf")])
    def test_bad_size_rejected(self, size):
        net = LiveNetwork(Simulator())
        with pytest.raises(ValueError):
            net.transfer((self.conn(),), size)

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            LiveNetwork(Simulator(), alpha=alpha)

    def test_one_solve_per_instant(self, monkeypatch):
        """Transfers beginning together share one max-min solve."""
        import repro.runtime.network as live

        solved = []
        real = live._max_min_rates

        def counting(active, *args, **kwargs):
            solved.append(len(active))
            return real(active, *args, **kwargs)

        monkeypatch.setattr(live, "_max_min_rates", counting)
        sim = Simulator()
        alpha, size, bw = 1e-6, 1e6, 10.0
        net = LiveNetwork(sim, alpha=alpha)
        wire = self.conn(bw=bw)
        handles = [net.transfer((wire,), size) for _ in range(64)]
        sim.run()
        assert solved == [64]
        for h in handles:
            assert h.finish_time == pytest.approx(alpha + 64 * size / (bw * 1e9), rel=1e-12)


@pytest.fixture(scope="module")
def workload():
    graph = rmat(250, 1800, seed=4)
    r = partition(graph, 8, seed=0)
    rel = CommRelation(graph, r.assignment, 8)
    plan = SPSTPlanner(dgx1(), seed=0).plan(rel)
    return graph, rel, plan


#: Topology presets of the cross-fidelity oracle, by test id.
ORACLE_TOPOLOGIES = {
    "dgx1": dgx1,
    "ring8": lambda: ring(8),
    "torus2x4": lambda: torus(2, 4),
    "pcie8": lambda: pcie_only(8),
}

#: A per-destination static path relays one link once per destination,
#: which the multicast-tree check in ``CommPlan.validate`` refuses.
_RELAY_TREE_CHECK = pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="ROADMAP item 6: peer-to-peer routes on ring/torus fail "
           "'does not deliver to every destination'",
)


def _oracle_cells():
    for scheme in global_registry().plan_based_names():
        for topology in ORACLE_TOPOLOGIES:
            for seed in range(3):
                relayed = (scheme in ("peer-to-peer", "distgnn-delayed")
                           and topology in ("ring8", "torus2x4"))
                yield pytest.param(
                    scheme, topology, seed,
                    marks=_RELAY_TREE_CHECK if relayed else (),
                    id=f"{scheme}-{topology}-seed{seed}",
                )


@pytest.fixture(scope="module")
def oracle_relations():
    relations = {}
    for seed in range(3):
        graph = rmat(400, 3000, seed=seed)
        assignment = partition(graph, 8, seed=0).assignment
        relations[seed] = CommRelation(graph, assignment, 8)
    return relations


class TestProtocolRunner:
    def test_delivers_same_rows_as_compiled_allgather(self, workload):
        graph, rel, plan = workload
        rng = np.random.default_rng(0)
        h = rng.standard_normal((graph.num_vertices, 6)).astype(np.float32)
        blocks = [h[rel.local_vertices[d]] for d in range(8)]

        runner = ProtocolRunner(rel, plan)
        gathered, report = runner.run_data(blocks)
        reference = CompiledAllgather(rel, plan).forward(blocks)
        for a, b in zip(gathered, reference):
            assert np.array_equal(a, b)
        assert report.total_time > 0
        assert report.transfers == len(plan.tuples())

    def test_every_device_finishes(self, workload):
        _, rel, plan = workload
        report = ProtocolRunner(rel, plan).run_timed(256)
        assert set(report.device_finish) == set(range(8))
        assert max(report.device_finish.values()) <= report.total_time

    def test_centralized_pays_barriers(self, workload):
        _, rel, plan = workload
        dec = ProtocolRunner(rel, plan, coordination="decentralized")
        cen = ProtocolRunner(rel, plan, coordination="centralized")
        assert cen.run_timed(1024).total_time > dec.run_timed(1024).total_time

    def test_straggler_isolation(self):
        """§6.1: 'transient stragglers will not block the other GPUs' —
        a delayed device stalls its own partners, not unrelated pairs.

        Uses a sparse relation (0 -> 1, 7 -> 6 and a 2-hop 2 -> 4) on a
        ring: with all-pairs traffic every device legitimately waits for
        the straggler, and the 2-hop route guarantees a second stage so
        the centralized barrier has something to gate."""
        from repro.graph.csr import Graph
        from repro.topology import ring

        graph = Graph([0, 2, 4], [1, 3, 5], 6)
        assignment = np.array([0, 1, 7, 6, 2, 4])
        rel = CommRelation(graph, assignment, 8)
        plan = SPSTPlanner(ring(8), granularity="vertex", seed=0).plan(rel)
        assert plan.num_stages >= 2
        delay = 5e-5

        base = ProtocolRunner(rel, plan).run_timed(256)
        slow = ProtocolRunner(
            rel, plan, device_delays={7: delay}
        ).run_timed(256)
        # The unrelated 0 -> 1 pair is unaffected...
        assert (
            slow.device_finish[1] - base.device_finish[1] < 0.1 * delay
        )
        # ...while the straggler's partner absorbs the delay.
        assert slow.device_finish[6] - base.device_finish[6] > 0.9 * delay

        # Under centralized barriers, everyone absorbs it.
        cen_base = ProtocolRunner(
            rel, plan, coordination="centralized"
        ).run_timed(256)
        cen_slow = ProtocolRunner(
            rel, plan, coordination="centralized", device_delays={7: delay}
        ).run_timed(256)
        assert (
            cen_slow.device_finish[1] - cen_base.device_finish[1]
            > 0.9 * delay
        )

    def test_device_delay_shifts_total(self, workload):
        _, rel, plan = workload
        base = ProtocolRunner(rel, plan).run_timed(256).total_time
        slow = ProtocolRunner(
            rel, plan, device_delays={0: 1e-4}
        ).run_timed(256).total_time
        assert slow > base

    def test_invalid_coordination(self, workload):
        _, rel, plan = workload
        with pytest.raises(ValueError):
            ProtocolRunner(rel, plan, coordination="voodoo")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"device_delays": {0: float("nan")}},
            {"device_delays": {0: float("inf")}},
            {"device_delays": {0: -1e-6}},
            {"device_delays": {99: 1e-6}},
            {"device_delays": {-1: 1e-6}},
            {"flag_latency": float("nan")},
            {"control_latency": float("inf")},
            {"alpha": -1e-6},
        ],
        ids=["delay-nan", "delay-inf", "delay-negative", "delay-device-99",
             "delay-device-minus-1", "flag-latency-nan",
             "control-latency-inf", "alpha-negative"],
    )
    def test_invalid_clock_inputs(self, workload, kwargs):
        """Rejected up front, not mid-run or as an infinite total."""
        _, rel, plan = workload
        with pytest.raises(ValueError):
            ProtocolRunner(rel, plan, **kwargs)

    def test_nan_delays_rejected_by_the_event_loop(self):
        with pytest.raises(ValueError):
            Timeout(float("nan"))
        with pytest.raises(ValueError):
            Simulator().schedule(float("nan"), lambda: None)

    def test_matches_transfer_level_executor_roughly(self, workload):
        """The protocol clock should land near the transfer-level
        simulator's (same network model + protocol overheads)."""
        _, rel, plan = workload
        protocol = ProtocolRunner(rel, plan).run_timed(1024).total_time
        transfer = PlanExecutor(dgx1()).execute(plan, 1024).total_time
        assert protocol == pytest.approx(transfer, rel=1.0)
        assert protocol >= transfer  # flags + control plane cost extra

    @pytest.mark.parametrize("scheme,topology,seed", _oracle_cells())
    def test_executor_equals_zero_latency_protocol(
        self, oracle_relations, scheme, topology, seed
    ):
        """The event executor is the §6.1 protocol with free control
        messages: at zero flag and control latency the two clocks agree
        bit for bit, for every registered plan-based scheme."""
        rel = oracle_relations[seed]
        topo = ORACLE_TOPOLOGIES[topology]()
        plan = global_registry().get(scheme).build_plan(rel, topo)
        executed = PlanExecutor(topo).execute(plan, 1024).total_time
        protocol = ProtocolRunner(
            rel, plan, flag_latency=0, control_latency=0
        ).run_timed(1024).total_time
        assert executed == protocol


class TestBootstrap:
    """§6.3: the one-off gather/scatter initialization."""

    def test_phases_positive_and_sum(self, workload):
        from repro.runtime import simulate_bootstrap

        _, rel, plan = workload
        report = simulate_bootstrap(rel, plan, feature_bytes_per_vertex=64)
        assert report.total_seconds == pytest.approx(
            report.graph_dispatch_seconds
            + report.feature_dispatch_seconds
            + report.table_dispatch_seconds
            + report.connection_exchange_seconds
        )
        assert report.graph_dispatch_seconds > 0
        assert report.feature_dispatch_seconds > 0
        assert report.table_dispatch_seconds > 0

    def test_fat_features_dominate(self, workload):
        from repro.runtime import simulate_bootstrap

        _, rel, plan = workload
        thin = simulate_bootstrap(rel, plan, feature_bytes_per_vertex=8)
        fat = simulate_bootstrap(rel, plan, feature_bytes_per_vertex=4096)
        assert fat.feature_dispatch_seconds > 10 * thin.feature_dispatch_seconds
        assert fat.total_seconds > thin.total_seconds

    def test_summary_renders(self, workload):
        from repro.runtime import simulate_bootstrap

        _, rel, plan = workload
        text = simulate_bootstrap(rel, plan, 64).summary()
        assert "bootstrap" in text and "features" in text

    def test_bootstrap_amortised_over_epochs(self, workload):
        """The init costs a handful of epochs' communication — one-off."""
        from repro.runtime import simulate_bootstrap
        from repro.simulator.executor import PlanExecutor

        _, rel, plan = workload
        boot = simulate_bootstrap(rel, plan, feature_bytes_per_vertex=96)
        epoch_comm = PlanExecutor(dgx1()).execute(plan, 96).total_time * 3
        assert boot.total_seconds < 100 * epoch_comm
