"""Tests for the flow-level network simulator."""

import hashlib
import itertools
import random

import pytest

from repro.runtime import LiveNetwork, Simulator, Timeout
from repro.simulator.network import Flow, NetworkSimulator
from repro.topology import dgx1
from repro.topology.links import LinkKind, PhysicalConnection

#: sha256 of the golden event times below.  They were recorded when
#: NetworkSimulator still had its own event loop, so they also pin that
#: driving LiveNetwork moved no time by one ulp.
BATCH_DIGEST = "e1ed5be6d4040e596668b7ba579c26f80e9523af967ca80aa96658aeca631830"
LIVE_DIGEST = "6207846bce5cafcea9eb3fa25298fa8228e3968bb6049dd3128ac1d9fb667db6"


def conn(name="c", kind=LinkKind.NV1, bw=0.0):
    return PhysicalConnection(name, kind, bw)


class TestSingleFlow:
    def test_alpha_beta_time(self):
        c = conn(bw=10.0)  # 10 GB/s
        sim = NetworkSimulator(alpha=1e-6)
        results = sim.run([Flow((c,), 10e9)])
        assert len(results) == 1
        assert results[0].finish_time == pytest.approx(1.0 + 1e-6)

    def test_zero_byte_flow_costs_alpha(self):
        sim = NetworkSimulator(alpha=1e-6)
        results = sim.run([Flow((conn(),), 0.0)])
        assert results[0].finish_time == pytest.approx(1e-6)

    def test_multi_hop_bottleneck(self):
        fast = conn("f", bw=20.0)
        slow = conn("s", bw=5.0)
        sim = NetworkSimulator(alpha=0.0)
        t = sim.makespan([Flow((fast, slow), 5e9)])
        assert t == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "size, release",
        [(-1.0, 0.0), (float("nan"), 0.0), (float("inf"), 0.0),
         (1e9, -1.0), (1e9, float("nan")), (1e9, float("inf"))],
        ids=["negative-size", "nan-size", "inf-size",
             "negative-release", "nan-release", "inf-release"],
    )
    def test_negative_size_rejected(self, size, release):
        with pytest.raises(ValueError):
            Flow((conn(),), size, release_time=release)

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            NetworkSimulator(alpha=alpha)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Flow((), 10.0)


class TestSharing:
    def test_equal_split_two_flows(self):
        c = conn(bw=10.0)
        sim = NetworkSimulator(alpha=0.0)
        t = sim.makespan([Flow((c,), 5e9), Flow((c,), 5e9)])
        assert t == pytest.approx(1.0)  # 10 GB total over 10 GB/s

    def test_qpi_contention_matches_table3(self):
        """Paper Table 3: attainable bandwidth ~ b/n with n users."""
        qpi = conn("qpi", LinkKind.QPI)
        sim = NetworkSimulator(alpha=0.0)
        size = 1e9
        for n in (1, 2, 3):
            flows = [Flow((qpi,), size) for _ in range(n)]
            t = sim.makespan(flows)
            attainable = size / t / 1e9
            assert attainable == pytest.approx(9.56 / n, rel=1e-6)

    def test_short_flow_releases_capacity(self):
        """After the short flow drains, the long one speeds up."""
        c = conn(bw=10.0)
        sim = NetworkSimulator(alpha=0.0)
        results = sim.run([Flow((c,), 2e9, tag="short"),
                           Flow((c,), 10e9, tag="long")])
        by_tag = {r.flow.tag: r.finish_time for r in results}
        # short: 2 GB at 5 GB/s = 0.4 s; long: 2 GB at 5 + 8 GB at 10
        assert by_tag["short"] == pytest.approx(0.4)
        assert by_tag["long"] == pytest.approx(0.4 + 0.8)

    def test_max_min_fairness_bottleneck_isolated(self):
        """A flow avoiding the bottleneck keeps its full rate."""
        shared = conn("sh", bw=10.0)
        private = conn("pr", bw=10.0)
        sim = NetworkSimulator(alpha=0.0)
        results = sim.run([
            Flow((shared,), 5e9, tag="a"),
            Flow((shared,), 5e9, tag="b"),
            Flow((private,), 5e9, tag="c"),
        ])
        by_tag = {r.flow.tag: r.finish_time for r in results}
        assert by_tag["c"] == pytest.approx(0.5)
        assert by_tag["a"] == pytest.approx(1.0)


class TestReleasesAndInjection:
    def test_staggered_release(self):
        c = conn(bw=10.0)
        sim = NetworkSimulator(alpha=0.0)
        results = sim.run([Flow((c,), 1e9, release_time=5.0)])
        assert results[0].finish_time == pytest.approx(5.1)

    def test_on_complete_injection(self):
        c = conn(bw=10.0)
        sim = NetworkSimulator(alpha=0.0)
        injected = []

        def chain(result, now):
            if result.flow.tag == "first" and not injected:
                injected.append(True)
                return [Flow((c,), 1e9, release_time=now, tag="second")]
            return []

        results = sim.run([Flow((c,), 1e9, tag="first")], on_complete=chain)
        by_tag = {r.flow.tag: r.finish_time for r in results}
        assert by_tag["second"] == pytest.approx(0.2)

    def test_injection_in_past_rejected(self):
        c = conn(bw=10.0)
        sim = NetworkSimulator(alpha=0.0)

        def bad(result, now):
            return [Flow((c,), 1.0, release_time=now - 1.0)]

        with pytest.raises(ValueError):
            sim.run([Flow((c,), 1e9)], on_complete=bad)

    def test_no_flows(self):
        assert NetworkSimulator().run([]) == []

    def test_flow_on_dead_connection_raises(self):
        live, dead = conn("live", bw=10.0), conn("dead", bw=10.0)
        sim = NetworkSimulator(
            alpha=0.0, capacity_of=lambda c: 0.0 if c is dead else c.bytes_per_second
        )
        with pytest.raises(RuntimeError, match="stalled on dead connections: dead$"):
            sim.run([Flow((live,), 1e9), Flow((dead,), 1e9)])


class TestNumericalRobustness:
    def test_many_tiny_flows_terminate(self):
        c = conn(bw=10.0)
        sim = NetworkSimulator(alpha=1e-9)
        flows = [Flow((c,), 1e-3 * (i + 1)) for i in range(50)]
        results = sim.run(flows)
        assert len(results) == 50

    def test_residual_bytes_do_not_stall(self):
        """Regression: float residues below the resolution of `now`
        froze the event loop (seen with the Swap executor on orkut)."""
        shared = conn("s", bw=2.39)
        sim = NetworkSimulator(alpha=5e-8)
        flows = [Flow((shared,), 2.6e6 + 0.2616 * i) for i in range(20)]
        results = sim.run(flows)
        assert len(results) == 20


def _digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


class TestGoldenEventTimes:
    """Event times pinned exactly, not to ``pytest.approx``.

    Inputs come from ``random.Random(0)`` so they do not depend on the
    numpy version.  A change to the fluid model that moves any start or
    finish time by one ulp changes the digest.
    """

    def test_batch_flows_with_injection(self):
        rng = random.Random(0)
        paths = [link.connections for link in dgx1().links]
        flows = []
        for tag in range(200):
            release = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 2e-4)
            flows.append(Flow(rng.choice(paths), rng.uniform(1e3, 4e6), release, tag))
        follow_ups = {}
        for tag in rng.sample(range(200), 40):
            delay = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 5e-5)
            follow_ups[tag] = (rng.choice(paths), rng.uniform(1e3, 1e6), delay)
        new_tags = itertools.count(200)

        def chain(result, now):
            spec = follow_ups.get(result.flow.tag)
            if spec is None:
                return []
            path, size, delay = spec
            return [Flow(path, size, now + delay, next(new_tags))]

        results = NetworkSimulator().run(flows, on_complete=chain)
        assert len(results) == 240
        records = sorted((r.flow.tag, r.start_time, r.finish_time) for r in results)
        assert _digest([(start, finish) for _, start, finish in records]) == BATCH_DIGEST

    def test_live_posts_cancel_and_capacity_change(self):
        rng = random.Random(0)
        paths = [link.connections for link in dgx1().links]
        scale = {}
        sim = Simulator()
        net = LiveNetwork(
            sim, capacity_of=lambda c: c.bytes_per_second * scale.get(c.name, 1.0)
        )
        posted = []

        def poster():
            for i in range(60):
                yield Timeout(0.0 if rng.random() < 0.3 else rng.uniform(0.0, 2e-5))
                path = rng.choice(paths)
                posted.append((path, net.transfer(path, rng.uniform(1e3, 2e6))))
                if i == 20:
                    net.cancel(posted[18][1])
                if i == 40:
                    scale[posted[36][0][0].name] = 0.25
                    net.capacities_changed()

        sim.spawn(poster(), "poster")
        sim.run()
        cancelled = posted[18][1]
        assert cancelled.start_time is not None and cancelled.finish_time is None
        records = [(h.start_time, h.finish_time) for _, h in posted]
        assert _digest(records) == LIVE_DIGEST
