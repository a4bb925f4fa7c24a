"""The sampling subsystem: samplers, seed loader, per-batch planner."""

import numpy as np
import pytest

from repro.autotune import PlanCache
from repro.autotune.fingerprint import graph_fingerprint, subgraph_fingerprint
from repro.graph.csr import Graph
from repro.graph.generators import rmat
from repro.partition import partition
from repro.sampling import (
    BatchPlanner,
    KHopSampler,
    NeighborSampler,
    SeedLoader,
)
from repro.topology import topology_for_gpu_count


@pytest.fixture(scope="module")
def graph():
    return rmat(200, 1400, seed=4)


@pytest.fixture(scope="module")
def topology():
    return topology_for_gpu_count(4)


@pytest.fixture(scope="module")
def assignment(graph):
    return partition(graph, 4, seed=0).assignment


def parent_edge_set(graph):
    src, dst = graph.edges
    return set(zip(src.tolist(), dst.tolist()))


class TestSeedLoader:
    def test_batches_cover_and_shuffle(self, graph):
        loader = SeedLoader(graph, batch_size=32, seed=1)
        batches = list(loader.batches(0))
        assert len(batches) == loader.num_batches == 200 // 32
        flat = np.concatenate(batches)
        assert flat.size == np.unique(flat).size  # no seed repeats
        assert not np.array_equal(flat, np.sort(flat))  # shuffled

    def test_epochs_differ_but_replay_identically(self, graph):
        loader = SeedLoader(graph, batch_size=32, seed=1)
        e0 = [b.tolist() for b in loader.batches(0)]
        e1 = [b.tolist() for b in loader.batches(1)]
        assert e0 != e1
        assert e0 == [b.tolist() for b in loader.batches(0)]

    def test_drop_last_policy(self, graph):
        kept = SeedLoader(graph, batch_size=32, seed=1, drop_last=False)
        assert kept.num_batches == 7
        sizes = [b.size for b in kept.batches(0)]
        assert sizes == [32] * 6 + [8]

    def test_train_vertices_validated(self, graph):
        with pytest.raises(ValueError):
            SeedLoader(graph, 8, train_vertices=np.array([5, 999]))
        with pytest.raises(ValueError):
            SeedLoader(graph, 0)


class TestNeighborSampler:
    def test_deterministic_per_batch_index(self, graph):
        sampler = NeighborSampler(graph, (4, 4), seed=3)
        seeds = np.arange(0, 40)
        a = sampler.sample(seeds, batch_index=5)
        b = sampler.sample(seeds, batch_index=5)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.graph.edges[0], b.graph.edges[0])
        c = sampler.sample(seeds, batch_index=6)
        assert not (
            np.array_equal(a.vertices, c.vertices)
            and np.array_equal(a.graph.edges[0], c.graph.edges[0])
        )

    def test_edges_exist_in_parent(self, graph):
        sampler = NeighborSampler(graph, (3, 3), seed=0)
        batch = sampler.sample(np.arange(0, 64), batch_index=1)
        parent = parent_edge_set(graph)
        s, d = batch.graph.edges
        for u, v in zip(batch.vertices[s], batch.vertices[d]):
            assert (int(u), int(v)) in parent

    def test_frontiers_are_cumulative(self, graph):
        sampler = NeighborSampler(graph, (4, 4), seed=0)
        batch = sampler.sample(np.arange(0, 32))
        assert np.array_equal(batch.frontiers[0], batch.seeds)
        assert np.array_equal(batch.frontiers[-1], batch.vertices)
        for prev, cur in zip(batch.frontiers, batch.frontiers[1:]):
            assert np.isin(prev, cur).all()

    def test_seed_rows_map_back(self, graph):
        sampler = NeighborSampler(graph, (4,), seed=0)
        batch = sampler.sample(np.array([3, 17, 90]))
        assert np.array_equal(batch.vertices[batch.seed_rows], batch.seeds)
        with pytest.raises(KeyError):
            batch.local_rows(np.array([graph.num_vertices - 1, 3]))

    def test_validates_inputs(self, graph):
        with pytest.raises(ValueError):
            NeighborSampler(graph, ())
        with pytest.raises(ValueError):
            NeighborSampler(graph, (4, 0))
        with pytest.raises(ValueError):
            NeighborSampler(graph, (4,)).sample(np.array([9999]))


class TestKHopSampler:
    def test_matches_khop_neighborhood(self, graph):
        sampler = KHopSampler(graph, hops=2)
        seeds = np.array([0, 1, 2])
        batch = sampler.sample(seeds)
        assert np.array_equal(
            batch.vertices, graph.k_hop_in_neighborhood(seeds, 2)
        )

    def test_induced_edges_complete(self, graph):
        """Every parent edge between sampled vertices is present."""
        batch = KHopSampler(graph, hops=1).sample(np.array([5, 6]))
        member = set(batch.vertices.tolist())
        want = {
            (u, v) for u, v in parent_edge_set(graph)
            if u in member and v in member
        }
        s, d = batch.graph.edges
        got = {
            (int(u), int(v))
            for u, v in zip(batch.vertices[s], batch.vertices[d])
        }
        assert got == want


class TestFingerprints:
    def test_graph_fingerprint_memoised(self):
        """Satellite: the memo fills lazily and never changes the digest."""
        g1 = rmat(60, 240, seed=9)
        g2 = rmat(60, 240, seed=9)
        assert g1._fingerprint is None
        cold = graph_fingerprint(g1)
        assert g1._fingerprint == cold
        assert graph_fingerprint(g1) == cold  # memo hit
        assert graph_fingerprint(g2) == cold  # fresh instance agrees

    def test_subgraph_fingerprint_sensitivity(self, graph):
        sampler = NeighborSampler(graph, (4, 4), seed=3)
        a = sampler.sample(np.arange(0, 32), batch_index=0)
        b = sampler.sample(np.arange(0, 32), batch_index=1)
        fp_a = subgraph_fingerprint(graph, a.vertices, a.graph)
        assert fp_a == subgraph_fingerprint(graph, a.vertices, a.graph)
        assert fp_a != subgraph_fingerprint(graph, b.vertices, b.graph)
        other_parent = rmat(200, 1400, seed=5)
        assert fp_a != subgraph_fingerprint(other_parent, a.vertices, a.graph)


class TestBatchPlanner:
    def _batches(self, graph, n=4):
        loader = SeedLoader(graph, batch_size=32, seed=1)
        sampler = NeighborSampler(graph, (4, 4), seed=2)
        return [
            sampler.sample(s, i) for i, s in enumerate(loader.batches(0))
        ][:n]

    def test_ladder_cold_then_patched(self, graph, assignment, topology):
        planner = BatchPlanner(graph, assignment, topology)
        planned = planner.plan_stream(self._batches(graph))
        assert planned[0].plan_source == "planned"
        assert all(
            p.plan_source in ("patched", "replanned") for p in planned[1:]
        )
        stats = planner.stats.as_dict()
        assert stats["batches"] == len(planned)
        assert stats["plans_per_second"] > 0

    def test_cache_makes_replays_free(self, graph, assignment, topology,
                                      tmp_path):
        cache = PlanCache(tmp_path)
        batches = self._batches(graph)
        BatchPlanner(graph, assignment, topology,
                     plan_cache=cache).plan_stream(batches)
        replay = BatchPlanner(graph, assignment, topology, plan_cache=cache)
        planned = replay.plan_stream(batches)
        assert [p.plan_source for p in planned] == ["cache"] * len(batches)
        assert cache.stats.hits == len(batches)

    def test_incremental_off_plans_cold(self, graph, assignment, topology):
        planner = BatchPlanner(graph, assignment, topology,
                               incremental=False)
        planned = planner.plan_stream(self._batches(graph))
        assert all(p.plan_source == "planned" for p in planned)

    def test_plans_are_valid_for_their_relation(self, graph, assignment,
                                                topology):
        from repro.comm.allgather import CompiledAllgather

        planner = BatchPlanner(graph, assignment, topology)
        for planned in planner.plan_stream(self._batches(graph)):
            # CompiledAllgather validates the plan against the relation.
            CompiledAllgather(planned.relation, planned.plan)

    def test_metrics_counters_recorded(self, graph, assignment, topology):
        """Satellite: batch plan sources land on a metrics registry."""
        from repro.obs import MetricsRegistry, Telemetry

        registry = MetricsRegistry()
        planner = BatchPlanner(graph, assignment, topology,
                               telemetry=Telemetry(metrics=registry))
        planner.plan_stream(self._batches(graph, n=3))
        snap = registry.snapshot()
        counts = {
            key: val for key, val in snap.items()
            if key.startswith("plan.resolve{")
        }
        assert sum(counts.values()) == 3
        assert snap["plan.resolve.seconds"]["count"] == 3

    def test_assignment_must_cover_parent(self, graph, topology):
        with pytest.raises(ValueError):
            BatchPlanner(graph, np.zeros(3, dtype=np.int64), topology)
