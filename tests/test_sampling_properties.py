"""Property-based tests (hypothesis) on the sampling subsystem.

Three invariants the mini-batch pipeline leans on, checked over random
graphs, seeds and fanout configurations:

* the batch stream is a pure function of its seeds — same (loader
  seed, sampler seed, epoch) means bit-identical batches;
* every sampled edge exists in the parent CSR;
* frontier growth respects the fanout caps layer by layer;

and the vectorised in-edge gather returns what the per-vertex loop in
:mod:`tests.sampling_oracle` returns.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.csr import Graph
from repro.sampling import KHopSampler, NeighborSampler, SeedLoader
from repro.sampling.samplers import gather_in_edges
from tests import sampling_oracle as oracle


@st.composite
def random_graph(draw, max_vertices=40, max_edges=160):
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return Graph(np.asarray(src, dtype=np.int64),
                 np.asarray(dst, dtype=np.int64), n,
                 drop_self_loops=True)


@st.composite
def sampling_setup(draw):
    g = draw(random_graph())
    fanouts = tuple(
        draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    )
    seed = draw(st.integers(0, 2**16))
    batch_size = draw(st.integers(1, g.num_vertices))
    return g, fanouts, seed, batch_size


def batch_signature(batch):
    """Everything a batch is, as comparable bytes."""
    s, d = batch.graph.edges
    return (
        batch.seeds.tobytes(),
        batch.vertices.tobytes(),
        s.tobytes(),
        d.tobytes(),
        tuple(f.tobytes() for f in batch.frontiers),
    )


class TestStreamDeterminism:
    @given(sampling_setup())
    @settings(max_examples=30, deadline=None)
    def test_same_seed_bit_identical_stream(self, setup):
        """Same seeds -> bit-identical batch stream, end to end."""
        g, fanouts, seed, batch_size = setup

        def stream():
            loader = SeedLoader(g, batch_size, seed=seed)
            sampler = NeighborSampler(g, fanouts, seed=seed)
            return [
                batch_signature(sampler.sample(s, i))
                for i, s in enumerate(loader.batches(0))
            ]

        assert stream() == stream()

    @given(sampling_setup())
    @settings(max_examples=20, deadline=None)
    def test_khop_deterministic(self, setup):
        g, fanouts, seed, batch_size = setup
        sampler = KHopSampler(g, hops=len(fanouts))
        seeds = np.arange(min(3, g.num_vertices))
        assert batch_signature(sampler.sample(seeds)) == batch_signature(
            sampler.sample(seeds)
        )


class TestSampledEdges:
    @given(sampling_setup())
    @settings(max_examples=30, deadline=None)
    def test_every_sampled_edge_exists_in_parent(self, setup):
        g, fanouts, seed, batch_size = setup
        src, dst = g.edges
        parent = set(zip(src.tolist(), dst.tolist()))
        sampler = NeighborSampler(g, fanouts, seed=seed)
        loader = SeedLoader(g, batch_size, seed=seed)
        for i, seeds in enumerate(loader.batches(0)):
            batch = sampler.sample(seeds, i)
            s, d = batch.graph.edges
            for u, v in zip(batch.vertices[s], batch.vertices[d]):
                assert (int(u), int(v)) in parent

    @given(sampling_setup())
    @settings(max_examples=20, deadline=None)
    def test_vertices_sorted_and_unique(self, setup):
        g, fanouts, seed, batch_size = setup
        sampler = NeighborSampler(g, fanouts, seed=seed)
        batch = sampler.sample(np.arange(min(4, g.num_vertices)))
        v = batch.vertices
        assert np.array_equal(v, np.unique(v))
        assert np.array_equal(batch.vertices[batch.seed_rows], batch.seeds)


class TestFanoutCaps:
    @given(sampling_setup())
    @settings(max_examples=30, deadline=None)
    def test_frontier_growth_respects_fanouts(self, setup):
        """|frontier_{l+1}| <= |frontier_l| * (1 + fanout_l)."""
        g, fanouts, seed, batch_size = setup
        sampler = NeighborSampler(g, fanouts, seed=seed)
        batch = sampler.sample(np.arange(min(4, g.num_vertices)))
        assert len(batch.frontiers) == len(fanouts) + 1
        for fanout, prev, cur in zip(
            fanouts, batch.frontiers, batch.frontiers[1:]
        ):
            assert cur.size <= prev.size * (1 + fanout)

    @given(sampling_setup())
    @settings(max_examples=30, deadline=None)
    def test_subgraph_in_degree_capped(self, setup):
        """A sampled vertex keeps <= min(parent degree, sum of fanouts)
        in-neighbors (each layer adds at most fanout_l per head)."""
        g, fanouts, seed, batch_size = setup
        sampler = NeighborSampler(g, fanouts, seed=seed)
        batch = sampler.sample(np.arange(min(4, g.num_vertices)))
        cap = sum(fanouts)
        sub = batch.graph
        for local, global_id in enumerate(batch.vertices):
            sampled_deg = sub.in_indptr[local + 1] - sub.in_indptr[local]
            parent_deg = (
                g.in_indptr[global_id + 1] - g.in_indptr[global_id]
            )
            assert sampled_deg <= min(parent_deg, cap)


class TestGatherOracle:
    @given(random_graph(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_vectorised_gather_matches_the_loop(self, g, data):
        """Same tails, heads and degrees, dtypes included, for any
        frontier: zero-degree vertices, repeats and any order."""
        frontier = np.asarray(data.draw(st.lists(
            st.integers(0, g.num_vertices - 1), max_size=12
        )), dtype=np.int64)
        got = gather_in_edges(g, frontier)
        want = oracle.gather_in_edges(g, frontier)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
