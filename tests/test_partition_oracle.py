"""The vectorised partitioner scans against their scalar references.

:mod:`tests.partition_oracle` keeps the per-edge loops the multilevel
partitioner once ran.  The dataset twins almost never reach the tie
rules (equal gain and equal part weight in refinement, equal edge
weight in matching and region growing), so these drawn graphs are built
to: unit weights, planted communities, stars (where coarsening stalls)
and isolated vertices, at 2 to 8 parts.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.csr import Graph
from repro.graph.generators import planted_partition, star_graph
from repro.partition import metis

from tests import partition_oracle as oracle


@st.composite
def tie_prone_graph(draw):
    """A small graph whose weights and part weights often tie."""
    kind = draw(st.sampled_from(["unit", "planted", "star"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "planted":
        n = draw(st.integers(16, 90))
        graph = planted_partition(n, draw(st.integers(n, 6 * n)),
                                  num_communities=draw(st.integers(2, 8)),
                                  p_intra=draw(st.sampled_from([0.6, 0.9, 1.0])),
                                  seed=seed)
    elif kind == "star":
        graph = star_graph(draw(st.integers(8, 80)),
                           directed_out=draw(st.booleans()))
    else:
        n = draw(st.integers(8, 60))
        rng = np.random.default_rng(seed)
        m = draw(st.integers(0, 4 * n))
        graph = Graph(rng.integers(0, n, m), rng.integers(0, n, m), n,
                      drop_self_loops=True)
    isolated = draw(st.integers(0, 6))
    if isolated:
        src, dst = graph.edges
        graph = Graph(src, dst, graph.num_vertices + isolated)
    return graph


def _coarsened(graph: Graph, levels: int, seed: int) -> "metis._WeightedGraph":
    """The weighted graph after ``levels`` matching rounds, so vertex and
    edge weights are no longer all one."""
    wg = metis._WeightedGraph.from_graph(graph)
    rng = np.random.default_rng(seed)
    for _ in range(levels):
        wg, _ = metis._contract(wg, oracle.heavy_edge_matching(wg, rng))
    return wg


parts = st.integers(2, 8)
levels = st.integers(0, 2)
seeds = st.integers(0, 2**16)


class TestAgainstScalarScans:
    @given(tie_prone_graph(), levels, seeds, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matching(self, graph, depth, seed, vector):
        """Both the Python scan and, above the degree cut-off (here
        forced to 0), the numpy argmax."""
        wg = _coarsened(graph, depth, seed)
        cutoff = 0 if vector else metis._VECTOR_MATCH_DEGREE
        with mock.patch.object(metis, "_VECTOR_MATCH_DEGREE", cutoff):
            fast = metis._heavy_edge_matching(wg, np.random.default_rng(seed))
        slow = oracle.heavy_edge_matching(wg, np.random.default_rng(seed))
        assert np.array_equal(fast, slow)

    @given(tie_prone_graph(), levels, seeds)
    @settings(max_examples=60, deadline=None)
    def test_contract_numbering(self, graph, depth, seed):
        wg = _coarsened(graph, depth, seed)
        match = oracle.heavy_edge_matching(wg, np.random.default_rng(seed))
        _, coarse_id = metis._contract(wg, match)
        assert np.array_equal(coarse_id, oracle.contract_ids(match))

    @given(tie_prone_graph(), parts, levels, seeds)
    @settings(max_examples=60, deadline=None)
    def test_farthest_seeds(self, graph, k, depth, seed):
        wg = _coarsened(graph, depth, seed)
        if k > wg.n:
            return
        fast = metis._farthest_seeds(wg, k, np.random.default_rng(seed))
        slow = oracle.farthest_seeds(wg, k, np.random.default_rng(seed))
        assert np.array_equal(fast, slow)

    @given(tie_prone_graph(), parts, levels, seeds,
           st.sampled_from([1.0, 1.03, 1.2]))
    @settings(max_examples=80, deadline=None)
    def test_grow_regions(self, graph, k, depth, seed, balance):
        wg = _coarsened(graph, depth, seed)
        if k > wg.n:
            return
        cap = balance * wg.vweights.sum() / k
        fast = metis._grow_regions(wg, k, cap, np.random.default_rng(seed))
        slow = oracle.grow_regions(wg, k, cap, np.random.default_rng(seed))
        assert np.array_equal(fast, slow)

    @given(tie_prone_graph(), parts, levels, seeds,
           st.sampled_from([1.0, 1.03, 1.2, 2.0]), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_refine(self, graph, k, depth, seed, balance, lopsided):
        """From uniform or lopsided random starting points, so both the
        gain and the overweight-part branch run."""
        wg = _coarsened(graph, depth, seed)
        rng = np.random.default_rng(seed)
        if lopsided:
            start = rng.integers(0, max(1, k // 2), wg.n)
        else:
            start = rng.integers(0, k, wg.n)
        cap = balance * wg.vweights.sum() / k
        fast, slow = start.copy(), start.copy()
        metis._refine(wg, fast, k, cap, 4, np.random.default_rng(seed))
        oracle.refine(wg, slow, k, cap, 4, np.random.default_rng(seed))
        assert np.array_equal(fast, slow)

    @given(tie_prone_graph(), parts, seeds)
    @settings(max_examples=40, deadline=None)
    def test_whole_partition(self, graph, k, seed):
        """`partition` with every scalar scan swapped back in."""
        if k > graph.num_vertices:
            return
        fast = metis.partition(graph, k, seed=seed, coarsen_until=16)
        with mock.patch.object(metis, "_heavy_edge_matching",
                               oracle.heavy_edge_matching), \
                mock.patch.object(metis, "_grow_regions", oracle.grow_regions), \
                mock.patch.object(metis, "_refine", oracle.refine):
            slow = metis.partition(graph, k, seed=seed, coarsen_until=16)
        assert np.array_equal(fast.assignment, slow.assignment)
