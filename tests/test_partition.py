"""Tests for multilevel, hierarchical partitioning and replication."""

import hashlib

import numpy as np
import pytest

from repro.errors import PartitionSpecError
from repro.graph import datasets
from repro.graph.csr import Graph
from repro.graph.generators import grid_graph, planted_partition, rmat
from repro.partition import (
    edge_cut,
    hierarchical_partition,
    partition,
    replication_closure,
    replication_factor,
)
from repro.partition.hierarchical import partition_tree, recursive_partition
from repro.partition.replication import (
    machine_replication,
    machine_replication_factor,
)
from repro.serve.scenarios import GRAPH_SEED, NUM_EDGES, NUM_VERTICES
from repro.topology import dgx1, dual_dgx1, single_device, topology_for_gpu_count

from tests.conftest import assert_valid_assignment


class TestMultilevel:
    def test_covers_all_vertices(self, community_graph):
        r = partition(community_graph, 4, seed=0)
        assert_valid_assignment(r.assignment, community_graph.num_vertices, 4)
        assert set(np.unique(r.assignment)) == {0, 1, 2, 3}

    def test_respects_balance(self, community_graph):
        r = partition(community_graph, 4, seed=0, balance_factor=1.05)
        sizes = r.part_sizes()
        assert sizes.max() <= 1.08 * community_graph.num_vertices / 4

    def test_beats_random_cut(self, community_graph):
        r = partition(community_graph, 4, seed=0)
        rng = np.random.default_rng(0)
        random_cut = edge_cut(
            community_graph,
            rng.integers(0, 4, community_graph.num_vertices),
        )
        assert r.edge_cut < 0.6 * random_cut

    def test_grid_cut_is_low(self):
        g = grid_graph(16, 16)
        r = partition(g, 4, seed=0)
        # 4-way split of a 16x16 torus-less grid: ideal ~32 undirected
        # cut edges (64 directed); accept anything below 3x ideal.
        assert r.edge_cut <= 192

    def test_single_part(self, small_graph):
        r = partition(small_graph, 1)
        assert r.edge_cut == 0
        assert (r.assignment == 0).all()

    def test_deterministic(self, community_graph):
        a = partition(community_graph, 4, seed=3)
        b = partition(community_graph, 4, seed=3)
        assert np.array_equal(a.assignment, b.assignment)

    def test_more_parts_than_vertices_rejected(self):
        g = Graph([0], [1], 2)
        with pytest.raises(ValueError):
            partition(g, 5)

    def test_zero_parts_rejected(self, small_graph):
        with pytest.raises(ValueError):
            partition(small_graph, 0)

    def test_fractional_parts_rejected(self, small_graph):
        with pytest.raises(PartitionSpecError, match="num_parts"):
            partition(small_graph, 2.5)

    def test_edge_cut_function(self):
        g = Graph([0, 1, 2], [1, 2, 0], 3)
        assert edge_cut(g, np.array([0, 0, 0])) == 0
        assert edge_cut(g, np.array([0, 1, 1])) == 2  # 0->1 and 2->0

    def test_disconnected_graph(self):
        # two disjoint triangles: a clean 2-way split exists
        g = Graph([0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], 6)
        r = partition(g, 2, seed=0)
        assert r.edge_cut == 0


ENTRY_POINTS = {
    "partition": lambda graph, **kw: partition(graph, 4, **kw),
    "hierarchical_partition":
        lambda graph, **kw: hierarchical_partition(graph, dgx1(), **kw),
}


class TestArgumentChecks:
    """Both entry points reject arguments they cannot honour, with a
    typed error, instead of a lopsided partition or a numpy error."""

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("kwargs,field", [
        ({"balance_factor": 0.5}, "balance_factor"),
        ({"balance_factor": float("nan")}, "balance_factor"),
        ({"balance_factor": float("inf")}, "balance_factor"),
        ({"balance_factor": "1.1"}, "balance_factor"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
    ])
    def test_rejected(self, small_graph, entry, kwargs, field):
        with pytest.raises(PartitionSpecError, match=field) as info:
            ENTRY_POINTS[entry](small_graph, **kwargs)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_accepted(self, small_graph, entry):
        result = ENTRY_POINTS[entry](small_graph, seed=np.int64(2),
                                     balance_factor=1)
        assert result.assignment.size == small_graph.num_vertices


class TestHierarchical:
    def test_partition_tree_collapses_single_levels(self):
        tree = partition_tree(single_device())
        assert tree == 0

    def test_partition_tree_dgx1(self):
        tree = partition_tree(dgx1())
        # two sockets of four devices each
        assert tree == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_partition_tree_dual(self):
        tree = partition_tree(dual_dgx1())
        assert len(tree) == 2  # machines
        assert tree[0] == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_assignment_valid(self, community_graph):
        r = hierarchical_partition(community_graph, dgx1(), seed=0)
        assert_valid_assignment(r.assignment, community_graph.num_vertices, 8)
        assert r.num_parts == 8

    def test_machine_cut_below_flat_gpu_cut(self, community_graph):
        """Hierarchical cuts prioritise the machine boundary."""
        topo = dual_dgx1()
        r = hierarchical_partition(community_graph, topo, seed=0)
        machine = np.asarray(topo.machine_of)[r.assignment]
        src, dst = community_graph.edges
        machine_cut = int((machine[src] != machine[dst]).sum())
        # The machine boundary is one bisection; it must cut far fewer
        # edges than the full 16-way partition does.
        assert machine_cut < r.edge_cut

    def test_single_device_trivial(self, small_graph):
        r = hierarchical_partition(small_graph, single_device())
        assert (r.assignment == 0).all()

    def test_recursive_partition_leaf(self, small_graph):
        out = recursive_partition(small_graph, 3)
        assert (out == 3).all()

    def test_recursive_partition_flat_list(self, community_graph):
        out = recursive_partition(community_graph, [2, 5, 7])
        assert set(np.unique(out)) <= {2, 5, 7}


class TestReplication:
    def test_closure_contains_local(self, small_graph):
        r = partition(small_graph, 4, seed=0)
        closures = replication_closure(small_graph, r.assignment, 2)
        for p, closure in enumerate(closures):
            local = np.flatnonzero(r.assignment == p)
            assert np.isin(local, closure).all()

    def test_zero_hops_factor_is_one(self, small_graph):
        r = partition(small_graph, 4, seed=0)
        assert replication_factor(small_graph, r.assignment, 0) == pytest.approx(1.0)

    def test_factor_monotone_in_hops(self, small_graph):
        r = partition(small_graph, 4, seed=0)
        factors = [
            replication_factor(small_graph, r.assignment, h) for h in range(4)
        ]
        assert factors == sorted(factors)

    def test_factor_bounded_by_parts(self, small_graph):
        r = partition(small_graph, 4, seed=0)
        assert replication_factor(small_graph, r.assignment, 3) <= 4.0

    def test_closure_matches_khop_semantics(self, tiny_graph):
        assignment = np.array([0, 0, 0, 1, 1, 1])
        closures = replication_closure(tiny_graph, assignment, 1)
        # part 1 holds {3,4,5}; in-neighbors add {1, 2}
        assert closures[1].tolist() == [1, 2, 3, 4, 5]

    def test_machine_replication(self, small_graph):
        topo = dual_dgx1()
        r = hierarchical_partition(small_graph, topo, seed=0)
        closures = machine_replication(small_graph, r.assignment, topo, 2)
        assert len(closures) == 2
        factor = machine_replication_factor(small_graph, r.assignment, topo, 2)
        assert 1.0 <= factor <= 2.0


class TestPartitionMetrics:
    def test_metrics_consistent_with_relation(self, small_graph):
        from repro.core import CommRelation
        from repro.partition import evaluate_partition

        r = partition(small_graph, 4, seed=0)
        metrics = evaluate_partition(small_graph, r.assignment)
        rel = CommRelation(small_graph, r.assignment, 4)
        for d in range(4):
            assert metrics.remote_rows[d] == rel.remote_vertices[d].size
        assert metrics.send_rows.sum() == rel.total_volume_vertices()
        assert metrics.edge_cut == r.edge_cut

    def test_hierarchy_cuts(self, community_graph):
        from repro.partition import evaluate_partition

        topo = dual_dgx1()
        r = hierarchical_partition(community_graph, topo, seed=0)
        metrics = evaluate_partition(community_graph, r.assignment, topo)
        assert 0 < metrics.machine_cut < metrics.edge_cut
        assert metrics.socket_cut > 0
        assert metrics.machine_cut + metrics.socket_cut <= metrics.edge_cut

    def test_replication_option(self, small_graph):
        from repro.partition import evaluate_partition

        r = partition(small_graph, 4, seed=0)
        metrics = evaluate_partition(small_graph, r.assignment,
                                     with_replication=True)
        assert 1.0 <= metrics.replication_factor_2hop <= 4.0

    def test_summary_renders(self, small_graph):
        from repro.partition import evaluate_partition

        r = partition(small_graph, 4, seed=0)
        text = evaluate_partition(small_graph, r.assignment).summary()
        assert "edge cut" in text and "imbalance" in text

    def test_rejects_wrong_length(self, small_graph):
        from repro.partition import evaluate_partition

        with pytest.raises(ValueError):
            evaluate_partition(small_graph, np.zeros(3, dtype=np.int64))


class TestUnequalGroups:
    def test_recursive_partition_unequal_machines(self):
        """A 2-device machine plus a 6-device machine: the top-level
        split must weight children by their device counts."""
        from repro.topology.topology import TopologyBuilder
        from repro.topology import LinkKind
        from repro.partition.hierarchical import (
            hierarchical_partition,
            partition_tree,
        )
        from repro.graph.generators import planted_partition

        b = TopologyBuilder("lopsided")
        for machine, count in ((0, 2), (1, 6)):
            base = len([None for _ in range(machine * 2)])
            for i in range(count):
                b.add_device(machine=machine, socket=0)
        devices = list(range(8))
        for i in devices:
            for j in devices:
                if i < j:
                    b.add_duplex_link(i, j, LinkKind.NV1, name=f"l{i}-{j}")
        topo = b.build()

        tree = partition_tree(topo)
        assert tree == [[0, 1], [2, 3, 4, 5, 6, 7]]

        g = planted_partition(400, 3200, num_communities=8, p_intra=0.9,
                              seed=5)
        result = hierarchical_partition(g, topo, seed=0)
        sizes = np.bincount(result.assignment, minlength=8)
        assert (sizes > 0).all()
        # machine 1 holds ~3x machine 0's vertices (6 devices vs 2)
        m0 = sizes[:2].sum()
        m1 = sizes[2:].sum()
        assert 1.5 < m1 / m0 < 6.0


#: sha256 of ``hierarchical_partition(twin, topology_for_gpu_count(gpus),
#: seed=0)`` for every cell the e2e workloads partition, plus web-google
#: on one and on two machines.
_TWIN_DIGESTS = {
    ("web-google", 8):
        "a98f80811bbab789cbab6c075b2b21d35a3ab7004a4aaac5aa6d7d5612e7fb00",
    ("web-google", 16):
        "eb4791f3497319485812d531f938797a23a004e52d9d0a668dbcff045464b80f",
    ("reddit", 8):
        "481475fb1203439097644a314940f02b2a42b05732b2cc5812ae07deafb9da3e",
    ("wiki-talk", 16):
        "0b206dfce3fe7970bf272ac1d1125fb0c9df87342f940d865a75a933cdf42bfe",
    ("com-orkut", 8):
        "f70380410521e21a6c41d629655a0fe020f3ac5f4b534aea24ea60f869dd4143",
}

#: sha256 of the flat 8-way partition of the serve scenarios' graph.
#: Seed 0 is the ``ServeConfig.partition_seed`` default that both the
#: scenario probe and every serve deployment partition with.
_SERVE_DIGESTS = {
    0: "7f52caeb0d4b87235e49efb4d85301ea8d321f783045207b6ab95715e4549cbd",
    1: "ef56dbfa900b5967dd0880a9c81a0e6aed064314469b6c0851fe10714232d505",
}


def _digest(assignment: np.ndarray) -> str:
    data = np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def twin():
    """Each dataset twin, built once for this module (seed 0, as the
    e2e workloads and the benches load them)."""
    graphs = {}

    def load(name):
        if name not in graphs:
            graphs[name] = datasets.load_dataset(name, seed=0, cache=False)
        return graphs[name]

    return load


class TestGoldenAssignments:
    """The partitioner's output, bit for bit.

    Every plan, simulated time and paper table downstream depends on
    the assignment, so a partitioner change that is meant to be only
    faster must leave these sha256 digests unchanged.
    """

    @pytest.mark.parametrize("name,gpus", list(_TWIN_DIGESTS),
                             ids=[f"{n}-{g}" for n, g in _TWIN_DIGESTS])
    def test_twin_hierarchical(self, twin, name, gpus):
        result = hierarchical_partition(
            twin(name), topology_for_gpu_count(gpus), seed=0)
        assert _digest(result.assignment) == _TWIN_DIGESTS[name, gpus]

    @pytest.mark.parametrize("seed", list(_SERVE_DIGESTS))
    def test_serve_graph_flat(self, seed):
        graph = rmat(NUM_VERTICES, NUM_EDGES, seed=GRAPH_SEED)
        assignment = partition(graph, 8, seed=seed).assignment
        assert _digest(assignment) == _SERVE_DIGESTS[seed]
