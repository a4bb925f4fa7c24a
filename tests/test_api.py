"""Tests for the Listing-1 style user API (through ``dgcl.session``)."""

import numpy as np
import pytest

import repro.api as dgcl
from repro.api import DGCLSession
from repro.errors import PartitionSpecError
from repro.graph.datasets import synthetic_features
from repro.graph.generators import rmat
from repro.topology import dgx1


@pytest.fixture()
def graph():
    return rmat(150, 900, seed=8)


class TestModuleApi:
    def test_listing1_workflow(self, graph):
        """The paper's Listing 1, end to end."""
        with dgcl.session(dgx1()) as s:
            report = s.build_comm_info(graph)
            assert report.num_stages >= 1
            assert report.plan is s.communication_plan()
            assert report.total_cost == pytest.approx(sum(report.stage_costs))
            features = synthetic_features(graph, 12, seed=0)
            local = s.dispatch_features(features)
            assert len(local) == 8
            gathered = s.graph_allgather(local)
            graphs = s.local_graphs()
        for d, (block, lg) in enumerate(zip(gathered, graphs)):
            assert block.shape == (lg.num_local + lg.num_remote, 12)
            assert np.array_equal(block, features[lg.global_ids])

    def test_scatter_gradients_roundtrip(self, graph):
        session = dgcl.session(dgx1())
        session.build_comm_info(graph)
        features = synthetic_features(graph, 4, seed=1)
        full = session.graph_allgather(session.dispatch_features(features))
        grads = session.scatter_gradients([np.ones_like(f) for f in full])
        # each vertex receives 1 (its own) + #consuming devices
        rel = session.relation
        for d, g in enumerate(grads):
            for i, v in enumerate(rel.local_vertices[d][:20]):
                consumers = {
                    int(rel.assignment[w])
                    for w in graph.out_neighbors(int(v))
                    if rel.assignment[w] != d
                }
                assert g[i, 0] == pytest.approx(1 + len(consumers))

    def test_requires_build(self, graph):
        session = dgcl.session(dgx1())
        with pytest.raises(RuntimeError, match="build_comm_info"):
            session.dispatch_features(np.zeros((graph.num_vertices, 3)))
        with pytest.raises(RuntimeError):
            session.graph_allgather([])
        with pytest.raises(RuntimeError):
            session.local_graphs()
        with pytest.raises(RuntimeError):
            session.communication_plan()

    def test_simulated_clock_advances(self, graph):
        session = dgcl.session(dgx1())
        session.build_comm_info(graph)
        features = synthetic_features(graph, 8, seed=2)
        assert session.simulated_comm_seconds == 0.0
        session.graph_allgather(session.dispatch_features(features))
        assert session.simulated_comm_seconds > 0.0


class TestSessionObject:
    def test_explicit_session(self, graph):
        session = DGCLSession(dgx1(4))
        session.build_comm_info(graph, seed=1)
        features = synthetic_features(graph, 6, seed=3)
        local = session.dispatch_features(features)
        full = session.graph_allgather(local)
        assert len(full) == 4

    def test_custom_assignment(self, graph):
        session = DGCLSession(dgx1(4))
        assignment = np.arange(graph.num_vertices) % 4
        session.build_comm_info(graph, assignment=assignment)
        assert np.array_equal(session.relation.assignment, assignment)

    def test_feature_length_checked(self, graph):
        session = DGCLSession(dgx1(4))
        session.build_comm_info(graph)
        with pytest.raises(ValueError):
            session.dispatch_features(np.zeros((3, 3)))

    @pytest.mark.parametrize("labels", [
        np.full(200, -1),
        np.r_[np.full(10, -1), np.arange(190) % 8],
        np.arange(200) % 8 + 0.7,
        np.arange(200) % 9,
        np.arange(199) % 8,
    ], ids=["all-negative", "some-negative", "fractional", "too-large",
            "wrong-length"])
    def test_bad_assignment_rejected(self, labels):
        """Every label must be an integral device id, one per vertex."""
        graph = rmat(200, 1200, seed=1)
        with dgcl.session(dgx1()) as s:
            with pytest.raises(PartitionSpecError):
                s.build_comm_info(graph, assignment=labels)
