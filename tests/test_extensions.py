"""Tests for the extension features beyond the paper's core pipeline:
the static-tree ablation planner and the feature-caching strategy."""

import numpy as np
import pytest

from repro.baselines import Workload, evaluate_scheme
from repro.core import CommRelation, SPSTPlanner, static_tree_plan
from repro.graph.datasets import DatasetSpec
from repro.graph.generators import rmat
from repro.partition import partition
from repro.topology import dgx1, ring


@pytest.fixture(scope="module")
def relation():
    graph = rmat(300, 2400, seed=3)
    r = partition(graph, 8, seed=0)
    return CommRelation(graph, r.assignment, 8)


class TestStaticTreePlan:
    def test_valid_plan(self, relation):
        plan = static_tree_plan(relation, dgx1())
        plan.validate(relation)

    def test_spst_never_costlier(self, relation):
        """SPST's load-aware weights beat the contention-blind trees."""
        topo = dgx1()
        static = static_tree_plan(relation, topo)
        spst = SPSTPlanner(topo, seed=0).plan(relation)
        assert spst.estimated_cost(1024) <= static.estimated_cost(1024)

    def test_static_still_prefers_fast_links(self, relation):
        plan = static_tree_plan(relation, dgx1())
        volumes = plan.volume_by_kind()
        nvlink = sum(v for k, v in volumes.items() if k.is_nvlink)
        other = sum(v for k, v in volumes.items() if not k.is_nvlink)
        assert nvlink > other

    def test_works_on_ring(self, relation):
        plan = static_tree_plan(relation, ring(8))
        plan.validate(relation)

    def test_classes_share_trees(self, relation):
        """Unlike SPST, the static planner reuses one tree per signature:
        all vertices of a class take identical routes."""
        plan = static_tree_plan(relation, dgx1())
        by_signature = {}
        for route in plan.routes:
            key = (route.source, route.destinations)
            by_signature.setdefault(key, set()).add(route.edges)
        assert all(len(trees) == 1 for trees in by_signature.values())


def _workload(feature_size=64, memory=None):
    graph = rmat(400, 4000, seed=11)
    spec = DatasetSpec(
        name="synthetic-ext", num_vertices=400, num_edges=4000,
        feature_size=feature_size, hidden_size=16, num_classes=4,
        builder=lambda s: graph, paper_vertices="-", paper_edges="-",
        paper_avg_degree=10.0,
    )
    topo = dgx1() if memory is None else dgx1(memory_bytes=memory)
    return Workload("synthetic-ext", "gcn", topo, graph=graph, spec=spec)


class TestFeatureCaching:
    def test_cache_reduces_comm(self):
        w = _workload()
        plain = evaluate_scheme(w, scheme="dgcl")
        cached = evaluate_scheme(w, scheme="dgcl-cache")
        assert cached.ok and plain.ok
        assert cached.comm_time < plain.comm_time
        assert cached.compute_time == pytest.approx(plain.compute_time)

    def test_cache_skips_exactly_the_feature_boundary(self):
        w = _workload()
        plain = evaluate_scheme(w, scheme="dgcl")
        cached = evaluate_scheme(w, scheme="dgcl-cache")
        # backward traffic is identical; only the forward feature
        # allgather disappears.
        assert cached.detail["backward"] == pytest.approx(
            plain.detail["backward"]
        )
        assert cached.detail["forward"] < plain.detail["forward"]

    def test_cache_costs_memory(self):
        """Fat cached features can push a device over its budget."""
        # Find a capacity where plain fits but the feature cache OOMs;
        # the cache increment is ~1 MB here, so sweep finely.
        for memory in np.arange(23e6, 19e6, -0.2e6):
            w = _workload(feature_size=2048, memory=int(memory))
            plain = evaluate_scheme(w, scheme="dgcl")
            cached = evaluate_scheme(w, scheme="dgcl-cache")
            if plain.ok and cached.status == "oom":
                return
        pytest.fail("feature caching never hit the memory wall")
