"""Scalar vs. vectorized SPST engines: plan-equivalence oracles.

The vectorized engine (``SPSTPlanner(engine="vectorized")``) is a fast
path, not an approximation: it must produce *identical* multicast trees
and *identical* staged costs to the scalar oracle on every input.  These
tests pin that contract three ways — the four benchmark dataset twins,
hypothesis-randomized graphs/partitions/topologies, and the chaos
byte-conservation oracle run against a vectorized plan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CommRelation, SPSTPlanner
from repro.graph import load_dataset
from repro.graph.csr import Graph
from repro.graph.generators import rmat
from repro.partition import hierarchical_partition, partition
from repro.topology import dgx1, dual_dgx1, fully_connected, pcie_only


def assert_plans_equivalent(a, b):
    """Identical trees (routes, vertices, edges) and staged costs."""
    assert len(a.routes) == len(b.routes)
    for ra, rb in zip(a.routes, b.routes):
        assert ra.source == rb.source
        assert ra.destinations == rb.destinations
        assert np.array_equal(ra.vertices, rb.vertices)
        assert ra.edges == rb.edges
    assert a.cost_model().stage_times() == b.cost_model().stage_times()


def plan_both(relation, topology, seed=0, chunks_per_class=4,
              refine_passes=1):
    scalar = SPSTPlanner(
        topology, chunks_per_class=chunks_per_class, seed=seed,
        refine_passes=refine_passes, engine="scalar",
    ).plan(relation)
    fast = SPSTPlanner(
        topology, chunks_per_class=chunks_per_class, seed=seed,
        refine_passes=refine_passes, engine="vectorized",
    ).plan(relation)
    return scalar, fast


class TestDatasetTwins:
    """All four benchmark graphs plan identically under both engines."""

    @pytest.mark.parametrize("dataset,gpus", [
        ("web-google", 8),
        ("reddit", 4),
        ("wiki-talk", 4),
        ("com-orkut", 4),
    ])
    def test_equivalent_on_benchmark_graph(self, dataset, gpus):
        g = load_dataset(dataset)
        topo = dgx1(gpus)
        assignment = hierarchical_partition(g, topo, seed=0).assignment
        rel = CommRelation(g, assignment, gpus)
        scalar, fast = plan_both(rel, topo)
        assert_plans_equivalent(scalar, fast)
        fast.validate(rel)


class TestEngineKnob:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            SPSTPlanner(dgx1(4), engine="cuda")

    def test_vectorized_is_default(self):
        assert SPSTPlanner(dgx1(4)).engine == "vectorized"


@st.composite
def random_relation(draw):
    """A random (graph, assignment, topology) planning instance."""
    n = draw(st.integers(min_value=8, max_value=60))
    m = draw(st.integers(min_value=n, max_value=6 * n))
    g = rmat(n, m, seed=draw(st.integers(0, 10**6)))
    topo = draw(st.sampled_from([
        dgx1(4), dgx1(8), pcie_only(4), dual_dgx1(), fully_connected(4),
    ]))
    devices = topo.num_devices
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    assignment = rng.integers(0, devices, n)
    return CommRelation(g, assignment, devices), topo


class TestRandomizedEquivalence:
    @given(random_relation(), st.integers(0, 5),
           st.sampled_from([1, 2, 4]))
    @settings(max_examples=25, deadline=None)
    def test_engines_agree(self, instance, seed, chunks):
        rel, topo = instance
        scalar, fast = plan_both(rel, topo, seed=seed,
                                 chunks_per_class=chunks)
        assert_plans_equivalent(scalar, fast)

    @given(random_relation(), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_engines_agree_with_refinement(self, instance, seed):
        rel, topo = instance
        scalar, fast = plan_both(rel, topo, seed=seed, refine_passes=3)
        assert_plans_equivalent(scalar, fast)


class TestChaosByteOracle:
    """The soak's byte-conservation oracle holds for vectorized plans."""

    def _observe(self, relation, plan, blocks):
        from repro.faults.injector import FaultInjector
        from repro.faults.log import FaultLog
        from repro.faults.spec import FaultPlan
        from repro.runtime.protocol import ProtocolRunner

        runner = ProtocolRunner(
            relation, plan,
            injector=FaultInjector(FaultPlan([]), log=FaultLog()),
        )
        return runner.run_data(blocks)

    def test_vectorized_plan_conserves_bytes(self):
        from repro.chaos.oracles import RunObservation, check_bytes
        from repro.obs import MetricsRegistry, Telemetry
        from repro.runtime.protocol import ProtocolRunner

        g = rmat(200, 1600, seed=7)
        topo = dgx1(8)
        part = partition(g, 8, seed=1)
        rel = CommRelation(g, part.assignment, 8)
        scalar, fast = plan_both(rel, topo, seed=1)
        assert_plans_equivalent(scalar, fast)

        dim = 4
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((g.num_vertices, dim)).astype(np.float32)
        blocks = [feats[rel.local_vertices[d]] for d in range(8)]

        tuples = list(fast.tuples())
        planned = {}
        for t in tuples:
            for conn in t.link.connections:
                planned[conn.name] = planned.get(conn.name, 0.0) \
                    + t.units * dim * 4

        # the dense traffic matrix is the same accounting, stage-major
        matrix = fast.traffic_matrix()
        names = list(fast.topology.connections)
        by_conn = matrix.sum(axis=0) * dim * 4
        for i, name in enumerate(names):
            assert by_conn[i] == pytest.approx(planned.get(name, 0.0))

        metrics = MetricsRegistry()
        gathered, report = ProtocolRunner(
            rel, fast, telemetry=Telemetry(metrics=metrics),
        ).run_data(blocks)
        obs = RunObservation(
            gathered=gathered,
            total_time=report.total_time,
            transfers=report.transfers,
            device_finish=dict(report.device_finish),
            stage_finish=dict(report.stage_finish),
            log_signature=(),
            trace_signature=(),
            metrics=metrics.snapshot(),
        )
        assert check_bytes(obs, planned, len(tuples), rerouted=False) == []
