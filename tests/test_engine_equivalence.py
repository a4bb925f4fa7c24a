"""SPST against its scalar oracle: plan- and regrowth-equivalence.

The planner's tree growth (:meth:`SPSTPlanner.grow_tree` over
:class:`~repro.core.cost_model.DenseCostState`) is a fast path, not an
approximation: it must produce *identical* multicast trees and
*identical* staged costs to the per-edge scalar oracle in
``tests/spst_oracle.py`` on every input.  These tests pin that contract
for cold plans — the four benchmark dataset twins and
hypothesis-randomized graphs/partitions/topologies — and for the
regrowth of broken routes that fault repair, plan patching and elastic
handoffs run (:func:`repro.faults.repair.regrow_routes`), and run the
chaos byte-conservation oracle against a planned layer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CommRelation, SPSTPlanner
from repro.core.plan import VertexClassRoute
from repro.faults.policy import UnrecoverableFaultError
from repro.faults.repair import filter_topology, regrow_routes
from repro.graph import load_dataset
from repro.graph.generators import rmat
from repro.partition import hierarchical_partition, partition
from repro.topology import dgx1, dual_dgx1, fully_connected, pcie_only, ring
from repro.topology.presets import torus
from tests import spst_oracle as oracle


def assert_plans_equivalent(a, b):
    """Identical trees (routes, vertices, edges) and staged costs."""
    assert len(a.routes) == len(b.routes)
    assert_routes_equal(a.routes, b.routes)
    assert a.cost_model().stage_times() == b.cost_model().stage_times()


def assert_routes_equal(got, want):
    assert len(got) == len(want)
    for ra, rb in zip(got, want):
        assert ra.source == rb.source
        assert ra.destinations == rb.destinations
        assert np.array_equal(ra.vertices, rb.vertices)
        assert ra.edges == rb.edges


def plan_both(relation, topology, seed=0, chunks_per_class=4,
              refine_passes=1):
    scalar = oracle.plan(
        topology, relation, chunks_per_class=chunks_per_class, seed=seed,
        refine_passes=refine_passes,
    )
    fast = SPSTPlanner(
        topology, chunks_per_class=chunks_per_class, seed=seed,
        refine_passes=refine_passes,
    ).plan(relation)
    return scalar, fast


class TestDatasetTwins:
    """All four benchmark graphs plan identically to the oracle."""

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
    """The soak's byte-conservation oracle holds for SPST plans."""

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


REGROW_TOPOLOGIES = {
    "dgx1": dgx1,
    "ring8": lambda: ring(8),
    "torus2x4": lambda: torus(2, 4),
}


def _regrow_both(topology, kept, broken):
    """Both engines' regrowth, or the (type, message) each raised."""
    results = []
    for regrow in (regrow_routes, oracle.regrow_routes):
        try:
            results.append(regrow(topology, kept, broken))
        except UnrecoverableFaultError as exc:
            results.append((type(exc), str(exc)))
    return results


def _edgeless(route):
    return VertexClassRoute(
        source=route.source, destinations=route.destinations,
        vertices=route.vertices, edges=(),
    )


@st.composite
def regrow_instance(draw):
    """An SPST plan, a random set of dead connections and a random
    kept/broken split of its routes over the surviving topology."""
    topo = REGROW_TOPOLOGIES[draw(st.sampled_from(sorted(REGROW_TOPOLOGIES)))]()
    n = draw(st.integers(min_value=16, max_value=80))
    g = rmat(n, draw(st.integers(n, 6 * n)), seed=draw(st.integers(0, 10**6)))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    devices = topo.num_devices
    relation = CommRelation(g, rng.integers(0, devices, n), devices)
    plan = SPSTPlanner(topo, seed=draw(st.integers(0, 5))).plan(relation)
    dead = draw(st.sets(st.sampled_from(sorted(topo.connections)),
                        max_size=3))
    survivors = filter_topology(topo, dead_connections=sorted(dead))
    alive = {(l.src, l.dst, tuple(c.name for c in l.connections))
             for l in survivors.links}
    kept, broken = [], []
    for route in plan.routes:
        intact = all(
            (l.src, l.dst, tuple(c.name for c in l.connections)) in alive
            for l, _ in route.edges
        )
        if intact and draw(st.booleans()):
            kept.append(route)  # links of ``topo``, charged by name
        else:
            broken.append(_edgeless(route))
    return survivors, kept, broken


class TestRegrowEquivalence:
    """Fault repair's regrowth equals the scalar oracle's, tree for tree."""

    @given(regrow_instance())
    @settings(max_examples=40, deadline=None)
    def test_regrow_matches_oracle(self, instance):
        survivors, kept, broken = instance
        got, want = _regrow_both(survivors, kept, broken)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_routes_equal(got, want)

    def test_unrecoverable_matches_oracle(self):
        """A ring cut in two cannot serve a route across the cut."""
        topo = ring(8)
        survivors = filter_topology(
            topo, dead_connections=["ring:0-1:0->1", "ring:4-5:4->5"])
        route = VertexClassRoute(
            source=0, destinations=(3, 6), vertices=np.arange(3), edges=())
        got, want = _regrow_both(survivors, [], [route])
        assert want[0] is UnrecoverableFaultError
        assert got == want

    @given(
        st.sampled_from(sorted(REGROW_TOPOLOGIES)),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_direct_destinations_always_regrow(self, name, data):
        """Every destination a direct link away: growth reaches each."""
        topo = REGROW_TOPOLOGIES[name]()
        dead = data.draw(st.sets(st.sampled_from(sorted(topo.connections)),
                                 max_size=4))
        survivors = filter_topology(topo, dead_connections=sorted(dead))
        source = data.draw(st.integers(0, topo.num_devices - 1))
        direct = [d for d in range(topo.num_devices)
                  if survivors.direct_link(source, d) is not None]
        if not direct:
            return
        dests = data.draw(st.lists(st.sampled_from(direct), min_size=1,
                                   unique=True))
        route = VertexClassRoute(
            source=source, destinations=tuple(sorted(dests)),
            vertices=np.arange(data.draw(st.integers(1, 9))), edges=())
        # Load the surviving wires so growth must weigh forwarders.
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        kept = [
            VertexClassRoute(
                source=l.src, destinations=(l.dst,),
                vertices=np.arange(int(rng.integers(1, 20))),
                edges=((l, 0),))
            for l in survivors.links if rng.random() < 0.5
        ]
        (regrown,) = regrow_routes(survivors, kept, [route])
        reached = {l.dst for l, _ in regrown.edges}
        assert set(route.destinations) <= reached
