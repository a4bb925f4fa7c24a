"""Edge-case tests for Workload plumbing and the Swap executor."""

import numpy as np
import pytest

from repro.baselines import Workload, evaluate_scheme
from repro.baselines import strategies
from repro.baselines.strategies import clear_caches
from repro.core.relation import CommRelation
from repro.graph.csr import Graph
from repro.graph.datasets import DatasetSpec
from repro.graph.generators import rmat
from repro.partition.hierarchical import hierarchical_partition
from repro.simulator.executor import SwapExecutor
from repro.topology import dgx1


def tiny_workload(topology=None, num_layers=2, graph=None, feature_size=24):
    graph = graph if graph is not None else rmat(300, 2500, seed=17)
    spec = DatasetSpec(
        name="tiny-cells", num_vertices=300, num_edges=2500,
        feature_size=feature_size, hidden_size=12, num_classes=3,
        builder=lambda s: graph, paper_vertices="-", paper_edges="-",
        paper_avg_degree=8.3,
    )
    return Workload("tiny-cells", "gcn", topology or dgx1(),
                    num_layers=num_layers, graph=graph, spec=spec)


def fresh_dgcl(make):
    """Price ``make()`` with an empty memo: the reference answer."""
    clear_caches()
    return evaluate_scheme(make(), scheme="dgcl")


class TestWorkloadPlumbing:
    def test_device_slice_consistency(self):
        w = tiny_workload()
        total_local = 0
        total_edges = 0
        for d in range(8):
            num_local, num_rows, num_edges = w.device_slice(d)
            assert num_rows >= num_local
            total_local += num_local
            total_edges += num_edges
        assert total_local == w.graph.num_vertices
        assert total_edges == w.graph.num_edges

    def test_boundary_bytes_three_layers(self):
        w = tiny_workload(num_layers=3)
        assert w.boundary_bytes() == [24 * 4, 12 * 4, 12 * 4]

    def test_plan_shared_across_workload_instances(self):
        """Plans key on content (graph, partition, topology, seed): two
        Workloads built from the same inputs share one plan object — the
        paper's reuse argument."""
        topo = dgx1()
        a = tiny_workload(topo)
        b = tiny_workload(topo)
        assert a.spst_plan is b.spst_plan
        assert a.p2p_plan is b.p2p_plan

    def test_clear_caches_breaks_sharing(self):
        topo = dgx1()
        a = tiny_workload(topo)
        plan_a = a.spst_plan
        clear_caches()
        b = tiny_workload(topo)
        assert b.spst_plan is not plan_a

    def test_model_sync_time_zero_single_device(self):
        from repro.topology import single_device

        w = tiny_workload(single_device())
        assert w.model_sync_time == 0.0

    def test_three_layer_epoch_costs_more_comm(self):
        shallow = evaluate_scheme(tiny_workload(num_layers=2), scheme="dgcl")
        deep = evaluate_scheme(tiny_workload(num_layers=3), scheme="dgcl")
        assert deep.comm_time > shallow.comm_time


class TestContentKeys:
    """Memo entries key on what they are built from, never on the label:
    each cell below reuses ``tiny-cells`` after a different cell was
    priced under it, and must match its own fresh evaluation."""

    def test_two_graphs_under_one_label(self):
        g1 = rmat(300, 2500, seed=17)
        g2 = rmat(300, 2500, seed=23)
        evaluate_scheme(tiny_workload(graph=g1), scheme="dgcl")
        w2 = tiny_workload(graph=g2)
        shared = evaluate_scheme(w2, scheme="dgcl")
        assert w2.relation.graph is g2
        fresh = fresh_dgcl(lambda: tiny_workload(graph=g2))
        assert shared.epoch_time == fresh.epoch_time

    def test_same_preset_at_two_memory_sizes(self):
        evaluate_scheme(tiny_workload(dgx1()), scheme="dgcl")
        small = tiny_workload(dgx1(memory_bytes=10**6))
        shared = evaluate_scheme(small, scheme="dgcl")
        fresh = fresh_dgcl(lambda: tiny_workload(dgx1(memory_bytes=10**6)))
        assert fresh.status == "oom"
        assert shared.status == fresh.status

    def test_two_feature_sizes_under_one_label(self):
        evaluate_scheme(tiny_workload(feature_size=64), scheme="dgcl")
        shared = evaluate_scheme(tiny_workload(feature_size=2048),
                                 scheme="dgcl")
        fresh = fresh_dgcl(lambda: tiny_workload(feature_size=2048))
        assert shared.comm_time == fresh.comm_time

    def test_memory_sweep_partitions_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return hierarchical_partition(*args, **kwargs)

        monkeypatch.setattr(strategies, "hierarchical_partition", counting)
        clear_caches()  # count from a cold memo
        for memory in (None, 10**6):
            topo = dgx1() if memory is None else dgx1(memory_bytes=memory)
            tiny_workload(topo).partition
        assert len(calls) == 1

    def test_result_keeps_its_own_label(self):
        graph = rmat(300, 2500, seed=17)
        a = evaluate_scheme(tiny_workload(graph=graph), scheme="dgcl")
        spec = tiny_workload(graph=graph).spec
        b = evaluate_scheme(
            Workload("other-label", "gcn", dgx1(), graph=graph, spec=spec),
            scheme="dgcl",
        )
        assert (a.dataset, b.dataset) == ("tiny-cells", "other-label")
        assert a.epoch_time == b.epoch_time


class TestSwapDetails:
    @pytest.fixture(scope="class")
    def relation(self):
        graph = rmat(300, 2500, seed=17)
        from repro.partition import partition

        r = partition(graph, 8, seed=0)
        return CommRelation(graph, r.assignment, 8)

    def test_no_remote_vertices_means_cheap_reads(self):
        """A relation with no cross edges only pays the dump phase."""
        g = Graph([0, 1], [1, 0], 16)
        assignment = np.zeros(16, dtype=np.int64)
        rel = CommRelation(g, assignment, 8)
        report = SwapExecutor(dgx1()).execute(rel, 64, dump_bytes_per_unit=64)
        # the only volume is device 0 dumping its 16 local rows
        assert report.total_time < 1e-5

    def test_phases_ordered(self, relation):
        report = SwapExecutor(dgx1()).execute(
            relation, 128, dump_bytes_per_unit=128
        )
        assert report.stage_finish[0] <= report.stage_finish[1]
        assert report.stage_finish[1] == pytest.approx(report.total_time)

    def test_host_efficiency_scales_time(self, relation):
        fast = SwapExecutor(dgx1(), host_efficiency=1.0).execute(relation, 128)
        slow = SwapExecutor(dgx1(), host_efficiency=0.5).execute(relation, 128)
        assert slow.total_time > 1.5 * fast.total_time

    def test_bigger_payload_costs_more(self, relation):
        ex = SwapExecutor(dgx1())
        small = ex.execute(relation, 16, dump_bytes_per_unit=16)
        large = ex.execute(relation, 512, dump_bytes_per_unit=512)
        assert large.total_time > small.total_time
