"""Tests for the staged cost model (paper §5.1)."""

import pytest

from repro.core.cost_model import DenseCostState, StagedCostModel
from repro.faults.repair import filter_topology
from repro.topology import LinkKind, dgx1, fully_connected
from repro.topology.topology import TopologyBuilder


def shared_bus_topology():
    """3 devices; 0->2 and 1->2 share one QPI-like bus connection."""
    b = TopologyBuilder("bus")
    for _ in range(3):
        b.add_device()
    bus = b.connection("bus", LinkKind.QPI)
    b.add_link(0, 2, (bus,))
    b.add_link(1, 2, (bus,))
    b.add_duplex_link(0, 1, LinkKind.NV1)
    return b.build()


class TestBasics:
    def test_empty_cost_zero(self):
        model = StagedCostModel(dgx1())
        assert model.total_cost() == 0.0

    def test_single_transfer_cost(self):
        topo = fully_connected(2, LinkKind.NV1)
        model = StagedCostModel(topo)
        link = topo.direct_link(0, 1)
        model.add(link, 0, 100.0)
        assert model.total_cost() == pytest.approx(100.0 / 24.22e9)

    def test_stage_time_is_max_over_connections(self):
        topo = fully_connected(3, LinkKind.NV1)
        model = StagedCostModel(topo)
        model.add(topo.direct_link(0, 1), 0, 100.0)
        model.add(topo.direct_link(0, 2), 0, 300.0)
        assert model.stage_time(0) == pytest.approx(300.0 / 24.22e9)

    def test_total_is_sum_of_stages(self):
        topo = fully_connected(3, LinkKind.NV1)
        model = StagedCostModel(topo)
        model.add(topo.direct_link(0, 1), 0, 100.0)
        model.add(topo.direct_link(1, 2), 1, 200.0)
        assert model.total_cost() == pytest.approx(300.0 / 24.22e9)

    def test_invalid_stage(self):
        topo = fully_connected(2, LinkKind.NV1)
        model = StagedCostModel(topo)
        with pytest.raises(ValueError):
            model.add(topo.direct_link(0, 1), 99, 1.0)


class TestContention:
    def test_shared_connection_aggregates(self):
        """Two links over one physical bus contend (paper's QPI rule)."""
        topo = shared_bus_topology()
        model = StagedCostModel(topo)
        model.add(topo.direct_link(0, 2), 0, 100.0)
        model.add(topo.direct_link(1, 2), 0, 100.0)
        # both ride the same bus: time is the aggregate 200 units
        assert model.stage_time(0) == pytest.approx(200.0 / 9.56e9)

    def test_multi_hop_link_takes_slowest_hop(self):
        topo = dgx1()
        model = StagedCostModel(topo)
        # 0 -> 5 crosses sockets: PCIe-QPI-PCIe; QPI is the bottleneck
        slow = [l for l in topo.links_between(0, 5) if not l.is_nvlink][0]
        model.add(slow, 0, 100.0)
        assert model.stage_time(0) == pytest.approx(100.0 / 9.56e9)

    def test_busiest_connection_reported(self):
        topo = shared_bus_topology()
        model = StagedCostModel(topo)
        model.add(topo.direct_link(0, 2), 0, 50.0)
        name, t = model.busiest_connection(0)
        assert name == "bus"
        assert t == pytest.approx(50.0 / 9.56e9)


class TestIncrementalCost:
    def test_increment_on_empty_stage(self):
        topo = fully_connected(2, LinkKind.NV1)
        model = StagedCostModel(topo)
        link = topo.direct_link(0, 1)
        inc = model.incremental_cost(link, 0, 10.0)
        assert inc == pytest.approx(10.0 / 24.22e9)

    def test_underloaded_link_is_free(self):
        """Load balancing (§5.2): adding to an idle link costs nothing."""
        topo = fully_connected(3, LinkKind.NV1)
        model = StagedCostModel(topo)
        model.add(topo.direct_link(0, 1), 0, 1000.0)
        inc = model.incremental_cost(topo.direct_link(0, 2), 0, 500.0)
        assert inc == 0.0

    def test_increment_equals_actual_delta(self):
        topo = shared_bus_topology()
        model = StagedCostModel(topo)
        model.add(topo.direct_link(0, 2), 0, 70.0)
        link = topo.direct_link(1, 2)
        predicted = model.incremental_cost(link, 0, 30.0)
        before = model.total_cost()
        model.add(link, 0, 30.0)
        assert model.total_cost() - before == pytest.approx(predicted)

    def test_path_cost_additive_across_stages(self):
        topo = fully_connected(3, LinkKind.NV1)
        model = StagedCostModel(topo)
        path = [(topo.direct_link(0, 1), 0), (topo.direct_link(1, 2), 1)]
        expected = sum(model.incremental_cost(l, s, 5.0) for l, s in path)
        assert model.path_cost(path, 5.0) == pytest.approx(expected)


class TestFeatureDimensionInvariance:
    def test_scaling_units_scales_cost_linearly(self):
        """Paper §5.1: the optimal plan is dimension-independent because
        payload size scales every link and stage identically."""
        topo = dgx1()
        m1 = StagedCostModel(topo)
        m2 = StagedCostModel(topo)
        transfers = [
            (topo.direct_link(0, 1), 0, 10.0),
            (topo.direct_link(1, 5), 1, 20.0),
            (topo.direct_link(0, 5), 0, 5.0),
        ]
        for link, stage, units in transfers:
            m1.add(link, stage, units)
            m2.add(link, stage, units * 7.0)
        assert m2.total_cost() == pytest.approx(7.0 * m1.total_cost())

    def test_total_seconds(self):
        topo = fully_connected(2, LinkKind.NV1)
        model = StagedCostModel(topo)
        model.add(topo.direct_link(0, 1), 0, 10.0)
        assert model.total_seconds(1024) == pytest.approx(
            model.total_cost() * 1024
        )


class TestClone:
    def test_clone_is_independent(self):
        topo = fully_connected(2, LinkKind.NV1)
        model = StagedCostModel(topo)
        model.add(topo.direct_link(0, 1), 0, 10.0)
        copy = model.clone()
        copy.add(topo.direct_link(0, 1), 0, 10.0)
        assert copy.total_cost() == pytest.approx(2 * model.total_cost())


class TestRemove:
    def test_remove_restores_state(self):
        topo = dgx1()
        model = StagedCostModel(topo)
        link = topo.direct_link(0, 1)
        other = topo.direct_link(0, 5)
        model.add(other, 0, 40.0)
        baseline = model.total_cost()
        model.add(link, 0, 100.0)
        model.add(link, 1, 60.0)
        model.remove(link, 1, 60.0)
        model.remove(link, 0, 100.0)
        assert model.total_cost() == pytest.approx(baseline)

    def test_remove_lowers_stage_bottleneck(self):
        topo = fully_connected(3, LinkKind.NV1)
        model = StagedCostModel(topo)
        big = topo.direct_link(0, 1)
        small = topo.direct_link(0, 2)
        model.add(big, 0, 300.0)
        model.add(small, 0, 100.0)
        model.remove(big, 0, 300.0)
        assert model.stage_time(0) == pytest.approx(100.0 / 24.22e9)

    def test_remove_more_than_committed_rejected(self):
        topo = fully_connected(2, LinkKind.NV1)
        model = StagedCostModel(topo)
        link = topo.direct_link(0, 1)
        model.add(link, 0, 10.0)
        with pytest.raises(ValueError):
            model.remove(link, 0, 20.0)

    def test_remove_path_inverse_of_add_path(self):
        topo = dgx1()
        model = StagedCostModel(topo)
        path = [(topo.direct_link(0, 1), 0), (topo.direct_link(1, 5), 1)]
        model.add_path(path, 12.0)
        model.remove_path(path, 12.0)
        assert model.total_cost() == 0.0


class TestDenseAddPath:
    def test_matches_staged_model_across_topology_objects(self):
        """Links of another Topology object charge by connection name."""
        topo = dgx1()
        survivors = filter_topology(topo, dead_connections=["qpi:m0:0->1"])
        dense = DenseCostState(survivors)
        staged = StagedCostModel(survivors)
        for i, link in enumerate(topo.links[:24]):
            if all(c.name in survivors.connections for c in link.connections):
                edges = [(link, i % 3), (link, (i + 1) % 3)]
                dense.add_path(edges, i + 1)
                staged.add_path(edges, i + 1)
        assert dense.stage_times() == staged.stage_times()
        assert dense.total_cost() == staged.total_cost()

    def test_invalid_stage(self):
        topo = dgx1(4)
        link = topo.links[0]
        for stage in (-1, StagedCostModel(topo).num_stages):
            with pytest.raises(ValueError, match="out of range") as dense:
                DenseCostState(topo).add_path([(link, stage)], 1)
            with pytest.raises(ValueError, match="out of range") as staged:
                StagedCostModel(topo).add_path([(link, stage)], 1)
            assert str(dense.value) == str(staged.value)
