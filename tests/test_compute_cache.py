"""Tests for the compute and memory models."""

import pytest

from repro.gnn.models import build_commnet, build_gcn, build_gin
from repro.simulator.compute import (
    ComputeModel,
    LayerComputeCost,
    partition_memory_bytes,
    training_memory_bytes,
)


class TestLayerComputeCost:
    def test_addition(self):
        a = LayerComputeCost(10, 20, 1)
        b = LayerComputeCost(5, 5, 2)
        c = a + b
        assert (c.agg_bytes, c.dense_flops, c.num_kernels) == (15, 25, 3)

    def test_scaling_keeps_kernels(self):
        c = LayerComputeCost(10, 20, 3).scaled(2.0)
        assert (c.agg_bytes, c.dense_flops, c.num_kernels) == (20, 40, 3)


class TestComputeModel:
    def test_seconds_formula(self):
        m = ComputeModel(agg_bandwidth=1e9, dense_flops=1e9,
                         kernel_latency=1e-6)
        cost = LayerComputeCost(agg_bytes=2e9, dense_flops=3e9, num_kernels=4)
        assert m.seconds(cost) == pytest.approx(2 + 3 + 4e-6)

    def test_atomic_reduce_slower(self):
        m = ComputeModel()
        fast = m.gradient_reduce_seconds(1e6, atomic=False)
        slow = m.gradient_reduce_seconds(1e6, atomic=True)
        assert slow == pytest.approx(fast * m.atomic_slowdown)

    def test_gcn_project_first_shrinks_aggregation(self):
        """DGL's project-then-aggregate: GCN aggregation streams the
        output width when it is smaller."""
        wide_in = build_gcn(602, 256, 41).layers[0]
        cost = wide_in.compute_cost(100, 150, 1000)
        assert cost.agg_bytes == 2.0 * 1000 * 256 * 4  # out dim, not 602

    def test_gin_cannot_project_first(self):
        gin = build_gin(602, 256, 41).layers[0]
        cost = gin.compute_cost(100, 150, 1000)
        assert cost.agg_bytes == 2.0 * 1000 * 602 * 4  # input width

    def test_model_ordering_gcn_commnet_gin(self):
        """Paper §7: GCN < CommNet < GIN in computation complexity."""
        m = ComputeModel()
        times = []
        for build in (build_gcn, build_commnet, build_gin):
            model = build(256, 256, 16)
            times.append(m.seconds(model.compute_cost(1000, 1200, 6000)))
        assert times[0] < times[1] < times[2]


class TestMemoryModels:
    def test_training_memory_monotone_in_rows(self):
        dims = [256, 256, 16]
        assert training_memory_bytes(2000, 100, dims) > training_memory_bytes(
            1000, 100, dims
        )

    def test_partition_memory_remote_cheaper_than_local(self):
        dims = [256, 256, 16]
        boundary = [256, 256]
        local_heavy = partition_memory_bytes(2000, 0, 100, dims, boundary)
        remote_heavy = partition_memory_bytes(0, 2000, 100, dims, boundary)
        assert remote_heavy < local_heavy

    def test_partition_memory_vs_replication(self):
        """The closure costs more than the same rows split local/remote."""
        dims = [256, 256, 16]
        boundary = [256, 256]
        part = partition_memory_bytes(500, 1500, 5000, dims, boundary)
        repl = training_memory_bytes(2000, 5000, dims)
        assert repl > part

