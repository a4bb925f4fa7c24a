"""Tests for end-to-end scheme evaluation (the benchmark backbone).

To stay fast, these tests inject a small synthetic graph through the
``Workload(graph=..., spec=...)`` escape hatch rather than building the
full dataset twins.
"""

import numpy as np
import pytest

from repro.baselines import SCHEMES, Workload, evaluate_dgcl_r, evaluate_scheme
from repro.graph.datasets import DatasetSpec
from repro.graph.generators import rmat
from repro.topology import dgx1, dual_dgx1, single_device
from repro.topology.presets import V100_MEMORY_BYTES


def make_workload(topology, num_vertices=400, num_edges=4000,
                  feature_size=32, hidden_size=16, model="gcn", seed=0):
    graph = rmat(num_vertices, num_edges, seed=11)
    spec = DatasetSpec(
        name="synthetic",
        num_vertices=num_vertices,
        num_edges=num_edges,
        feature_size=feature_size,
        hidden_size=hidden_size,
        num_classes=4,
        builder=lambda s: graph,
        paper_vertices="-",
        paper_edges="-",
        paper_avg_degree=num_edges / num_vertices,
    )
    return Workload("synthetic", model, topology, seed=seed, graph=graph,
                    spec=spec)


class TestSchemeEvaluation:
    def test_all_schemes_run(self):
        w = make_workload(dgx1())
        for scheme in SCHEMES:
            r = evaluate_scheme(w, scheme=scheme)
            assert r.status in ("ok", "oom", "unsupported")
            assert r.scheme == scheme
            assert r.num_devices == 8

    def test_replication_has_zero_comm(self):
        w = make_workload(dgx1())
        r = evaluate_scheme(w, scheme="replication")
        assert r.ok and r.comm_time == 0.0
        # epoch = compute + the (tiny) weight allreduce
        assert r.epoch_time == pytest.approx(
            r.compute_time + r.detail["sync"]
        )
        assert r.detail["sync"] < 5e-6  # latency-floor microseconds

    def test_epoch_is_comm_plus_compute_plus_sync(self):
        w = make_workload(dgx1())
        for scheme in ("dgcl", "peer-to-peer", "swap"):
            r = evaluate_scheme(w, scheme=scheme)
            assert r.epoch_time == pytest.approx(
                r.comm_time + r.compute_time + r.detail["sync"]
            )
            # §6.3: GNN models are small; the allreduce is a latency
            # floor of a few microseconds (negligible at twin epochs).
            assert r.detail["sync"] < 5e-6

    def test_dgcl_comm_not_worse_than_p2p(self):
        w = make_workload(dgx1())
        dgcl = evaluate_scheme(w, scheme="dgcl")
        p2p = evaluate_scheme(w, scheme="peer-to-peer")
        assert dgcl.comm_time <= p2p.comm_time * 1.05

    def test_single_device_no_comm(self):
        w = make_workload(single_device())
        for scheme in ("dgcl", "peer-to-peer", "replication"):
            r = evaluate_scheme(w, scheme=scheme)
            assert r.ok
            assert r.comm_time == 0.0

    def test_swap_unsupported_on_two_machines(self):
        w = make_workload(dual_dgx1())
        r = evaluate_scheme(w, scheme="swap")
        assert r.status == "unsupported"

    def test_unknown_scheme(self):
        w = make_workload(dgx1())
        with pytest.raises(KeyError):
            evaluate_scheme(w, scheme="quantum")

    def test_oom_with_tiny_memory(self):
        tiny = dgx1(memory_bytes=1_000_000)
        w = make_workload(tiny)
        for scheme in ("dgcl", "peer-to-peer", "replication"):
            assert evaluate_scheme(w, scheme=scheme).status == "oom"

    def test_replication_ooms_before_partitioned(self):
        """Replication stores the closure: it must OOM at a memory size
        where the partitioned schemes still fit."""
        for cap in (60, 45, 38, 30, 26, 22):
            topo = dgx1(memory_bytes=cap * 1_000_000)
            w = make_workload(topo, num_vertices=2000, num_edges=20000,
                              feature_size=512, hidden_size=128)
            rep = evaluate_scheme(w, scheme="replication")
            part = evaluate_scheme(w, scheme="dgcl")
            if rep.status == "oom" and part.ok:
                return
        pytest.fail("no capacity separated replication from partitioning")

    def test_boundary_bytes(self):
        w = make_workload(dgx1())
        assert w.boundary_bytes() == [32 * 4, 16 * 4]

    def test_detail_breakdown(self):
        w = make_workload(dgx1())
        r = evaluate_scheme(w, scheme="dgcl")
        assert r.detail["total"] == pytest.approx(
            r.detail["forward"] + r.detail["backward"]
        )

    def test_result_ms_helper(self):
        w = make_workload(dgx1())
        r = evaluate_scheme(w, scheme="dgcl")
        assert r.ms() == pytest.approx(r.epoch_time * 1e3)


class TestDgclR:
    def test_single_machine_degenerates_to_dgcl(self):
        w = make_workload(dgx1())
        a = evaluate_dgcl_r(w)
        b = evaluate_scheme(w, scheme="dgcl")
        assert a.scheme == "dgcl-r"
        assert a.epoch_time == pytest.approx(b.epoch_time)

    def test_two_machines_runs(self):
        w = make_workload(dual_dgx1(), num_vertices=600, num_edges=6000)
        r = evaluate_dgcl_r(w)
        assert r.status in ("ok", "oom")
        if r.ok:
            assert r.comm_time >= 0.0
            assert r.compute_time > 0.0

    def test_dgcl_r_avoids_cross_machine_traffic(self):
        """DGCL-R's comm must not touch the IB connections at all.

        Verified structurally: its plans are built per machine on the
        restricted sub-topology, which contains no IB links."""
        from repro.topology import LinkKind

        topo = dual_dgx1()
        sub = topo.restrict(range(8))
        assert not any(
            c.kind == LinkKind.IB
            for link in sub.links
            for c in link.connections
        )
