"""Tests for plan execution, swap staging and memory devices."""

import numpy as np
import pytest

from repro.core import CommRelation, SPSTPlanner, peer_to_peer_plan
from repro.graph.csr import Graph
from repro.partition import partition
from repro.simulator.devices import DeviceMemory, SimulatedOOMError
from repro.simulator.executor import ExecutionReport, PlanExecutor, SwapExecutor
from repro.topology import LinkKind, dgx1, dual_dgx1


@pytest.fixture(scope="module")
def setup():
    from repro.graph.generators import rmat

    graph = rmat(300, 2400, seed=3)
    r = partition(graph, 8, seed=0)
    rel = CommRelation(graph, r.assignment, 8)
    topo = dgx1()
    plan = SPSTPlanner(topo, seed=0).plan(rel)
    return graph, rel, topo, plan


class TestPlanExecutor:
    def test_empty_plan_is_free(self, setup):
        *_, topo, _ = setup[2], setup[2], setup[2], setup[3]
        ex = PlanExecutor(setup[2])
        assert ex.execute_tuples([], 4.0).total_time == 0.0

    def test_all_tuples_execute(self, setup):
        _, _, topo, plan = setup
        report = PlanExecutor(topo).execute(plan, 1024)
        assert report.num_flows == len(plan.tuples())
        assert report.total_time > 0

    def test_stage_finish_monotone_per_device_pairs(self, setup):
        _, _, topo, plan = setup
        report = PlanExecutor(topo).execute(plan, 1024)
        # Per tuple, its start must be at/after its endpoints' previous
        # stage completions — verified indirectly: stage k's earliest
        # start is not before stage k-1 exists.
        assert set(report.stage_finish) == set(t.stage for t in plan.tuples())

    def test_more_bytes_take_longer(self, setup):
        _, _, topo, plan = setup
        ex = PlanExecutor(topo)
        assert ex.execute(plan, 2048).total_time > ex.execute(plan, 64).total_time

    def test_packing_efficiency_inflates_time(self, setup):
        _, _, topo, plan = setup
        packed = PlanExecutor(topo, packing_efficiency=1.0).execute(plan, 1024)
        unpacked = PlanExecutor(topo, packing_efficiency=0.5).execute(plan, 1024)
        assert unpacked.total_time > packed.total_time

    def test_invalid_packing(self, setup):
        with pytest.raises(ValueError):
            PlanExecutor(setup[2], packing_efficiency=0.0)

    @pytest.mark.parametrize("fidelity", ["cost", "event"])
    @pytest.mark.parametrize("size", [float("nan"), -64.0, float("inf")],
                             ids=["nan", "negative", "inf"])
    def test_bad_bytes_per_unit_rejected(self, setup, size, fidelity):
        """Both fidelities and the atomic backward reject a bad size up
        front instead of pricing it as alpha only or as infinity."""
        _, _, topo, plan = setup
        ex = PlanExecutor(topo)
        with pytest.raises(ValueError, match="bytes_per_unit"):
            ex.execute(plan, size, fidelity=fidelity)
        with pytest.raises(ValueError, match="bytes_per_unit"):
            ex.execute_backward(plan.backward_tuples(), size, atomic=True,
                                fidelity=fidelity)

    def test_backward_execution(self, setup):
        _, _, topo, plan = setup
        report = PlanExecutor(topo).execute(plan, 1024, backward=True)
        assert report.num_flows == len(plan.backward_tuples())

    def test_dependency_order_respected(self, setup):
        """No stage-k flow of a device may start before the device's
        stage-(k-1) flows all finished."""
        _, _, topo, plan = setup
        report = PlanExecutor(topo).execute(plan, 1024)
        finish = {}
        for r in report.flows:
            t = r.flow.tag
            for dev in (t.src, t.dst):
                key = (dev, t.stage)
                finish[key] = max(finish.get(key, 0.0), r.finish_time)
        for r in report.flows:
            t = r.flow.tag
            for dev in (t.src, t.dst):
                for k in range(t.stage):
                    prev = finish.get((dev, k))
                    if prev is not None:
                        assert r.start_time >= prev - 1e-12

    def test_report_bytes_moved(self, setup):
        _, _, topo, plan = setup
        report = PlanExecutor(topo).execute(plan, 100)
        assert report.bytes_moved() == pytest.approx(plan.total_units() * 100)

    def test_time_on_kinds(self, setup):
        _, _, topo, plan = setup
        report = PlanExecutor(topo).execute(plan, 1024)
        nv = report.time_on_kinds([LinkKind.NV1, LinkKind.NV2])
        assert 0 < nv <= report.total_time


class TestSwapExecutor:
    def test_runs_and_orders_phases(self, setup):
        _, rel, topo, _ = setup
        ex = SwapExecutor(topo)
        report = ex.execute(rel, 1024, dump_bytes_per_unit=1024)
        assert report.total_time > 0
        assert report.stage_finish[0] <= report.stage_finish[1]

    def test_feature_boundary_skips_dump(self, setup):
        _, rel, topo, _ = setup
        ex = SwapExecutor(topo)
        with_dump = ex.execute(rel, 1024, dump_bytes_per_unit=1024)
        no_dump = ex.execute(rel, 1024, dump_bytes_per_unit=None)
        assert no_dump.total_time < with_dump.total_time

    def test_chain_transfer_helps(self, setup):
        _, rel, topo, _ = setup
        plain = SwapExecutor(topo, chain_transfer=False).execute(rel, 1024)
        chained = SwapExecutor(topo, chain_transfer=True).execute(rel, 1024)
        assert chained.total_time <= plain.total_time

    def test_rejects_multi_machine(self, setup):
        with pytest.raises(ValueError, match="one machine"):
            SwapExecutor(dual_dgx1())

    def test_rejects_bad_efficiency(self, setup):
        with pytest.raises(ValueError):
            SwapExecutor(setup[2], host_efficiency=0.0)


class TestDeviceMemory:
    def test_allocate_and_free(self):
        mem = DeviceMemory(0, 1000)
        mem.allocate("a", 600)
        assert mem.free_bytes == 400
        mem.free("a")
        assert mem.free_bytes == 1000

    def test_oom_raises_with_details(self):
        mem = DeviceMemory(3, 100)
        mem.allocate("x", 80)
        with pytest.raises(SimulatedOOMError) as exc:
            mem.allocate("y", 50)
        assert exc.value.device == 3
        assert exc.value.requested == 50
        assert exc.value.in_use == 80

    def test_duplicate_name_rejected(self):
        mem = DeviceMemory(0, 100)
        mem.allocate("x", 10)
        with pytest.raises(ValueError):
            mem.allocate("x", 10)

    def test_free_unknown_raises(self):
        with pytest.raises(KeyError):
            DeviceMemory(0, 100).free("nope")

    def test_reset(self):
        mem = DeviceMemory(0, 100)
        mem.allocate("x", 50)
        mem.reset()
        assert mem.in_use == 0

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            DeviceMemory(0, -1)
        with pytest.raises(ValueError):
            DeviceMemory(0, 10).allocate("x", -5)
