"""Protocol overhead: flag/control costs on top of raw transfers (§6.1).

Compares three views of one graphAllgather:

* the *cost model* estimate (what SPST optimises),
* the *transfer-level* simulation (flows + stage dependencies),
* the *protocol-level* simulation (master handshake, ready/done flag
  polls, per-transfer processes).

The paper's §6.1 design goal is that coordination stays cheap; here the
decentralized protocol's overhead over raw transfers is measured
per dataset, and the centralized alternative's extra barrier cost with it.
"""

import pytest

from repro.runtime import ProtocolRunner
from repro.simulator.executor import PlanExecutor

from benchmarks.conftest import COORDINATION_NOTES, get_workload, write_table

DATASETS = ["reddit", "com-orkut", "web-google", "wiki-talk"]


def three_views(dataset):
    w = get_workload(dataset, "gcn", 8)
    bpu = w.boundary_bytes()[0]
    plan = w.spst_plan
    estimate = plan.estimated_cost(bpu)
    transfer = PlanExecutor(w.topology).execute(plan, bpu).total_time
    decentralized = ProtocolRunner(
        w.relation, plan, coordination="decentralized"
    ).run_timed(bpu).total_time
    centralized = ProtocolRunner(
        w.relation, plan, coordination="centralized"
    ).run_timed(bpu).total_time
    return estimate, transfer, decentralized, centralized


def test_protocol_overhead(benchmark):
    rows = []
    measured = {}
    for dataset in DATASETS:
        est, transfer, dec, cen = three_views(dataset)
        measured[dataset] = (est, transfer, dec, cen)
        rows.append([
            dataset,
            f"{est * 1e6:.2f}", f"{transfer * 1e6:.2f}",
            f"{dec * 1e6:.2f}", f"{cen * 1e6:.2f}",
            f"{dec / transfer - 1:.0%}",
        ])
    write_table(
        "protocol_overhead",
        "Protocol overhead: one allgather (us), 8 GPUs, DGCL plan",
        ["Dataset", "Cost model", "Transfers", "Decentralized", "Centralized",
         "flag overhead"],
        rows,
        notes=COORDINATION_NOTES,
    )

    for dataset, (est, transfer, dec, cen) in measured.items():
        # The protocol can only add overhead to raw transfers...
        assert dec >= transfer * 0.98, dataset
        # ...but the decentralized design keeps it modest.
        assert dec < 2.0 * transfer, dataset
        # At twin scale the barrier cost is a wash on *uniform* runs
        # (early decentralized starters contend with bottleneck stages);
        # the decentralized win is straggler isolation, asserted in
        # tests/test_runtime.py::test_straggler_isolation.
        assert cen == pytest.approx(dec, rel=0.15), dataset
        # And the planner's estimate tracks the executed time.
        assert est == pytest.approx(transfer, rel=0.6), dataset

    w = get_workload("web-google", "gcn", 8)
    runner = ProtocolRunner(w.relation, w.spst_plan)
    benchmark.pedantic(lambda: runner.run_timed(1024), rounds=3, iterations=1)
