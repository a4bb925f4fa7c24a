"""Ablations of DGCL's design choices (DESIGN.md §5).

Not paper tables, but each isolates one mechanism the paper argues for:

* decentralized vs centralized coordination (§6.1) on the protocol runner,
* chunked planning granularity vs a single tree per multicast class,
* data packing (§6.2) as a bandwidth-efficiency factor,
* hierarchical vs flat partitioning on two machines (§4.1).
"""

import numpy as np
import pytest

from repro.core.baseline_planners import static_tree_plan
from repro.core.relation import CommRelation
from repro.core.spst import SPSTPlanner
from repro.partition.metis import edge_cut, partition
from repro.runtime import ProtocolRunner
from repro.simulator.executor import PlanExecutor

from benchmarks.conftest import (
    COORDINATION_NOTES,
    get_workload,
    ms,
    shared_topology,
    write_table,
)


def test_ablation_coordination(benchmark):
    """Decentralized flags beat a master-coordinated stage barrier."""
    w = get_workload("web-google", "gcn", 8)
    bpu = w.boundary_bytes()[0]
    rows = []
    times = {}
    for mode in ("decentralized", "centralized"):
        runner = ProtocolRunner(w.relation, w.spst_plan, coordination=mode)
        times[mode] = runner.run_timed(bpu).total_time
        rows.append([mode, f"{times[mode] * 1e6:.2f}"])
    write_table(
        "ablation_coordination",
        "Ablation: coordination protocol, one allgather (web-google, 8 GPUs)",
        ["Coordination", "Time (us)"],
        rows,
        notes=COORDINATION_NOTES,
    )
    assert times["decentralized"] < times["centralized"]

    runner = ProtocolRunner(w.relation, w.spst_plan)
    benchmark.pedantic(lambda: runner.run_timed(bpu), rounds=3, iterations=1)


def test_ablation_chunk_granularity(benchmark):
    """More chunks per class = more load-balancing freedom = lower cost."""
    w = get_workload("web-google", "gcn", 8)
    bpu = w.boundary_bytes()[0]
    rows = []
    costs = {}
    for chunks in (1, 2, 4, 8):
        plan = SPSTPlanner(w.topology, chunks_per_class=chunks, seed=0).plan(
            w.relation
        )
        costs[chunks] = plan.estimated_cost(bpu)
        rows.append([chunks, f"{costs[chunks] * 1e6:.2f}"])
    write_table(
        "ablation_chunk_granularity",
        "Ablation: SPST chunks per multicast class (estimated cost, us)",
        ["Chunks/class", "Estimated cost (us)"],
        rows,
    )
    assert costs[8] <= costs[1] * 1.001

    benchmark.pedantic(
        lambda: SPSTPlanner(w.topology, chunks_per_class=4, seed=0).plan(
            w.relation
        ),
        rounds=1, iterations=1,
    )


def test_ablation_packing(benchmark):
    """§6.2: 16-byte packing models as a bandwidth-efficiency factor."""
    w = get_workload("web-google", "gcn", 8)
    bpu = w.boundary_bytes()[0]
    packed = PlanExecutor(w.topology, packing_efficiency=1.0).execute(
        w.spst_plan, bpu
    ).total_time
    unpacked = PlanExecutor(w.topology, packing_efficiency=0.65).execute(
        w.spst_plan, bpu
    ).total_time
    write_table(
        "ablation_packing",
        "Ablation: data packing (one allgather, web-google, 8 GPUs)",
        ["Variant", "Time (ms)"],
        [["packed (16 B loads)", ms(packed)],
         ["unpacked", ms(unpacked)]],
    )
    assert packed < unpacked

    executor = PlanExecutor(w.topology, packing_efficiency=0.65)
    benchmark.pedantic(lambda: executor.execute(w.spst_plan, bpu),
                       rounds=3, iterations=1)


def test_ablation_static_trees(benchmark):
    """Load-aware SPST vs contention-blind static multicast trees."""
    rows = []
    gaps = {}
    for dataset in ("web-google", "com-orkut"):
        w = get_workload(dataset, "gcn", 8)
        bpu = w.boundary_bytes()[0]
        executor = PlanExecutor(w.topology)
        static = static_tree_plan(w.relation, w.topology)
        t_static = executor.execute(static, bpu).total_time
        t_spst = executor.execute(w.spst_plan, bpu).total_time
        gaps[dataset] = t_static / t_spst
        rows.append([dataset, ms(t_spst), ms(t_static),
                     f"{gaps[dataset]:.2f}x"])
    write_table(
        "ablation_static_trees",
        "Ablation: SPST vs static (contention-blind) trees, one allgather",
        ["Dataset", "SPST (ms)", "Static trees (ms)", "static/SPST"],
        rows,
        notes="Static trees relay and fuse but cannot see load: the gap "
              "isolates Algorithm 2's incremental cost weights.",
    )
    # Static trees funnel everything onto the same fast paths: the
    # load-aware planner must win clearly on contended workloads.
    assert gaps["com-orkut"] > 1.1
    assert all(g >= 0.99 for g in gaps.values())

    w = get_workload("web-google", "gcn", 8)
    benchmark.pedantic(lambda: static_tree_plan(w.relation, w.topology),
                       rounds=3, iterations=1)


def test_ablation_feature_caching(benchmark):
    """§3 option (1): cache remote layer-0 embeddings to skip the
    feature-boundary allgather each epoch."""
    from repro.baselines import evaluate_scheme

    rows = []
    results = {}
    for dataset in ("reddit", "web-google"):
        w = get_workload(dataset, "gcn", 8)
        plain = evaluate_scheme(w, scheme="dgcl")
        cached = evaluate_scheme(w, scheme="dgcl-cache")
        results[dataset] = (plain, cached)
        rows.append([
            dataset,
            ms(plain.comm_time), ms(cached.comm_time),
            f"{1 - cached.comm_time / plain.comm_time:.0%}",
        ])
    write_table(
        "ablation_feature_caching",
        "Ablation: caching remote layer-0 features (DGCL, 8 GPUs)",
        ["Dataset", "comm/epoch (ms)", "with cache (ms)", "saved"],
        rows,
        notes="Reddit's 602-wide features make its feature boundary the "
              "dominant transfer; caching trades memory for most of it.",
    )
    for dataset, (plain, cached) in results.items():
        assert cached.ok and cached.comm_time < plain.comm_time
    # the fat-featured dataset saves the most
    saved_reddit = 1 - results["reddit"][1].comm_time / results["reddit"][0].comm_time
    assert saved_reddit > 0.4

    w = get_workload("web-google", "gcn", 8)
    benchmark.pedantic(lambda: evaluate_scheme(w, scheme="dgcl-cache"),
                       rounds=3, iterations=1)


def test_ablation_method_selection(benchmark):
    """§6.2: automatic per-pair mechanism selection vs forcing one."""
    from repro.comm.methods import CommMethod, MethodTable

    w = get_workload("reddit", "gcn", 8)
    bpu = w.boundary_bytes()[0]
    topo = w.topology
    rows = []
    times = {}
    variants = [
        ("automatic (§6.2)", MethodTable(topo)),
        ("force cuda-vm", MethodTable(topo, force=CommMethod.CUDA_VIRTUAL_MEMORY)),
        ("force pinned-host", MethodTable(topo, force=CommMethod.PINNED_HOST_MEMORY)),
        ("force nic-helper", MethodTable(topo, force=CommMethod.NIC_HELPER)),
    ]
    for name, table in variants:
        t = PlanExecutor(topo, methods=table).execute(w.spst_plan, bpu).total_time
        times[name] = t
        rows.append([name, ms(t)])
    write_table(
        "ablation_method_selection",
        "Ablation: communication-method selection, one allgather (reddit)",
        ["Variant", "Time (ms)"],
        rows,
        notes="Forcing one mechanism on every pair pays the mismatch "
              "penalty on the pairs it does not suit.",
    )
    auto = times["automatic (§6.2)"]
    for name, t in times.items():
        assert t >= auto * 0.999, name

    table = MethodTable(topo)
    executor = PlanExecutor(topo, methods=table)
    benchmark.pedantic(lambda: executor.execute(w.spst_plan, bpu),
                       rounds=3, iterations=1)


def test_ablation_hierarchical_partitioning(benchmark):
    """§4.1: hierarchy-aware cuts put fewer edges on the slow IB."""
    w = get_workload("web-google", "gcn", 16)
    topo = shared_topology(16)
    graph = w.graph

    hier = w.partition.assignment  # hierarchical by default
    flat = partition(graph, 16, seed=0).assignment

    def machine_cut(assignment):
        machine = np.asarray(topo.machine_of)[assignment]
        src, dst = graph.edges
        return int((machine[src] != machine[dst]).sum())

    rows = [
        ["hierarchical", edge_cut(graph, hier), machine_cut(hier)],
        ["flat", edge_cut(graph, flat), machine_cut(flat)],
    ]
    write_table(
        "ablation_hierarchical_partitioning",
        "Ablation: hierarchical vs flat 16-way partitioning (web-google)",
        ["Partitioner", "Total edge cut", "Cross-machine cut"],
        rows,
        notes="Hierarchical partitioning minimises the cross-IB cut first.",
    )
    assert machine_cut(hier) < machine_cut(flat)

    benchmark.pedantic(lambda: machine_cut(hier), rounds=3, iterations=1)
