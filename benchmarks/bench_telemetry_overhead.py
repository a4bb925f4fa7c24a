"""Telemetry overhead: armed tracing must not move simulated time.

The observability layer's contract is that recording is strictly
post-hoc — spans are derived from finished reports and flag events, so
arming a tracer changes *zero* simulated timings.  This benchmark
asserts that contract across datasets and measures the wall-clock cost
of recording (the only cost telemetry is allowed to have), plus the
trace volume one allgather produces.
"""

import time

import pytest

from repro.obs import MetricsRegistry, Telemetry, Tracer
from repro.runtime import ProtocolRunner
from repro.simulator.executor import PlanExecutor

from benchmarks.conftest import get_workload, write_table

DATASETS = ["reddit", "web-google", "wiki-talk"]


def timed(fn, repeats=3):
    """(result, best wall seconds) of calling ``fn`` ``repeats`` times."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_telemetry_overhead(benchmark):
    rows = []
    for dataset in DATASETS:
        w = get_workload(dataset, "gcn", 8)
        bpu = w.boundary_bytes()[0]
        plan = w.spst_plan

        bare_exec = PlanExecutor(w.topology)
        bare, bare_wall = timed(lambda: bare_exec.execute(plan, bpu))

        tracer, metrics = Tracer(), MetricsRegistry()
        armed_exec = PlanExecutor(
            w.topology, telemetry=Telemetry(tracer=tracer, metrics=metrics)
        )

        def armed_run():
            tracer.clear()
            metrics.clear()
            return armed_exec.execute(plan, bpu)

        armed, armed_wall = timed(armed_run)

        # The contract: identical simulated outcomes, armed or not.
        assert armed.total_time == bare.total_time
        assert armed.stage_finish == bare.stage_finish

        proto_bare = ProtocolRunner(w.relation, plan).run_timed(bpu)
        proto_tracer = Tracer()
        proto_armed = ProtocolRunner(
            w.relation, plan, telemetry=Telemetry(tracer=proto_tracer)
        ).run_timed(bpu)
        assert proto_armed.total_time == proto_bare.total_time

        rows.append([
            dataset,
            f"{bare.total_time * 1e6:.2f}",
            len(tracer.events()) + len(proto_tracer.events()),
            f"{bare_wall * 1e3:.2f}",
            f"{armed_wall * 1e3:.2f}",
            f"{armed_wall / bare_wall - 1:+.0%}" if bare_wall else "n/a",
        ])
    write_table(
        "telemetry_overhead",
        "Telemetry overhead: one allgather, 8 GPUs, DGCL plan",
        ["Dataset", "Simulated (us)", "Spans", "Bare wall (ms)",
         "Armed wall (ms)", "Wall overhead"],
        rows,
        notes="Simulated time is asserted identical armed vs unarmed "
              "(executor and protocol paths); only host-side wall clock "
              "may pay for span recording.",
    )

    w = get_workload("web-google", "gcn", 8)
    plan = w.spst_plan
    tracer, metrics = Tracer(), MetricsRegistry()
    armed = PlanExecutor(
        w.topology, telemetry=Telemetry(tracer=tracer, metrics=metrics)
    )

    def record_once():
        tracer.clear()
        metrics.clear()
        armed.execute(plan, w.boundary_bytes()[0])

    benchmark.pedantic(record_once, rounds=3, iterations=1)


def test_telemetry_neutrality_newer_paths():
    """Auditor/recorder/tracer neutrality on the paths added since.

    The original contract covered the executor and protocol runner;
    this pins it on the auditor + flight recorder (executor sinks), the
    auto-tuner's audited full-fidelity rung, and elastic-transition
    training with an armed tracer.  Every simulated number must be
    bit-identical armed vs unarmed.
    """
    import numpy as np

    from repro.autotune import AutoTuner
    from repro.elastic import ElasticPolicy
    from repro.elastic.controller import ElasticController
    from repro.graph.generators import rmat
    from repro.obs import CostModelAuditor, FlightRecorder

    # Executor: auditor + recorder armed.
    w = get_workload("web-google", "gcn", 8)
    bpu = w.boundary_bytes()[0]
    plan = w.spst_plan
    bare = PlanExecutor(w.topology).execute(plan, bpu)
    armed = PlanExecutor(w.topology, telemetry=Telemetry(
        auditor=CostModelAuditor(), recorder=FlightRecorder()
    )).execute(plan, bpu)
    assert armed.total_time == bare.total_time
    assert armed.stage_finish == bare.stage_finish

    # Auto-tuner: every trial's cost identical with the audited rung.
    g = rmat(250, 1800, seed=4)
    topo = get_workload("web-google", "gcn", 8).topology
    plain = AutoTuner(g, topo).tune()
    audited = AutoTuner(
        g, topo, telemetry=Telemetry(auditor=CostModelAuditor())
    ).tune()
    assert [t.cost for t in plain.trials] == [t.cost for t in audited.trials]
    assert plain.candidate == audited.candidate

    # Elastic transitions: same losses and final clock with a tracer.
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((g.num_vertices, 6)).astype(np.float32)
    labels = rng.integers(0, 4, g.num_vertices)
    schedule = [(1, "shrink", (6, 7)), (2, "grow", (6, 7))]

    def run(tracer=None):
        from repro.gnn import build_gcn

        controller = ElasticController(
            g, topo, build_gcn(6, 8, 4, seed=7), feats, labels,
            elastic=ElasticPolicy(min_devices=2),
            telemetry=Telemetry(tracer=tracer),
        )
        report = controller.train_with_schedule(4, schedule)
        return list(report.losses), controller.clock

    bare_run, armed_run = run(), run(Tracer())
    assert bare_run == armed_run
