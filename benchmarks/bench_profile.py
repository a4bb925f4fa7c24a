"""Flight-recorder profile + cost-model audit on the reference workload.

This benchmark produces the observability artifact
(``benchmarks/results/BENCH_obs.json``) that the perf-regression gate
(:mod:`benchmarks.compare`) diffs on every CI run.  Everything gated in
it is **simulated** time — deterministic for a fixed seed — so the
tolerances are tight even on shared runners.

Three claims are pinned:

* **determinism** — profiling the same workload twice yields
  byte-identical profile documents (the recorder, auditor and quantile
  digest add no nondeterminism);
* **fig10 agreement** — for the default executor the auditor's
  per-collective signed error equals the Figure-10 quantity
  ``(actual - plan.estimated_cost(bpu)) / estimated`` to float
  precision (well inside the 1 % acceptance bound): the audit table is
  a live Figure 10;
* **attribution sanity** — the critical path is non-empty, ends at the
  run's finish time, and the per-stage attribution covers the whole
  simulated timeline.
"""

from __future__ import annotations

from repro.baselines.strategies import evaluate_scheme
from repro.core.spst import SPSTPlanner
from repro.obs import CostModelAuditor, RunProfile, Telemetry, profile_json
from repro.simulator.executor import PlanExecutor

from benchmarks.conftest import get_workload, shared_topology, write_table
from benchmarks.emit_json import emit_json

DATASETS = ["web-google", "wiki-talk"]
NUM_GPUS = 8

#: |auditor signed error - fig10 signed error| bound.  The two are the
#: same computation for the default executor, so this is float noise;
#: the PR acceptance criterion is 1e-2.
FIG10_MATCH_TOL = 1e-9


def _profile_once(dataset: str) -> RunProfile:
    """One audited + recorded dgcl evaluation, digested into a profile."""
    w = get_workload(dataset, "gcn", NUM_GPUS)
    telemetry = Telemetry.full()
    result = evaluate_scheme(w, scheme="dgcl", telemetry=telemetry)
    assert result.ok, result.status
    return RunProfile.from_recorder(
        telemetry.recorder, audit=telemetry.auditor,
        meta={"source": "bench", "dataset": dataset, "gpus": NUM_GPUS},
    )


def _fig10_delta(dataset: str) -> float:
    """|auditor error - fig10 error| on a fresh SPST plan execution."""
    w = get_workload(dataset, "gcn", NUM_GPUS)
    bpu = w.boundary_bytes()[0]
    plan = SPSTPlanner(w.topology, seed=0).plan(w.relation)
    estimated = plan.estimated_cost(bpu)
    actual = PlanExecutor(w.topology).execute(plan, bpu).total_time
    fig10_error = (actual - estimated) / estimated

    auditor = CostModelAuditor()
    PlanExecutor(w.topology, telemetry=Telemetry(auditor=auditor)).execute(
        plan, bpu
    )
    return abs(auditor.records[-1].signed_error - fig10_error)


def test_profile_flight_recorder():
    """Profile both reference datasets; emit and gate the obs artifact."""
    per_dataset = {}
    total_simulated = 0.0
    critical_total = 0.0
    abs_errors = []
    deterministic = True
    fig10_match = True
    rows = []
    for dataset in DATASETS:
        profile = _profile_once(dataset)
        again = _profile_once(dataset)
        if profile_json(profile) != profile_json(again):
            deterministic = False
        delta = _fig10_delta(dataset)
        if delta > FIG10_MATCH_TOL:
            fig10_match = False
        audit = profile.audit["aggregate"]
        hottest = profile.hottest_connections(1)[0]
        per_dataset[dataset] = {
            "total_simulated_seconds": profile.total_seconds,
            "critical_path_seconds": profile.critical_seconds(),
            "critical_hops": len(profile.critical),
            "collectives": len(profile.collectives),
            "hottest_connection": hottest.name,
            "audit_signed_error": audit["signed_error"],
            "audit_mean_abs_stage_error": audit["mean_abs_stage_error"],
            "fig10_delta": delta,
        }
        total_simulated += profile.total_seconds
        critical_total += profile.critical_seconds()
        abs_errors.append(audit["mean_abs_stage_error"])
        rows.append([
            dataset,
            f"{profile.total_seconds * 1e6:.3f}",
            f"{profile.critical_seconds() * 1e6:.3f}",
            f"{len(profile.critical)}",
            hottest.name,
            f"{audit['signed_error']:+.1%}",
            f"{delta:.2e}",
        ])

    write_table(
        "profile_flight_recorder",
        f"Flight-recorder profiles, dgcl at {NUM_GPUS} GPUs",
        ["dataset", "total (us)", "critical (us)", "hops",
         "hottest connection", "audit err", "fig10 delta"],
        rows,
        notes=(
            "audit err is the aggregate signed prediction error of the "
            "staged cost model vs the event simulation (a live Fig. 10); "
            "fig10 delta is |auditor error - fig10 benchmark error| and "
            "must be float noise."
        ),
    )

    emit_json("obs", {
        "workload": {
            "datasets": DATASETS,
            "num_gpus": NUM_GPUS,
            "scheme": "dgcl",
        },
        "per_dataset": per_dataset,
        "total_simulated_seconds": total_simulated,
        "critical_path_seconds": critical_total,
        "audit": {
            "mean_abs_stage_error": max(abs_errors),
            "fig10_match": fig10_match,
        },
        "profile_deterministic": deterministic,
    })

    assert deterministic, "profiling the same workload twice diverged"
    assert fig10_match, "audit error diverged from the fig10 quantity"
    for dataset, cell in per_dataset.items():
        assert cell["critical_hops"] >= 1, dataset
        assert 0 < cell["critical_path_seconds"] <= cell["total_simulated_seconds"], dataset
