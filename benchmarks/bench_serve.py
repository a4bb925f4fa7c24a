"""Online inference serving: latency, goodput and shedding under load.

Not a paper figure — DGCL targets training — but the serving control
plane's headline experiment, in three claims:

* under the healthy arrival mixes (Poisson, bursty) every admitted
  request meets its SLO and all shedding is typed (zero silent drops);
* under the pinned 2x overload burst the degradation ladder and the
  autoscaler bring the windowed p99 back inside the SLO by the end of
  the horizon while goodput stays positive;
* every campaign is bit-identical across two seeded executions.

Emits ``BENCH_serve.json`` (p50/p99 latency, goodput, shed rate per
scenario) for the perf-regression gate in ``benchmarks/compare.py``.
"""

import numpy as np

from repro.serve import build_scenario

from benchmarks.conftest import write_table
from benchmarks.emit_json import emit_json

SCENARIOS = ("poisson", "bursty", "overload")
GPUS = 8
SEED = 0


def _campaign(name):
    session = build_scenario(name, gpus=GPUS)
    first = session.run(seed=SEED)
    second = session.run(seed=SEED)
    return session, first, first.signature() == second.signature()


def _cell(report, deterministic):
    latencies = np.array([
        rec.latency for rec in report.records
        if rec.outcome == "completed"
    ])
    counts = report.outcome_counts()
    submitted = sum(counts.values()) + report.unaccounted
    return {
        "submitted": submitted,
        "completed": int(counts["completed"]),
        "shed": int(report.shed),
        "shed_rate": round(report.shed_rate, 6),
        "silent_drops": int(report.unaccounted),
        "p50_latency_us": round(float(np.percentile(latencies, 50)) * 1e6, 4),
        "p99_latency_us": round(float(np.percentile(latencies, 99)) * 1e6, 4),
        "goodput_rps": round(sum(
            stats["goodput_rps"] for stats in report.tenants.values()
        ), 3),
        "min_slo_attainment": min(
            stats["slo_attainment"] for stats in report.tenants.values()
        ),
        "final_level": report.final_level,
        "deterministic": bool(deterministic),
        # Wire volume: forward plan units priced per dispatched batch.
        "units_per_batch": round(
            report.batch_cache["units"] / report.batches, 3
        ),
    }


def test_serving_latency_goodput_shedding(benchmark):
    cells = {}
    rows = []
    for name in SCENARIOS:
        _, report, deterministic = _campaign(name)

        # Claim 3 first: determinism is a precondition for the gate.
        assert deterministic, f"{name}: reports diverged across reruns"
        assert report.unaccounted == 0, f"{name}: silent drops"

        cell = _cell(report, deterministic)
        cells[name] = cell
        rows.append([
            name, cell["submitted"], cell["completed"], cell["shed"],
            f"{cell['shed_rate']:.3f}", f"{cell['p50_latency_us']:.2f}",
            f"{cell['p99_latency_us']:.2f}", f"{cell['goodput_rps']:.0f}",
            cell["final_level"],
        ])

        if name == "overload":
            # Claim 2: the ladder engaged and the final window is clean.
            assert report.ladder, "overload must climb the ladder"
            assert report.windows[-1]["violating"] == []
            assert report.autoscale
        else:
            # Claim 1: healthy mixes meet the SLO for every tenant.
            assert cell["min_slo_attainment"] == 1.0

    write_table(
        "serve_scenarios",
        f"Online serving campaigns on a {GPUS}-GPU DGX twin, seed {SEED}",
        ["scenario", "submitted", "completed", "shed", "shed rate",
         "p50 (us)", "p99 (us)", "goodput (r/s)", "final level"],
        rows,
        notes=(
            "Shed = typed rejections (rate-limit, queue-full, "
            "tenant-shed) + deadline expiries; silent drops are zero "
            "by construction.  Under the 2x overload burst the ladder "
            "shrinks the coalescing window, serves stale replicas, "
            "then sheds the bronze tenant, and the autoscaler grows "
            "the deployment — the final feedback window has every "
            "tenant's p99 back inside its SLO."
        ),
    )

    emit_json("serve", {
        "gpus": GPUS,
        "seed": SEED,
        "scenarios": list(SCENARIOS),
        "cells": cells,
    })

    benchmark.pedantic(
        lambda: build_scenario("bursty", gpus=GPUS).run(seed=SEED),
        rounds=1, iterations=1,
    )
