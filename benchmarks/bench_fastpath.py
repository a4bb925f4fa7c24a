"""Vectorized planning/execution fast path: the offline pipeline, timed.

The offline pipeline a session pays before training starts is (1) SPST
planning and (2) auto-tune candidate pricing through
``evaluate_scheme``.  This benchmark times that pipeline on the Table-8
workload (all four dataset twins at 16 GPUs) two ways:

* **old** — the scalar per-edge SPST oracle (``tests/spst_oracle.py``)
  plus event-fidelity pricing (the flow-level simulation) for every
  candidate;
* **new** — :class:`~repro.core.spst.SPSTPlanner`'s vectorized tree
  growth plus cost-only pricing (stage times straight from the traffic
  matrix), the mode the tuner's halving rungs use.

The two are interchangeable by construction: the planners emit
identical plans (asserted here via staged costs; tree-level equality is
pinned in ``tests/test_engine_equivalence.py``) and cost-only pricing
is the rank-correlated screen whose winner is re-priced at event
fidelity.

The artifact lands in ``benchmarks/results/BENCH_fastpath.json``.
Set ``FASTPATH_SMOKE=1`` to run the reduced CI-smoke scale (web-google
at 4 GPUs, no speedup floor — shared runners are too noisy to gate on).
"""

from __future__ import annotations

import os
import time

from repro.baselines.strategies import clear_caches, evaluate_scheme
from repro.core.spst import SPSTPlanner

from benchmarks.conftest import get_workload, shared_topology, write_table
from benchmarks.emit_json import emit_json
from tests import spst_oracle

SMOKE = os.environ.get("FASTPATH_SMOKE", "") == "1"

#: The Table-8 planning workload (dataset twins at 16 GPUs).
DATASETS = ["web-google"] if SMOKE else [
    "reddit", "com-orkut", "web-google", "wiki-talk",
]
NUM_GPUS = 4 if SMOKE else 16

#: The plan-based slice of the auto-tuner's space — strategy x comm
#: method override, the cells a halving rung screens: the schemes whose
#: pricing the cost-only fidelity accelerates.
METHODS = [None, "cuda-vm", "pinned-host", "nic-helper"]
CANDIDATES = [
    (scheme, method)
    for scheme in ("dgcl", "dgcl-cache", "peer-to-peer")
    for method in METHODS
]

#: Composite (planning + pricing) speedup recorded in the artifact.
#: The regression gate lives in ``benchmarks/compare.py`` (which diffs
#: the artifact against the committed baseline with a wall-clock
#: tolerance) rather than as a hard-coded floor assert here.
SPEEDUP_FLOOR = 5.0


#: Repetitions per timed measurement; the minimum is reported.  The
#: work is deterministic, so the minimum is the least-noise estimate
#: (allocator/cache warm-up inflates single shots by up to ~20%).
REPS = 1 if SMOKE else 2


def _plan_seconds(dataset: str, scalar: bool) -> tuple:
    w = get_workload(dataset, "gcn", NUM_GPUS)
    w.relation  # partition + relation building priced separately
    topology = shared_topology(NUM_GPUS)
    planner = SPSTPlanner(topology, seed=0)
    best, plan = float("inf"), None
    for _ in range(REPS):
        start = time.perf_counter()
        if scalar:
            plan = spst_oracle.plan(topology, w.relation, seed=0)
        else:
            plan = planner.plan(w.relation)
        best = min(best, time.perf_counter() - start)
    return best, plan


def _pricing_seconds(dataset: str, fidelity: str) -> float:
    w = get_workload(dataset, "gcn", NUM_GPUS)
    w.relation
    for plan in (w.spst_plan, w.p2p_plan):
        plan.tuples()  # pre-compile both plans: timers measure pricing
        plan.backward_tuples()
    best = float("inf")
    for _ in range(REPS):
        clear_caches()  # a fresh pipeline prices every cell once
        start = time.perf_counter()
        for scheme, method in CANDIDATES:
            evaluate_scheme(w, scheme=scheme, method=method, fidelity=fidelity)
        best = min(best, time.perf_counter() - start)
    return best


def test_fastpath_offline_pipeline():
    per_dataset = {}
    for dataset in DATASETS:
        scalar_s, scalar_plan = _plan_seconds(dataset, scalar=True)
        vec_s, vec_plan = _plan_seconds(dataset, scalar=False)
        # interchangeability: identical staged costs (trees are pinned
        # bit-for-bit in tests/test_engine_equivalence.py)
        assert scalar_plan.cost_model().stage_times() \
            == vec_plan.cost_model().stage_times(), dataset
        event_s = _pricing_seconds(dataset, "event")
        cost_s = _pricing_seconds(dataset, "cost")
        per_dataset[dataset] = {
            "plan_scalar_s": scalar_s,
            "plan_vectorized_s": vec_s,
            "planner_speedup": scalar_s / vec_s if vec_s > 0 else float("inf"),
            "pricing_event_s": event_s,
            "pricing_cost_s": cost_s,
            "pricing_speedup": event_s / cost_s if cost_s > 0 else float("inf"),
            "old_s": scalar_s + event_s,
            "new_s": vec_s + cost_s,
        }

    old_total = sum(d["old_s"] for d in per_dataset.values())
    new_total = sum(d["new_s"] for d in per_dataset.values())
    plan_old = sum(d["plan_scalar_s"] for d in per_dataset.values())
    plan_new = sum(d["plan_vectorized_s"] for d in per_dataset.values())
    composite = old_total / new_total

    rows = [
        [
            d,
            f"{v['plan_scalar_s']:.3f}", f"{v['plan_vectorized_s']:.3f}",
            f"{v['planner_speedup']:.2f}x",
            f"{v['pricing_event_s']:.3f}", f"{v['pricing_cost_s']:.3f}",
            f"{v['old_s'] / v['new_s']:.2f}x",
        ]
        for d, v in per_dataset.items()
    ]
    rows.append([
        "TOTAL", f"{plan_old:.3f}", f"{plan_new:.3f}",
        f"{plan_old / plan_new:.2f}x",
        f"{sum(d['pricing_event_s'] for d in per_dataset.values()):.3f}",
        f"{sum(d['pricing_cost_s'] for d in per_dataset.values()):.3f}",
        f"{composite:.2f}x",
    ])
    write_table(
        "fastpath",
        f"Fast path: offline pipeline, {NUM_GPUS} GPUs "
        f"({len(CANDIDATES)} candidates priced per dataset)",
        ["dataset", "plan scalar", "plan vec", "plan x",
         "price event", "price cost", "pipeline x"],
        rows,
        notes=(
            "old = scalar SPST oracle + event-fidelity pricing; new = "
            "vectorized SPST + cost-only pricing (halving-rung mode). "
            "Both planners emit identical plans; cost pricing is the tuner's "
            f"screening fidelity. Times are min of {REPS} run(s)."
        ),
    )

    emit_json("fastpath", {
        "workload": {
            "datasets": DATASETS,
            "num_gpus": NUM_GPUS,
            "candidates": [
                {"scheme": s, "method": m} for s, m in CANDIDATES
            ],
            "smoke": SMOKE,
        },
        "per_dataset": per_dataset,
        "planner_speedup": plan_old / plan_new,
        "composite_speedup": composite,
        "speedup_floor": None if SMOKE else SPEEDUP_FLOOR,
    })

    # Shape check only at full scale: smoke planning is a few
    # milliseconds, where the vectorized engine's fixed numpy setup
    # overhead can exceed the loop savings.  The speedup *floor* is no
    # longer asserted here — benchmarks/compare.py gates the artifact
    # against the committed baseline instead.
    if not SMOKE:
        assert plan_new < plan_old
