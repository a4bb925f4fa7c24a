"""Perf-regression gate over the ``BENCH_*.json`` artifacts.

Every benchmark that matters for CI emits a machine-readable artifact
(:mod:`benchmarks.emit_json`).  This comparator diffs a candidate
results directory against a baseline directory metric-by-metric, with
per-metric direction and relative tolerance, and exits non-zero when a
gated metric regressed — replacing the hand-coded floor asserts that
used to live inside individual benchmarks.

Two kinds of metric exist:

* **simulated** — deterministic numbers out of the event simulator
  (epoch seconds, audit errors, oracle pass counts).  These are
  bit-stable for a fixed seed, so their tolerances are tight and they
  gate on every runner;
* **wall** — wall-clock speedups, which shared CI runners cannot
  measure reliably.  ``--skip-wall`` (set in CI) exempts them; locally
  they gate with generous tolerances.

Each spec also names *identity* paths (workload shape knobs).  When the
baseline and candidate disagree on identity — e.g. a smoke-scale run
diffed against a committed full-scale baseline — the benchmark is
skipped with a note instead of producing an apples-to-oranges verdict.

Usage::

    python benchmarks/compare.py --baseline DIR --candidate DIR \
        [--skip-wall] [--json]

The module is import-safe (``from benchmarks.compare import main``) so
the test suite can gate an injected regression without a subprocess.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Metric", "SPECS", "compare_payload", "compare_dirs", "main"]


@dataclass(frozen=True)
class Metric:
    """One gated number inside a benchmark payload.

    ``path`` is a dotted path into the payload; a ``*`` component fans
    out over every key of the mapping at that level (``cells.*.x``).
    ``direction`` is ``higher`` (candidate may not drop more than
    ``tolerance`` below baseline), ``lower`` (may not rise more than
    ``tolerance`` above), or ``equal`` (must match exactly — counts,
    booleans, parity flags).  ``wall`` marks wall-clock metrics that
    ``--skip-wall`` exempts.
    """

    path: str
    direction: str  # "higher" | "lower" | "equal"
    tolerance: float = 0.0
    wall: bool = False


#: Per-benchmark gate specs: (identity paths, gated metrics).  Identity
#: paths must match between baseline and candidate or the benchmark is
#: skipped as a workload mismatch (e.g. smoke vs full scale).
SPECS: Dict[str, Tuple[Tuple[str, ...], Tuple[Metric, ...]]] = {
    "fastpath": (
        ("workload",),
        (
            Metric("composite_speedup", "higher", 0.30, wall=True),
            Metric("planner_speedup", "higher", 0.30, wall=True),
        ),
    ),
    "autotune": (
        ("gpus", "model"),
        (
            Metric("cells.*.picked_epoch_seconds", "lower", 0.01),
            Metric("cells.*.evaluations", "equal"),
            Metric("plan_cache.speedup", "higher", 0.50, wall=True),
        ),
    ),
    "schemes": (
        ("model", "cells.*.graph", "cells.*.topology", "cells.*.layers",
         "cells.*.feature_size"),
        (
            Metric("cells.*.pick_is_expected", "equal"),
            Metric("cells.*.picked_epoch_seconds", "lower", 0.01),
            Metric("cells.*.evaluations", "equal"),
            Metric("families_priced_count", "higher", 0.0),
            Metric("staleness_sweep.amortisation_s4", "higher", 0.05),
        ),
    ),
    "elastic": (
        ("epochs",),
        (
            Metric("gradient_parity", "equal"),
            Metric("soak.passed", "higher", 0.0),
            Metric("soak.seeds", "equal"),
        ),
    ),
    "serve": (
        ("gpus", "scenarios"),
        (
            Metric("cells.*.p99_latency_us", "lower", 0.05),
            Metric("cells.*.goodput_rps", "higher", 0.05),
            Metric("cells.*.shed_rate", "lower", 0.10),
            Metric("cells.*.units_per_batch", "lower", 0.01),
            Metric("cells.*.silent_drops", "equal"),
            Metric("cells.*.deterministic", "equal"),
        ),
    ),
    "sampling": (
        ("graph", "gpus", "batch_size", "fanouts"),
        (
            Metric("modes.*.plans_per_second", "higher", 0.40, wall=True),
            Metric("speedup.incremental_vs_cold", "higher", 0.30, wall=True),
            Metric("speedup.warm_vs_cold", "higher", 0.30, wall=True),
            Metric("modes.*.p99_batch_ms", "lower", 0.50, wall=True),
            Metric("modes.*.batches", "equal"),
            Metric("warm_cache_hits", "equal"),
            Metric("gradient_parity", "equal"),
        ),
    ),
    "obs": (
        ("workload",),
        (
            Metric("total_simulated_seconds", "lower", 0.05),
            Metric("critical_path_seconds", "lower", 0.05),
            Metric("audit.mean_abs_stage_error", "lower", 0.10),
            Metric("audit.fig10_match", "equal"),
            Metric("profile_deterministic", "equal"),
        ),
    ),
}


def _lookup(payload: Any, parts: List[str]) -> Iterator[Tuple[str, Any]]:
    """Yield ``(resolved_path, value)`` for a dotted path with ``*``."""
    if not parts:
        yield "", payload
        return
    head, rest = parts[0], parts[1:]
    if not isinstance(payload, dict):
        return
    keys = sorted(payload) if head == "*" else ([head] if head in payload else [])
    for key in keys:
        for sub, value in _lookup(payload[key], rest):
            yield f"{key}.{sub}" if sub else key, value


def _check(metric: Metric, base: float, cand: float) -> bool:
    """Does the candidate value pass the metric's gate?"""
    if metric.direction == "equal":
        return base == cand
    if not isinstance(base, (int, float)) or not isinstance(cand, (int, float)):
        return False
    if metric.direction == "higher":
        return cand >= base * (1.0 - metric.tolerance)
    return cand <= base * (1.0 + metric.tolerance)


def compare_payload(
    name: str,
    base_payload: Dict[str, Any],
    cand_payload: Dict[str, Any],
    skip_wall: bool = False,
) -> Dict[str, Any]:
    """Gate one benchmark's candidate payload against its baseline.

    Returns a verdict document: ``status`` is ``pass`` / ``fail`` /
    ``skipped`` (unknown benchmark or identity mismatch), ``checks``
    lists every gated metric with both values and its verdict.
    """
    spec = SPECS.get(name)
    if spec is None:
        return {"benchmark": name, "status": "skipped",
                "reason": "no gate spec for this benchmark"}
    identity_paths, metrics = spec
    for path in identity_paths:
        base_id = list(_lookup(base_payload, path.split(".")))
        cand_id = list(_lookup(cand_payload, path.split(".")))
        if base_id != cand_id:
            return {"benchmark": name, "status": "skipped",
                    "reason": f"workload mismatch on {path!r} "
                              "(smoke vs full scale?)"}
    checks: List[Dict[str, Any]] = []
    failed = 0
    for metric in metrics:
        if skip_wall and metric.wall:
            continue
        base_values = dict(_lookup(base_payload, metric.path.split(".")))
        cand_values = dict(_lookup(cand_payload, metric.path.split(".")))
        if not base_values:
            continue  # metric absent from the baseline: nothing to gate
        for path, base_value in base_values.items():
            if path not in cand_values:
                failed += 1
                checks.append({
                    "metric": path, "direction": metric.direction,
                    "baseline": base_value, "candidate": None, "ok": False,
                    "reason": "metric missing from the candidate",
                })
                continue
            cand_value = cand_values[path]
            ok = _check(metric, base_value, cand_value)
            if not ok:
                failed += 1
            checks.append({
                "metric": path,
                "direction": metric.direction,
                "tolerance": metric.tolerance,
                "wall": metric.wall,
                "baseline": base_value,
                "candidate": cand_value,
                "ok": ok,
            })
    return {
        "benchmark": name,
        "status": "fail" if failed else "pass",
        "failed": failed,
        "checks": checks,
    }


def _load_artifacts(directory: Path) -> Dict[str, Dict[str, Any]]:
    """Map benchmark name -> payload for every ``BENCH_*.json`` found."""
    artifacts: Dict[str, Dict[str, Any]] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "benchmark" in doc and "payload" in doc:
            artifacts[doc["benchmark"]] = doc["payload"]
    return artifacts


def compare_dirs(
    baseline: Path, candidate: Path, skip_wall: bool = False
) -> Dict[str, Any]:
    """Gate every candidate artifact that has a committed baseline.

    Baselines without a candidate artifact fail loudly (a benchmark
    silently dropping out of CI is itself a regression); candidate
    artifacts without a baseline are listed as new.
    """
    base = _load_artifacts(baseline)
    cand = _load_artifacts(candidate)
    results = []
    for name in sorted(base):
        if name not in cand:
            results.append({"benchmark": name, "status": "fail",
                            "reason": "candidate artifact missing"})
            continue
        results.append(compare_payload(name, base[name], cand[name],
                                       skip_wall=skip_wall))
    verdict = {
        "baseline": str(baseline),
        "candidate": str(candidate),
        "skip_wall": skip_wall,
        "new_benchmarks": sorted(set(cand) - set(base)),
        "results": results,
        "passed": all(r["status"] != "fail" for r in results),
    }
    return verdict


def _render(verdict: Dict[str, Any]) -> str:
    """Terminal-friendly verdict table."""
    lines = [
        f"bench compare: {verdict['baseline']} (baseline) vs "
        f"{verdict['candidate']} (candidate)"
        + ("  [wall metrics skipped]" if verdict["skip_wall"] else ""),
    ]
    for result in verdict["results"]:
        status = result["status"]
        if status == "skipped":
            lines.append(f"  {result['benchmark']:10s} SKIP  {result['reason']}")
            continue
        if "checks" not in result:
            lines.append(f"  {result['benchmark']:10s} FAIL  {result['reason']}")
            continue
        lines.append(f"  {result['benchmark']:10s} "
                     f"{'PASS' if status == 'pass' else 'FAIL'}  "
                     f"({len(result['checks'])} gated metric(s))")
        for check in result["checks"]:
            if check["ok"]:
                continue
            lines.append(
                f"    REGRESSION {check['metric']}: "
                f"{check['baseline']} -> {check['candidate']} "
                f"(want {check['direction']}, "
                f"tol {check.get('tolerance', 0.0):.0%})"
            )
    if verdict["new_benchmarks"]:
        lines.append(f"  new (no baseline yet): "
                     f"{', '.join(verdict['new_benchmarks'])}")
    lines.append("verdict: " + ("PASS" if verdict["passed"] else "FAIL"))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="diff BENCH_*.json artifacts against committed baselines"
    )
    parser.add_argument("--baseline", required=True, metavar="DIR",
                        help="directory holding the baseline artifacts")
    parser.add_argument("--candidate", required=True, metavar="DIR",
                        help="directory holding the freshly produced artifacts")
    parser.add_argument("--skip-wall", action="store_true",
                        help="exempt wall-clock metrics (noisy CI runners)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable verdict on stdout")
    args = parser.parse_args(argv)
    baseline, candidate = Path(args.baseline), Path(args.candidate)
    for directory, label in ((baseline, "baseline"), (candidate, "candidate")):
        if not directory.is_dir():
            print(f"error: {label} directory not found: {directory}",
                  file=sys.stderr)
            return 2
    verdict = compare_dirs(baseline, candidate, skip_wall=args.skip_wall)
    if args.json:
        print(json.dumps(verdict, indent=2, sort_keys=True))
    else:
        print(_render(verdict))
    return 0 if verdict["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
