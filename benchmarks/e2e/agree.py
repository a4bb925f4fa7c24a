"""Check that two sets of benchmark runs of one commit agree.

    python3 benchmarks/e2e/agree.py SET_A SET_B

A set is a directory of ``*.out`` files, each holding the standard
output of one ``run.py --workload W --seed N`` run with tracing off.
For every end-to-end metric and workload this prints each set's median
and quartiles and checks, against the metric's bound in BENCHMARK.json:

* that neither median is worse than the other by more than the bound;
* that each set's interquartile spread is within the bound (except
  ``setup_s``, whose bound only covers the medians).

For every seed both sets ran it also requires identical seed-determined
values (simulated-clock numbers, check losses, serve signatures) and
identical failed-operation counts, and it requires every run correct.
Exits 1 on any disagreement.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import harness


def load_set(directory: Path) -> Dict[str, List[dict]]:
    """``workload -> runs``; a run is its detail line plus its result."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.out")):
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        details = [ln for ln in lines if ln.startswith("detail ")]
        if not details:
            raise SystemExit(f"{path}: no detail line; not a run's output")
        detail = json.loads(details[-1][len("detail "):])
        detail["result"] = json.loads(lines[-1])
        runs[detail["workload"]].append(detail)
    return runs


def compare(a: Dict[str, List[dict]], b: Dict[str, List[dict]],
            spec: dict) -> List[str]:
    """Print the comparison table; return the disagreements."""
    problems: List[str] = []
    print(f"{'workload':13s} {'metric':12s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'drift':>7s} {'bound':>6s}")
    for workload in harness.WORKLOADS:
        if not a.get(workload) or not b.get(workload):
            problems.append(f"{workload}: missing from a set")
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            for runs in (a[workload], b[workload]):
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                q1, med, q3 = harness.quartiles(values)
                spread = harness.spread(values)
                cols.append((med, f"{med:12.5g} [{q1:.5g}, {q3:.5g}]", spread))
                if name != "setup_s" and spread > bound:
                    problems.append(f"{workload} {name}: spread {spread:.3f} "
                                    f"> bound {bound}")
            drift = max(harness.worse_by(cols[0][0], cols[1][0], m["better"]),
                        harness.worse_by(cols[1][0], cols[0][0], m["better"]))
            if drift > bound:
                problems.append(f"{workload} {name}: medians differ by "
                                f"{drift:.3f} > bound {bound}")
            print(f"{workload:13s} {name:12s} {cols[0][1]:>32s} "
                  f"{cols[1][1]:>32s} {drift:7.3f} {bound:6.2f}   "
                  f"spread {cols[0][2]:.3f} / {cols[1][2]:.3f}")
        shares = []
        for runs in (a[workload], b[workload]):
            failed = sum(r["result"]["failed"] for r in runs)
            attempted = sum(r["result"]["attempted"] for r in runs)
            shares.append(f"{failed}/{attempted}")
            problems += [f"{workload} seed {r['seed']}: incorrect"
                         for r in runs if not r["result"]["correct"]]
        print(f"{workload:13s} {'failed':12s} {shares[0]:>32s} {shares[1]:>32s}")
        by_seed = {r["seed"]: r for r in b[workload]}
        for ra in a[workload]:
            rb = by_seed.get(ra["seed"])
            if rb is None:
                continue
            if ra["deterministic"] != rb["deterministic"]:
                problems.append(f"{workload} seed {ra['seed']}: "
                                "seed-determined values differ")
            if ra["result"]["failed"] != rb["result"]["failed"]:
                problems.append(f"{workload} seed {ra['seed']}: "
                                "failed operations differ")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    problems = compare(load_set(Path(argv[0])), load_set(Path(argv[1])),
                       harness.load_spec())
    for p in problems:
        print(f"DISAGREE {p}")
    print("sets agree" if not problems else f"{len(problems)} disagreement(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
