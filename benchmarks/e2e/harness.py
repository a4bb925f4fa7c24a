"""Pure helpers of the end-to-end benchmark: metric tables, span self
time and the run statistics.

Nothing here imports ``repro``, so these helpers run, and are tested,
without the program under test.
"""

from __future__ import annotations

import json
import re
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = ("train-dense", "train-sparse", "sample", "serve")
TRAIN = ("train-dense", "train-sparse")

#: End-to-end metrics.  Every workload reports every one of them (the
#: step and the item are defined per workload, see README.md).
END_TO_END = ("setup_s", "step_p50_ms", "items_per_s", "peak_rss_mb")

#: Per-layer metrics and the workloads each one is measured on.  A
#: ``.s``/``.calls`` metric names a span; a traced run fails if a span
#: listed for its workload never fires.
PER_LAYER: Dict[str, Tuple[str, ...]] = {
    "graph.load_dataset.s": TRAIN + ("sample",),
    "partition.s": WORKLOADS,
    "api.build_comm_info.s": TRAIN,
    "core.relation.s": WORKLOADS,
    "core.spst_plan.s": TRAIN + ("serve",),
    "core.spst_plan.calls": TRAIN + ("serve",),
    "comm.allgather.compile.s": TRAIN + ("sample",),
    "comm.allgather.forward.s": TRAIN + ("sample",),
    "comm.allgather.backward.s": TRAIN + ("sample",),
    "comm.rows_moved": TRAIN + ("sample",),
    "gnn.segment_sum.s": TRAIN + ("sample",),
    "gnn.scatter_back.s": TRAIN + ("sample",),
    "gnn.kernel_bytes": TRAIN + ("sample",),
    "gnn.layer.forward.s": TRAIN + ("sample",),
    "gnn.layer.backward.s": TRAIN + ("sample",),
    "gnn.optimizer.step.s": TRAIN + ("sample",),
    "gnn.trainer.s": TRAIN + ("sample",),
    "gnn.reference_epoch_s": TRAIN,
    "sampling.sample.s": ("sample",),
    "sampling.plan_batch.s": ("sample",),
    "sampling.plan_source.patched": ("sample",),
    "sampling.plan_source.replanned": ("sample",),
    "sampling.plan_source.planned": ("sample",),
    "sampling.batch_vertices": ("sample",),
    "simulator.execute.s": TRAIN + ("serve",),
    "simulator.execute.calls": TRAIN + ("serve",),
    "simulator.network.s": TRAIN,
    "simulator.flows": TRAIN + ("serve",),
    "baselines.evaluate_scheme.s": TRAIN,
    "sim.epoch_ms": TRAIN,
    "sim.comm_ms": TRAIN,
    "sim.compute_ms": TRAIN,
    "serve.run.s": ("serve",),
    "serve.restrict_forward.s": ("serve",),
    "serve.restrict_forward.calls": ("serve",),
    "serve.batch_cache_hit_ratio": ("serve",),
    "serve.batcher.form.s": ("serve",),
    "serve.admission.try_take.s": ("serve",),
    "obs.quantile.observe.s": ("serve",),
    "serve.outcomes.completed": ("serve",),
    "serve.outcomes.rejected-rate": ("serve",),
    "serve.outcomes.rejected-queue": ("serve",),
    "serve.outcomes.rejected-shed": ("serve",),
    "serve.outcomes.expired": ("serve",),
    "serve.outcomes.fault-aborted": ("serve",),
    "serve.p99_sim_us": ("serve",),
    "serve.goodput_sim_rps": ("serve",),
    "trace.overhead": WORKLOADS,
}

#: BENCHMARK.json's keys, with the keys of each list entry.
SPEC_KEYS = {
    "command": (), "paths": (), "run_seconds": (),
    "workloads": ("name", "why"),
    "end_to_end": ("name", "unit", "better", "bound"),
    "per_layer": ("name", "unit", "better"),
}

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return bool(_NAME_RE.fullmatch(name))


def valid_unit(unit: str) -> bool:
    """Whether ``unit`` is a legal metric unit."""
    return bool(_UNIT_RE.fullmatch(unit))


def load_spec(path: Path = SPEC_PATH) -> dict:
    """The benchmark definition at the repository root."""
    with open(path) as f:
        return json.load(f)


def spec_problems(spec: dict) -> List[str]:
    """Everything that makes ``spec`` incomplete or inconsistent with
    the metric tables above; empty when it is sound."""
    problems = []
    if set(spec) != set(SPEC_KEYS):
        problems.append(f"top-level keys {sorted(spec)} != {sorted(SPEC_KEYS)}")
    run_seconds = spec.get("run_seconds")
    if not isinstance(run_seconds, int) or not 1 <= run_seconds <= 60:
        problems.append("run_seconds must be a whole number in [1, 60]")
    for key, fields in SPEC_KEYS.items():
        if not fields:
            continue
        for entry in spec.get(key, []):
            if set(entry) != set(fields):
                problems.append(f"{key} entry {entry.get('name')!r} has keys "
                                f"{sorted(entry)}, not {sorted(fields)}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("setup_s must be an end-to-end metric in s, lower")
    elif setup[0]["bound"] < max(m.get("bound", 0) for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    names = [w["name"] for w in spec["workloads"]]
    if tuple(names) != WORKLOADS:
        problems.append(f"workloads {names} != {list(WORKLOADS)}")
    for w in spec["workloads"]:
        why = w.get("why", "")
        if not why.strip() or "\n" in why or len(why) > 200:
            problems.append(f"workload {w['name']}: needs a one-line why")
    tables = (("end_to_end", {m: WORKLOADS for m in END_TO_END}, True),
              ("per_layer", PER_LAYER, False))
    seen = set()
    for key, table, bounded in tables:
        listed = [m["name"] for m in spec[key]]
        if sorted(listed) != sorted(table):
            problems.append(f"{key} {sorted(set(listed) ^ set(table))} "
                            "not in both BENCHMARK.json and harness")
        for m in spec[key]:
            name = m["name"]
            if not valid_name(name) or name in seen:
                problems.append(f"{name!r}: invalid or repeated name")
            seen.add(name)
            if not valid_unit(m.get("unit", "")):
                problems.append(f"{name}: invalid unit")
            if m.get("better") not in ("higher", "lower"):
                problems.append(f"{name}: better must be higher or lower")
            if bounded and not 0 < m.get("bound", 0) <= 0.25:
                problems.append(f"{name}: bound must lie in (0, 0.25]")
            if not table.get(name):
                problems.append(f"{name}: measured on no workload")
    return problems


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
class Span(NamedTuple):
    """One timed call: ``parent`` is the enclosing span's id, -1 at the
    root; ``phase`` and ``index`` say which set-up/step it belongs to."""

    sid: int
    parent: int
    name: str
    start: float
    end: float
    phase: str
    index: int


def self_times(spans: Iterable[Span]) -> Dict[Tuple[str, str], Tuple[float, int]]:
    """``(phase, name) -> (self seconds, calls)``.

    A span's self time is its duration minus the durations of its
    direct children, which themselves exclude theirs.
    """
    spans = list(spans)
    children: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.end - s.start
    out: Dict[Tuple[str, str], Tuple[float, int]] = {}
    for s in spans:
        own = (s.end - s.start) - children.get(s.sid, 0.0)
        total, calls = out.get((s.phase, s.name), (0.0, 0))
        out[(s.phase, s.name)] = (total + own, calls + 1)
    return out


def per_op(totals: Dict[Tuple[str, str], float],
           ops: Dict[str, int]) -> Dict[str, float]:
    """Fold ``(phase, name)`` totals into ``name`` values per operation:
    each phase's total is divided by its operation count (set-ups,
    traced steps, pricing calls) and the phases are summed.  Phases
    missing from ``ops`` are not measured and are dropped."""
    out: Dict[str, float] = defaultdict(float)
    for (phase, name), value in totals.items():
        if ops.get(phase):
            out[name] += value / ops[phase]
    return dict(out)


def missing_spans(calls: Dict[str, float], workload: str) -> List[str]:
    """Span metrics expected on ``workload`` whose span never fired."""
    missing = []
    for metric, workloads in PER_LAYER.items():
        if workload not in workloads:
            continue
        for suffix in (".s", ".calls"):
            if metric.endswith(suffix):
                base = metric[: -len(suffix)]
                if not calls.get(base):
                    missing.append(base)
    return sorted(set(missing))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def supported_percentile(count: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` of ``count`` samples beyond it, or None."""
    best = None
    for p in PERCENTILES:
        if count * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            best = p
    return best


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    change = (new - base) / base
    return change if better == "lower" else -change
