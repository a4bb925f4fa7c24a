"""The four end-to-end workloads; one runs per process.

``run.py`` starts this script once per workload with single-threaded
BLAS and a fresh, empty ``REPRO_CACHE_DIR``.  A run sets up from cold
several times, warms up, times steps for ``--seconds``, reads peak
memory, prices the run on the simulated clock, then checks the outputs
against the single-device references.  It prints a report, one
``detail`` line of seed-determined values for ``agree.py`` and, last,
the result object.

The program is only called through its public entry points; with
``--trace 1`` the wrappers of :mod:`tracing` time each layer from the
outside, on every other step.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

import harness
import tracing

import repro.api as dgcl
import repro.baselines.strategies as strategies
import repro.graph.datasets as datasets
from repro.gnn.distributed import DistributedTrainer
from repro.gnn.minibatch import MiniBatchOracle, MiniBatchTrainer
from repro.gnn.models import build_model
from repro.gnn.training import SingleDeviceTrainer
from repro.serve import build_scenario
from repro.topology import topology_for_gpu_count

#: Tolerances of the distributed-vs-single-device parity tests.
LOSS_RTOL, LOSS_ATOL = 1e-5, 1e-8
GRAD_RTOL, GRAD_ATOL = 1e-5, 1e-7
#: Seed of the dataset twins and of the full-graph partition and plan.
#: These set how much work an epoch is (epoch time moves by a tenth
#: across their seeds), so the run seed drives only the features,
#: labels, weights, sampled batches and request streams.
TWIN_SEED = 0

Checks = List[Tuple[str, bool]]


class TrainWorkload:
    """Full-graph data-parallel epochs: ``DGCLSession.build_comm_info``
    then ``DistributedTrainer``.  A step is one epoch; an item is one
    vertex whose loss the epoch computes."""

    setup_repeats = 3
    min_steps = 3

    def __init__(self, seed: int, dataset: str, model: str, gpus: int,
                 feature_size: Optional[int] = None,
                 hidden_size: Optional[int] = None) -> None:
        spec = datasets.DATASETS[dataset]
        self.seed = seed
        self.dataset = dataset
        self.model = model
        self.gpus = gpus
        self.dims = (feature_size or spec.feature_size,
                     hidden_size or spec.hidden_size, spec.num_classes)

    def _model(self):
        return build_model(self.model, *self.dims, seed=self.seed)

    def setup(self):
        graph = datasets.load_dataset(self.dataset, seed=TWIN_SEED, cache=False)
        features = datasets.synthetic_features(graph, self.dims[0], seed=self.seed)
        labels = datasets.synthetic_labels(graph, self.dims[2], seed=self.seed)
        session = dgcl.session(topology_for_gpu_count(self.gpus))
        session.build_comm_info(graph, seed=TWIN_SEED)
        trainer = DistributedTrainer(session.relation, session.plan,
                                     self._model(), features, labels)
        return SimpleNamespace(graph=graph, features=features, labels=labels,
                               session=session, trainer=trainer, losses=[],
                               checks=[])

    def warmup(self, state, rec) -> int:
        # The untrained model's loss, checked against the single-device
        # epoch once the timed region is over.
        state.warm_loss = state.trainer.run_epoch(update=False).loss
        if rec is not None:
            with traced(rec, "check", 0):
                again = state.trainer.run_epoch(update=False).loss
            state.checks.append(("traced epoch loss == untraced", again == state.warm_loss))
        return 1

    def step(self, state) -> Tuple[int, int]:
        state.losses.append(state.trainer.run_epoch().loss)
        return 1, state.graph.num_vertices

    def price(self, state) -> Dict[str, float]:
        session = state.session
        workload = strategies.Workload(
            self.dataset, self.model, session.topology, seed=TWIN_SEED,
            graph=state.graph, assignment=session.relation.assignment,
        )
        result = strategies.evaluate_scheme(workload, scheme="dgcl")
        return {"sim.epoch_ms": result.epoch_time * 1e3,
                "sim.comm_ms": result.comm_time * 1e3,
                "sim.compute_ms": result.compute_time * 1e3}

    def check(self, state) -> Tuple[Checks, int, Dict[str, float]]:
        start = perf_counter()
        ref = SingleDeviceTrainer(state.graph, self._model(), state.features,
                                  state.labels).run_epoch(update=False)
        ref_s = perf_counter() - start
        match = bool(np.isclose(state.warm_loss, ref.loss,
                                rtol=LOSS_RTOL, atol=LOSS_ATOL))
        bad = sum(not math.isfinite(x) for x in state.losses)
        checks = state.checks + [
            (f"warm-up loss {state.warm_loss:.9g} vs single device "
             f"{ref.loss:.9g}", match),
            (f"{len(state.losses)} timed losses finite", bad == 0),
        ]
        return checks, bad + (not match), {"gnn.reference_epoch_s": ref_s}

    def deterministic(self, state) -> Dict[str, object]:
        return {"warm_loss": state.warm_loss}


class SampleWorkload:
    """Sampled mini-batch training: ``DGCLSession.sample_loader`` feeding
    ``MiniBatchTrainer``.  A step samples, plans and trains one batch;
    an item is one seed vertex."""

    # One cold set-up: partitioning the com-orkut twin alone takes most
    # of the run's time budget.
    setup_repeats = 1
    min_steps = 10

    def __init__(self, seed: int) -> None:
        spec = datasets.DATASETS["com-orkut"]
        self.seed = seed
        self.dims = (spec.feature_size, spec.hidden_size, spec.num_classes)

    def _model(self):
        return build_model("gcn", *self.dims, seed=self.seed)

    def setup(self):
        graph = datasets.load_dataset("com-orkut", seed=TWIN_SEED, cache=False)
        features = datasets.synthetic_features(graph, self.dims[0], seed=self.seed)
        labels = datasets.synthetic_labels(graph, self.dims[2], seed=self.seed)
        session = dgcl.session(topology_for_gpu_count(8))
        loader, sampler, planner = session.sample_loader(
            graph, batch_size=256, fanouts=(10, 5), seed=self.seed
        )
        trainer = MiniBatchTrainer(self._model(), features, labels, sampler,
                                   loader, planner)
        stream = itertools.chain.from_iterable(
            trainer.batch_stream(epoch) for epoch in itertools.count()
        )
        return SimpleNamespace(features=features, labels=labels,
                               session=session, trainer=trainer,
                               stream=stream, losses=[], checks=[])

    def warmup(self, state, rec) -> int:
        # Batch 0 runs on the untrained model; its loss and gradients
        # are checked against the oracle after the timed region.
        trainer = state.trainer
        state.first = next(state.stream)
        state.loss0, state.grads0 = trainer.batch_gradients(state.first)
        if rec is not None:
            with traced(rec, "check", 0):
                loss, grads = trainer.batch_gradients(state.first)
            same = loss == state.loss0 and all(
                np.array_equal(a[k], b[k]) for a, b in zip(grads, state.grads0)
                for k in a
            )
            state.checks.append(("traced batch-0 gradients == untraced", same))
        trainer.optimizer.step(state.grads0)
        return 1

    def step(self, state) -> Tuple[int, int]:
        planned = next(state.stream)
        state.losses.append(state.trainer.run_batch(planned).loss)
        return 1, planned.num_seeds

    def price(self, state) -> Dict[str, float]:
        return {}

    def check(self, state) -> Tuple[Checks, int, Dict[str, float]]:
        oracle = MiniBatchOracle(self._model(), state.features, state.labels)
        loss, grads = oracle.batch_gradients(state.first.subgraph)
        match = bool(np.isclose(state.loss0, loss, rtol=LOSS_RTOL,
                                atol=LOSS_ATOL)) and all(
            np.allclose(a[k], b[k], rtol=GRAD_RTOL, atol=GRAD_ATOL)
            for a, b in zip(state.grads0, grads) for k in a
        )
        bad = sum(not math.isfinite(x) for x in state.losses)
        checks = state.checks + [
            (f"batch-0 loss {state.loss0:.9g} and gradients vs oracle "
             f"{loss:.9g}", match),
            (f"{len(state.losses)} timed losses finite", bad == 0),
        ]
        return checks, bad + (not match), {}

    def deterministic(self, state) -> Dict[str, object]:
        return {"batch0_loss": state.loss0}


class ServeWorkload:
    """Online inference: a Poisson campaign, then a hot-spot one, each
    ``build_scenario(...).run`` on the run seed.  A step runs both
    campaigns; an item is one submitted request."""

    setup_repeats = 3
    min_steps = 2
    # Poisson requests never share a vertex set, hot-spot ones often do,
    # so the batch-plan cache is bypassed by one and used by the other.
    # (The overload scenario's work swings by a third across seeds.)
    campaigns = ("poisson", "hotspot")
    #: Campaign length; the Poisson one still completes >1000 requests,
    #: enough for a p99 with ten samples beyond it.
    horizon_scale = 2.5

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        sessions = {name: build_scenario(name, gpus=8,
                                         horizon_scale=self.horizon_scale)
                    for name in self.campaigns}
        return SimpleNamespace(sessions=sessions, reports=[])

    def warmup(self, state, rec) -> int:
        return 0

    def step(self, state) -> Tuple[int, int]:
        reports = {name: s.run(seed=self.seed)
                   for name, s in state.sessions.items()}
        state.reports.append(reports)
        return len(reports), sum(r.submitted for r in reports.values())

    def price(self, state) -> Dict[str, float]:
        first = state.reports[0]
        poisson = first["poisson"]
        latencies = [r.latency for r in poisson.records
                     if r.outcome == "completed"]
        if (harness.supported_percentile(len(latencies)) or 0) < 99:
            raise RuntimeError(
                f"{len(latencies)} completions cannot support a p99"
            )
        hotspot = first["hotspot"]
        slo = {name: t["slo"] for name, t in hotspot.tenants.items()}
        good = sum(1 for r in hotspot.records if r.outcome == "completed"
                   and r.latency <= slo[r.tenant])
        out = {"serve.p99_sim_us": float(np.quantile(latencies, 0.99)) * 1e6,
               "serve.goodput_sim_rps": good / hotspot.horizon}
        hits = sum(r.batch_cache["hits"] for r in first.values())
        lookups = hits + sum(r.batch_cache["misses"] for r in first.values())
        out["serve.batch_cache_hit_ratio"] = hits / lookups
        for report in first.values():
            for outcome, n in report.outcome_counts().items():
                key = f"serve.outcomes.{outcome}"
                out[key] = out.get(key, 0) + n
        return out

    def check(self, state) -> Tuple[Checks, int, Dict[str, float]]:
        checks: Checks = []
        failed = 0
        for name in self.campaigns:
            reports = [r[name] for r in state.reports]
            first = reports[0].signature()
            bad = 0
            for r in reports:
                counts = r.outcome_counts()
                # Rejections are admission control's typed answer to
                # load; a request that is lost instead fails the run.
                lost = counts["expired"] + counts["fault-aborted"] + r.unaccounted
                bad += bool(lost) or r.signature() != first
            checks.append((f"{name}: {len(reports)} runs with one signature "
                           "and no lost request", bad == 0))
            failed += bad
        return checks, failed, {}

    def deterministic(self, state) -> Dict[str, object]:
        return {name: state.reports[0][name].signature()
                for name in self.campaigns}


WORKLOADS = {
    "train-dense": lambda seed: TrainWorkload(
        seed, "reddit", "gcn", 8, feature_size=128, hidden_size=64),
    "train-sparse": lambda seed: TrainWorkload(seed, "wiki-talk", "gin", 16),
    "sample": SampleWorkload,
    "serve": ServeWorkload,
}


# ----------------------------------------------------------------------
# Running one workload
# ----------------------------------------------------------------------
@contextlib.contextmanager
def traced(rec: Optional[tracing.Recorder], phase: str, index: int):
    """Install the wrappers around one labelled section (no-op when
    ``rec`` is None)."""
    if rec is None:
        yield
        return
    rec.phase, rec.index = phase, index
    rec.install()
    try:
        yield
    finally:
        rec.remove()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drive(name: str, seed: int, seconds: float,
          rec: Optional[tracing.Recorder]) -> SimpleNamespace:
    """Run one workload end to end; see the module docstring."""
    wl = WORKLOADS[name](seed)
    setups: List[float] = []
    state = None
    for i in range(wl.setup_repeats):
        state = None
        gc.collect()
        with traced(rec, "setup", i):
            start = perf_counter()
            state = wl.setup()
            setups.append(perf_counter() - start)

    ops = wl.warmup(state, rec)
    # Traced runs alternate traced and plain steps: keep the count even.
    min_steps = wl.min_steps + (rec is not None and wl.min_steps % 2)
    steps: List[float] = []
    traced_steps: List[bool] = []
    items = 0
    begin = perf_counter()
    while len(steps) < min_steps or perf_counter() - begin < seconds:
        on = rec is not None and len(steps) % 2 == 0
        with traced(rec if on else None, "step", len(steps)):
            start = perf_counter()
            n_ops, n_items = wl.step(state)
            steps.append(perf_counter() - start)
        traced_steps.append(on)
        ops += n_ops
        items += n_items
    rss = peak_rss_mb()

    with traced(rec, "price", 0):
        sim = wl.price(state)
    checks, failed, extras = wl.check(state)
    return SimpleNamespace(
        setups=setups, steps=steps, traced_steps=traced_steps, items=items,
        rss=rss, sim=sim, checks=checks, failed=failed, extras=extras,
        ops=ops, deterministic=dict(wl.deterministic(state), **sim),
    )


def end_to_end(run: SimpleNamespace) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(run.setups),
        "step_p50_ms": statistics.median(run.steps) * 1e3,
        "items_per_s": run.items / sum(run.steps),
        "peak_rss_mb": run.rss,
    }


def per_layer(run: SimpleNamespace, rec: tracing.Recorder) -> Tuple[Dict[str, float], dict]:
    """Per-operation layer metrics of a traced run, and the layer table."""
    ops = {"setup": len(run.setups), "step": sum(run.traced_steps),
           "price": 1}
    totals: Dict[Tuple[str, str], float] = dict(rec.counters)
    phases: Dict[str, list] = {}
    for (phase, name), (own, calls) in sorted(harness.self_times(rec.spans).items()):
        totals[(phase, name + ".s")] = own
        totals[(phase, name + ".calls")] = calls
        phases.setdefault(phase, []).append(
            {"name": name, "self_s": own, "calls": calls})
    values = harness.per_op(totals, ops)
    calls = {k[: -len(".calls")]: v for k, v in values.items()
             if k.endswith(".calls")}
    traced_s = [s for s, on in zip(run.steps, run.traced_steps) if on]
    plain_s = [s for s, on in zip(run.steps, run.traced_steps) if not on]
    values.update(run.sim)
    values.update(run.extras)
    values["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain_s)
    for rows in phases.values():
        rows.sort(key=lambda r: -r["self_s"])
    layers = {
        "workload": rec.workload, "ops": ops, "phases": phases,
        "traced_step_wall_s": sum(traced_s), "calls": calls,
    }
    return values, layers


def report(name: str, seed: int, run: SimpleNamespace, metrics: Dict[str, float],
           units: Dict[str, str], layers: Optional[dict]) -> None:
    """Print the human-readable part of the run's output."""
    print(f"workload {name}  seed {seed}  set-ups {len(run.setups)}  "
          f"steps {len(run.steps)}  ops {run.ops}")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:14.6g} {units[key]}")
    n = len(run.steps)
    tail = harness.supported_percentile(n)
    line = f"  step times: n={n}, p50 {statistics.median(run.steps) * 1e3:.1f} ms"
    if tail is not None and tail > 50:
        value = float(np.percentile(run.steps, tail)) * 1e3
        line += f", p{tail:g} {value:.1f} ms"
    print(line + f"; set-ups {', '.join(f'{s:.3f}' for s in run.setups)} s")
    if layers is None:
        for key, value in sorted(run.sim.items()):
            print(f"  {key:32s} {value:14.6g} (simulated clock)")
    for text, ok in run.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {text}")
    if layers is not None:
        wall = layers["traced_step_wall_s"]
        rows = layers["phases"].get("step", [])
        print(f"  step self time over {wall:.3f} s of traced steps:")
        for row in rows[:12]:
            print(f"    {row['name']:30s} {row['self_s'] / wall:7.1%} "
                  f"{row['calls']:8d} calls")
        print(f"    {'(outside spans)':30s} "
              f"{1 - sum(r['self_s'] for r in rows) / wall:7.1%}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    spec = harness.load_spec()
    rec = tracing.Recorder(args.workload) if args.trace else None
    run = drive(args.workload, args.seed, args.seconds, rec)
    layers = None
    if rec is None:
        metrics = end_to_end(run)
        table = spec["end_to_end"]
    else:
        values, layers = per_layer(run, rec)
        missing = harness.missing_spans(layers["calls"], args.workload)
        if missing:
            print(f"trace coverage: span(s) {missing} expected on "
                  f"{args.workload} never fired", file=sys.stderr)
            return 3
        table = spec["per_layer"]
        metrics = {m["name"]: float(values.get(m["name"], 0.0)) for m in table}
        if args.trace_dir is not None:
            rec.write(args.trace_dir, dict(layers, metrics=metrics))
    units = {m["name"]: m["unit"] for m in table}
    report(args.workload, args.seed, run, metrics, units, layers)
    correct = all(ok for _, ok in run.checks)
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "deterministic": run.deterministic,
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": run.ops, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
