"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — list the dataset twins, topology presets and GNN models;
* ``plan`` — partition a dataset, plan (``--strategy`` takes any
  plan-based scheme in the registry — ``spst``/``p2p`` aliases,
  ``cagnet-1.5d``, ``distgnn-delayed``, ... — or ``auto``, optionally
  through a persistent ``--plan-cache DIR``), print plan statistics
  and optionally save the plan to a ``.npz``;
* ``tune`` — run the cost-guided auto-tuner: price every candidate
  scheme with the staged cost model, print the ranking and the pick;
  with ``--plan-cache DIR`` the winning plan persists across runs;
* ``evaluate`` — simulate one epoch for one or all communication
  schemes on a workload (the Figure-7 cell view); ``--scheme auto``
  evaluates whatever the auto-tuner picks;
* ``train`` — run real distributed epochs and confirm they match the
  single-device reference; ``--minibatch`` switches to sampled
  mini-batch training with per-batch communication plans;
* ``sample`` — stream sampled mini-batches (uniform ``--fanouts`` or
  full ``--khop``) through the per-batch planning ladder and report
  plan sources and sustained plans/sec;
* ``trace`` — run one traced evaluation (or training run) and write a
  Chrome/Perfetto or JSONL trace of the simulated timeline;
* ``profile`` — run one audited evaluation and print its flight-recorder
  profile: per-stage and per-connection attribution, the critical path,
  and the predicted-vs-actual cost-model audit table (a live Fig. 10);
  ``--output`` saves the profile JSON for later ``report`` runs;
* ``report`` — render a saved profile, or diff two of them
  (``repro report base.json --against candidate.json``);
* ``chaos`` — soak the hardened protocol under N seeded random fault
  schedules, check the invariant oracles, shrink any failing schedule
  to a minimal replayable JSON (``--replay``); ``--elastic-every N``
  interleaves seeded random grow/shrink handoffs with the faults;
* ``elastic`` — run planned grow/shrink handoffs on a training job
  (``--action EPOCH:KIND:DEVICES``) and verify gradient parity, or
  compare the contention-aware scheduler against naive placement
  (``--place N,N,...``);
* ``serve`` — run one online-inference serving campaign of a named
  scenario (``--scenario poisson|bursty|diurnal|hotspot|overload``):
  SLO-aware admission, coalescing batching, graceful degradation and
  per-tenant latency accounting, optionally under an injected
  ``--fault-spec``.

``--json`` (on ``plan`` / ``evaluate``) switches stdout to a machine-
readable document; ``--emit-trace PATH`` attaches a tracer and writes
the Chrome trace alongside the normal output; ``-v``/``-vv`` raises the
library log level (same effect as ``REPRO_LOG``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.graph.datasets import DATASETS
from repro.obs.telemetry import Telemetry


def _topology(num_gpus: int, kind: str):
    from repro.topology import pcie_only, topology_for_gpu_count

    if kind == "pcie":
        return pcie_only(num_gpus)
    return topology_for_gpu_count(num_gpus)


def _strategy_choices() -> List[str]:
    """Valid ``--strategy`` spellings: the scheme registry's session
    vocabulary (plan-based schemes + aliases + ``auto``)."""
    from repro.schemes import session_strategy_names

    return list(session_strategy_names())


def _scheme_choices() -> List[str]:
    """Valid ``--scheme`` spellings: every registered scheme + ``auto``."""
    from repro.schemes import scheme_names

    return list(scheme_names()) + ["auto"]


def cmd_info(args: argparse.Namespace) -> int:
    from repro.gnn.models import MODEL_BUILDERS

    print("dataset twins (scaled from paper Table 4):")
    for name, spec in DATASETS.items():
        print(f"  {name:11s} |V|={spec.num_vertices:>6d}  "
              f"avg deg={spec.avg_degree:6.1f}  feature={spec.feature_size}  "
              f"hidden={spec.hidden_size}  (paper: {spec.paper_vertices} "
              f"vertices, {spec.paper_edges} edges)")
    print("\ntopologies: dgx1 (1-8 GPUs), dual-dgx1 (16 GPUs over IB), "
          "pcie (no NVLink)")
    print(f"models: {', '.join(sorted(MODEL_BUILDERS))}")
    from repro.schemes import global_registry

    names = []
    for spec in global_registry().specs():
        suffix = "" if spec.plan_based else "*"
        names.append(spec.name + suffix)
    print(f"schemes: {', '.join(names)}  (* = evaluation-only; "
          "register more with dgcl.register_scheme)")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.baselines import Workload

    from repro.partition import evaluate_partition

    topology = _topology(args.gpus, args.topology)
    workload = Workload(args.dataset, "gcn", topology)
    cache_stats = None
    plan_source = "planned"
    if args.strategy != "spst" or args.plan_cache:
        from repro.api import DGCLSession

        session = DGCLSession(topology, strategy=args.strategy,
                              plan_cache=args.plan_cache)
        start = time.perf_counter()
        plan = session.build_comm_info(workload.graph).plan
        planning_seconds = time.perf_counter() - start
        plan_source = session.plan_source
        if session.plan_cache is not None:
            cache_stats = session.plan_cache.stats.as_dict()
    else:
        start = time.perf_counter()
        plan = workload.spst_plan
        planning_seconds = time.perf_counter() - start
    bpu = workload.boundary_bytes()[0]
    if args.json:
        payload = {
            "dataset": args.dataset,
            "gpus": args.gpus,
            "topology": args.topology,
            "strategy": args.strategy,
            "plan_source": plan_source,
            "plan_cache": cache_stats,
            "graph": {
                "num_vertices": workload.graph.num_vertices,
                "num_edges": workload.graph.num_edges,
            },
            "partition": {
                "num_parts": workload.partition.num_parts,
                "edge_cut": int(workload.partition.edge_cut),
                "imbalance": float(workload.partition.imbalance),
            },
            "plan": {
                "num_tuples": len(plan.tuples()),
                "volume_by_kind": {
                    str(k): float(v)
                    for k, v in plan.volume_by_kind().items()
                },
                "estimated_allgather_seconds": float(plan.estimated_cost(bpu)),
            },
            "planning_wall_seconds": planning_seconds,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"graph:     {workload.graph}")
        metrics = evaluate_partition(
            workload.graph, workload.partition.assignment, workload.topology
        )
        print("partition:")
        for line in metrics.summary().splitlines():
            print(f"  {line}")
        print(f"relation:  {workload.relation}")
        print(f"plan:      {plan}  ({plan_source} in {planning_seconds:.2f}s)")
        if cache_stats is not None:
            print(f"           plan cache: {cache_stats}")
        print(f"           volume by kind: "
              f"{ {str(k): v for k, v in plan.volume_by_kind().items()} }")
        print(f"           estimated allgather cost: "
              f"{plan.estimated_cost(bpu) * 1e6:.2f} us")
    if args.output:
        from repro.core.serialize import save_plan

        save_plan(plan, args.output)
        print(f"saved to {args.output}",
              file=sys.stderr if args.json else sys.stdout)
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """``tune``: cost-guided scheme selection, optionally cached."""
    from repro.graph.datasets import load_dataset

    topology = _topology(args.gpus, args.topology)
    graph = load_dataset(args.dataset, seed=0)
    driver = None
    if args.driver != "auto":
        from repro.autotune import ExhaustiveSearch, SuccessiveHalving

        driver = (ExhaustiveSearch() if args.driver == "exhaustive"
                  else SuccessiveHalving())

    report = None
    plan_source = None
    cache_stats = None
    if args.plan_cache:
        # Through a session the winning plan persists: the second run
        # with the same inputs skips tuning *and* planning entirely.
        from repro.api import DGCLSession

        session = DGCLSession(topology, strategy="auto",
                              plan_cache=args.plan_cache)
        tune_kwargs = {"model_name": args.model, "dataset": args.dataset}
        if driver is not None:
            tune_kwargs["driver"] = driver
        start = time.perf_counter()
        session.build_comm_info(graph, tune_kwargs=tune_kwargs)
        seconds = time.perf_counter() - start
        report = session.tune_report
        plan_source = session.plan_source
        cache_stats = session.plan_cache.stats.as_dict()
    else:
        from repro.autotune import AutoTuner

        tuner = AutoTuner(graph, topology, model_name=args.model,
                          dataset=args.dataset, driver=driver)
        start = time.perf_counter()
        report = tuner.tune()
        seconds = time.perf_counter() - start

    if args.json:
        payload = {
            "dataset": args.dataset,
            "model": args.model,
            "gpus": args.gpus,
            "topology": args.topology,
            "wall_seconds": seconds,
            "plan_source": plan_source,
            "plan_cache": cache_stats,
            "report": report.as_dict() if report is not None else None,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if report is not None:
        print(report.summary())
    if plan_source is not None:
        skipped = " (tuning and planning skipped)" if report is None else ""
        print(f"plan source: {plan_source}{skipped}")
        print(f"plan cache:  {cache_stats}")
    print(f"wall time:   {seconds:.2f}s")
    return 0


def _trace_telemetry(path: Optional[str], metrics: bool = True) -> Telemetry:
    """A tracer (and metrics) for an ``--emit-trace PATH`` run; a
    disarmed handle without a path."""
    if not path:
        return Telemetry()
    from repro.obs import MetricsRegistry, Tracer

    return Telemetry(tracer=Tracer(),
                     metrics=MetricsRegistry() if metrics else None)


def _write_trace(telemetry: Telemetry, path: str, file=None) -> None:
    """Write ``--emit-trace``'s Chrome trace and report its span count."""
    from repro.obs import write_chrome_trace

    write_chrome_trace(telemetry.tracer, path, metrics=telemetry.metrics)
    print(f"wrote {len(telemetry.tracer.events())} spans to {path}",
          file=file)


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.baselines import SCHEMES, Workload, evaluate_dgcl_r, evaluate_scheme

    telemetry = _trace_telemetry(args.emit_trace)
    topology = _topology(args.gpus, args.topology)
    workload = Workload(args.dataset, args.model, topology)
    if args.scheme == "auto":
        # Tune first, then evaluate exactly what the tuner picked (its
        # partitioner/chunking/method knobs included).
        from repro.autotune import AutoTuner

        report = AutoTuner(workload.graph, topology, model_name=args.model,
                           dataset=args.dataset).tune()
        picked = report.candidate
        print(f"auto-tuner picked: {picked.label()}",
              file=sys.stderr if args.json else sys.stdout)
        workload = Workload(args.dataset, args.model, topology,
                            partitioner=picked.partitioner,
                            chunks_per_class=picked.chunks_per_class)
        results = [
            evaluate_scheme(workload, scheme=picked.strategy,
                            telemetry=telemetry, method=picked.method,
                            staleness=picked.staleness)
        ]
    else:
        schemes = [args.scheme] if args.scheme else list(SCHEMES)
        results = [
            evaluate_scheme(workload, scheme=scheme, telemetry=telemetry)
            for scheme in schemes
        ]
    if topology.num_machines() > 1 and not args.scheme:
        r = evaluate_dgcl_r(workload)
        if r.ok:
            results.append(r)
    if args.json:
        payload = {
            "dataset": args.dataset,
            "model": args.model,
            "gpus": args.gpus,
            "topology": args.topology,
            "schemes": [
                {
                    "scheme": r.scheme,
                    "status": r.status,
                    "epoch_ms": r.ms() if r.ok else None,
                    "comm_ms": r.ms("comm_time") if r.ok else None,
                    "compute_ms": r.ms("compute_time") if r.ok else None,
                    "detail": {k: float(v) for k, v in r.detail.items()},
                }
                for r in results
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{'scheme':14s} {'epoch(ms)':>10s} {'comm(ms)':>9s} "
              f"{'compute(ms)':>12s}  status")
        for r in results:
            if r.ok:
                print(f"{r.scheme:14s} {r.ms():>10.3f} "
                      f"{r.ms('comm_time'):>9.3f} "
                      f"{r.ms('compute_time'):>12.3f}  ok")
            else:
                print(f"{r.scheme:14s} {'-':>10s} {'-':>9s} {'-':>12s}  "
                      f"{r.status}")
    if args.emit_trace:
        _write_trace(telemetry, args.emit_trace,
                     file=sys.stderr if args.json else sys.stdout)
    return 0


def _parse_fanouts(text: str):
    """``--fanouts 10,5`` -> tuple of per-layer ints."""
    try:
        fanouts = tuple(int(f) for f in text.split(",") if f.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"fanouts look like N,N,..., got {text!r}"
        )
    if not fanouts:
        raise argparse.ArgumentTypeError("need at least one fanout")
    return fanouts


def cmd_sample(args: argparse.Namespace) -> int:
    """``sample``: stream sampled batches through per-batch planning."""
    from repro.api import DGCLSession
    from repro.graph.datasets import load_dataset

    topology = _topology(args.gpus, args.topology)
    graph = load_dataset(args.dataset, seed=0)
    session = DGCLSession(topology, plan_cache=args.plan_cache)
    kwargs = {"batch_size": args.batch_size, "seed": args.seed}
    if args.khop:
        kwargs["hops"] = args.khop
    else:
        kwargs["fanouts"] = args.fanouts
    loader, sampler, planner = session.sample_loader(graph, **kwargs)
    start = time.perf_counter()
    batch_rows = []
    for epoch in range(args.epochs):
        base = epoch * loader.num_batches
        for i, seeds in enumerate(loader.batches(epoch)):
            batch = sampler.sample(seeds, batch_index=base + i)
            planned = planner.plan_batch(batch)
            batch_rows.append(planned)
    wall = time.perf_counter() - start
    stats = planner.stats.as_dict()
    cache_stats = (
        session.plan_cache.stats.as_dict()
        if session.plan_cache is not None else None
    )
    if args.json:
        print(json.dumps({
            "dataset": args.dataset,
            "gpus": args.gpus,
            "topology": args.topology,
            "batch_size": args.batch_size,
            "fanouts": None if args.khop else list(args.fanouts),
            "khop": args.khop,
            "epochs": args.epochs,
            "planner": stats,
            "plan_cache": cache_stats,
            "wall_seconds": wall,
        }, indent=2, sort_keys=True))
        return 0
    mode = (f"k-hop k={args.khop}" if args.khop
            else f"fanouts={','.join(map(str, args.fanouts))}")
    print(f"sampled {stats['batches']} batch(es) of {args.batch_size} "
          f"seeds on {args.dataset} ({mode}, {args.epochs} epoch(s)):")
    for planned in batch_rows[: args.show]:
        print(f"  {planned.subgraph}  plan={planned.plan_source} "
              f"({planned.wall_seconds * 1e3:.2f} ms)")
    if len(batch_rows) > args.show:
        print(f"  ... {len(batch_rows) - args.show} more")
    print(f"plan sources: {stats['by_source']}")
    print(f"sustained planning: {stats['plans_per_second']:.1f} plans/s "
          f"({stats['wall_seconds']:.2f}s planning of {wall:.2f}s total)")
    if cache_stats is not None:
        print(f"plan cache: {cache_stats}")
    return 0


def _train_minibatch(args, workload, spec, features, labels) -> int:
    """``train --minibatch``: sampled training with per-batch plans."""
    import numpy as np

    from repro.api import DGCLSession
    from repro.gnn import MiniBatchOracle, MiniBatchTrainer, build_model

    session = DGCLSession(workload.topology, plan_cache=args.plan_cache)
    loader, sampler, planner = session.sample_loader(
        workload.graph, batch_size=args.batch_size, fanouts=args.fanouts,
    )
    model = build_model(args.model, spec.feature_size, spec.hidden_size,
                        spec.num_classes, seed=0)
    trainer = MiniBatchTrainer(
        model, features, labels, sampler, loader, planner, lr=args.lr,
    )
    print(f"mini-batch training {args.model} on {args.dataset} across "
          f"{args.gpus} simulated GPUs "
          f"(batch={args.batch_size}, "
          f"fanouts={','.join(map(str, args.fanouts))}):")
    for epoch in range(args.epochs):
        results = trainer.train_epoch(epoch)
        mean = float(np.mean([r.loss for r in results]))
        print(f"  epoch {epoch}: mean batch loss = {mean:.4f} "
              f"({len(results)} batches)")
    stats = planner.stats.as_dict()
    print(f"plan sources: {stats['by_source']} "
          f"({stats['plans_per_second']:.1f} plans/s)")
    # Parity: replay the identical batch stream on one device.
    oracle = MiniBatchOracle(
        build_model(args.model, spec.feature_size, spec.hidden_size,
                    spec.num_classes, seed=0),
        features, labels, lr=args.lr,
    )
    for epoch in range(args.epochs):
        base = epoch * loader.num_batches
        for i, seeds in enumerate(loader.batches(epoch)):
            oracle.run_batch(sampler.sample(seeds, batch_index=base + i))
    ok = np.allclose(oracle.loss_history, trainer.loss_history, rtol=1e-4)
    print(f"matches single-device oracle: {ok}")
    return 0 if ok else 1


def cmd_train(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.baselines import Workload
    from repro.gnn import SingleDeviceTrainer, build_model
    from repro.gnn.distributed import DistributedTrainer
    from repro.graph.datasets import synthetic_features, synthetic_labels

    topology = _topology(args.gpus, args.topology)
    workload = Workload(args.dataset, args.model, topology)
    spec = workload.spec
    features = synthetic_features(workload.graph, spec.feature_size)
    labels = synthetic_labels(workload.graph, spec.num_classes)
    if args.fault_spec:
        return _train_with_faults(args, workload, spec, features, labels)
    if args.minibatch:
        return _train_minibatch(args, workload, spec, features, labels)
    relation, plan = workload.relation, None
    if args.strategy != "spst" or args.plan_cache:
        from repro.api import DGCLSession

        session = DGCLSession(topology, strategy=args.strategy,
                              plan_cache=args.plan_cache)
        plan = session.build_comm_info(workload.graph).plan
        relation = session.relation
        print(f"plan: {plan} ({session.plan_source})")
    else:
        plan = workload.spst_plan
    telemetry = _trace_telemetry(args.emit_trace)
    dist = DistributedTrainer(
        relation, plan, workload.model, features,
        labels, lr=args.lr, telemetry=telemetry,
    )
    print(f"training {args.model} on {args.dataset} across "
          f"{args.gpus} simulated GPUs:")
    for epoch in range(args.epochs):
        result = dist.run_epoch()
        print(f"  epoch {epoch}: loss = {result.loss:.4f}")
    if args.emit_trace:
        _write_trace(telemetry, args.emit_trace)
    reference = SingleDeviceTrainer(
        workload.graph,
        build_model(args.model, spec.feature_size, spec.hidden_size,
                    spec.num_classes, seed=0),
        features, labels, lr=args.lr,
    )
    ref = reference.train(args.epochs)
    ok = np.allclose(ref, dist.loss_history, rtol=1e-4)
    print(f"matches single-device reference: {ok}")
    return 0 if ok else 1


def _train_with_faults(args, workload, spec, features, labels) -> int:
    """``train --fault-spec``: chaos-injected resilient training."""
    import numpy as np

    from repro.faults import FaultPlan
    from repro.gnn import ResilientTrainer, SingleDeviceTrainer, build_model

    try:
        fault_plan = FaultPlan.load(args.fault_spec)
    except FileNotFoundError:
        print(f"error: fault spec not found: {args.fault_spec}",
              file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid fault spec {args.fault_spec}: {exc}",
              file=sys.stderr)
        return 2
    print(f"fault plan: {fault_plan}")
    # Spans only: the resilient trainer records no metrics.
    telemetry = _trace_telemetry(args.emit_trace, metrics=False)
    trainer = ResilientTrainer(
        workload.graph,
        workload.topology,
        workload.model,
        features,
        labels,
        lr=args.lr,
        fault_plan=fault_plan,
        checkpoint_every=args.checkpoint_every,
        telemetry=telemetry,
    )
    report = trainer.train(args.epochs)
    for epoch, loss in enumerate(report.losses):
        print(f"  epoch {epoch}: loss = {loss:.4f}")
    print(report.summary())
    print(report.log.summary())
    if args.emit_trace:
        _write_trace(telemetry, args.emit_trace)
    reference = SingleDeviceTrainer(
        workload.graph,
        build_model(args.model, spec.feature_size, spec.hidden_size,
                    spec.num_classes, seed=0),
        features, labels, lr=args.lr,
    )
    ref = reference.train(args.epochs)
    ok = np.allclose(ref, report.losses, rtol=1e-4)
    print(f"matches single-device reference: {ok}")
    return 0 if ok else 1


def _parse_mix(text: Optional[str]):
    """``--mix flag-drop=2,link-loss=0`` -> weight dict (None if unset)."""
    if not text:
        return None
    mix = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"mix entries look like kind=weight, got {part!r}"
            )
        kind, _, weight = part.partition("=")
        mix[kind.strip()] = float(weight)
    return mix


def cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos``: randomized soak, oracle checks, shrink + replay."""
    import os

    from repro.chaos import OracleViolation, SoakConfig, SoakRunner, shrink_plan
    from repro.faults import FaultPlan, FaultSpecError

    config = SoakConfig(
        gpus=args.gpus,
        topology=args.topology,
        density=args.density,
        burstiness=args.burstiness,
        correlated=args.correlated,
        mix=args.mix,
        train_every=args.train_every,
        sample_every=args.sample_every,
        elastic_every=args.elastic_every,
        elastic_epochs=args.elastic_epochs,
        serve_every=args.serve_every,
        serve_scenario=args.serve_scenario,
    )
    runner = SoakRunner(config)

    if args.replay:
        try:
            plan = FaultPlan.load(args.replay)
        except FileNotFoundError:
            print(f"error: plan not found: {args.replay}", file=sys.stderr)
            return 2
        except FaultSpecError as exc:
            print(f"error: invalid fault plan {args.replay}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"replaying {plan} from {args.replay}")
        violations, obs = runner.check_plan(plan)
        if args.train_every:
            violations += runner.check_training(plan)
        if violations:
            err = OracleViolation(violations)
            print(f"oracle violation reproduced: {err}")
            return 1
        outcome = "crash-abort" if obs.error else "ok"
        print(f"replay passed every oracle ({outcome}, "
              f"total {obs.total_time * 1e6:.3f} us)")
        return 0

    report = runner.run(args.seeds, start_seed=args.start_seed)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    if args.summary:
        from repro.obs import write_soak_summary

        write_soak_summary(report, args.summary)
        print(f"wrote soak summary to {args.summary}",
              file=sys.stderr if args.json else sys.stdout)
    if report.passed:
        return 0

    # Shrink every failing seed to its minimal schedule and save the
    # replayable JSON artifacts (nightly CI uploads these).
    os.makedirs(args.artifacts_dir, exist_ok=True)
    for result in report.failures:
        oracles = {v.oracle for v in result.violations}

        def failing(candidate, _oracles=oracles):
            vs, _ = runner.check_plan(candidate)
            return any(v.oracle in _oracles for v in vs)

        path = os.path.join(
            args.artifacts_dir, f"seed-{result.seed}.min.json"
        )
        try:
            shrunk = shrink_plan(result.plan, failing,
                                 max_runs=args.shrink_budget)
        except ValueError:
            # Training-only or flaky-free failure: the protocol-level
            # predicate can't see it; save the unshrunk plan instead.
            result.plan.save(path)
            print(f"  seed {result.seed}: saved unshrunk plan "
                  f"({len(result.plan)} events) to {path}",
                  file=sys.stderr if args.json else sys.stdout)
            continue
        shrunk.plan.save(path)
        print(f"  seed {result.seed}: shrunk {shrunk.original_events} -> "
              f"{shrunk.events} event(s) in {shrunk.runs} runs; "
              f"replay with: repro chaos --replay {path}",
              file=sys.stderr if args.json else sys.stdout)
    return 1


def _parse_actions(texts):
    """``--action 2:shrink:6,7`` -> (epoch, kind, devices) tuples."""
    actions = []
    for text in texts or ():
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"actions look like EPOCH:KIND:DEV[,DEV...], got {text!r}"
            )
        epoch_text, kind, devs_text = parts
        kind = kind.strip().lower()
        if kind not in ("grow", "shrink"):
            raise argparse.ArgumentTypeError(
                f"action kind must be grow or shrink, got {kind!r}"
            )
        try:
            epoch = int(epoch_text)
            devices = tuple(
                int(d) for d in devs_text.split(",") if d.strip()
            )
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"actions look like EPOCH:KIND:DEV[,DEV...], got {text!r}"
            )
        actions.append((epoch, kind, devices))
    return actions


def _elastic_place(args) -> int:
    """``elastic --place``: contention-aware vs naive job placement."""
    from repro.elastic import ElasticScheduler, JobSpec

    sizes = [int(s) for s in args.place.split(",") if s.strip()]
    jobs = [
        JobSpec(name=f"job-{chr(ord('a') + i)}", devices=size)
        for i, size in enumerate(sizes)
    ]
    scheduler = ElasticScheduler(_topology(args.gpus, args.topology))
    aware = scheduler.place(jobs)
    naive = scheduler.naive_place(jobs)
    if args.json:
        print(json.dumps({
            "gpus": args.gpus,
            "topology": args.topology,
            "jobs": [{"name": j.name, "devices": j.devices} for j in jobs],
            "aware": aware.as_dict(),
            "naive": naive.as_dict(),
        }, indent=2, sort_keys=True))
        return 0
    print(f"placing {len(jobs)} job(s) on {args.gpus} devices:")
    for label, placement in (("aware", aware), ("naive", naive)):
        print(f"  {label}:")
        for job, devs in sorted(placement.assignments.items()):
            print(f"    {job}: {list(devs)}")
        print(f"    {placement.interference.summary()}")
    saved = naive.interference.total - aware.interference.total
    print(f"interference avoided: {saved * 1e6:.3f} us per probe round")
    return 0


def cmd_elastic(args: argparse.Namespace) -> int:
    """``elastic``: planned grow/shrink handoffs, or a placement demo."""
    import numpy as np

    from repro.baselines import Workload
    from repro.elastic import ElasticController, ElasticPolicy
    from repro.gnn import SingleDeviceTrainer, build_model
    from repro.graph.datasets import synthetic_features, synthetic_labels

    if args.place:
        return _elastic_place(args)

    try:
        actions = _parse_actions(args.action)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    topology = _topology(args.gpus, args.topology)
    workload = Workload(args.dataset, args.model, topology)
    spec = workload.spec
    features = synthetic_features(workload.graph, spec.feature_size)
    labels = synthetic_labels(workload.graph, spec.num_classes)
    devices = None
    if args.devices:
        devices = [int(d) for d in args.devices.split(",") if d.strip()]
    trainer = ElasticController(
        workload.graph,
        topology,
        workload.model,
        features,
        labels,
        devices=devices,
        elastic=ElasticPolicy(min_devices=args.min_devices),
        lr=args.lr,
    )
    report = trainer.train_with_schedule(args.epochs, actions)
    reference = SingleDeviceTrainer(
        workload.graph,
        build_model(args.model, spec.feature_size, spec.hidden_size,
                    spec.num_classes, seed=0),
        features, labels, lr=args.lr,
    )
    ref = reference.train(args.epochs)
    ok = bool(np.allclose(ref, report.losses, rtol=1e-4))
    if args.json:
        print(json.dumps({
            "dataset": args.dataset,
            "model": args.model,
            "gpus": args.gpus,
            "epochs": args.epochs,
            "losses": [float(x) for x in report.losses],
            "transitions": [t.as_dict() for t in trainer.transitions],
            "interventions": trainer.log.interventions(),
            "gradient_parity": ok,
        }, indent=2, sort_keys=True))
        return 0 if ok else 1
    print(f"elastic training of {args.model} on {args.dataset} "
          f"({args.gpus}-device topology):")
    for epoch, loss in enumerate(report.losses):
        print(f"  epoch {epoch}: loss = {loss:.4f}")
    for t in trainer.transitions:
        print(f"  {t.summary()}")
    print(f"interventions: {trainer.log.interventions()}")
    print(f"matches single-device reference: {ok}")
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: one online-inference campaign of a named scenario."""
    from repro.serve import build_scenario

    fault_plan = None
    if args.fault_spec:
        from repro.faults import FaultPlan, FaultSpecError

        try:
            fault_plan = FaultPlan.load(args.fault_spec)
        except FileNotFoundError:
            print(f"error: fault spec not found: {args.fault_spec}",
                  file=sys.stderr)
            return 2
        except FaultSpecError as exc:
            print(f"error: invalid fault spec {args.fault_spec}: {exc}",
                  file=sys.stderr)
            return 2
    session = build_scenario(
        args.scenario,
        gpus=args.gpus,
        topology=args.topology,
        horizon_scale=args.horizon_scale,
    )
    report = session.run(seed=args.seed, fault_plan=fault_plan)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    # Silent drops are the one unforgivable outcome.
    return 0 if report.unaccounted == 0 else 1


def cmd_profile(args: argparse.Namespace) -> int:
    """``profile``: audited + recorded evaluation, rendered profile."""
    from repro.baselines import Workload, evaluate_scheme
    from repro.obs import (
        CostModelAuditor,
        MetricsRegistry,
        RunProfile,
        render_profile,
        write_profile,
    )

    metrics = MetricsRegistry()
    telemetry = Telemetry.full(metrics=metrics, auditor=CostModelAuditor(
        threshold=args.threshold, metrics=metrics))
    topology = _topology(args.gpus, args.topology)
    workload = Workload(args.dataset, args.model, topology)
    result = evaluate_scheme(workload, scheme=args.scheme,
                             telemetry=telemetry)
    if not result.ok:
        print(f"error: {args.scheme} on {args.dataset} is {result.status}",
              file=sys.stderr)
        return 1
    profile = RunProfile.from_recorder(
        telemetry.recorder, audit=telemetry.auditor, meta={
        "source": "cli",
        "dataset": args.dataset,
        "model": args.model,
        "gpus": args.gpus,
        "topology": args.topology,
        "scheme": args.scheme,
        "epoch_ms": result.ms(),
    })
    if args.json:
        print(json.dumps(profile.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_profile(profile, top=args.top))
    if args.output:
        write_profile(profile, args.output)
        print(f"wrote profile to {args.output}",
              file=sys.stderr if args.json else sys.stdout)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``report``: render one saved profile, or diff two of them."""
    from repro.obs import (
        diff_profiles,
        load_profile,
        render_diff,
        render_profile,
    )

    try:
        base = load_profile(args.profile)
    except FileNotFoundError:
        print(f"error: profile not found: {args.profile}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.against is None:
        if args.json:
            print(json.dumps(base, indent=2, sort_keys=True))
        else:
            print(render_profile(base, top=args.top))
        return 0
    try:
        cand = load_profile(args.against)
    except FileNotFoundError:
        print(f"error: profile not found: {args.against}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_profiles(base, cand)
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(render_diff(diff, top=args.top))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: one traced run, exported for Perfetto or as JSONL."""
    from repro.baselines import Workload, evaluate_scheme
    from repro.obs import stats_table, write_chrome_trace, write_jsonl

    telemetry = _trace_telemetry(args.output)
    tracer, metrics = telemetry.tracer, telemetry.metrics
    workload = Workload(args.dataset, args.model,
                        _topology(args.gpus, args.topology))
    fault_log = None
    if args.train:
        from repro.gnn.distributed import DistributedTrainer
        from repro.graph.datasets import synthetic_features, synthetic_labels

        spec = workload.spec
        features = synthetic_features(workload.graph, spec.feature_size)
        labels = synthetic_labels(workload.graph, spec.num_classes)
        trainer = DistributedTrainer(
            workload.relation, workload.spst_plan, workload.model,
            features, labels, telemetry=telemetry,
        )
        for _ in range(args.epochs):
            trainer.run_epoch()
        print(f"traced {args.epochs} training epoch(s) of {args.model} on "
              f"{args.dataset}: {tracer.duration() * 1e3:.3f} ms simulated")
    else:
        result = evaluate_scheme(workload, scheme=args.scheme,
                                 telemetry=telemetry)
        print(f"traced {args.scheme} evaluation on {args.dataset}: "
              f"{result.status}"
              + (f", epoch {result.ms():.3f} ms" if result.ok else ""))
    if args.format == "jsonl":
        write_jsonl(tracer, args.output, fault_log=fault_log,
                    metrics=metrics)
    else:
        write_chrome_trace(tracer, args.output, metrics=metrics)
    print(f"wrote {len(tracer.events())} spans "
          f"({len(tracer.tracks())} tracks) to {args.output}")
    print(stats_table(metrics))
    return 0


def _positive_int(value: str) -> int:
    """argparse type: integer that must be >= 1."""
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DGCL reproduction (EuroSys 2021) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list datasets, topologies and models")

    def common(p):
        p.add_argument("--dataset", default="web-google",
                       choices=sorted(DATASETS))
        p.add_argument("--gpus", type=int, default=8)
        p.add_argument("--topology", default="dgx",
                       choices=["dgx", "pcie"])
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="library log level (-v info, -vv debug)")

    p = sub.add_parser("plan", help="partition + plan statistics")
    common(p)
    p.add_argument("--strategy", default="spst",
                   choices=_strategy_choices(),
                   help="planning strategy (auto = cost-guided tuner)")
    p.add_argument("--plan-cache", default=None, metavar="DIR",
                   help="persistent plan-cache directory")
    p.add_argument("--output", help="save the plan as .npz")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output on stdout")

    p = sub.add_parser("tune",
                       help="auto-tune the communication scheme")
    common(p)
    p.add_argument("--model", default="gcn")
    p.add_argument("--driver", default="auto",
                   choices=["auto", "exhaustive", "halving"],
                   help="search driver (auto picks by space size)")
    p.add_argument("--plan-cache", default=None, metavar="DIR",
                   help="persist the winning plan; a second identical "
                        "run skips tuning and planning")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output on stdout")

    p = sub.add_parser("evaluate", help="simulate one epoch per scheme")
    common(p)
    p.add_argument("--model", default="gcn")
    p.add_argument("--scheme", default=None,
                   choices=_scheme_choices(),
                   help="one scheme only, or 'auto' to evaluate the "
                        "tuner's pick (default: the paper's four)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output on stdout")
    p.add_argument("--emit-trace", default=None, metavar="PATH",
                   help="write a Chrome trace of the priced collectives")

    p = sub.add_parser("train", help="run real distributed epochs")
    common(p)
    p.add_argument("--model", default="gcn")
    p.add_argument("--strategy", default="spst",
                   choices=_strategy_choices(),
                   help="planning strategy for the training plan")
    p.add_argument("--plan-cache", default=None, metavar="DIR",
                   help="persistent plan-cache directory")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--minibatch", action="store_true",
                   help="sampled mini-batch training with per-batch "
                        "communication plans (checks oracle parity)")
    p.add_argument("--batch-size", type=_positive_int, default=64,
                   help="seeds per mini-batch with --minibatch")
    p.add_argument("--fanouts", type=_parse_fanouts, default=(10, 10),
                   metavar="N,N,...",
                   help="per-layer neighbor fanouts with --minibatch")
    p.add_argument("--fault-spec", default=None, metavar="FILE",
                   help="JSON FaultPlan to inject (chaos training)")
    p.add_argument("--checkpoint-every", type=_positive_int, default=2,
                   help="epochs between recovery checkpoints")
    p.add_argument("--emit-trace", default=None, metavar="PATH",
                   help="write a Chrome trace of the training run")

    p = sub.add_parser("sample",
                       help="stream sampled mini-batches through "
                            "per-batch communication planning")
    common(p)
    p.add_argument("--batch-size", type=_positive_int, default=64,
                   help="seed vertices per batch")
    p.add_argument("--fanouts", type=_parse_fanouts, default=(10, 10),
                   metavar="N,N,...",
                   help="per-layer neighbor fanouts (default 10,10)")
    p.add_argument("--khop", type=_positive_int, default=None, metavar="K",
                   help="full k-hop expansion instead of fanout sampling")
    p.add_argument("--epochs", type=_positive_int, default=1,
                   help="epochs (shuffled batch streams) to plan")
    p.add_argument("--seed", type=int, default=0,
                   help="loader/sampler/planner seed")
    p.add_argument("--plan-cache", default=None, metavar="DIR",
                   help="persistent plan-cache directory (batches "
                        "fingerprint into it; repeats are free)")
    p.add_argument("--show", type=_positive_int, default=8,
                   help="batches to print individually")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output on stdout")

    p = sub.add_parser("chaos",
                       help="randomized fault soak with invariant oracles")
    p.add_argument("--seeds", type=_positive_int, default=50,
                   help="number of random fault schedules to soak")
    p.add_argument("--start-seed", type=int, default=0)
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--topology", default="dgx", choices=["dgx", "pcie"])
    p.add_argument("--density", type=float, default=4.0,
                   help="expected fault events per schedule")
    p.add_argument("--burstiness", type=float, default=0.0,
                   help="0..1: cluster fault times into bursts")
    p.add_argument("--correlated", action="store_true",
                   help="link faults target one victim device's wires")
    p.add_argument("--mix", type=_parse_mix, default=None,
                   metavar="KIND=W,...",
                   help="override fault-kind weights, e.g. "
                        "'link-loss=2,flag-duplicate=0'")
    p.add_argument("--train-every", type=int, default=0, metavar="N",
                   help="every Nth seed also checks gradient parity")
    p.add_argument("--sample-every", type=int, default=0, metavar="N",
                   help="every Nth seed also runs sampled mini-batch "
                        "training under the faults and checks the "
                        "minibatch-parity oracle")
    p.add_argument("--elastic-every", type=int, default=0, metavar="N",
                   help="every Nth seed interleaves a seeded random "
                        "grow/shrink schedule with the faults")
    p.add_argument("--elastic-epochs", type=_positive_int, default=4,
                   help="training epochs per elastic seed")
    p.add_argument("--serve-every", type=int, default=0, metavar="N",
                   help="every Nth seed also runs a scaled-down serving "
                        "campaign under the same fault plan and checks "
                        "the serving oracles")
    p.add_argument("--serve-scenario", default="bursty",
                   choices=["poisson", "bursty", "diurnal", "hotspot",
                            "overload"],
                   help="serving scenario used with --serve-every")
    p.add_argument("--summary", default=None, metavar="PATH",
                   help="write the soak summary JSON artifact")
    p.add_argument("--artifacts-dir", default="chaos-failures",
                   metavar="DIR",
                   help="where minimized failing plans are saved")
    p.add_argument("--shrink-budget", type=_positive_int, default=150,
                   help="max protocol runs per failing-seed shrink")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="re-run one saved FaultPlan against the oracles")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="library log level (-v info, -vv debug)")

    p = sub.add_parser("elastic",
                       help="planned grow/shrink handoffs, or a "
                            "contention-aware placement demo")
    common(p)
    p.add_argument("--model", default="gcn")
    p.add_argument("--epochs", type=_positive_int, default=6)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--devices", default=None, metavar="D,D,...",
                   help="initially active device subset (default: all)")
    p.add_argument("--min-devices", type=_positive_int, default=1,
                   help="policy floor for shrink transitions")
    p.add_argument("--action", action="append", default=None,
                   metavar="EPOCH:KIND:DEV[,DEV...]",
                   help="a scheduled transition, e.g. 2:shrink:6,7 "
                        "(repeatable)")
    p.add_argument("--place", default=None, metavar="N,N,...",
                   help="instead of training, place jobs of these "
                        "sizes and compare contention-aware vs naive "
                        "placement")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output on stdout")

    p = sub.add_parser("serve",
                       help="online inference serving campaign with "
                            "SLO-aware admission and degradation")
    p.add_argument("--scenario", default="poisson",
                   choices=["poisson", "bursty", "diurnal", "hotspot",
                            "overload"],
                   help="named workload (see docs/serving.md)")
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--topology", default="dgx", choices=["dgx", "pcie"])
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (arrivals and seed-vertex draws)")
    p.add_argument("--horizon-scale", type=float, default=1.0,
                   help="stretch or shrink the campaign horizon")
    p.add_argument("--fault-spec", default=None, metavar="FILE",
                   help="JSON FaultPlan to inject during serving")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="library log level (-v info, -vv debug)")

    p = sub.add_parser("profile",
                       help="audited evaluation with a rendered profile")
    common(p)
    p.add_argument("--model", default="gcn")
    p.add_argument("--scheme", default="dgcl",
                   help="scheme to profile (default: dgcl)")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="|relative error| above which a stage is flagged")
    p.add_argument("--top", type=_positive_int, default=5,
                   help="hottest connections to show")
    p.add_argument("--json", action="store_true",
                   help="print the profile document on stdout")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="also save the profile JSON for `repro report`")

    p = sub.add_parser("report",
                       help="render a saved profile, or diff two")
    p.add_argument("profile", help="profile JSON written by `repro profile`")
    p.add_argument("--against", default=None, metavar="PATH",
                   help="second profile: print base-vs-candidate diff")
    p.add_argument("--top", type=_positive_int, default=10,
                   help="rows to show per diff section")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output on stdout")
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="library log level (-v info, -vv debug)")

    p = sub.add_parser("trace",
                       help="run one traced evaluation and export it")
    common(p)
    p.add_argument("--model", default="gcn")
    p.add_argument("--scheme", default="dgcl",
                   help="scheme to trace (default: dgcl)")
    p.add_argument("--train", action="store_true",
                   help="trace real training epochs instead of the "
                        "scheme evaluation")
    p.add_argument("--epochs", type=_positive_int, default=1,
                   help="epochs to trace with --train")
    p.add_argument("--format", default="chrome",
                   choices=["chrome", "jsonl"])
    p.add_argument("--output", default="trace.json", metavar="PATH")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "verbose", 0):
        from repro.obs import console

        console.set_verbosity(min(args.verbose, console.DEBUG))
    handlers = {
        "info": cmd_info,
        "plan": cmd_plan,
        "tune": cmd_tune,
        "evaluate": cmd_evaluate,
        "train": cmd_train,
        "sample": cmd_sample,
        "trace": cmd_trace,
        "profile": cmd_profile,
        "report": cmd_report,
        "chaos": cmd_chaos,
        "elastic": cmd_elastic,
        "serve": cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
