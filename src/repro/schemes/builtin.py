"""Built-in scheme registrations — the registry's seed population.

Importing :mod:`repro.schemes` runs this module once, installing the
paper's four schemes, the two DGCL variants and the
communication-avoiding additions into the global
:class:`~repro.schemes.registry.SchemeRegistry`.  Cost functions wrap
the evaluation helpers in :mod:`repro.baselines.strategies` (imported
lazily — the baselines module itself dispatches through the registry,
so a top-level import would be circular).

The cost functions all share the :class:`~repro.schemes.registry.
EvalContext` calling convention: ``cost_fn(workload, ctx) ->
SchemeResult``.
"""

from __future__ import annotations

from typing import Callable

from repro.schemes.registry import EvalContext, SchemeSpec, global_registry

__all__ = ["generic_plan_cost_fn"]


def _cached_plan(workload, name: str):
    """Build (once) the named scheme's plan for a workload's relation.

    Memoised process-wide next to the SPST/p2p plans, so tuner rungs do
    not rebuild it.
    """
    from repro.baselines.strategies import _memoised

    def build():
        spec = global_registry().get(name)
        return spec.build_plan(
            workload.relation, workload.topology,
            chunks_per_class=workload.chunks_per_class, seed=workload.seed,
        )

    return _memoised("scheme_plan", workload._plan_key + (name,), build)


def generic_plan_cost_fn(name: str) -> Callable:
    """The default pricing for a registered plan-based scheme.

    Compiles the scheme's plan over the workload's relation and prices
    it with the partitioned-scheme evaluation (forward allgathers +
    atomic gradient scatters + data-parallel weight sync) — the same
    path the paper's baselines use.  Custom schemes registered with
    only a ``builder=`` get this automatically.
    """

    def cost_fn(workload, ctx: EvalContext):
        from repro.baselines.strategies import _evaluate_partitioned

        return _evaluate_partitioned(
            workload, name, _cached_plan(workload, name), nonatomic=False,
            telemetry=ctx.telemetry, methods=ctx.methods,
            fidelity=ctx.fidelity,
        )

    return cost_fn


# ----------------------------------------------------------------------
# The paper's schemes and the DGCL variants
# ----------------------------------------------------------------------
def _spst_builder(relation, topology, *, chunks_per_class=4, seed=0,
                  staleness=0):
    from repro.core.spst import SPSTPlanner

    planner = SPSTPlanner(topology, granularity="chunk",
                          chunks_per_class=chunks_per_class, seed=seed)
    return planner.plan(relation)


def _p2p_builder(relation, topology, *, chunks_per_class=4, seed=0,
                 staleness=0):
    from repro.core.baseline_planners import peer_to_peer_plan

    return peer_to_peer_plan(relation, topology)


def _dgcl_cost(cache_features: bool):
    def cost_fn(workload, ctx: EvalContext):
        from repro.baselines.strategies import _evaluate_partitioned

        name = "dgcl-cache" if cache_features else "dgcl"
        return _evaluate_partitioned(
            workload, name, workload.spst_plan, nonatomic=True,
            cache_features=cache_features, telemetry=ctx.telemetry,
            methods=ctx.methods, fidelity=ctx.fidelity,
        )

    return cost_fn


def _p2p_cost(workload, ctx: EvalContext):
    from repro.baselines.strategies import _evaluate_partitioned

    return _evaluate_partitioned(
        workload, "peer-to-peer", workload.p2p_plan, nonatomic=False,
        telemetry=ctx.telemetry, methods=ctx.methods, fidelity=ctx.fidelity,
    )


def _swap_cost(workload, ctx: EvalContext):
    from repro.baselines.strategies import _evaluate_swap

    return _evaluate_swap(workload, telemetry=ctx.telemetry)


def _replication_cost(workload, ctx: EvalContext):
    from repro.baselines.strategies import _evaluate_replication

    return _evaluate_replication(workload)


def _dgcl_r_cost(workload, ctx: EvalContext):
    from repro.baselines.dgcl_r import evaluate_dgcl_r

    return evaluate_dgcl_r(workload)


# ----------------------------------------------------------------------
# Communication-avoiding additions (ROADMAP item 3)
# ----------------------------------------------------------------------
def _cagnet_cost(name: str):
    def cost_fn(workload, ctx: EvalContext):
        from repro.baselines.strategies import _evaluate_partitioned

        return _evaluate_partitioned(
            workload, name, _cached_plan(workload, name), nonatomic=False,
            telemetry=ctx.telemetry, methods=ctx.methods,
            fidelity=ctx.fidelity,
        )

    return cost_fn


def _distgnn_cost(workload, ctx: EvalContext):
    """Delayed aggregation: comm amortises over the refresh period.

    A refresh epoch pays the full exchange; the ``staleness`` epochs
    after it move zero bytes, so the *steady-state per-epoch* cost the
    tuner compares is ``comm / (staleness + 1)`` — weight sync stays
    per-epoch (weights update every epoch regardless).
    """
    from dataclasses import replace

    from repro.baselines.strategies import _evaluate_partitioned

    result = _evaluate_partitioned(
        workload, "distgnn-delayed", _cached_plan(workload, "distgnn-delayed"),
        nonatomic=False, telemetry=ctx.telemetry, methods=ctx.methods,
        fidelity=ctx.fidelity,
    )
    if not result.ok:
        return result
    period = ctx.staleness + 1
    detail = dict(result.detail)
    comm = result.comm_time / period
    detail.update(
        forward=detail.get("forward", 0.0) / period,
        backward=detail.get("backward", 0.0) / period,
        total=comm,
        staleness=float(ctx.staleness),
        refresh_period=float(period),
    )
    sync = detail.get("sync", 0.0)
    return replace(
        result,
        epoch_time=result.compute_time + comm + sync,
        comm_time=comm,
        detail=detail,
    )


def _register_builtins() -> None:
    registry = global_registry()
    if "dgcl" in registry:  # idempotent under importlib.reload
        return
    single_machine = lambda topology: topology.num_machines() == 1
    multi_machine = lambda topology: topology.num_machines() > 1

    def can_swap(topology) -> bool:
        # Host staging needs every device wired to CPU memory; simple
        # shapes (ring/torus/fully-connected) have no host paths.
        return single_machine(topology) and all(
            topology.has_host_staging(d)
            for d in range(topology.num_devices)
        )
    for spec in (
        SchemeSpec(
            name="dgcl", builder=_spst_builder, cost_fn=_dgcl_cost(False),
            aliases=("spst",), builtin=True, tunable_method=True,
            tunable_chunks=True,
            description="SPST-planned multicast trees (the paper's planner)",
        ),
        SchemeSpec(
            name="dgcl-cache", builder=_spst_builder,
            cost_fn=_dgcl_cost(True), builtin=True, tunable_method=True,
            tunable_chunks=True,
            description="SPST + cached remote layer-0 features (§3 opt. 1)",
        ),
        SchemeSpec(
            name="peer-to-peer", builder=_p2p_builder, cost_fn=_p2p_cost,
            aliases=("p2p",), builtin=True, tunable_method=True,
            description="direct concurrent per-pair transfers (ROC/Lux)",
        ),
        SchemeSpec(
            name="swap", cost_fn=_swap_cost, builtin=True,
            feasible=can_swap,
            description="NeuGraph host-memory staging (single machine)",
        ),
        SchemeSpec(
            name="replication", cost_fn=_replication_cost, builtin=True,
            description="K-hop closure replication, zero communication",
        ),
        SchemeSpec(
            name="dgcl-r", cost_fn=_dgcl_r_cost, builtin=True,
            tunable_chunks=True, feasible=multi_machine,
            description="machine-level replication + SPST inside (hybrid)",
        ),
        SchemeSpec(
            name="cagnet-1.5d", builtin=True,
            builder=_lazy("repro.schemes.cagnet", "cagnet_15d_plan"),
            cost_fn=_cagnet_cost("cagnet-1.5d"),
            description="CAGNET 1.5D systolic ring-relay broadcast",
        ),
        SchemeSpec(
            name="cagnet-2d", builtin=True,
            builder=_lazy("repro.schemes.cagnet", "cagnet_2d_plan"),
            cost_fn=_cagnet_cost("cagnet-2d"),
            description="CAGNET 2D row-broadcast + column-relay grid",
        ),
        SchemeSpec(
            name="distgnn-delayed", builtin=True,
            builder=_lazy("repro.schemes.distgnn", "distgnn_plan"),
            cost_fn=_distgnn_cost, staleness_options=(0, 1, 2, 4),
            description="DistGNN delayed partial aggregation "
                        "(bounded staleness)",
        ),
    ):
        registry.register(spec)


def _lazy(module: str, attr: str) -> Callable:
    """A builder proxy that imports its implementation on first call."""

    def builder(*args, **kwargs):
        import importlib

        return getattr(importlib.import_module(module), attr)(*args, **kwargs)

    return builder


_register_builtins()
