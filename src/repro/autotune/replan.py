"""Incremental replanning from a cached plan.

A plan-cache entry records the multicast trees SPST grew for one exact
(graph, partition, topology).  When the next session's inputs *drift* —
a link got faster, a switch was re-cabled, a few vertices moved to
another partition — the cached trees are mostly still right, and
re-growing only the stale ones is much cheaper than planning from
scratch (Table 8's cost, avoided).

:func:`incremental_replan` patches a cached entry against the new
inputs in three moves:

1. **resolve** — every cached route's edges are looked up by structural
   link reference (:func:`repro.core.serialize.route_from_jsonable`);
   routes whose links vanished from the new topology lose their tree;
2. **reconcile** — the new relation's multicast classes are matched to
   cached routes by (source, destination-set) signature: matching
   classes adopt the cached trees with the *new* vertex batches,
   classes with no cached signature are queued for growth, cached
   signatures the relation no longer needs are dropped;
3. **regrow** — the queued routes are grown by
   :func:`repro.faults.repair.regrow_routes` — the same engine that
   repairs plans around dead hardware mid-training — against the
   traffic the reused trees already commit.

The patch is only kept while it stays competitive: when the patched
plan's cost model time exceeds ``threshold`` times the cost the entry
recorded at store time, the patch is discarded and SPST replans from
scratch (the drift was too large for surgery to pay off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.cost_model import StagedCostModel
from repro.core.plan import CommPlan, VertexClassRoute
from repro.core.relation import CommRelation
from repro.core.serialize import link_table, route_from_jsonable
from repro.core.spst import SPSTPlanner
from repro.faults.policy import UnrecoverableFaultError
from repro.faults.repair import regrow_routes
from repro.topology.topology import Topology

__all__ = ["ReplanResult", "incremental_replan", "plan_cost"]

#: Patched plans costing more than this multiple of the donor entry's
#: recorded cost trigger a from-scratch replan.
DEFAULT_THRESHOLD = 1.5

Signature = Tuple[int, Tuple[int, ...]]


@dataclass
class ReplanResult:
    """Outcome of one incremental replanning attempt."""

    plan: CommPlan
    source: str  # "patched" or "replanned"
    reused_routes: int = 0
    regrown_routes: int = 0
    dropped_routes: int = 0
    patched_cost: float = float("nan")
    baseline_cost: Optional[float] = None

    @property
    def patched(self) -> bool:
        """True when the cached trees were surgically reused."""
        return self.source == "patched"


def plan_cost(plan: CommPlan) -> float:
    """``t(S)`` of a plan in unit-seconds (§5.1 staged cost model)."""
    model = StagedCostModel(plan.topology)
    for route in plan.routes:
        model.add_path(list(route.edges), route.weight)
    return model.total_cost()


def _full_replan(
    relation: CommRelation,
    topology: Topology,
    chunks_per_class: int,
    seed: int,
    name: str,
) -> CommPlan:
    """The from-scratch fallback: plain SPST on the new inputs."""
    planner = SPSTPlanner(
        topology,
        granularity="chunk",
        chunks_per_class=chunks_per_class,
        seed=seed,
    )
    return planner.plan(relation, name=name)


def incremental_replan(
    doc: dict,
    relation: CommRelation,
    topology: Topology,
    chunks_per_class: int = 4,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = 0,
    name: str = "spst-patched",
) -> ReplanResult:
    """Patch a cached plan document onto drifted inputs.

    ``doc`` is a plan-cache entry envelope (or a bare
    :func:`~repro.core.serialize.plan_to_jsonable` document);
    ``relation`` and ``topology`` are the *new* planning inputs.  See
    the module docstring for the resolve / reconcile / regrow moves.

    Falls back to a from-scratch SPST plan — reported with
    ``source="replanned"`` — when the patched plan's modelled cost
    exceeds ``threshold`` times the donor entry's recorded cost, or
    when regrowth cannot serve a class at all.
    """
    plan_doc = doc.get("plan", doc)
    meta = doc.get("meta", {}) or {}
    baseline = meta.get("cost_units")
    table = link_table(topology)

    # 1. resolve: cached routes by signature, trees where links survive.
    cached: Dict[Signature, List[Tuple[VertexClassRoute, bool]]] = {}
    for route_doc in plan_doc.get("routes", []):
        route, resolved = route_from_jsonable(route_doc, table)
        sig = (route.source, route.destinations)
        cached.setdefault(sig, []).append((route, resolved))

    # 2. reconcile against the new relation's multicast classes.
    kept: List[VertexClassRoute] = []
    broken: List[VertexClassRoute] = []
    matched: set = set()
    for cls in relation.classes:
        dests = tuple(d for d in cls.destinations if d != cls.source)
        if not dests:
            continue
        sig = (cls.source, dests)
        donors = cached.get(sig)
        if donors:
            matched.add(sig)
            donor_union = np.sort(np.concatenate(
                [donor.vertices for donor, _ in donors]
            ))
            if np.array_equal(donor_union, cls.vertices):
                # Unchanged class: every donor keeps its exact batch, so
                # an undrifted entry patches back to the identical plan.
                for donor, resolved in donors:
                    (kept if resolved else broken).append(
                        donor if resolved else VertexClassRoute(
                            source=cls.source, destinations=dests,
                            vertices=donor.vertices, edges=(),
                        )
                    )
                continue
            pieces = np.array_split(
                cls.vertices, min(len(donors), cls.size)
            )
            for piece, (donor, resolved) in zip(pieces, donors):
                if not piece.size:
                    continue
                route = VertexClassRoute(
                    source=cls.source,
                    destinations=dests,
                    vertices=piece,
                    edges=donor.edges if resolved else (),
                )
                (kept if resolved else broken).append(route)
        else:
            for piece in np.array_split(
                cls.vertices, min(chunks_per_class, cls.size)
            ):
                if piece.size:
                    broken.append(
                        VertexClassRoute(
                            source=cls.source,
                            destinations=dests,
                            vertices=piece,
                            edges=(),
                        )
                    )
    dropped = sum(
        len(routes) for sig, routes in cached.items() if sig not in matched
    )

    # 3. regrow the stale routes against the reused trees' traffic.
    try:
        repaired = regrow_routes(topology, kept, broken, seed=seed)
    except UnrecoverableFaultError:
        plan = _full_replan(relation, topology, chunks_per_class, seed, name)
        return ReplanResult(
            plan=plan,
            source="replanned",
            dropped_routes=dropped,
            patched_cost=plan_cost(plan),
            baseline_cost=baseline,
        )

    patched = CommPlan(topology, kept + repaired, name=name)
    cost = plan_cost(patched)
    if baseline is not None and cost > threshold * float(baseline):
        # Drift too large: surgery produced a worse plan than the donor
        # promised; pay for a full plan instead.
        plan = _full_replan(relation, topology, chunks_per_class, seed, name)
        return ReplanResult(
            plan=plan,
            source="replanned",
            reused_routes=len(kept),
            regrown_routes=len(repaired),
            dropped_routes=dropped,
            patched_cost=plan_cost(plan),
            baseline_cost=baseline,
        )
    return ReplanResult(
        plan=patched,
        source="patched",
        reused_routes=len(kept),
        regrown_routes=len(repaired),
        dropped_routes=dropped,
        patched_cost=cost,
        baseline_cost=baseline,
    )
