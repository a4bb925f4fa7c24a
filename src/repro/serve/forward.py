"""Forward-only inference plans: training plans minus the backward half.

Training traffic is a round trip — the graphAllgather pushes embeddings
forward along each multicast tree, then the gradient scatter replays
the same tuples in reverse (``CommPlan.backward_tuples``), including
the non-atomic gradient sub-stages of §6.2.  Online inference only ever
runs the forward half, so a serving plan derived here:

* keeps the forward routes (and therefore the forward byte volume)
  verbatim — :func:`forward_only` pins ``total_units`` to the source
  plan's, which is exactly half the round-trip unit count;
* refuses the backward pass outright — ``backward_tuples`` raises
  :class:`~repro.errors.ForwardOnlyPlanError` instead of silently
  scheduling gradient traffic a frontend must never generate.

:func:`restrict_forward` wraps what one coalesced batch moves — the
seeds' in-edges whose tail another device owns, the paper's allgather
relation on the batch — in a sampled subgraph that the server plans
with :class:`~repro.sampling.planner.BatchPlanner`, so a row goes only
to the devices that read it.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from repro.core.plan import CommPlan, CommTuple
from repro.errors import ForwardOnlyPlanError
from repro.graph.csr import Graph
from repro.sampling.samplers import (
    SampledSubgraph,
    finish_batch,
    gather_in_edges,
)

__all__ = [
    "ForwardOnlyPlan",
    "forward_only",
    "cross_in_edges",
    "restrict_forward",
    "plan_connections",
]


class ForwardOnlyPlan(CommPlan):
    """A ``CommPlan`` whose backward half has been stripped.

    Forward compilation (``tuples``, ``traffic_matrix``, cost model) is
    inherited unchanged; every backward entry point raises
    :class:`~repro.errors.ForwardOnlyPlanError`.
    """

    def backward_tuples(self) -> List[CommTuple]:
        """Always raises: an inference plan has no gradient scatter."""
        raise ForwardOnlyPlanError(
            f"plan {self.name!r} is forward-only: inference serving "
            "never runs the gradient scatter"
        )


def forward_only(plan: CommPlan, name: str = "") -> ForwardOnlyPlan:
    """Derive the inference (forward-only) version of a training plan.

    The routes — and therefore the forward tuples, stages and byte
    counts — are shared with the source plan; only the backward half is
    removed.  ``name`` defaults to ``"<plan.name>+forward"``.
    """
    return ForwardOnlyPlan(
        plan.topology, plan.routes, name=name or f"{plan.name}+forward"
    )


def cross_in_edges(
    graph: Graph, assignment: np.ndarray, seeds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """In-edges ``(tails, heads)`` of ``seeds`` whose tail another
    device owns: the rows a one-layer forward pass of the seeds reads
    over the wire."""
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    tails, heads, _ = gather_in_edges(graph, seeds)
    cross = assignment[tails] != assignment[heads]
    return tails[cross], heads[cross]


def restrict_forward(
    graph: Graph, assignment: np.ndarray, seeds: np.ndarray,
    fresh: np.ndarray,
) -> SampledSubgraph:
    """The cross-partition in-edges of ``seeds`` whose tail is in
    ``fresh`` (the rows left once replicas and crashed owners are split
    off), as a subgraph over their endpoints only: two batches with the
    same such edges fingerprint alike, whatever else their seeds read."""
    tails, heads = cross_in_edges(graph, assignment, seeds)
    keep = np.isin(tails, fresh)
    tails, heads = tails[keep], heads[keep]
    readers = np.unique(heads)
    vertices = np.union1d(tails, readers)
    return finish_batch(graph, readers, (readers, vertices), tails, heads)


def plan_connections(plan: CommPlan) -> Set[str]:
    """Names of every physical connection the plan's tuples traverse.

    The serving dispatch loop intersects this set with the injector's
    dead list to decide whether a batch can run as planned or must walk
    the retry → repair → degrade ladder first.
    """
    names: Set[str] = set()
    for t in plan.tuples():
        for conn in t.link.connections:
            names.add(conn.name)
    return names
