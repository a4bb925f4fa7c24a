"""Per-mini-batch communication planning with cache + patch reuse.

Full-graph DGCL plans once and trains forever; sampled training needs
a *fresh* communication plan for every batch, which turns planning into
a hot path (thousands of plans per epoch).  The :class:`BatchPlanner`
resolves every batch through the shared
:class:`~repro.autotune.resolver.PlanResolver` ladder, cheapest first:

1. **cache** — with a :class:`~repro.autotune.cache.PlanCache` bound,
   the batch's sampled subgraph is fingerprinted
   (:func:`repro.autotune.fingerprint.subgraph_fingerprint` — cheap:
   the parent digest is memoised); an exact entry skips planning;
2. **patch** — consecutive batches sample overlapping neighborhoods,
   so their multicast classes mostly share (source, destination-set)
   signatures: the previous batch's plan is the patch donor, reusing
   matching trees and regrowing only the new classes, with a cold plan
   when the patched cost regresses past the 1.5x guard;
3. **plan** — cold SPST on the batch relation (first batch, or the
   fallback).

Outcomes land on the ``plan.resolve{source}`` metrics of the
planner's telemetry handle (a session passes its own); the ladder's
sustained plans/sec is what ``bench_sampling.py`` measures.  Serving
plans its batches here too, with ``incremental=False`` and an
in-memory cache (:mod:`repro.serve.server`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autotune.cache import PlanCache
from repro.autotune.fingerprint import (
    CacheKey,
    config_fingerprint,
    partition_fingerprint,
    subgraph_fingerprint,
    topology_fingerprint,
)
from repro.autotune.resolver import PlanResolver
from repro.core.plan import CommPlan
from repro.core.relation import CommRelation
from repro.core.spst import SPSTPlanner
from repro.graph.csr import Graph
from repro.obs.telemetry import Telemetry
from repro.sampling.samplers import SampledSubgraph
from repro.topology.topology import Topology

__all__ = ["PlannedBatch", "BatchPlanner", "BatchPlanStats"]


@dataclass(frozen=True)
class PlannedBatch:
    """One mini-batch, ready to execute: subgraph + relation + plan.

    ``plan_source`` says which rung of the ladder produced the plan:
    ``"cache"`` (exact fingerprint hit), ``"patched"`` (previous
    batch's trees reused through ``incremental_replan``),
    ``"replanned"`` (patch attempted but regressed past the cost
    threshold) or ``"planned"`` (cold SPST).  ``wall_seconds`` is the
    planning time of this batch alone.
    """

    subgraph: SampledSubgraph
    relation: CommRelation
    plan: CommPlan
    plan_source: str
    wall_seconds: float

    @property
    def num_seeds(self) -> int:
        """Seed count of the underlying batch."""
        return self.subgraph.num_seeds


@dataclass
class BatchPlanStats:
    """Running counters of one planner's lifetime (JSON-able)."""

    batches: int = 0
    by_source: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def record(self, source: str, wall: float) -> None:
        """Fold one planned batch into the counters."""
        self.batches += 1
        self.by_source[source] = self.by_source.get(source, 0) + 1
        self.wall_seconds += wall

    @property
    def plans_per_second(self) -> float:
        """Sustained planning throughput so far."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.batches / self.wall_seconds

    def as_dict(self) -> Dict[str, object]:
        """The counters as a plain mapping (for reports and the CLI)."""
        return {
            "batches": self.batches,
            "by_source": dict(sorted(self.by_source.items())),
            "wall_seconds": self.wall_seconds,
            "plans_per_second": self.plans_per_second,
        }


class BatchPlanner:
    """Plans communication for a stream of sampled subgraphs.

    ``assignment`` is the *parent* graph's partition; each batch plans
    on its restriction to the sampled vertex set, so a vertex trains on
    the same device whether it arrived in a mini-batch or the full
    graph.  ``plan_cache`` (optional) makes exact repeats free across
    epochs and processes; ``incremental`` (default) arms the
    patch-from-previous-batch rung.
    """

    def __init__(
        self,
        graph: Graph,
        assignment: np.ndarray,
        topology: Topology,
        plan_cache: Optional[PlanCache] = None,
        chunks_per_class: int = 4,
        seed: int = 0,
        incremental: bool = True,
        telemetry: Telemetry = Telemetry(),
    ) -> None:
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.size != graph.num_vertices:
            raise ValueError("assignment must label every parent vertex")
        self.graph = graph
        self.assignment = assignment
        self.topology = topology
        self.chunks_per_class = int(chunks_per_class)
        self.seed = int(seed)
        self.incremental = bool(incremental)
        self.stats = BatchPlanStats()
        self._resolver = PlanResolver(plan_cache, telemetry)
        #: Previous batch's plan as the donor document of the next
        #: batch's patch rung.
        self._donor: Optional[dict] = None

    # ------------------------------------------------------------------
    @cached_property
    def _fixed_fingerprints(self) -> Tuple[str, str]:
        """Topology and config digests, shared by every batch key."""
        config = {
            "strategy": "spst-minibatch",
            "chunks_per_class": self.chunks_per_class,
            "seed": self.seed,
        }
        return topology_fingerprint(self.topology), config_fingerprint(config)

    def batch_key(self, batch: SampledSubgraph) -> CacheKey:
        """The content-addressed cache key of one sampled batch."""
        topology_fp, config_fp = self._fixed_fingerprints
        return CacheKey(
            graph=subgraph_fingerprint(
                self.graph, batch.vertices, batch.graph
            ),
            partition=partition_fingerprint(self.assignment[batch.vertices]),
            topology=topology_fp,
            config=config_fp,
        )

    def plan_batch(self, batch: SampledSubgraph) -> PlannedBatch:
        """Plan one sampled batch through the cache/patch/plan ladder."""
        start = time.perf_counter()
        relation = CommRelation(
            batch.graph, self.assignment[batch.vertices],
            self.topology.num_devices,
        )
        resolution = self._resolver.resolve(
            relation,
            self.topology,
            lambda: self.batch_key(batch),
            lambda: SPSTPlanner(
                self.topology,
                granularity="chunk",
                chunks_per_class=self.chunks_per_class,
                seed=self.seed,
            ).plan(relation, name="spst-minibatch"),
            donor=(lambda _key: self._donor) if self.incremental else None,
            chunks_per_class=self.chunks_per_class,
            seed=self.seed,
            name="spst-minibatch",
            meta={"strategy": "spst-minibatch"},
        )
        if self.incremental:
            self._donor = resolution.donor()
        wall = time.perf_counter() - start
        self.stats.record(resolution.source, wall)
        return PlannedBatch(
            subgraph=batch,
            relation=relation,
            plan=resolution.plan,
            plan_source=resolution.source,
            wall_seconds=wall,
        )

    def plan_stream(self, batches) -> List[PlannedBatch]:
        """Plan every batch of an iterable; returns them in order."""
        return [self.plan_batch(batch) for batch in batches]
