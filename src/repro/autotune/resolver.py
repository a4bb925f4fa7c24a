"""The one cache → patch → cold plan ladder behind every plan reuser.

Session builds, elastic handoffs, sampled batches and serving
deployments all reuse plans through :class:`PlanResolver`; each caller
supplies only its fingerprint, its patch donor and its cold planner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.autotune.cache import PlanCache, PlanCacheError
from repro.autotune.fingerprint import CacheKey
from repro.autotune.replan import incremental_replan, plan_cost
from repro.core.plan import CommPlan
from repro.core.relation import CommRelation
from repro.core.serialize import plan_to_jsonable
from repro.obs.telemetry import Telemetry
from repro.topology.topology import Topology

__all__ = ["PlanResolver", "Resolution"]


@dataclass
class Resolution:
    """A resolved plan, the rung that produced it and its cache key
    (None when no cache is bound)."""

    plan: CommPlan
    source: str
    key: Optional[CacheKey] = None

    def donor(self) -> dict:
        """The plan as the donor document of the next resolution."""
        return {
            "plan": plan_to_jsonable(self.plan),
            "meta": {"cost_units": plan_cost(self.plan)},
        }


class PlanResolver:
    """Resolves plans over an optional :class:`PlanCache`, cheapest
    rung first:

    1. an exact cache hit (``"cache"``, or ``"memo"`` from an in-memory
       cache); an unusable entry is a miss;
    2. the caller's donor document patched by
       :func:`~repro.autotune.replan.incremental_replan` (``"patched"``,
       or ``"replanned"`` past its cost guard);
    3. the caller's cold planner (``"planned"``).

    Every result that was not a cache hit is stored with its
    ``cost_units``.  Every resolution counts once on
    ``plan.resolve{source}`` and times itself on the
    ``plan.resolve.seconds`` histogram of ``telemetry``'s metrics.
    """

    def __init__(
        self,
        cache: Optional[PlanCache] = None,
        telemetry: Telemetry = Telemetry(),
    ) -> None:
        self.cache = cache
        self.telemetry = telemetry

    def resolve(
        self,
        relation: CommRelation,
        topology: Topology,
        key: Callable[[], CacheKey],
        cold: Callable[[], CommPlan],
        *,
        donor: Optional[Callable[[Optional[CacheKey]], Optional[dict]]] = None,
        chunks_per_class: int = 4,
        seed: int = 0,
        name: str = "spst-patched",
        meta: Optional[dict] = None,
    ) -> Resolution:
        """Resolve the plan of ``relation`` on ``topology``.

        ``key()`` fingerprints the inputs and runs only with a cache
        bound; ``donor(key)`` runs only after an exact miss and returns
        the document to patch, or None; ``cold()`` plans from scratch.
        ``chunks_per_class``, ``seed`` and ``name`` go to the patch;
        ``meta`` is stored with a new entry and read after ``cold()``
        runs, so the planner may add to it.
        """
        start = time.perf_counter()
        cache = self.cache
        cache_key = key() if cache is not None else None
        plan = None
        if cache_key is not None:
            try:
                plan = cache.get(cache_key, topology)
            except PlanCacheError:
                pass  # an unusable entry is a miss: plan again
        if plan is not None:
            hit = "cache" if cache.directory is not None else "memo"
            resolution = Resolution(plan, hit, cache_key)
        else:
            doc = donor(cache_key) if donor is not None else None
            if doc is None:
                resolution = Resolution(cold(), "planned", cache_key)
            else:
                result = incremental_replan(
                    doc, relation, topology,
                    chunks_per_class=chunks_per_class, seed=seed, name=name,
                )
                if result.patched and cache is not None:
                    cache.count_patch()
                resolution = Resolution(result.plan, result.source, cache_key)
            if cache_key is not None:
                cost = plan_cost(resolution.plan)
                cache.put(cache_key, resolution.plan,
                          meta=dict(meta or {}, cost_units=cost))
        self.telemetry.count("plan.resolve", source=resolution.source)
        self.telemetry.observe("plan.resolve.seconds",
                               time.perf_counter() - start)
        return resolution
