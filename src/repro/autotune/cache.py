"""Persistent, content-addressed plan cache.

Planning is the slowest unoptimized hot path in the library (Table 8
benchmarks it), yet its output is fully determined by (graph,
partition, topology, strategy config).  The :class:`PlanCache` stores
each plan once under the combined content digest of those four inputs
(:mod:`repro.autotune.fingerprint`) as a versioned JSON document (the
structural codec of :mod:`repro.core.serialize`), so a repeated session
skips planning entirely.

Safety rules:

* corrupt files, wrong-version files, and entries whose recorded key
  does not match the requested key raise the typed
  :class:`PlanCacheError` — a bad entry is *never* silently used, and
  every rejection is counted as an invalidation;
* writes are atomic (temp file + rename), so a crashed writer can at
  worst leave a stale temp file, never a torn entry;
* hit/miss/invalidation counters land on the instance
  (:attr:`PlanCache.stats`).

Beyond the exact lookup, :meth:`PlanCache.find_sibling` retrieves an
entry that matches on graph + config but differs in topology or
partition — the raw material of incremental replanning
(:mod:`repro.autotune.replan`).

``PlanCache(None)`` keeps plans in memory instead, evicting the least
recently used past :attr:`PlanCache.MEMORY_ENTRIES`, so long-lived
loops (elastic handoffs) stay bounded.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from repro.autotune.fingerprint import CacheKey
from repro.core.plan import CommPlan
from repro.core.serialize import plan_from_jsonable, plan_to_jsonable
from repro.topology.topology import Topology

__all__ = ["PlanCache", "PlanCacheError", "CacheStats"]

#: Version of the cache-entry envelope.  Bumping it invalidates every
#: existing entry (they are rejected with :class:`PlanCacheError`).
CACHE_FORMAT_VERSION = 1

PathLike = Union[str, "os.PathLike[str]"]


# Defined in repro.errors (the consolidated hierarchy); re-exported
# here because this module is its historical home.
from repro.errors import PlanCacheError


@dataclass
class CacheStats:
    """Counters of one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    stores: int = 0
    patches: int = 0
    annotations: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain mapping (for JSON reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "stores": self.stores,
            "patches": self.patches,
            "annotations": self.annotations,
        }


class PlanCache:
    """Directory of content-addressed, versioned JSON plan entries, or —
    with ``directory=None`` — a bounded in-memory LRU of plans."""

    #: Plans an in-memory cache holds before evicting the least
    #: recently used one.
    MEMORY_ENTRIES = 32

    def __init__(self, directory: Optional[PathLike]) -> None:
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        #: In-memory entries (key digest -> plan), least recent first.
        self._memory: "OrderedDict[str, CommPlan]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _count(self, outcome: str) -> None:
        """Bump one :attr:`stats` outcome counter."""
        setattr(self.stats, outcome, getattr(self.stats, outcome) + 1)

    def count_patch(self) -> None:
        """Record that a sibling entry was adopted via incremental
        replanning (callers bump this after a successful patch)."""
        self._count("patches")

    def path_for(self, key: CacheKey) -> Path:
        """The entry file the key addresses."""
        return self.directory / f"plan-{key.digest}.json"

    # ------------------------------------------------------------------
    def load_document(self, path: Path) -> dict:
        """Read and validate one entry's envelope (not the plan inside).

        Raises :class:`PlanCacheError` on unreadable JSON, a missing or
        foreign envelope, or a version mismatch.
        """
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise PlanCacheError(
                f"unreadable plan-cache entry {path}: {exc}"
            ) from exc
        if not isinstance(doc, dict) or doc.get("kind") != "dgcl-plan":
            raise PlanCacheError(
                f"{path} is not a plan-cache entry"
            )
        if doc.get("format") != CACHE_FORMAT_VERSION:
            raise PlanCacheError(
                f"{path} has cache format {doc.get('format')!r}; this "
                f"library writes version {CACHE_FORMAT_VERSION}"
            )
        for section in ("key", "plan"):
            if section not in doc:
                raise PlanCacheError(f"{path} is missing its {section!r} section")
        return doc

    def get(self, key: CacheKey, topology: Topology) -> Optional[CommPlan]:
        """The cached plan for ``key``, or None on a clean miss.

        A present-but-unusable entry (corrupt, old version, recorded key
        disagreeing with the requested one, unresolvable against
        ``topology``) is counted as an invalidation and raised as
        :class:`PlanCacheError` — never returned.
        """
        if self.directory is None:
            plan = self._memory.get(key.digest)
            if plan is None:
                self._count("misses")
                return None
            self._memory.move_to_end(key.digest)
            self._count("hits")
            return plan
        path = self.path_for(key)
        if not path.exists():
            self._count("misses")
            return None
        try:
            doc = self.load_document(path)
            if doc["key"] != key.as_dict():
                raise PlanCacheError(
                    f"{path} records a different planning input set than "
                    "the requested key (digest collision or tampering)"
                )
            plan = plan_from_jsonable(doc["plan"], topology)
        except PlanCacheError:
            self._count("invalidations")
            raise
        except (KeyError, TypeError, ValueError) as exc:
            self._count("invalidations")
            raise PlanCacheError(
                f"plan-cache entry {path} cannot be reconstructed: {exc}"
            ) from exc
        self._count("hits")
        return plan

    def put(
        self,
        key: CacheKey,
        plan: CommPlan,
        meta: Optional[dict] = None,
    ) -> Optional[Path]:
        """Store ``plan`` under ``key`` atomically; returns the path.

        ``meta`` carries whatever the caller wants future sessions to
        know (resolved strategy, recorded plan cost, ...).  An in-memory
        cache keeps only the plan and returns None.
        """
        if self.directory is None:
            self._memory[key.digest] = plan
            self._memory.move_to_end(key.digest)
            if len(self._memory) > self.MEMORY_ENTRIES:
                self._memory.popitem(last=False)
            self._count("stores")
            return None
        doc = {
            "kind": "dgcl-plan",
            "format": CACHE_FORMAT_VERSION,
            "key": key.as_dict(),
            "meta": dict(meta or {}),
            "plan": plan_to_jsonable(plan),
        }
        path = self.path_for(key)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)
        self._count("stores")
        return path

    def annotate(self, key: CacheKey, **meta) -> Optional[Path]:
        """Merge observed-behavior metadata into an existing entry.

        The auditor uses this to stamp cached plans with their last
        observed prediction error (``observed_error`` /
        ``audited_runs``), so a later session can tell how trustworthy
        the stored cost was *before* re-using it.  The rewrite is atomic
        (temp file + rename), does **not** count as a store — CI asserts
        exactly one store per cold tune — and quietly returns ``None``
        when the entry is missing or unreadable (annotation is best
        effort; the loud path is :meth:`get`).
        """
        if self.directory is None:
            return None
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            doc = self.load_document(path)
        except PlanCacheError:
            return None
        entry_meta = dict(doc.get("meta") or {})
        entry_meta.update(meta)
        doc["meta"] = entry_meta
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)
        self._count("annotations")
        return path

    # ------------------------------------------------------------------
    def find_sibling(self, key: CacheKey) -> Optional[dict]:
        """An entry sharing ``key``'s graph and config but not its
        topology and/or partition — the incremental-replan donor.

        Unreadable entries encountered during the scan are skipped (the
        exact-key path is where rejection is loud).  Entries differing
        in *both* topology and partition are preferred last; same-graph
        same-partition (topology drift only) donors come first.  An
        in-memory cache keeps no documents and has no siblings.
        """
        if self.directory is None:
            return None
        best: Optional[dict] = None
        best_rank = 3
        for path in sorted(self.directory.glob("plan-*.json")):
            if path == self.path_for(key):
                continue
            try:
                doc = self.load_document(path)
            except PlanCacheError:
                continue
            entry_key = doc["key"]
            if (
                entry_key.get("graph") != key.graph
                or entry_key.get("config") != key.config
            ):
                continue
            same_partition = entry_key.get("partition") == key.partition
            same_topology = entry_key.get("topology") == key.topology
            # rank 0: only topology drifted; 1: only partition; 2: both.
            if same_partition and not same_topology:
                rank = 0
            elif same_topology and not same_partition:
                rank = 1
            else:
                rank = 2
            if rank < best_rank:
                best, best_rank = doc, rank
                if rank == 0:
                    break
        return best

    def __len__(self) -> int:
        if self.directory is None:
            return len(self._memory)
        return len(list(self.directory.glob("plan-*.json")))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanCache({self.directory and str(self.directory)!r}, entries={len(self)}, "
            f"stats={self.stats.as_dict()})"
        )
