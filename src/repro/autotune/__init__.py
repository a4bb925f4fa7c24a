"""Cost-guided strategy auto-tuning with a persistent plan cache.

The subsystem behind ``strategy="auto"``:

* :mod:`repro.autotune.space` — the candidate cross-product (strategy ×
  replication × comm-method override × partitioner × chunking);
* :mod:`repro.autotune.drivers` — pluggable search schedules
  (exhaustive, successive halving with simulated short runs);
* :mod:`repro.autotune.tuner` — prices candidates with the staged cost
  model and picks the winner without executing anything;
* :mod:`repro.autotune.fingerprint` — content digests of the planning
  inputs (graph, partition, topology, config);
* :mod:`repro.autotune.cache` — the persistent, versioned
  :class:`PlanCache` those digests address;
* :mod:`repro.autotune.replan` — incremental replanning that patches a
  cached plan across topology/partition drift, reusing the fault-repair
  regrowth engine;
* :mod:`repro.autotune.resolver` — the one cache → patch → cold plan
  ladder every plan-reusing caller resolves through.
"""

from repro.autotune.cache import CacheStats, PlanCache, PlanCacheError
from repro.autotune.drivers import (
    ExhaustiveSearch,
    SearchDriver,
    SuccessiveHalving,
    Trial,
    best_trial,
    select_driver,
)
from repro.autotune.fingerprint import (
    CacheKey,
    cache_key,
    config_fingerprint,
    graph_fingerprint,
    partition_fingerprint,
    subgraph_fingerprint,
    topology_fingerprint,
)
from repro.autotune.replan import ReplanResult, incremental_replan, plan_cost
from repro.autotune.resolver import PlanResolver, Resolution
from repro.autotune.space import (
    ALL_STRATEGIES,
    PLAN_STRATEGIES,
    CandidateScheme,
    SearchSpace,
)
from repro.autotune.tuner import AutoTuner, TuneReport, workload_spec

__all__ = [
    "ALL_STRATEGIES",
    "PLAN_STRATEGIES",
    "AutoTuner",
    "CacheKey",
    "CacheStats",
    "CandidateScheme",
    "ExhaustiveSearch",
    "PlanCache",
    "PlanCacheError",
    "PlanResolver",
    "ReplanResult",
    "Resolution",
    "SearchDriver",
    "SearchSpace",
    "SuccessiveHalving",
    "Trial",
    "TuneReport",
    "best_trial",
    "cache_key",
    "config_fingerprint",
    "graph_fingerprint",
    "incremental_replan",
    "partition_fingerprint",
    "plan_cost",
    "select_driver",
    "subgraph_fingerprint",
    "topology_fingerprint",
    "tune_graph",
    "workload_spec",
]


def tune_graph(graph, topology, **kwargs):
    """One-call convenience: build an :class:`AutoTuner` and tune.

    Keyword arguments are forwarded to :class:`AutoTuner`.
    """
    return AutoTuner(graph, topology, **kwargs).tune()
