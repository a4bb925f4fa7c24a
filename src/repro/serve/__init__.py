"""Online inference serving on the simulated clock (ROADMAP item 2).

``repro.serve`` turns the offline training library into a long-lived
serving deployment: tenants submit open-loop streams of seed-vertex
inference requests, a coalescing batcher merges them under per-tenant
latency SLOs into forward-only restrictions of the planned
communication, and a robustness control plane — token-bucket admission,
bounded-queue backpressure, deadline expiry, the retry → repair →
degrade fault ladder, weighted-fair queuing and a p99-driven graceful
degradation ladder — keeps overload and injected faults survivable with
*typed* outcomes only.  See ``docs/serving.md``.
"""

from repro.serve.admission import BoundedQueue, FairPicker, TokenBucket
from repro.serve.arrivals import (
    ArrivalSpec,
    InferenceRequest,
    SeedSampler,
    arrival_times,
)
from repro.serve.batcher import Batch, CoalescingBatcher
from repro.serve.degrade import (
    DegradationLadder,
    LadderTransition,
    LEVELS,
    ReplicaStore,
)
from repro.serve.forward import (
    ForwardOnlyPlan,
    forward_only,
    plan_connections,
    restrict_forward,
)
from repro.serve.scenarios import SCENARIO_NAMES, build_scenario
from repro.serve.server import (
    AutoscaleSpec,
    OUTCOMES,
    RequestRecord,
    ServeConfig,
    ServeReport,
    ServeSession,
    TenantSpec,
)

__all__ = [
    "ArrivalSpec",
    "AutoscaleSpec",
    "Batch",
    "BoundedQueue",
    "CoalescingBatcher",
    "DegradationLadder",
    "FairPicker",
    "ForwardOnlyPlan",
    "InferenceRequest",
    "LadderTransition",
    "LEVELS",
    "OUTCOMES",
    "ReplicaStore",
    "RequestRecord",
    "SCENARIO_NAMES",
    "SeedSampler",
    "ServeConfig",
    "ServeReport",
    "ServeSession",
    "TenantSpec",
    "TokenBucket",
    "arrival_times",
    "build_scenario",
    "forward_only",
    "plan_connections",
    "restrict_forward",
]
