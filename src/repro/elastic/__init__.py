"""Elastic device sets: planned handoffs, shared topologies, scheduling.

Three layers, inverting the fault machinery into voluntary elasticity:

* :mod:`repro.elastic.controller` —
  :class:`~repro.elastic.controller.ElasticController` runs planned
  ``grow``/``shrink`` transitions (drain -> checkpoint -> repartition
  -> plan patch -> resume) on the simulated clock, logging
  ``scale-out``/``scale-in`` interventions;
* :mod:`repro.elastic.contention` — prices cross-job contention on
  shared physical connections (the paper's Table-3 QPI effect,
  generalised across jobs holding disjoint device sets);
* :mod:`repro.elastic.scheduler` —
  :class:`~repro.elastic.scheduler.ElasticScheduler` places and
  autoscales jobs to minimise that priced interference, emitting
  actions the controller executes.
"""

from repro.elastic.contention import (
    InterferenceReport,
    JobTraffic,
    interference_report,
    plan_traffic,
    uniform_traffic,
    validate_disjoint,
)
from repro.elastic.controller import (
    ElasticController,
    ElasticPolicy,
    TransitionReport,
    validate_transition,
)
from repro.elastic.scheduler import (
    ElasticAction,
    ElasticScheduler,
    JobSpec,
    Placement,
)
from repro.errors import ElasticSpecError

__all__ = [
    "ElasticController",
    "ElasticPolicy",
    "TransitionReport",
    "validate_transition",
    "ElasticSpecError",
    "JobTraffic",
    "plan_traffic",
    "uniform_traffic",
    "InterferenceReport",
    "interference_report",
    "validate_disjoint",
    "ElasticScheduler",
    "JobSpec",
    "ElasticAction",
    "Placement",
]
