"""The library's typed error hierarchy.

Every exception the library raises deliberately derives from
:class:`ReproError`, so callers can catch the whole family with one
clause::

    try:
        plan = session.build_comm_info(graph)
    except repro.errors.ReproError as exc:
        ...

Each class also keeps the stdlib base it historically subclassed
(``ValueError``, ``RuntimeError``, ``AssertionError``) so existing
``except`` clauses written against those keep working.  The original
defining modules (``repro.faults.spec``, ``repro.faults.policy``,
``repro.simulator.devices``, ``repro.autotune.cache``,
``repro.chaos.oracles``) re-export these names for compatibility.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = [
    "ReproError",
    "FaultSpecError",
    "PartitionSpecError",
    "ElasticSpecError",
    "UnrecoverableFaultError",
    "DeviceLostError",
    "SimulatedOOMError",
    "PlanCacheError",
    "UnknownSchemeError",
    "UnknownDatasetError",
    "OracleViolation",
    "ServeError",
    "ServeSpecError",
    "AdmissionRejected",
    "DeadlineExpired",
    "ForwardOnlyPlanError",
    "TrainingSpecError",
]


class ReproError(Exception):
    """Base class of every deliberate error the library raises."""


class FaultSpecError(ReproError, ValueError):
    """A fault spec (JSON or constructor argument) failed validation.

    Raised with a message naming the offending event and field, so a
    mistyped ``--fault-spec`` file fails with "event #2 (link-loss):
    unknown connection field 'conection'" instead of a raw ``KeyError``.
    """


class PartitionSpecError(ReproError, ValueError):
    """Partitioner arguments failed validation.

    Raised at the entry of :func:`~repro.partition.partition` and
    :func:`~repro.partition.hierarchical_partition` when ``num_parts`` is
    not an integer in ``[1, n]``, ``balance_factor`` is not a finite
    number of at least 1, or ``seed`` is not a non-negative integer —
    instead of a lopsided partition or an untyped numpy error.  Also
    raised by :class:`~repro.core.relation.CommRelation` (and so by a
    session's ``build_comm_info(assignment=...)``) when a partition's
    labels are not one integral device id per vertex.
    """


class ElasticSpecError(ReproError, ValueError):
    """An elastic device-set request failed validation.

    Raised when a grow/shrink/placement request names an empty device
    set, devices the base topology does not have, devices that overlap
    another job's allocation, or devices already (or not) part of the
    job — before any drain or checkpoint work starts, so a bad request
    costs nothing on the simulated clock.
    """


class TrainingSpecError(ReproError, ValueError):
    """A trainer's features or labels do not fit its graph and model.

    Raised at trainer construction by
    :func:`~repro.gnn.training.check_training_inputs` when the feature
    matrix has the wrong shape, the labels do not cover every vertex,
    or a label is not an integer class id in ``[0, num_classes)``, so a
    bad input never reaches an epoch.
    """


class UnrecoverableFaultError(ReproError, RuntimeError):
    """Retry budget exhausted (or no route left) with no fallback."""

    def __init__(self, subject: str, attempts: int, detail: str = "") -> None:
        self.subject = subject
        self.attempts = attempts
        self.detail = detail
        extra = f": {detail}" if detail else ""
        super().__init__(
            f"unrecoverable fault on {subject} after {attempts} attempts{extra}"
        )


class DeviceLostError(ReproError, RuntimeError):
    """A permanent device loss confirmed by the failure detector.

    Protocol-level recovery cannot resurrect a crashed GPU; the error
    carries everything the trainer needs to roll back and repartition.
    """

    def __init__(self, devices: Sequence[int], time: float, fault_log=None,
                 report=None):
        self.devices: List[int] = sorted(devices)
        self.time = time
        self.fault_log = fault_log
        self.report = report
        super().__init__(
            f"device(s) {self.devices} lost at t={time * 1e6:.1f} us; "
            "trainer-level rollback required"
        )


class SimulatedOOMError(ReproError, RuntimeError):
    """A simulated device ran out of memory."""

    def __init__(self, device: int, requested: int, capacity: int, in_use: int):
        self.device = device
        self.requested = requested
        self.capacity = capacity
        self.in_use = in_use
        super().__init__(
            f"device {device} OOM: requested {requested} B with "
            f"{capacity - in_use} B free ({in_use}/{capacity} B in use)"
        )


class PlanCacheError(ReproError, ValueError):
    """A cache entry exists but must not be used (corrupt / wrong version
    / key mismatch).  The caller treats it as a miss and replans."""


class UnknownSchemeError(ReproError, KeyError, ValueError):
    """A strategy / scheme name is not in the :class:`SchemeRegistry`.

    Replaces the ad-hoc ``ValueError``s (session ``strategy=``,
    :class:`~repro.autotune.space.CandidateScheme`) and ``KeyError``
    (:func:`~repro.baselines.evaluate_scheme`) that used to guard the
    strategy surface, so it subclasses both stdlib bases — existing
    ``except`` clauses written against either keep working.  The
    message always lists the registered scheme names.
    """

    def __init__(self, name: str, registered: Sequence[str]) -> None:
        self.name = name
        self.registered = tuple(registered)
        super().__init__(
            f"unknown strategy {name!r}; registered schemes: "
            f"{', '.join(self.registered)} "
            "(register custom schemes with dgcl.register_scheme)"
        )

    def __str__(self) -> str:  # KeyError quotes its repr; keep the text
        return self.args[0]


class UnknownDatasetError(ReproError, KeyError, ValueError):
    """A dataset name is not one of the registered twins.

    Subclasses ``KeyError`` (what a bare registry lookup used to raise)
    and ``ValueError``, like :class:`UnknownSchemeError`.  The message
    lists the available names.
    """

    def __init__(self, name: str, available: Sequence[str]) -> None:
        self.name = name
        self.available = tuple(available)
        super().__init__(
            f"unknown dataset {name!r}; available: {list(self.available)}"
        )

    def __str__(self) -> str:  # KeyError quotes its repr; keep the text
        return self.args[0]


class ServeError(ReproError):
    """Base class of the online-serving control plane's typed errors.

    Every way the serving layer refuses or abandons a request derives
    from this class, so "no admitted request is silently dropped"
    reduces to: each request either completes or surfaces exactly one
    :class:`ServeError` subclass as its terminal outcome.
    """


class ServeSpecError(ServeError, ValueError):
    """A serving spec (tenant, scenario or config knob) failed validation.

    Raised before any simulated time elapses, so a mistyped SLO or a
    duplicate tenant name costs nothing on the clock.
    """


class AdmissionRejected(ServeError, RuntimeError):
    """A request was shed at the front door, with a typed reason.

    ``reason`` is one of ``"rate-limit"`` (token bucket empty),
    ``"queue-full"`` (bounded queue backpressure) or ``"tenant-shed"``
    (the degradation ladder is rejecting this tenant's traffic).
    """

    REASONS = ("rate-limit", "queue-full", "tenant-shed")

    def __init__(self, tenant: str, reason: str, time: float) -> None:
        if reason not in self.REASONS:
            raise ValueError(f"unknown admission-rejection reason {reason!r}")
        self.tenant = tenant
        self.reason = reason
        self.time = time
        super().__init__(
            f"request from tenant {tenant!r} rejected ({reason}) "
            f"at t={time * 1e6:.3f} us"
        )


class DeadlineExpired(ServeError, TimeoutError):
    """An admitted request timed out in queue before it could be served."""

    def __init__(self, tenant: str, deadline: float, time: float) -> None:
        self.tenant = tenant
        self.deadline = deadline
        self.time = time
        super().__init__(
            f"request from tenant {tenant!r} expired at "
            f"t={time * 1e6:.3f} us (deadline {deadline * 1e6:.3f} us)"
        )


class ForwardOnlyPlanError(ServeError, RuntimeError):
    """A backward pass was requested on an inference-only plan.

    Forward-only plans strip the gradient scatter entirely; asking one
    for backward tuples is a programming error, not a recoverable
    condition, so it raises instead of returning an empty schedule.
    """


class OracleViolation(ReproError, AssertionError):
    """Raised by replay/CLI paths when a plan breaks an oracle.

    ``violations`` holds the individual
    :class:`~repro.chaos.oracles.Violation` records.
    """

    def __init__(self, violations: Sequence[object]) -> None:
        self.violations = list(violations)
        lines = [f"[{v.oracle}] {v.detail}" for v in self.violations]
        super().__init__("; ".join(lines) or "oracle violation")
