"""DistGNN-style delayed partial aggregation with bounded staleness.

DistGNN (Vasimuddin et al.) cuts communication by letting each device
reuse *stale* remote aggregates for a bounded number of epochs instead
of refreshing them every epoch.  Reproduced here as a first-class
scheme with an explicit ``staleness`` knob:

* **plan** — remote exchanges happen over direct per-pair routes (the
  shared-nothing partial-aggregate shuffle DistGNN's MPI backend
  performs), so the compiled plan is structurally a peer-to-peer star
  per multicast class under the scheme's own name;
* **runtime** — :class:`DelayedAllgather` wraps the compiled allgather:
  every ``staleness + 1``-th epoch is a *refresh* (real allgather +
  real gradient scatter, remote rows cached per layer boundary); the
  epochs between reuse the cached remote rows on the forward pass and
  drop remote-gradient contributions on the backward pass — zero bytes
  moved.  ``staleness=0`` refreshes every epoch and is bit-identical
  to :class:`~repro.gnn.distributed.DistributedTrainer`;
* **cost** — per-epoch communication amortises by ``1 / (staleness+1)``
  (the refresh period), which is what makes the scheme the genuinely
  cheapest point on communication-bound workloads once accuracy slack
  is allowed.  The time-vs-accuracy trade is asserted by the chaos
  gradient-parity tolerance ladder
  (:func:`repro.chaos.soak.staleness_tolerance`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.comm.allgather import CompiledAllgather
from repro.core.baseline_planners import peer_to_peer_plan
from repro.core.plan import CommPlan
from repro.core.relation import CommRelation
from repro.gnn.distributed import DistributedTrainer
from repro.topology.topology import Topology

__all__ = ["distgnn_plan", "DelayedAllgather", "DistGNNTrainer"]


def distgnn_plan(
    relation: CommRelation,
    topology: Topology,
    *,
    chunks_per_class: int = 4,
    seed: int = 0,
    staleness: int = 0,
) -> CommPlan:
    """The per-pair partial-aggregate exchange plan (all stages direct).

    ``staleness`` shapes the *runtime* refresh cadence and the cost
    model's amortisation, not the route structure, so one plan serves
    every staleness setting.
    """
    return peer_to_peer_plan(relation, topology, name="distgnn-delayed")


class DelayedAllgather:
    """A staleness-bounded wrapper around :class:`CompiledAllgather`.

    Drop-in for the trainer's ``forward``/``backward`` pair plus a
    :meth:`begin_epoch` hook.  Refresh epochs (every ``staleness+1``-th,
    starting with epoch 0) delegate to the wrapped allgather and cache
    each layer boundary's remote rows; stale epochs serve the cached
    remote rows next to the *fresh* local rows and return only the
    local gradient slice on backward (remote contributions are the
    aggregates being delayed).
    """

    def __init__(
        self,
        relation: CommRelation,
        plan: CommPlan,
        staleness: int = 0,
        inner: Optional[CompiledAllgather] = None,
    ) -> None:
        if staleness < 0:
            raise ValueError("staleness must be >= 0")
        self.relation = relation
        self.staleness = staleness
        self.inner = inner if inner is not None else CompiledAllgather(
            relation, plan
        )
        self._num_local = [
            relation.local_vertices[d].size
            for d in range(relation.num_devices)
        ]
        self._epoch = -1
        self._boundary = 0
        #: Per layer boundary: the remote-row block of every device.
        self._stale_remote: List[List[np.ndarray]] = []

    @property
    def fresh(self) -> bool:
        """True when the current epoch refreshes remote aggregates."""
        return self._epoch % (self.staleness + 1) == 0

    def begin_epoch(self) -> None:
        """Advance the refresh cadence; call once per epoch."""
        self._epoch += 1
        self._boundary = 0
        if self.fresh:
            self._stale_remote = []

    def forward(self, local_embeddings: List[np.ndarray]) -> List[np.ndarray]:
        """Local rows fresh always; remote rows fresh only on refresh."""
        idx = self._boundary
        self._boundary += 1
        if self.fresh:
            full = self.inner.forward(local_embeddings)
            self._stale_remote.append([
                full[d][self._num_local[d]:].copy()
                for d in range(len(full))
            ])
            return full
        remote = self._stale_remote[idx]
        return [
            np.concatenate([local_embeddings[d], remote[d]], axis=0)
            for d in range(len(local_embeddings))
        ]

    def backward(self, full_grads: List[np.ndarray]) -> List[np.ndarray]:
        """Refresh epochs scatter for real; stale epochs keep local grads."""
        if self.fresh:
            return self.inner.backward(full_grads)
        return [
            full_grads[d][: self._num_local[d]].copy()
            for d in range(len(full_grads))
        ]


class DistGNNTrainer(DistributedTrainer):
    """Distributed training under delayed partial aggregation.

    Identical to :class:`~repro.gnn.distributed.DistributedTrainer`
    except the allgather is staleness-bounded; at ``staleness=0`` every
    epoch refreshes and the two trainers are bit-identical (pinned by
    the gradient-parity tests and the chaos tolerance ladder).  Armed
    with telemetry, it prices collectives on refresh epochs only, as
    the cost model's ``1 / (staleness+1)`` amortisation does.
    """

    def __init__(self, *args, staleness: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.staleness = staleness
        self.allgather = DelayedAllgather(
            self.relation, self.plan, staleness=staleness,
            inner=self.allgather,
        )

    def run_epoch(self, update: bool = True):
        self.allgather.begin_epoch()
        return super().run_epoch(update=update)

    def _trace_comm(self, name: str, dim: int, backward: bool) -> None:
        # A stale epoch moves zero bytes, so it prices no collective.
        if self.allgather.fresh:
            super()._trace_comm(name, dim, backward)
