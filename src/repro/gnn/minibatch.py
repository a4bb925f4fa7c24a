"""Mini-batch distributed training over per-batch communication plans.

The sampled-training counterpart of
:class:`~repro.gnn.distributed.DistributedTrainer`: every step draws a
seed batch from a :class:`~repro.sampling.loader.SeedLoader`, samples
its subgraph, plans the batch's communication through the
:class:`~repro.sampling.planner.BatchPlanner` ladder (cache → patch →
cold SPST) and runs the shared data-parallel pass on the batch's
own :class:`~repro.core.relation.CommRelation`.  The loss is taken on
the *seed* rows only — the layer-sampled halo rows exist purely to
feed aggregation, exactly as in DistDGL.

:class:`MiniBatchOracle` is the correctness reference: a single-device
trainer consuming the *same* batch stream (samplers and loaders are
stateless, so two consumers replay identical streams) with a full
local-id forward.  The parity suite pins the distributed trainer's
per-batch loss and weight gradients to the oracle's to float
precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.comm.allgather import CompiledAllgather
from repro.gnn.distributed import (
    WeightGrads,
    data_parallel_pass,
    device_contexts,
)
from repro.gnn.functional import softmax_cross_entropy
from repro.gnn.layers import GraphContext
from repro.gnn.models import GNNModel, SGD
from repro.gnn.training import check_training_inputs

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports.
    # Imported lazily: repro.sampling pulls in repro.autotune, whose
    # package init reaches back into repro.gnn through the baselines.
    from repro.sampling.loader import SeedLoader
    from repro.sampling.planner import BatchPlanner, PlannedBatch
    from repro.sampling.samplers import SampledSubgraph

__all__ = ["MiniBatchResult", "MiniBatchOracle", "MiniBatchTrainer"]


@dataclass(frozen=True)
class MiniBatchResult:
    """Outcome of one mini-batch step."""

    loss: float
    num_seeds: int
    num_vertices: int
    plan_source: str
    plan_wall_seconds: float


class MiniBatchOracle:
    """Single-device reference for sampled training.

    Runs each :class:`~repro.sampling.samplers.SampledSubgraph` as one
    dense local-id forward/backward with the loss restricted to the
    seed rows.  Feed it the same batch stream as a
    :class:`MiniBatchTrainer` holding an identically-initialised model
    and the two must agree to float precision — the acceptance bar of
    the sampling pipeline.
    """

    def __init__(
        self,
        model: GNNModel,
        features: np.ndarray,
        labels: np.ndarray,
        lr: float = 0.01,
        optimizer=None,
    ) -> None:
        check_training_inputs(model, features, labels, features.shape[0])
        self.model = model
        self.features = features.astype(np.float32, copy=True)
        self.labels = labels
        self.optimizer = optimizer or SGD(model, lr=lr)
        self.loss_history: List[float] = []

    def batch_gradients(
        self, batch: SampledSubgraph
    ) -> Tuple[float, WeightGrads]:
        """Loss and per-layer weight gradients of one batch (no update)."""
        ctx = GraphContext.from_graph(batch.graph)
        h = self.features[batch.vertices]
        logits, caches = self.model.forward(ctx, h)
        rows = batch.seed_rows
        loss, g_seed = softmax_cross_entropy(
            logits[rows], self.labels[batch.seeds]
        )
        grad = np.zeros_like(logits)
        grad[rows] = g_seed
        return loss, self.model.backward(ctx, caches, grad)

    def run_batch(
        self, batch: SampledSubgraph, update: bool = True
    ) -> MiniBatchResult:
        """One oracle step (optionally applying the optimizer)."""
        loss, grads = self.batch_gradients(batch)
        if update:
            self.optimizer.step(grads)
        self.loss_history.append(loss)
        return MiniBatchResult(
            loss=loss,
            num_seeds=batch.num_seeds,
            num_vertices=batch.num_vertices,
            plan_source="oracle",
            plan_wall_seconds=0.0,
        )


class MiniBatchTrainer:
    """Data-parallel sampled training with per-batch planning.

    Each step re-derives the batch's device layout from the *parent*
    partition held by ``planner`` (a vertex lands on the same device
    whether it arrives full-graph or sampled), compiles the batch plan
    into a :class:`~repro.comm.allgather.CompiledAllgather` and runs
    the full-graph trainer's layer loop,
    :func:`~repro.gnn.distributed.data_parallel_pass`, with the loss on
    each device's seed rows.
    """

    def __init__(
        self,
        model: GNNModel,
        features: np.ndarray,
        labels: np.ndarray,
        sampler,
        loader: SeedLoader,
        planner: BatchPlanner,
        lr: float = 0.01,
        optimizer=None,
    ) -> None:
        check_training_inputs(model, features, labels,
                              planner.graph.num_vertices)
        self.model = model
        self.features = features.astype(np.float32, copy=True)
        self.labels = labels
        self.sampler = sampler
        self.loader = loader
        self.planner = planner
        self.optimizer = optimizer or SGD(model, lr=lr)
        self.loss_history: List[float] = []
        self.results: List[MiniBatchResult] = []

    # ------------------------------------------------------------------
    def batch_gradients(
        self, planned: PlannedBatch
    ) -> Tuple[float, WeightGrads]:
        """Distributed loss + summed weight gradients of one batch.

        No optimizer update — this is the surface the parity suite
        compares against :meth:`MiniBatchOracle.batch_gradients`.
        """
        batch, relation = planned.subgraph, planned.relation
        inputs, targets = [], []
        for local_ids in relation.local_vertices:  # batch-local vertex ids
            parent_ids = batch.vertices[local_ids]
            seed_pos = np.flatnonzero(np.isin(local_ids, batch.seed_rows))
            inputs.append(self.features[parent_ids])
            targets.append((seed_pos, self.labels[parent_ids[seed_pos]]))
        loss, weight_grads, _ = data_parallel_pass(
            self.model, device_contexts(relation), inputs, targets,
            batch.num_seeds, CompiledAllgather(relation, planned.plan),
        )
        return loss, weight_grads

    def run_batch(
        self, planned: PlannedBatch, update: bool = True
    ) -> MiniBatchResult:
        """One distributed mini-batch step."""
        loss, grads = self.batch_gradients(planned)
        if update:
            self.optimizer.step(grads)
        result = MiniBatchResult(
            loss=loss,
            num_seeds=planned.num_seeds,
            num_vertices=planned.subgraph.num_vertices,
            plan_source=planned.plan_source,
            plan_wall_seconds=planned.wall_seconds,
        )
        self.loss_history.append(loss)
        self.results.append(result)
        return result

    # ------------------------------------------------------------------
    def batch_stream(self, epoch: int = 0):
        """The epoch's sampled batches, planned and ready to run.

        Batch indices are globalised (``epoch * num_batches + i``) so
        neighbor draws decorrelate across epochs while every batch
        stays a pure function of ``(loader seed, sampler seed,
        epoch, position)`` — two consumers replay identical streams.
        """
        base = epoch * self.loader.num_batches
        for i, seeds in enumerate(self.loader.batches(epoch)):
            batch = self.sampler.sample(seeds, batch_index=base + i)
            yield self.planner.plan_batch(batch)

    def train_epoch(self, epoch: int = 0) -> List[MiniBatchResult]:
        """Run every batch of one epoch; returns the per-batch results."""
        return [self.run_batch(planned) for planned in self.batch_stream(epoch)]

    def train(self, epochs: int) -> List[float]:
        """Run ``epochs`` epochs; returns the per-batch loss history."""
        for epoch in range(epochs):
            self.train_epoch(epoch)
        return list(self.loss_history)
