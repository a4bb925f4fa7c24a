"""Single-device full-graph training — the reference implementation.

Every distributed strategy in the paper is algorithmically identical to
single-GPU training (§7, "all our baselines are equivalent in
single-GPU training from the algorithm perspective"), which makes this
trainer the ground truth the distributed trainer is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.gnn.functional import softmax_cross_entropy
from repro.gnn.layers import GraphContext
from repro.gnn.models import GNNModel, SGD
from repro.graph.csr import Graph
from repro.obs.tracer import Tracer, device_track

__all__ = ["EpochResult", "SingleDeviceTrainer", "check_training_inputs"]


def check_training_inputs(model: GNNModel, features: np.ndarray,
                          labels: np.ndarray, num_vertices: int) -> None:
    """Reject features or labels that do not fit the graph and the model.

    Every trainer calls this at construction, so a short label vector
    or a too-wide feature matrix fails there with a ``ValueError``
    rather than as an index or matmul error inside an epoch.
    """
    if features.ndim != 2 or features.shape[0] != num_vertices:
        raise ValueError(
            f"features must be a matrix with one row per vertex "
            f"({num_vertices}), got shape {features.shape}"
        )
    if labels.shape[0] != num_vertices:
        raise ValueError(
            f"labels must cover every vertex ({num_vertices}), "
            f"got {labels.shape[0]}"
        )
    if features.shape[1] != model.layer_dims[0]:
        raise ValueError(
            f"feature width {features.shape[1]} does not match the "
            f"model input {model.layer_dims[0]}"
        )


@dataclass
class EpochResult:
    """Loss and output of one forward/backward epoch."""

    loss: float
    logits: np.ndarray
    feature_grad: Optional[np.ndarray] = None


class SingleDeviceTrainer:
    """Full-graph training of a model on one (simulated) device."""

    def __init__(
        self,
        graph: Graph,
        model: GNNModel,
        features: np.ndarray,
        labels: np.ndarray,
        lr: float = 0.01,
        optimizer=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        check_training_inputs(model, features, labels, graph.num_vertices)
        self.graph = graph
        self.model = model
        self.features = features.astype(np.float32, copy=True)
        self.labels = labels
        self.ctx = GraphContext.from_graph(graph)
        self.optimizer = optimizer or SGD(model, lr=lr)
        self.loss_history: List[float] = []
        #: Optional telemetry: phase spans priced by the compute model
        #: on a private simulated clock (numerics are untouched).
        self.tracer = tracer
        self.sim_clock = 0.0
        self._compute_model = None
        if tracer is not None:
            from repro.simulator.compute import ComputeModel

            self._compute_model = ComputeModel()

    def _phase_seconds(self, backward: bool) -> float:
        """Simulated compute cost of one forward (or backward) pass."""
        n, e = self.graph.num_vertices, self.graph.num_edges
        total = 0.0
        for layer in self.model.layers:
            cost = layer.compute_cost(n, n, e)
            if backward:
                cost = cost.scaled(2.0)
            total += self._compute_model.seconds(cost)
        return total

    def run_epoch(self, update: bool = True) -> EpochResult:
        """One forward + backward pass over every vertex."""
        tracer = self.tracer
        epoch = len(self.loss_history)
        logits, caches = self.model.forward(self.ctx, self.features)
        if tracer is not None:
            fwd = self._phase_seconds(backward=False)
            tracer.add_span("forward", "phase", device_track(0),
                            self.sim_clock, self.sim_clock + fwd, epoch=epoch)
            self.sim_clock += fwd
        loss, grad_logits = softmax_cross_entropy(logits, self.labels)
        feature_grad, grads = self.model.backward(self.ctx, caches, grad_logits)
        if tracer is not None:
            bwd = self._phase_seconds(backward=True)
            tracer.add_span("backward", "phase", device_track(0),
                            self.sim_clock, self.sim_clock + bwd, epoch=epoch)
            self.sim_clock += bwd
        if update:
            self.optimizer.step(grads)
            if tracer is not None:
                tracer.instant("optimizer.step", "phase", device_track(0),
                               self.sim_clock, epoch=epoch)
        self.loss_history.append(loss)
        return EpochResult(loss=loss, logits=logits, feature_grad=feature_grad)

    def train(self, epochs: int) -> List[float]:
        """Run ``epochs`` epochs; returns the loss history."""
        for _ in range(epochs):
            self.run_epoch()
        return list(self.loss_history)
