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
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import device_track

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
        telemetry: Telemetry = Telemetry(),
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
        self.telemetry = telemetry
        self.sim_clock = 0.0
        self._compute_model = None
        if telemetry.armed:
            from repro.simulator.compute import ComputeModel

            self._compute_model = ComputeModel()

    def _trace_phase(self, name: str, epoch: int) -> None:
        """Price one forward (or backward) pass and span it on the
        private clock; skipped when the telemetry handle is disarmed."""
        if not self.telemetry.armed:
            return
        n, e = self.graph.num_vertices, self.graph.num_edges
        seconds = 0.0
        for layer in self.model.layers:
            cost = layer.compute_cost(n, n, e)
            if name == "backward":
                cost = cost.scaled(2.0)
            seconds += self._compute_model.seconds(cost)
        self.telemetry.span(name, "phase", device_track(0), self.sim_clock,
                            self.sim_clock + seconds, epoch=epoch)
        self.sim_clock += seconds

    def run_epoch(self, update: bool = True) -> EpochResult:
        """One forward + backward pass over every vertex."""
        epoch = len(self.loss_history)
        logits, caches = self.model.forward(self.ctx, self.features)
        self._trace_phase("forward", epoch)
        loss, grad_logits = softmax_cross_entropy(logits, self.labels)
        feature_grad, grads = self.model.backward(self.ctx, caches, grad_logits)
        self._trace_phase("backward", epoch)
        if update:
            self.optimizer.step(grads)
            self.telemetry.span("optimizer.step", "phase", device_track(0),
                                self.sim_clock, self.sim_clock, epoch=epoch)
        self.loss_history.append(loss)
        return EpochResult(loss=loss, logits=logits, feature_grad=feature_grad)

    def train(self, epochs: int) -> List[float]:
        """Run ``epochs`` epochs; returns the loss history."""
        for _ in range(epochs):
            self.run_epoch()
        return list(self.loss_history)
