"""Distributed full-graph training over simulated devices.

This is the Listing-1 workflow of the paper executed for real: each
device holds one partition, calls graphAllgather before every layer,
runs the unmodified single-GPU layer on its local graph, and in the
backward pass ships remote-vertex gradients back through the reversed
communication trees.  Model weights are data-parallel: gradients are
summed across devices (the paper delegates this to Horovod/DDP and
notes GNN models are small).

:func:`data_parallel_pass` is that layer loop, written once: the
full-graph :class:`DistributedTrainer` and the sampled
:class:`~repro.gnn.minibatch.MiniBatchTrainer` both run it, differing
only in the allgather they plug in and the rows that carry the loss.

The trainer is *functionally* distributed — every embedding row really
moves through the planned trees — while running in one process.  Its
output is asserted (in the test suite) to match
:class:`~repro.gnn.training.SingleDeviceTrainer` within float reduction
order (relative 1e-5: a partitioned sum adds the same terms in another
order), which is the paper's correctness criterion ("all baselines are
equivalent in single-GPU training from the algorithm perspective").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.allgather import CompiledAllgather
from repro.core.plan import CommPlan
from repro.core.relation import CommRelation
from repro.gnn.functional import softmax_cross_entropy
from repro.gnn.layers import GraphContext
from repro.gnn.models import GNNModel, SGD
from repro.gnn.training import EpochResult, check_training_inputs
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import TRAINER_TRACK, device_track

__all__ = ["DistributedTrainer", "data_parallel_pass", "device_contexts"]

BYTES_PER_FLOAT = 4

WeightGrads = List[Dict[str, np.ndarray]]


def device_contexts(relation: CommRelation) -> List[GraphContext]:
    """Every device's layer context over its local graph."""
    contexts = []
    for d in range(relation.num_devices):
        lg = relation.local_graph(d)
        contexts.append(GraphContext.from_graph(lg.graph, num_dst=lg.num_local))
    return contexts


def data_parallel_pass(
    model: GNNModel,
    contexts: Sequence[GraphContext],
    inputs: Sequence[np.ndarray],
    targets: Sequence[Tuple[Optional[np.ndarray], np.ndarray]],
    num_targets: int,
    allgather,
) -> Tuple[float, WeightGrads, List[np.ndarray]]:
    """One data-parallel forward/backward pass over every device.

    Forward: before each layer, ``allgather.forward`` adds the remote
    rows to every device's local rows; each device then runs the layer
    on its own context.  Loss: ``targets[d]`` is ``(rows, labels)``,
    the output rows of device ``d`` that carry a loss (``None`` for all
    of them) and their labels.  Each device's mean cross-entropy is
    weighted by its share of ``num_targets``, so the sum is the global
    mean.  Backward: the layers run in reverse and, between them,
    ``allgather.backward`` returns remote-row gradients to their owners.

    Returns the loss, the weight gradients summed over devices, and
    every device's output rows.
    """
    num_devices = len(contexts)
    h_local = list(inputs)
    caches: List[List] = [[] for _ in range(num_devices)]
    for layer in model.layers:
        h_full = allgather.forward(h_local)
        for d in range(num_devices):
            h_local[d], cache = layer.forward(contexts[d], h_full[d])
            caches[d].append(cache)

    loss = 0.0
    grad: List[np.ndarray] = []
    for out, (rows, labels) in zip(h_local, targets):
        picked = out if rows is None else out[rows]
        if picked.shape[0] == 0:
            grad.append(np.zeros_like(out))
            continue
        l_d, g_d = softmax_cross_entropy(picked, labels)
        weight = picked.shape[0] / num_targets
        loss += l_d * weight
        if rows is None:
            grad.append(g_d * weight)
        else:
            grad.append(np.zeros_like(out))
            grad[-1][rows] = g_d * weight

    weight_grads: WeightGrads = [None] * model.num_layers
    for li in reversed(range(model.num_layers)):
        layer = model.layers[li]
        full_grads = []
        for d in range(num_devices):
            g_full, g_params = layer.backward(contexts[d], caches[d][li], grad[d])
            full_grads.append(g_full)
            if weight_grads[li] is None:
                weight_grads[li] = {k: v.copy() for k, v in g_params.items()}
            else:
                for k, v in g_params.items():
                    weight_grads[li][k] += v
        if li > 0:  # input features need no gradient: layer 0 skips it
            grad = allgather.backward(full_grads)
    return loss, weight_grads, h_local


class DistributedTrainer:
    """Data-parallel full-graph training over a communication plan."""

    def __init__(
        self,
        relation: CommRelation,
        plan: CommPlan,
        model: GNNModel,
        features: np.ndarray,
        labels: np.ndarray,
        lr: float = 0.01,
        optimizer=None,
        telemetry: Telemetry = Telemetry(),
    ) -> None:
        check_training_inputs(model, features, labels,
                              relation.graph.num_vertices)
        self.relation = relation
        self.plan = plan
        self.model = model
        self.labels = labels
        self.optimizer = optimizer or SGD(model, lr=lr)
        self.allgather = CompiledAllgather(relation, plan)
        self.loss_history: List[float] = []

        self.num_devices = relation.num_devices
        self._contexts = device_contexts(relation)
        self._local_features = [features[ids].astype(np.float32, copy=False)
                                for ids in relation.local_vertices]
        self._targets = [(None, labels[ids]) for ids in relation.local_vertices]
        self._total_vertices = relation.graph.num_vertices

        #: Optional telemetry.  The functional trainer has no clock of
        #: its own, so phases are priced the same way the evaluation
        #: does — collectives on the flow simulator, kernels on the
        #: compute model — and laid out on the tracer's phase clock
        #: after each pass.  Numerics never depend on the tracer.
        self.telemetry = telemetry
        self._price_executor = None
        self._compute_model = None
        self._sync_seconds = 0.0
        if telemetry.armed:
            from repro.comm.collectives import ring_allreduce_time
            from repro.simulator.compute import ComputeModel
            from repro.simulator.executor import PlanExecutor

            self._price_executor = PlanExecutor(
                plan.topology, telemetry=telemetry
            )
            self._compute_model = ComputeModel()
            if self.num_devices >= 2:
                self._sync_seconds = ring_allreduce_time(
                    plan.topology, model.state_bytes()
                )

    # ------------------------------------------------------------------
    # Telemetry pricing (only when the telemetry handle is armed)
    def _trace_comm(self, name: str, dim: int, backward: bool) -> None:
        """Price one collective and lay its spans on the phase clock."""
        report = self._price_executor.execute(
            self.plan, dim * BYTES_PER_FLOAT, backward=backward
        )
        self.telemetry.phase(name, report.total_time,
                             bytes=report.bytes_moved())

    def _trace_compute(self, name: str, layer, backward: bool) -> None:
        """Price one layer's kernels; one span per device, max advances."""
        durations = []
        for ctx in self._contexts:
            cost = layer.compute_cost(ctx.num_dst, ctx.num_rows, ctx.num_edges)
            if backward:
                cost = cost.scaled(2.0)
            durations.append(self._compute_model.seconds(cost))
        worst = max(durations, default=0.0)
        telemetry = self.telemetry
        t0 = telemetry.now
        for d, dur in enumerate(durations):
            telemetry.span(name, "compute", device_track(d), t0, t0 + dur)
        telemetry.phase(name, worst)
        if durations:
            telemetry.observe("compute.straggler_gap", worst - min(durations))

    def _trace_epoch(self, loss: float, update: bool) -> None:
        """Lay one finished pass's phases on the phase clock, in pass order.

        Allgather and forward per layer, then backward and scatter per
        layer in reverse (layer 0 has no scatter), then the optimizer
        allreduce and the epoch span.
        """
        telemetry = self.telemetry
        start = telemetry.now
        dims = self.model.layer_dims
        for li, layer in enumerate(self.model.layers):
            self._trace_comm(f"allgather L{li}", dims[li], backward=False)
            self._trace_compute(f"L{li} forward", layer, backward=False)
        for li in reversed(range(self.model.num_layers)):
            self._trace_compute(f"L{li} backward", self.model.layers[li],
                                backward=True)
            if li > 0:
                self._trace_comm(f"scatter L{li}", dims[li], backward=True)
        if telemetry.tracer is None:
            return  # the epoch's length is read off the tracer's clock
        if update:
            telemetry.phase("optimizer.allreduce", self._sync_seconds,
                            bytes=self.model.state_bytes())
        telemetry.span(f"epoch {len(self.loss_history)}", "epoch",
                       TRAINER_TRACK, start, telemetry.now, loss=float(loss))
        telemetry.observe("epoch.seconds", telemetry.now - start)

    # ------------------------------------------------------------------
    def run_epoch(self, update: bool = True) -> EpochResult:
        """One distributed forward/backward pass (all devices)."""
        loss, weight_grads, outputs = data_parallel_pass(
            self.model, self._contexts, self._local_features, self._targets,
            self._total_vertices, self.allgather,
        )
        if update:
            self.optimizer.step(weight_grads)
        if self._price_executor is not None:
            self._trace_epoch(loss, update)
        self.loss_history.append(loss)
        return EpochResult(loss=loss, logits=self.gather_logits(outputs),
                           feature_grad=None)

    def gather_logits(self, h_local: List[np.ndarray]) -> np.ndarray:
        """Assemble per-device outputs into global vertex order."""
        dim = h_local[0].shape[1]
        logits = np.zeros((self._total_vertices, dim), dtype=h_local[0].dtype)
        for d in range(self.num_devices):
            logits[self.relation.local_vertices[d]] = h_local[d]
        return logits

    def train(self, epochs: int) -> List[float]:
        """Run ``epochs`` distributed epochs; returns the loss history."""
        for _ in range(epochs):
            self.run_epoch()
        return list(self.loss_history)
