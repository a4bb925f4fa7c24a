"""Multi-layer GNN models and a plain SGD optimizer.

The paper evaluates three 2-layer models (GCN, CommNet, GIN) with the
per-dataset feature/hidden dimensions of Table 4.  :func:`build_model`
assembles them by name; :class:`GNNModel` wires layer forward/backward
chains and exposes the aggregate compute-cost descriptor the simulator
prices.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import TrainingSpecError, UnknownModelError
from repro.gnn.layers import (
    CommNetLayer,
    GATLayer,
    GCNLayer,
    GINLayer,
    GraphContext,
    SAGELayer,
)
from repro.simulator.compute import LayerComputeCost

__all__ = [
    "GNNModel",
    "SGD",
    "build_gcn",
    "build_commnet",
    "build_gin",
    "build_sage",
    "build_gat",
    "build_model",
    "MODEL_BUILDERS",
]


class GNNModel:
    """A stack of GNN layers sharing one graph context per device.

    Construction rejects an empty stack, and a stack in which a layer's
    input width differs from the previous layer's output width, with a
    :class:`~repro.errors.TrainingSpecError`.
    """

    def __init__(self, layers: Sequence, name: str = "gnn") -> None:
        if not layers:
            raise TrainingSpecError("a model needs at least one layer")
        for i in range(1, len(layers)):
            if layers[i].in_dim != layers[i - 1].out_dim:
                raise TrainingSpecError(
                    f"layer {i} takes width {layers[i].in_dim} but layer "
                    f"{i - 1} outputs width {layers[i - 1].out_dim}"
                )
        self.layers = list(layers)
        self.name = name

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def layer_dims(self) -> List[int]:
        """Embedding widths at every layer boundary: [in, h1, ..., out]."""
        dims = [self.layers[0].in_dim]
        dims.extend(layer.out_dim for layer in self.layers)
        return dims

    def parameter_count(self) -> int:
        """Total learnable parameters across all layers."""
        return sum(layer.parameter_count() for layer in self.layers)

    def memory_dims(self) -> List[int]:
        """All per-row activation widths, including MLP intermediates."""
        dims = [self.layers[0].in_dim]
        for layer in self.layers:
            dims.extend(layer.memory_dims)
        return dims

    # ------------------------------------------------------------------
    def forward(
        self, ctx: GraphContext, h: np.ndarray
    ) -> Tuple[np.ndarray, List]:
        """Single-context forward (all layers see the same rows)."""
        caches = []
        for layer in self.layers:
            h, cache = layer.forward(ctx, h)
            caches.append(cache)
        return h, caches

    def backward(
        self, ctx: GraphContext, caches: List, grad_out: np.ndarray
    ) -> List[Dict[str, np.ndarray]]:
        """Backward through every layer; returns the per-layer weight
        gradients.  Input features need no gradient, so layer 0 skips it."""
        grads: List[Dict[str, np.ndarray]] = [None] * self.num_layers
        grad = grad_out
        for i in reversed(range(self.num_layers)):
            grad, grads[i] = self.layers[i].backward(ctx, caches[i], grad,
                                                     input_grad=i > 0)
        return grads

    # ------------------------------------------------------------------
    def compute_cost(
        self,
        num_dst: int,
        num_rows: int,
        num_edges: int,
        backward_factor: float = 2.0,
    ) -> LayerComputeCost:
        """Cost of one epoch's compute on a device holding this slice.

        The backward pass touches the same data with roughly twice the
        dense work (two GEMMs per forward GEMM), hence
        ``backward_factor``.
        """
        total = LayerComputeCost()
        for layer in self.layers:
            fwd = layer.compute_cost(num_dst, num_rows, num_edges)
            total = total + fwd + fwd.scaled(backward_factor)
        return total

    def state_bytes(self) -> int:
        """Bytes of all parameters (the model-sync payload)."""
        return sum(
            p.nbytes for layer in self.layers for p in layer.params.values()
        )


class SGD:
    """Plain gradient descent over all layers of a model."""

    def __init__(self, model: GNNModel, lr: float = 0.01) -> None:
        self.model = model
        self.lr = lr

    def step(self, grads: List[Dict[str, np.ndarray]]) -> None:
        """Apply one gradient-descent update per layer."""
        if len(grads) != self.model.num_layers:
            raise ValueError("gradient list does not match the layer count")
        for layer, layer_grads in zip(self.model.layers, grads):
            layer.apply_grads(layer_grads, self.lr)


def build_gcn(
    feature_size: int,
    hidden_size: int,
    num_classes: int,
    num_layers: int = 2,
    seed: int = 0,
) -> GNNModel:
    """The paper's default model: a ``num_layers``-layer GCN."""
    dims = [feature_size] + [hidden_size] * (num_layers - 1) + [num_classes]
    layers = [
        GCNLayer(dims[i], dims[i + 1], activation=i < num_layers - 1, seed=seed + i)
        for i in range(num_layers)
    ]
    return GNNModel(layers, name="gcn")


def build_commnet(
    feature_size: int,
    hidden_size: int,
    num_classes: int,
    num_layers: int = 2,
    seed: int = 0,
) -> GNNModel:
    """A ``num_layers``-layer CommNet (two transforms per layer)."""
    dims = [feature_size] + [hidden_size] * (num_layers - 1) + [num_classes]
    layers = [
        CommNetLayer(dims[i], dims[i + 1], activation=i < num_layers - 1,
                     seed=seed + i)
        for i in range(num_layers)
    ]
    return GNNModel(layers, name="commnet")


def build_gin(
    feature_size: int,
    hidden_size: int,
    num_classes: int,
    num_layers: int = 2,
    seed: int = 0,
) -> GNNModel:
    """A ``num_layers``-layer GIN (MLP update; the heaviest model)."""
    dims = [feature_size] + [hidden_size] * (num_layers - 1) + [num_classes]
    layers = [
        GINLayer(dims[i], dims[i + 1], activation=i < num_layers - 1,
                 seed=seed + i)
        for i in range(num_layers)
    ]
    return GNNModel(layers, name="gin")


def build_sage(
    feature_size: int,
    hidden_size: int,
    num_classes: int,
    num_layers: int = 2,
    seed: int = 0,
) -> GNNModel:
    """GraphSAGE with the mean aggregator (beyond the evaluation trio)."""
    dims = [feature_size] + [hidden_size] * (num_layers - 1) + [num_classes]
    layers = [
        SAGELayer(dims[i], dims[i + 1], activation=i < num_layers - 1,
                  seed=seed + i)
        for i in range(num_layers)
    ]
    return GNNModel(layers, name="sage")


def build_gat(
    feature_size: int,
    hidden_size: int,
    num_classes: int,
    num_layers: int = 2,
    seed: int = 0,
) -> GNNModel:
    """Single-head GAT (beyond the evaluation trio)."""
    dims = [feature_size] + [hidden_size] * (num_layers - 1) + [num_classes]
    layers = [
        GATLayer(dims[i], dims[i + 1], activation=i < num_layers - 1,
                 seed=seed + i)
        for i in range(num_layers)
    ]
    return GNNModel(layers, name="gat")


MODEL_BUILDERS = {
    "gcn": build_gcn,
    "commnet": build_commnet,
    "gin": build_gin,
    "sage": build_sage,
    "gat": build_gat,
}


def build_model(
    name: str,
    feature_size: int,
    hidden_size: int,
    num_classes: int,
    num_layers: int = 2,
    seed: int = 0,
) -> GNNModel:
    """Build one of :data:`MODEL_BUILDERS` by name.

    An unknown name raises :class:`~repro.errors.UnknownModelError`;
    ``num_layers < 1`` raises :class:`~repro.errors.TrainingSpecError`.
    """
    try:
        builder = MODEL_BUILDERS[name.lower()]
    except KeyError:
        raise UnknownModelError(name, sorted(MODEL_BUILDERS)) from None
    return builder(feature_size, hidden_size, num_classes, num_layers, seed)
