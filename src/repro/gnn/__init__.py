"""Numpy GNN substrate: layers, models, losses and trainers.

This package stands in for the single-GPU GNN system (DGL in the paper):
CSR-based aggregate-update layers for the three evaluated models — GCN,
CommNet and GIN — with hand-written backward passes, a full-graph
trainer, and the cost descriptors the simulator uses to price each
layer's computation.

The distributed trainers run the same layers on per-device partitions,
calling graphAllgather between layers, through one shared pass,
:func:`repro.gnn.distributed.data_parallel_pass`: the full-graph
``DistributedTrainer`` (bit-compatible with the single-device trainer —
the library's strongest end-to-end correctness check) and the sampled
:class:`MiniBatchTrainer` differ only in the allgather they plug in and
the rows that carry the loss.  Trainer telemetry is priced and laid out
after the pass, so it never touches the numerics.
"""

from repro.gnn.functional import (
    aggregate_mean,
    aggregate_sum,
    relu,
    segment_sum,
    softmax_cross_entropy,
)
from repro.gnn.layers import (
    CommNetLayer,
    GATLayer,
    GCNLayer,
    GINLayer,
    GraphContext,
    SAGELayer,
)
from repro.gnn.models import (
    GNNModel,
    SGD,
    build_commnet,
    build_gat,
    build_gcn,
    build_gin,
    build_model,
    build_sage,
)
from repro.gnn.optim import Adam
from repro.gnn.checkpoint import Checkpoint, restore, snapshot
from repro.gnn.minibatch import MiniBatchOracle, MiniBatchResult, MiniBatchTrainer
from repro.gnn.resilient import FaultRecoveryReport, ResilientTrainer
from repro.gnn.training import SingleDeviceTrainer

__all__ = [
    "segment_sum",
    "aggregate_sum",
    "aggregate_mean",
    "relu",
    "softmax_cross_entropy",
    "GraphContext",
    "GCNLayer",
    "CommNetLayer",
    "GINLayer",
    "SAGELayer",
    "GATLayer",
    "GNNModel",
    "SGD",
    "Adam",
    "build_gcn",
    "build_commnet",
    "build_gin",
    "build_sage",
    "build_gat",
    "build_model",
    "SingleDeviceTrainer",
    "MiniBatchTrainer",
    "MiniBatchOracle",
    "MiniBatchResult",
    "Checkpoint",
    "snapshot",
    "restore",
    "ResilientTrainer",
    "FaultRecoveryReport",
]
