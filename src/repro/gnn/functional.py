"""Sparse-product primitives for CSR-based GNN computation.

The central primitive is :func:`segment_sum`, the one aggregation
kernel.  Every neighbor sum of the layers, their backward scatter,
GAT's attention-weighted sum and PageRank's rank gather are a single
product ``A @ values`` of a CSR operator ``A`` with a dense row block
(SciPy's ``csr_array``), the way DGL runs message passing as one fused
SpMM.  The product reads each input row through the CSR column
indices, so no per-edge ``E x F`` operand is ever built; only
:func:`edge_dot` touches per-edge rows, in bounded blocks.

SciPy is imported inside the kernel rather than with this module:
``import scipy.sparse`` costs about 22 MB of resident memory, which a
process that never aggregates (serving) should not pay.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "segment_sum",
    "segment_sum_grad",
    "edge_dot",
    "aggregate_sum",
    "aggregate_mean",
    "scatter_back",
    "relu",
    "relu_grad",
    "softmax_cross_entropy",
]

#: Edges per block of :func:`edge_dot` (bounds its temporaries).
EDGE_BLOCK = 1 << 14


def _operator(indptr: np.ndarray, indices: Optional[np.ndarray],
              weights: Optional[np.ndarray], num_cols: int, dtype):
    """The ``(indptr.size - 1) x num_cols`` CSR operator of a segment sum.

    Entries past ``indptr[-1]`` are ignored, so a caller may pass the
    full index array with a truncated ``indptr``.
    """
    import scipy.sparse

    nnz = int(indptr[-1])
    indices = np.arange(nnz) if indices is None else indices[:nnz]
    if nnz and (indices.min() < 0 or indices.max() >= num_cols):
        raise IndexError(f"a CSR entry addresses a row outside [0, {num_cols})")
    data = np.ones(nnz, dtype=dtype) if weights is None else weights[:nnz]
    return scipy.sparse.csr_array((data, indices, indptr),
                                  shape=(indptr.size - 1, num_cols))


def segment_sum(values: np.ndarray, indptr: np.ndarray,
                indices: Optional[np.ndarray] = None,
                weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Weighted sum of ``values`` rows within CSR segments.

    ``out[i] = sum(w[e] * values[indices[e]] for e in
    range(indptr[i], indptr[i+1]))``, computed as one sparse-dense
    product.  ``indices=None`` reads one row per entry (``indices[e] =
    e``); ``weights=None`` weights every entry 1.  ``values`` is 1-D or
    2-D, ``indptr`` starts at 0, and empty segments yield zero rows.
    """
    return _operator(indptr, indices, weights, values.shape[0],
                     values.dtype) @ values


def segment_sum_grad(grad_out: np.ndarray, indptr: np.ndarray,
                     indices: Optional[np.ndarray], weights: Optional[np.ndarray],
                     num_rows: int) -> np.ndarray:
    """Backward of :func:`segment_sum` w.r.t. its ``num_rows`` value rows.

    The transposed product of the same operator:
    ``out[indices[e]] += w[e] * grad_out[segment of e]``.
    """
    return _operator(indptr, indices, weights, num_rows,
                     grad_out.dtype).T @ grad_out


def edge_dot(x: np.ndarray, x_rows: np.ndarray, y: np.ndarray,
             y_rows: np.ndarray) -> np.ndarray:
    """Per-edge dot products ``x[x_rows[e]] . y[y_rows[e]]`` (an SDDMM).

    Gathers at most :data:`EDGE_BLOCK` edges' rows at a time, so the
    temporaries stay bounded however many edges there are.
    """
    out = np.empty(x_rows.size, dtype=np.result_type(x, y))
    for start in range(0, x_rows.size, EDGE_BLOCK):
        block = slice(start, start + EDGE_BLOCK)
        out[block] = np.einsum("ef,ef->e", x[x_rows[block]], y[y_rows[block]])
    return out


def aggregate_sum(
    h: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Per-vertex sum of in-neighbor rows: ``out[v] = sum_u h[u]``.

    ``indptr``/``indices`` are the in-CSR: segment ``v`` lists the
    in-neighbors of ``v``.
    """
    return segment_sum(h, indptr, indices)


def aggregate_mean(
    h: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Per-vertex mean of in-neighbor rows (zero for isolated vertices)."""
    sums = aggregate_sum(h, indptr, indices)
    deg = np.diff(indptr).astype(h.dtype)
    deg[deg == 0] = 1
    return sums / deg[:, None]


def scatter_back(
    grad_out: np.ndarray,
    out_indptr: np.ndarray,
    out_indices: np.ndarray,
    num_rows: int,
) -> np.ndarray:
    """Backward of :func:`aggregate_sum`.

    The forward sums ``h[u]`` into ``out[v]`` for each edge ``u -> v``;
    the backward therefore sums ``grad_out[v]`` into ``grad_h[u]``.
    ``out_indptr``/``out_indices`` are the *out*-CSR (segment ``u`` lists
    the heads of u's out-edges) over at least ``num_rows`` rows.
    """
    return segment_sum(grad_out, out_indptr[: num_rows + 1], out_indices)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0)


def relu_grad(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Backward of :func:`relu`: mask ``grad`` where ``x <= 0``."""
    return grad * (x > 0)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. ``logits``."""
    if logits.ndim != 2:
        raise ValueError("logits must be (rows, classes)")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = np.finfo(probs.dtype).tiny
    loss = float(-np.log(probs[np.arange(n), labels] + eps).mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n
