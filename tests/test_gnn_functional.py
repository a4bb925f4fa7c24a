"""Tests for the numpy GNN primitives, with numerical gradient checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gnn.functional import (
    aggregate_mean,
    aggregate_sum,
    edge_dot,
    relu,
    relu_grad,
    scatter_back,
    segment_sum,
    segment_sum_grad,
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
from repro.graph.csr import Graph
from repro.graph.generators import rmat


def naive_segment_sum(values, indptr):
    out = np.zeros((indptr.size - 1,) + values.shape[1:], values.dtype)
    for i in range(indptr.size - 1):
        out[i] = values[indptr[i]: indptr[i + 1]].sum(axis=0)
    return out


class TestSegmentSum:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((20, 3)).astype(np.float32)
        indptr = np.array([0, 3, 3, 7, 7, 7, 20])
        assert np.allclose(segment_sum(values, indptr),
                           naive_segment_sum(values, indptr))

    def test_all_empty_segments(self):
        values = np.zeros((0, 4), dtype=np.float32)
        indptr = np.zeros(6, dtype=np.int64)
        out = segment_sum(values, indptr)
        assert out.shape == (5, 4)
        assert (out == 0).all()

    def test_leading_and_trailing_empties(self):
        values = np.ones((4, 2), dtype=np.float32)
        indptr = np.array([0, 0, 2, 4, 4])
        out = segment_sum(values, indptr)
        assert out[0].tolist() == [0, 0]
        assert out[1].tolist() == [2, 2]
        assert out[3].tolist() == [0, 0]

    def test_random_graph_aggregation(self):
        g = rmat(100, 600, seed=1)
        rng = np.random.default_rng(1)
        h = rng.standard_normal((100, 5)).astype(np.float32)
        agg = aggregate_sum(h, g.in_indptr, g.in_indices)
        for v in range(0, 100, 17):
            expected = h[g.in_neighbors(v)].sum(axis=0) if g.in_degree()[v] else 0
            assert np.allclose(agg[v], expected, atol=1e-5)


@st.composite
def weighted_csr(draw):
    """A CSR over ``num_rows`` value rows, with optional indices/weights.

    Draws zero segments, zero edges, zero value rows, empty segments,
    1-D or 2-D values and float32 or float64.
    """
    seg_sizes = draw(st.lists(st.integers(0, 5), max_size=12))
    indptr = np.zeros(len(seg_sizes) + 1, dtype=np.int64)
    np.cumsum(seg_sizes, out=indptr[1:])
    nnz = int(indptr[-1])
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = draw(st.sampled_from([None, 1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        num_rows = draw(st.integers(1 if nnz else 0, 8))
        indices = rng.integers(0, max(num_rows, 1), nnz)
    else:
        num_rows, indices = nnz, None
    weights = (rng.standard_normal(nnz).astype(dtype)
               if draw(st.booleans()) else None)
    shape = (num_rows,) if width is None else (num_rows, width)
    values = rng.standard_normal(shape).astype(dtype)
    return values, indptr, indices, weights


def naive_weighted_sum(values, indptr, indices, weights):
    out = np.zeros((indptr.size - 1,) + values.shape[1:], np.float64)
    for i in range(indptr.size - 1):
        for e in range(indptr[i], indptr[i + 1]):
            row = e if indices is None else indices[e]
            w = 1.0 if weights is None else weights[e]
            out[i] += w * values[row].astype(np.float64)
    return out


class TestSparseKernel:
    """``segment_sum`` as one CSR product, against a Python loop."""

    @given(weighted_csr())
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_loop(self, case):
        values, indptr, indices, weights = case
        out = segment_sum(values, indptr, indices, weights)
        assert out.shape == (indptr.size - 1,) + values.shape[1:]
        assert out.dtype == values.dtype
        tol = 1e-5 if values.dtype == np.float32 else 1e-12
        assert np.allclose(out, naive_weighted_sum(values, indptr, indices,
                                                   weights), rtol=tol, atol=tol)

    @given(weighted_csr(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_grad_is_adjoint(self, case, seed):
        """<segment_sum_grad(g), x> == <g, segment_sum(x)>."""
        values, indptr, indices, weights = case
        values = values.astype(np.float64)
        grad = np.random.default_rng(seed).standard_normal(
            (indptr.size - 1,) + values.shape[1:])
        back = segment_sum_grad(grad, indptr, indices, weights,
                                values.shape[0])
        assert back.shape == values.shape
        fwd = segment_sum(values, indptr, indices, weights)
        assert np.isclose((back * values).sum(), (grad * fwd).sum(),
                          rtol=1e-9, atol=1e-9)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(IndexError):
            segment_sum(np.ones((3, 2)), np.array([0, 2]), np.array([0, 3]))

    def test_edge_dot_crosses_blocks(self, monkeypatch):
        import repro.gnn.functional as functional

        monkeypatch.setattr(functional, "EDGE_BLOCK", 7)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((9, 4))
        y = rng.standard_normal((5, 4))
        xr, yr = rng.integers(0, 9, 30), rng.integers(0, 5, 30)
        assert np.allclose(edge_dot(x, xr, y, yr),
                           np.einsum("ef,ef->e", x[xr], y[yr]))

    def test_gcn_builds_no_edge_by_feature_block(self):
        """Forward and backward of a GCN layer on a graph with E >> N
        allocate nothing as large as one ``E x F`` float32 block."""
        rng = np.random.default_rng(0)
        n, e, f = 100, 20_000, 32
        g = Graph(rng.integers(0, n, e), rng.integers(0, n, e), n,
                  dedup=False)
        ctx = GraphContext.from_graph(g)
        layer = GCNLayer(f, f)
        h = rng.standard_normal((n, f)).astype(np.float32)
        segment_sum(h, ctx.in_indptr, ctx.in_indices)  # import SciPy first
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out, cache = layer.forward(ctx, h)
            layer.backward(ctx, cache, np.ones_like(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < g.num_edges * f * 4


class TestAggregates:
    def test_mean_divides_by_degree(self):
        g = Graph([0, 1], [2, 2], 3)
        h = np.array([[2.0], [4.0], [0.0]], dtype=np.float32)
        mean = aggregate_mean(h, g.in_indptr, g.in_indices)
        assert mean[2, 0] == pytest.approx(3.0)

    def test_mean_isolated_vertex_zero(self):
        g = Graph([0], [1], 3)
        h = np.ones((3, 2), dtype=np.float32)
        mean = aggregate_mean(h, g.in_indptr, g.in_indices)
        assert (mean[2] == 0).all()

    def test_scatter_back_transposes_aggregate(self):
        """<scatter(g), h> == <g, aggregate(h)> (adjointness)."""
        g = rmat(60, 300, seed=2)
        rng = np.random.default_rng(3)
        h = rng.standard_normal((60, 4)).astype(np.float64)
        grad = rng.standard_normal((60, 4)).astype(np.float64)
        agg = aggregate_sum(h, g.in_indptr, g.in_indices)
        back = scatter_back(grad, g.out_indptr, g.out_indices, 60)
        assert np.allclose((agg * grad).sum(), (h * back).sum(), rtol=1e-9)


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert relu(x).tolist() == [0.0, 0.0, 2.0]

    def test_relu_grad_masks(self):
        x = np.array([-1.0, 0.5])
        g = np.array([10.0, 10.0])
        assert relu_grad(x, g).tolist() == [0.0, 10.0]


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss(self):
        logits = np.zeros((4, 5), dtype=np.float32)
        labels = np.array([0, 1, 2, 3])
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(5), rel=1e-5)

    def test_gradient_numerically(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((3, 4)).astype(np.float64)
        labels = np.array([1, 3, 0])
        _, grad = softmax_cross_entropy(logits.copy(), labels)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                up = logits.copy(); up[i, j] += eps
                dn = logits.copy(); dn[i, j] -= eps
                lu, _ = softmax_cross_entropy(up, labels)
                ld, _ = softmax_cross_entropy(dn, labels)
                assert grad[i, j] == pytest.approx((lu - ld) / (2 * eps), abs=1e-5)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(3), np.zeros(3, dtype=int))


def numerical_layer_grad_check(layer_cls, seed=0, in_dim=6, out_dim=4,
                               **kwargs):
    """Finite-difference check of a layer's input and weight gradients."""
    g = rmat(25, 120, seed=seed)
    ctx = GraphContext.from_graph(g)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((25, in_dim)).astype(np.float64)
    layer = layer_cls(in_dim, out_dim, seed=seed, **kwargs)
    for name in layer.params:
        layer.params[name] = layer.params[name].astype(np.float64)

    def loss_of(h_val):
        out, _ = layer.forward(ctx, h_val)
        return float((out ** 2).sum()) / 2

    out, cache = layer.forward(ctx, h)
    d_h, grads = layer.backward(ctx, cache, out.copy())

    eps = 1e-6
    rng2 = np.random.default_rng(seed + 1)
    # input gradient at random positions
    for _ in range(8):
        i = int(rng2.integers(25)); j = int(rng2.integers(in_dim))
        up = h.copy(); up[i, j] += eps
        dn = h.copy(); dn[i, j] -= eps
        num = (loss_of(up) - loss_of(dn)) / (2 * eps)
        assert d_h[i, j] == pytest.approx(num, rel=1e-4, abs=1e-6)
    # weight gradients at random positions
    for name, grad in grads.items():
        flat = layer.params[name].reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for _ in range(4):
            k = int(rng2.integers(flat.size))
            orig = flat[k]
            flat[k] = orig + eps
            lu = loss_of(h)
            flat[k] = orig - eps
            ld = loss_of(h)
            flat[k] = orig
            assert gflat[k] == pytest.approx((lu - ld) / (2 * eps),
                                             rel=1e-4, abs=1e-6)


class TestLayerGradients:
    def test_gcn_gradients(self):
        numerical_layer_grad_check(GCNLayer)

    def test_commnet_gradients(self):
        numerical_layer_grad_check(CommNetLayer)

    def test_gin_gradients(self):
        numerical_layer_grad_check(GINLayer)

    def test_gcn_no_activation_gradients(self):
        numerical_layer_grad_check(GCNLayer, activation=False)

    @pytest.mark.parametrize("layer_cls", [GCNLayer, CommNetLayer])
    def test_aggregate_first_gradients(self, layer_cls):
        """4 -> 6 widens, so these layers aggregate before projecting;
        the default 6 -> 4 case covers the projection-first order."""
        numerical_layer_grad_check(layer_cls, in_dim=4, out_dim=6)

    def test_gcn_aggregate_first_no_activation_gradients(self):
        numerical_layer_grad_check(GCNLayer, in_dim=4, out_dim=6,
                                   activation=False)


LAYER_CLASSES = [GCNLayer, CommNetLayer, GINLayer, SAGELayer, GATLayer]
WIDTHS = [(6, 4), (4, 6), (5, 5)]


def _layer_case(layer_cls, in_dim, out_dim, seed=0):
    g = rmat(40, 260, seed=seed)
    # Destination rows are a prefix of the input rows, as on a device.
    ctx = GraphContext.from_graph(
        Graph(g.edges[0], g.edges[1] % 30, 40, dedup=False), num_dst=30
    )
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((40, in_dim)).astype(np.float32)
    return ctx, h, layer_cls(in_dim, out_dim, seed=seed)


class TestExecutedOrder:
    """Each layer aggregates at the width its ``compute_cost`` prices."""

    @pytest.mark.parametrize("in_dim, out_dim", WIDTHS)
    @pytest.mark.parametrize("layer_cls",
                             [GCNLayer, CommNetLayer, GINLayer, SAGELayer])
    def test_aggregation_width_matches_priced_width(self, monkeypatch,
                                                    layer_cls, in_dim, out_dim):
        import repro.gnn.layers as layers

        widths = []

        def recording(values, *args, **kwargs):
            widths.append(values.shape[1])
            return segment_sum(values, *args, **kwargs)

        monkeypatch.setattr(layers, "segment_sum", recording)
        ctx, h, layer = _layer_case(layer_cls, in_dim, out_dim)
        layer.forward(ctx, h)
        cost = layer.compute_cost(ctx.num_dst, ctx.num_rows, ctx.num_edges)
        priced = cost.agg_bytes / (2 * ctx.num_edges * 4)
        assert widths == [priced]


class TestSkippedInputGradient:
    """``input_grad=False`` drops only the input-row gradient."""

    @pytest.mark.parametrize("in_dim, out_dim", WIDTHS)
    @pytest.mark.parametrize("layer_cls", LAYER_CLASSES)
    def test_weight_grads_bit_identical(self, layer_cls, in_dim, out_dim):
        ctx, h, layer = _layer_case(layer_cls, in_dim, out_dim, seed=3)
        out, cache = layer.forward(ctx, h)
        d_h, full = layer.backward(ctx, cache, out.copy())
        assert d_h.shape == h.shape
        skipped, grads = layer.backward(ctx, cache, out.copy(),
                                        input_grad=False)
        assert skipped is None
        assert grads.keys() == full.keys()
        for name in full:
            assert np.array_equal(grads[name], full[name]), name

    @pytest.mark.parametrize("layer_cls", LAYER_CLASSES)
    def test_no_scatter_without_input_grad(self, monkeypatch, layer_cls):
        """At 4 -> 6 no layer projects before aggregating, so a backward
        scatters only to form ``d_h`` (GAT's never scatters)."""
        import repro.gnn.layers as layers

        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return scatter_back(*args, **kwargs)

        monkeypatch.setattr(layers, "scatter_back", recording)
        ctx, h, layer = _layer_case(layer_cls, 4, 6)
        out, cache = layer.forward(ctx, h)
        layer.backward(ctx, cache, out, input_grad=False)
        assert calls == []
