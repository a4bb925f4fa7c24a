"""Scalar reference of the sampler's in-edge gather.

This is the per-vertex copy loop that
:func:`repro.sampling.samplers.gather_in_edges` once ran.  The library's
vectorised gather must return identical arrays, dtypes included;
``test_sampling_properties.py`` checks that on drawn graphs.
"""

from __future__ import annotations

import numpy as np


def gather_in_edges(graph, frontier: np.ndarray):
    """All in-edges of ``frontier``, one vertex copied at a time."""
    starts = graph.in_indptr[frontier]
    stops = graph.in_indptr[frontier + 1]
    degrees = stops - starts
    total = int(degrees.sum())
    tails = np.empty(total, dtype=np.int64)
    pos = 0
    for s, e in zip(starts, stops):
        tails[pos : pos + (e - s)] = graph.in_indices[s:e]
        pos += e - s
    heads = np.repeat(frontier, degrees)
    return tails, heads, degrees
