"""The four dataset twins used throughout the evaluation.

Table 4 of the paper lists the real datasets.  We scale vertex counts by
roughly 1/100 (so the whole evaluation fits a laptop-class simulator)
while matching the *density signature* — the axis that actually decides
which communication scheme wins:

===============  ========  =========  ============  ===========
property          Reddit   Com-Orkut  Web-Google    Wiki-Talk
===============  ========  =========  ============  ===========
paper |V|         0.23M     3.07M      0.87M         2.39M
paper |E|         110M      117M       5.1M          5.0M
paper avg deg     478       38.1       5.86          2.09
twin |V|          2,300     30,700     8,700         23,900
twin avg deg      ~478      ~38        ~5.9          ~2.1
feature size      602       128        256           256
hidden size       256       128        256           256
===============  ========  =========  ============  ===========

Reddit stays *dense and small*, Com-Orkut *dense and large*, Web-Google
*sparse and small*, Wiki-Talk *sparse and large* — the four quadrants the
paper's Figure 7 discussion is organised around.

All twins carry community structure (RMAT or planted-partition blended
with RMAT) so that the METIS-style partitioner produces realistic edge
cuts, and a synthetic node-classification task (features + labels) so
examples can train end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.errors import UnknownDatasetError
from repro.graph.csr import Graph
from repro.graph.generators import locality_power_law, planted_partition, rmat

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "load_dataset",
    "reddit_twin",
    "com_orkut_twin",
    "web_google_twin",
    "wiki_talk_twin",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a dataset twin (mirrors paper Table 4)."""

    name: str
    num_vertices: int
    num_edges: int
    feature_size: int
    hidden_size: int
    num_classes: int
    builder: Callable[[int], Graph]
    paper_vertices: str
    paper_edges: str
    paper_avg_degree: float

    def build(self, seed: int = 0) -> Graph:
        """Generate this twin's graph (deterministic per seed)."""
        return self.builder(seed)

    @property
    def avg_degree(self) -> float:
        return self.num_edges / self.num_vertices


def _scaled(n: int, deg: float) -> int:
    return int(round(n * deg))


def reddit_twin(seed: int = 0) -> Graph:
    """Dense, small: 2,300 vertices at average degree ~478."""
    n = 2_300
    return rmat(n, _scaled(n, 478.0), a=0.45, b=0.22, c=0.22, seed=seed, undirected=True)


def com_orkut_twin(seed: int = 0) -> Graph:
    """Dense-ish, large: 30,700 vertices at average degree ~38."""
    n = 30_700
    return planted_partition(n, _scaled(n, 38.1), num_communities=48,
                             p_intra=0.82, seed=seed)


def web_google_twin(seed: int = 0) -> Graph:
    """Sparse, small: 8,700 vertices at average degree ~5.9.

    Web graphs are highly partitionable (hyperlinks are local under URL
    order), so this twin uses the locality generator.
    """
    n = 8_700
    return locality_power_law(n, 5.86, exponent=2.2, rewire_p=0.06, seed=seed)


def wiki_talk_twin(seed: int = 0) -> Graph:
    """Very sparse, large: 23,900 vertices at average degree ~2.1.

    Real Wiki-Talk combines temporally local chatter with a handful of
    extreme hubs (admins and bots whose talk pages everyone touches).
    The hubs are what make the graph's k-hop replication closure cover
    almost everything — the property behind Replication's OOM in the
    paper's Figure 7d — so the twin plants a few: each hub receives
    edges from thousands of random users and talks back to a sample of
    them.
    """
    n = 23_900
    num_hubs, hub_in, hub_out = 4, 5_600, 120
    base = locality_power_law(n, 1.2, exponent=2.1, rewire_p=0.2, seed=seed)
    rng = np.random.default_rng(seed + 31)
    hubs = rng.choice(n, size=num_hubs, replace=False)
    src_parts = [base.edges[0]]
    dst_parts = [base.edges[1]]
    for hub in hubs:
        talkers = rng.integers(0, n, hub_in, dtype=np.int64)
        replies = rng.integers(0, n, hub_out, dtype=np.int64)
        src_parts.extend([talkers, np.full(hub_out, hub, dtype=np.int64)])
        dst_parts.extend([np.full(hub_in, hub, dtype=np.int64), replies])
    return Graph(
        np.concatenate(src_parts),
        np.concatenate(dst_parts),
        n,
        dedup=True,
        drop_self_loops=True,
    )


DATASETS: Dict[str, DatasetSpec] = {
    "reddit": DatasetSpec(
        name="reddit",
        num_vertices=2_300,
        num_edges=_scaled(2_300, 478.0),
        feature_size=602,
        hidden_size=256,
        num_classes=41,
        builder=reddit_twin,
        paper_vertices="0.23M",
        paper_edges="110M",
        paper_avg_degree=478.0,
    ),
    "com-orkut": DatasetSpec(
        name="com-orkut",
        num_vertices=30_700,
        num_edges=_scaled(30_700, 38.1),
        feature_size=128,
        hidden_size=128,
        num_classes=16,
        builder=com_orkut_twin,
        paper_vertices="3.07M",
        paper_edges="117M",
        paper_avg_degree=38.1,
    ),
    "web-google": DatasetSpec(
        name="web-google",
        num_vertices=8_700,
        num_edges=_scaled(8_700, 5.86),
        feature_size=256,
        hidden_size=256,
        num_classes=16,
        builder=web_google_twin,
        paper_vertices="0.87M",
        paper_edges="5.1M",
        paper_avg_degree=5.86,
    ),
    "wiki-talk": DatasetSpec(
        name="wiki-talk",
        num_vertices=23_900,
        num_edges=_scaled(23_900, 2.09),
        feature_size=256,
        hidden_size=256,
        num_classes=16,
        builder=wiki_talk_twin,
        paper_vertices="2.39M",
        paper_edges="5.0M",
        paper_avg_degree=2.09,
    ),
}

_GRAPH_CACHE: Dict[tuple, Graph] = {}


def _dataset_spec(name: str) -> DatasetSpec:
    """The registered spec of a twin; UnknownDatasetError when absent."""
    try:
        return DATASETS[name]
    except KeyError:
        raise UnknownDatasetError(name, sorted(DATASETS)) from None


def load_dataset(name: str, seed: int = 0, cache: bool = True) -> Graph:
    """Build (or fetch from the in-process cache) a dataset twin by name."""
    key = (name, seed)
    if cache and key in _GRAPH_CACHE:
        return _GRAPH_CACHE[key]
    graph = _dataset_spec(name).build(seed)
    if cache:
        _GRAPH_CACHE[key] = graph
    return graph


def synthetic_features(
    graph: Graph, feature_size: int, seed: int = 0
) -> np.ndarray:
    """Deterministic random layer-0 embeddings (paper §7: graphs without
    native features get randomly generated ones)."""
    rng = np.random.default_rng(seed + 7)
    return rng.standard_normal((graph.num_vertices, feature_size)).astype(np.float32)


def synthetic_labels(graph: Graph, num_classes: int, seed: int = 0) -> np.ndarray:
    """Deterministic random class labels for the node-classification task."""
    rng = np.random.default_rng(seed + 13)
    return rng.integers(0, num_classes, graph.num_vertices, dtype=np.int64)
