"""Tests for the dataset twins registry and edge-list I/O."""

import numpy as np
import pytest

from repro.baselines import Workload
from repro.errors import ReproError, UnknownDatasetError
from repro.graph.csr import Graph
from repro.graph.datasets import (
    DATASETS,
    load_dataset,
    synthetic_features,
    synthetic_labels,
)
from repro.graph.io import load_edge_list, save_edge_list
from repro.topology import dgx1


class TestDatasetRegistry:
    def test_four_twins_registered(self):
        assert set(DATASETS) == {"reddit", "com-orkut", "web-google", "wiki-talk"}

    def test_spec_matches_paper_table4(self):
        spec = DATASETS["reddit"]
        assert spec.feature_size == 602
        assert spec.hidden_size == 256
        assert spec.paper_avg_degree == 478.0
        assert DATASETS["com-orkut"].feature_size == 128
        assert DATASETS["web-google"].hidden_size == 256

    def test_density_ordering_matches_paper(self):
        # Reddit >> Com-Orkut >> Web-Google > Wiki-Talk by avg degree
        degs = [DATASETS[n].avg_degree
                for n in ("reddit", "com-orkut", "web-google", "wiki-talk")]
        assert degs == sorted(degs, reverse=True)

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("imaginary")

    @pytest.mark.parametrize("entry", ["load_dataset", "Workload"])
    def test_unknown_dataset_is_typed(self, entry):
        build = {
            "load_dataset": lambda: load_dataset("nope"),
            "Workload": lambda: Workload("nope", "gcn", dgx1()),
        }[entry]
        with pytest.raises(UnknownDatasetError) as info:
            build()
        assert isinstance(info.value, (ReproError, KeyError, ValueError))
        assert str(info.value) == (
            f"unknown dataset 'nope'; available: {sorted(DATASETS)}"
        )

    @pytest.mark.slow
    def test_twin_density_is_close_to_spec(self):
        g = load_dataset("web-google")
        spec = DATASETS["web-google"]
        assert g.num_vertices == spec.num_vertices
        assert abs(g.avg_degree - spec.avg_degree) / spec.avg_degree < 0.2

    @pytest.mark.slow
    def test_cache_returns_same_object(self):
        assert load_dataset("web-google") is load_dataset("web-google")

    @pytest.mark.slow
    def test_no_cache_builds_fresh(self):
        a = load_dataset("web-google", cache=False)
        b = load_dataset("web-google", cache=False)
        assert a is not b
        assert a == b


class TestSyntheticTask:
    def test_features_shape_and_determinism(self, small_graph):
        f1 = synthetic_features(small_graph, 16, seed=0)
        f2 = synthetic_features(small_graph, 16, seed=0)
        assert f1.shape == (small_graph.num_vertices, 16)
        assert f1.dtype == np.float32
        assert np.array_equal(f1, f2)

    def test_labels_in_range(self, small_graph):
        labels = synthetic_labels(small_graph, 7, seed=0)
        assert labels.min() >= 0
        assert labels.max() < 7


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path, small_graph):
        path = tmp_path / "edges.txt"
        save_edge_list(small_graph, path)
        loaded = load_edge_list(path, num_vertices=small_graph.num_vertices)
        assert loaded == small_graph

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1\n1 2\n# trailing\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\njunk\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            load_edge_list(path)
