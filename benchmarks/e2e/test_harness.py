"""Tests of the benchmark's pure helpers and of BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_harness.py -q

(``src`` is on the path only for ``benchmarks/conftest.py``.)
"""

from __future__ import annotations

import copy

import pytest

import harness
from harness import Span


def _span(sid, parent, name, start, end, phase="step", index=0):
    return Span(sid, parent, name, start, end, phase, index)


class TestSelfTime:
    def test_nested_spans_subtract_only_direct_children(self):
        # layer.backward [0, 12] > scatter_back [1, 11] > segment_sum [2, 8]
        spans = [
            _span(2, 1, "gnn.segment_sum", 2.0, 8.0),
            _span(1, 0, "gnn.scatter_back", 1.0, 11.0),
            _span(0, -1, "gnn.layer.backward", 0.0, 12.0),
        ]
        out = harness.self_times(spans)
        assert out[("step", "gnn.segment_sum")] == (6.0, 1)
        assert out[("step", "gnn.scatter_back")] == (4.0, 1)
        assert out[("step", "gnn.layer.backward")] == (2.0, 1)
        assert sum(s for s, _ in out.values()) == 12.0

    def test_calls_and_phases_accumulate_separately(self):
        spans = [
            _span(0, -1, "partition", 0.0, 3.0, phase="setup"),
            _span(1, -1, "gnn.segment_sum", 3.0, 4.0, index=0),
            _span(2, -1, "gnn.segment_sum", 4.0, 6.0, index=1),
        ]
        out = harness.self_times(spans)
        assert out[("setup", "partition")] == (3.0, 1)
        assert out[("step", "gnn.segment_sum")] == (3.0, 2)

    def test_per_op_divides_each_phase_by_its_operations(self):
        totals = {("setup", "partition.s"): 9.0, ("step", "partition.s"): 1.0,
                  ("step", "gnn.segment_sum.s"): 4.0,
                  ("check", "gnn.segment_sum.s"): 100.0}
        out = harness.per_op(totals, {"setup": 3, "step": 2})
        assert out == {"partition.s": 3.5, "gnn.segment_sum.s": 2.0}

    def test_missing_spans_names_the_span_that_never_fired(self):
        calls = {name[:-2]: 1.0 for name, wl in harness.PER_LAYER.items()
                 if name.endswith(".s") and "train-dense" in wl}
        assert harness.missing_spans(calls, "train-dense") == []
        del calls["gnn.segment_sum"]
        assert harness.missing_spans(calls, "train-dense") == ["gnn.segment_sum"]


class TestStatistics:
    @pytest.mark.parametrize("count, expected", [
        (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
    ])
    def test_at_least_ten_samples_lie_beyond_the_percentile(self, count, expected):
        assert harness.supported_percentile(count) == expected

    def test_quartiles_match_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 10.0]
        q1, med, q3 = harness.quartiles(values)
        assert med == 3.0 and q1 == 1.5 and q3 == 7.0
        assert harness.spread(values) == pytest.approx(5.5 / 3.0)
        assert harness.quartiles([2.0]) == (2.0, 2.0, 2.0)

    def test_worse_by_follows_the_direction(self):
        assert harness.worse_by(100.0, 110.0, "lower") == pytest.approx(0.1)
        assert harness.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.1)


class TestNames:
    @pytest.mark.parametrize("name", [
        "setup_s", "gnn.segment_sum.s", "serve.outcomes.rejected-rate",
        "train-dense", "9lives",
    ])
    def test_valid(self, name):
        assert harness.valid_name(name)

    @pytest.mark.parametrize("name", [
        "", "a b", "-lead", ".lead", "x" * 65, "naïve", "p99/s",
    ])
    def test_invalid(self, name):
        assert not harness.valid_name(name)


class TestSpec:
    def test_benchmark_json_is_complete(self):
        # Every metric has a unit, a direction, a bound (end to end) and
        # at least one workload; every workload has a one-line reason.
        assert harness.spec_problems(harness.load_spec()) == []

    @pytest.mark.parametrize("breakage", [
        lambda s: s["end_to_end"][1].pop("bound"),
        lambda s: s["end_to_end"][1].update(bound=0.5),
        lambda s: s["per_layer"].append(
            {"name": "gnn.unknown.s", "unit": "s", "better": "lower"}),
        lambda s: s["per_layer"][0].update(unit="seconds please"),
        lambda s: s["per_layer"][0].update(better="faster"),
        lambda s: s["workloads"][0].update(why=""),
        lambda s: s.update(extra=1),
        lambda s: s["end_to_end"][0].update(bound=0.01),
    ])
    def test_breakage_is_reported(self, breakage):
        spec = copy.deepcopy(harness.load_spec())
        breakage(spec)
        assert harness.spec_problems(spec)
