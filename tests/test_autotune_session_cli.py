"""strategy="auto" and the plan cache through the session and the CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import DGCLSession
from repro.topology.presets import dgx1
from repro.__main__ import main


class TestSessionAuto:
    """DGCLSession(strategy=..., plan_cache=...)."""

    def test_auto_strategy_plans_and_communicates(self, small_graph):
        session = DGCLSession(dgx1(), strategy="auto")
        report = session.build_comm_info(small_graph)
        assert report.plan_source == "planned"
        assert report.tune_report is session.tune_report
        plan = report.plan
        assert session.tune_report is not None
        assert session.tune_report.candidate.plan_based
        plan.validate(session.relation)
        feats = np.random.default_rng(0).normal(
            size=(small_graph.num_vertices, 4)
        )
        gathered = session.graph_allgather(session.dispatch_features(feats))
        assert len(gathered) == session.topology.num_devices
        assert session.simulated_comm_seconds > 0.0

    def test_p2p_strategy(self, small_graph):
        session = DGCLSession(dgx1(), strategy="p2p")
        plan = session.build_comm_info(small_graph).plan
        assert plan.num_stages == 1  # direct sends only
        plan.validate(session.relation)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            DGCLSession(dgx1(), strategy="best-effort")

    def test_warm_cache_skips_planning(self, small_graph, tmp_path):
        first = DGCLSession(dgx1(), strategy="auto", plan_cache=tmp_path)
        plan_a = first.build_comm_info(small_graph).plan
        assert first.plan_source == "planned"
        assert first.plan_cache.stats.stores == 1

        second = DGCLSession(dgx1(), strategy="auto", plan_cache=tmp_path)
        plan_b = second.build_comm_info(small_graph).plan
        assert second.plan_source == "cache"
        assert second.tune_report is None  # tuning skipped entirely
        assert second.plan_cache.stats.hits == 1
        assert len(plan_b.routes) == len(plan_a.routes)
        for a, b in zip(plan_a.routes, plan_b.routes):
            assert np.array_equal(a.vertices, b.vertices)
            assert a.edges == b.edges

    def test_replayed_build_records_no_stale_pick(self, small_graph, tmp_path):
        session = DGCLSession(dgx1(), strategy="auto", plan_cache=tmp_path)
        session.build_comm_info(small_graph)
        assert session.tune_report is not None
        first = session.plan_cache.load_document(
            session.plan_cache.path_for(session._cache_key)
        )
        assert "picked" in first["meta"]
        report = session.shrink([6, 7])
        assert report.plan_source in ("patched", "replanned")
        assert session.tune_report is None
        entry = session.plan_cache.load_document(
            session.plan_cache.path_for(session._cache_key)
        )
        assert "picked" not in entry["meta"]

    def test_partition_drift_patches_from_sibling(self, small_graph, tmp_path):
        topo = dgx1()
        base = DGCLSession(topo, strategy="spst", plan_cache=tmp_path)
        base.build_comm_info(small_graph)

        rng = np.random.default_rng(3)
        moved = base.relation.assignment.copy()
        idx = rng.choice(small_graph.num_vertices, size=10, replace=False)
        moved[idx] = (moved[idx] + 1) % topo.num_devices

        drifted = DGCLSession(topo, strategy="spst", plan_cache=tmp_path)
        plan = drifted.build_comm_info(small_graph, assignment=moved).plan
        assert drifted.plan_source in ("patched", "replanned")
        if drifted.plan_source == "patched":
            assert drifted.plan_cache.stats.patches == 1
        plan.validate(drifted.relation)


class TestCLI:
    """python -m repro tune / plan --strategy auto / evaluate --scheme auto."""

    def test_tune_reports_ranking(self, capsys):
        assert main(["tune", "--dataset", "web-google", "--gpus", "2"]) == 0
        out = capsys.readouterr().out
        assert "<- pick" in out and "driver=" in out

    def test_tune_json_schema(self, capsys):
        assert main(["tune", "--dataset", "web-google", "--gpus", "2",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["picked"]["status"] == "ok"
        assert doc["report"]["space_size"] >= 4

    def test_tune_plan_cache_second_run_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["tune", "--dataset", "web-google", "--gpus", "2",
                "--plan-cache", cache_dir, "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["plan_source"] == "planned"
        assert first["plan_cache"]["stores"] == 1

        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["plan_source"] == "cache"
        assert second["plan_cache"]["hits"] == 1
        assert second["report"] is None  # tuning skipped on the hit

    def test_plan_strategy_auto_with_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        code = main(["plan", "--dataset", "web-google", "--gpus", "2",
                     "--strategy", "auto", "--plan-cache", cache_dir,
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["strategy"] == "auto"
        assert doc["plan_source"] == "planned"
        assert doc["plan_cache"]["stores"] == 1

    def test_evaluate_scheme_auto(self, capsys):
        code = main(["evaluate", "--dataset", "web-google", "--gpus", "2",
                     "--scheme", "auto"])
        assert code == 0
        out = capsys.readouterr().out
        assert "auto-tuner picked:" in out
        assert " ok" in out
