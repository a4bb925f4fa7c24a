"""Tests for the telemetry layer (``repro.obs``).

The two load-bearing guarantees:

* **determinism** — same seed, byte-identical Chrome trace;
* **zero perturbation** — arming a tracer changes no simulated timing
  and no training numeric; leaving it unarmed runs the original code.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import CommRelation, SPSTPlanner
from repro.faults.log import FaultLog
from repro.gnn import SingleDeviceTrainer, build_model
from repro.gnn.distributed import DistributedTrainer
from repro.graph.datasets import synthetic_features, synthetic_labels
from repro.graph.generators import rmat
from repro.obs import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    chrome_trace_json,
    console,
    stats_table,
    to_chrome_trace,
    to_jsonl_events,
)
from repro.obs.tracer import TRAINER_TRACK
from repro.partition import partition
from repro.runtime.protocol import ProtocolRunner
from repro.simulator.executor import PlanExecutor
from repro.simulator.timeline import render_gantt, timeline_events
from repro.topology import dgx1
from repro.__main__ import main


@pytest.fixture(scope="module")
def planned():
    graph = rmat(250, 1800, seed=4)
    r = partition(graph, 8, seed=0)
    rel = CommRelation(graph, r.assignment, 8)
    plan = SPSTPlanner(dgx1(), seed=0).plan(rel)
    return graph, rel, plan


def traced_execution(plan, bytes_per_unit=1024):
    tracer, metrics = Tracer(), MetricsRegistry()
    executor = PlanExecutor(
        plan.topology, telemetry=Telemetry(tracer=tracer, metrics=metrics)
    )
    report = executor.execute(plan, bytes_per_unit)
    return tracer, metrics, report


class TestTracer:
    def test_events_sorted_and_tracked(self, planned):
        _, _, plan = planned
        tracer, _, report = traced_execution(plan)
        events = tracer.events()
        assert events, "an executed plan must produce spans"
        starts = [e.start for e in events]
        assert starts == sorted(starts)
        tracks = tracer.tracks()
        assert any(t.startswith("device:") for t in tracks)
        assert any(t.startswith("conn:") for t in tracks)
        assert tracer.duration() == pytest.approx(report.total_time)

    def test_phase_clock_offsets_spans(self, planned):
        _, _, plan = planned
        tracer = Tracer()
        executor = PlanExecutor(plan.topology,
                                telemetry=Telemetry(tracer=tracer))
        first = executor.execute(plan, 1024)
        tracer.advance(first.total_time)
        executor.execute(plan, 1024)
        comm = tracer.by_cat("comm")
        assert any(s.start >= first.total_time for s in comm)

    def test_begin_end_handles(self):
        tracer = Tracer()
        h = tracer.begin("wait", "flag", "device:0", 1.0, stage=2)
        span = tracer.end(h, 3.0, verdict="ok")
        assert span.duration == pytest.approx(2.0)
        assert span.args_dict() == {"stage": 2, "verdict": "ok"}

    def test_span_context_manager(self):
        tracer = Tracer()
        clock = {"t": 0.0}
        with tracer.span("phase", "phase", "trainer", lambda: clock["t"]):
            clock["t"] = 5.0
        (span,) = tracer.events()
        assert (span.start, span.finish) == (0.0, 5.0)


class TestMetrics:
    def test_snapshot_round_trips_through_json(self, planned):
        _, _, plan = planned
        _, metrics, _ = traced_execution(plan)
        snap = metrics.snapshot()
        assert snap
        assert json.loads(json.dumps(snap)) == snap
        assert any(k.startswith("comm.bytes{conn=") for k in snap)
        assert any(k.startswith("comm.bytes{kind=") for k in snap)

    def test_bytes_match_the_report(self, planned):
        _, _, plan = planned
        _, metrics, report = traced_execution(plan)
        snap = metrics.snapshot()
        kind_total = sum(
            v for k, v in snap.items() if k.startswith("comm.bytes{kind=")
        )
        # Per-kind bytes count every wire a flow crosses, so the sum is
        # at least the payload total (paths have >= 1 connection).
        assert kind_total >= report.bytes_moved()
        assert snap["comm.flows"] == report.num_flows

    def test_counter_rejects_negative(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            m.counter("x").inc(-1)

    def test_stats_table_mentions_every_key(self, planned):
        _, _, plan = planned
        _, metrics, _ = traced_execution(plan)
        table = stats_table(metrics)
        for key in metrics.snapshot():
            assert key in table

    def test_histogram_percentiles_in_snapshot_and_table(self):
        m = MetricsRegistry()
        h = m.histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        snap = m.snapshot()["lat"]
        assert snap["p50"] == pytest.approx(50.5)
        assert snap["p90"] == pytest.approx(90.1)
        assert snap["p99"] == pytest.approx(99.01)
        table = stats_table(m)
        assert "p50=" in table and "p90=" in table and "p99=" in table


class TestChromeExport:
    def test_schema_and_tracks(self, planned):
        _, _, plan = planned
        tracer, metrics, _ = traced_execution(plan)
        doc = to_chrome_trace(tracer, metrics)
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "M", "i"}
        pids = {e["pid"] for e in events}
        assert 1 in pids and 2 in pids  # devices and connections
        for e in events:
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert {"devices", "connections"} <= names
        assert "metrics" in doc["otherData"]

    def test_two_runs_byte_identical(self):
        def one_run() -> str:
            graph = rmat(200, 1500, seed=7)
            r = partition(graph, 8, seed=1)
            rel = CommRelation(graph, r.assignment, 8)
            plan = SPSTPlanner(dgx1(), seed=1).plan(rel)
            tracer, metrics, _ = traced_execution(plan)
            return chrome_trace_json(tracer, metrics)

        assert one_run() == one_run()

    def test_json_is_parseable(self, planned):
        _, _, plan = planned
        tracer, metrics, _ = traced_execution(plan)
        json.loads(chrome_trace_json(tracer, metrics))


class TestJsonlExport:
    def test_merges_fault_log_in_time_order(self):
        tracer = Tracer()
        tracer.add_span("a", "phase", "trainer", 0.0, 2.0)
        tracer.add_span("b", "phase", "trainer", 3.0, 4.0)
        log = FaultLog()
        log.append(2.5, "link", "detect", "wire-0", "stalled")
        events = to_jsonl_events(tracer, fault_log=log)
        assert [e["type"] for e in events] == ["span", "fault", "span"]
        times = [e["time"] for e in events]
        assert times == sorted(times)
        fault = events[1]
        assert fault["action"] == "detect" and fault["subject"] == "wire-0"

    def test_fault_record_as_dict(self):
        log = FaultLog()
        record = log.append(1.0, "device", "inject", "device 3", "crash")
        assert record.as_dict() == {
            "time": 1.0, "category": "device", "action": "inject",
            "subject": "device 3", "detail": "crash",
        }
        assert log.as_events() == [record.as_dict()]

    def test_elastic_interventions_exported(self):
        """Scale-out/scale-in marks reach the JSONL log, typed elastic."""
        tracer = Tracer()
        tracer.add_span("epoch", "phase", "trainer", 0.0, 4.0)
        log = FaultLog()
        log.append(1.0, "elastic", "scale-out", "devices 6,7", "grow")
        log.append(2.0, "link", "detect", "wire-0", "stalled")
        log.append(3.0, "elastic", "scale-in", "devices 6,7", "shrink")
        events = to_jsonl_events(tracer, fault_log=log)
        kinds = [(e["type"], e.get("action")) for e in events]
        assert ("elastic", "scale-out") in kinds
        assert ("elastic", "scale-in") in kinds
        assert ("fault", "detect") in kinds
        marks = [e["mark"] for e in events if e["type"] == "elastic"]
        assert marks == ["! scale-out devices 6,7", "! scale-in devices 6,7"]
        times = [e["time"] for e in events]
        assert times == sorted(times)


class TestUnarmedRegression:
    """Telemetry off must mean bit-identical behavior to before."""

    def test_executor_timings_identical(self, planned):
        _, _, plan = planned
        bare = PlanExecutor(plan.topology).execute(plan, 2048)
        traced = PlanExecutor(
            plan.topology,
            telemetry=Telemetry(tracer=Tracer(), metrics=MetricsRegistry()),
        ).execute(plan, 2048)
        assert bare.total_time == traced.total_time
        assert bare.stage_finish == traced.stage_finish

    def test_protocol_timings_identical(self, planned):
        _, rel, plan = planned
        bare = ProtocolRunner(rel, plan).run_timed(512)
        tracer = Tracer()
        armed = ProtocolRunner(
            rel, plan, telemetry=Telemetry(tracer=tracer)
        ).run_timed(512)
        assert bare.total_time == armed.total_time
        assert bare.device_finish == armed.device_finish
        assert len(tracer.events()) > 0

    def test_training_numerics_identical(self, planned):
        graph, rel, plan = planned
        features = synthetic_features(graph, 16)
        labels = synthetic_labels(graph, 5)

        def losses(tracer, metrics):
            model = build_model("gcn", 16, 8, 5, seed=0)
            trainer = DistributedTrainer(
                rel, plan, model, features, labels,
                telemetry=Telemetry(tracer=tracer, metrics=metrics),
            )
            return trainer.train(2)

        bare = losses(None, None)
        tracer = Tracer()
        traced = losses(tracer, MetricsRegistry())
        assert bare == traced
        assert tracer.by_cat("epoch")

    def test_single_device_numerics_identical(self, planned):
        graph, _, _ = planned
        features = synthetic_features(graph, 16)
        labels = synthetic_labels(graph, 5)

        def losses(tracer):
            model = build_model("gcn", 16, 8, 5, seed=0)
            return SingleDeviceTrainer(
                graph, model, features, labels,
                telemetry=Telemetry(tracer=tracer),
            ).train(2)

        tracer = Tracer()
        assert losses(None) == losses(tracer)
        assert tracer.by_cat("phase")

    def test_elastic_transitions_identical_armed(self, planned):
        """Arming a tracer across grow/shrink handoffs moves nothing."""
        from repro.elastic import ElasticPolicy
        from repro.elastic.controller import ElasticController

        graph, _, _ = planned
        features = synthetic_features(graph, 6)
        labels = synthetic_labels(graph, 4)
        schedule = [(1, "shrink", (6, 7)), (2, "grow", (6, 7))]

        def run(tracer):
            controller = ElasticController(
                graph, dgx1(), build_model("gcn", 6, 8, 4, seed=7),
                features, labels,
                elastic=ElasticPolicy(min_devices=2),
                telemetry=Telemetry(tracer=tracer),
            )
            report = controller.train_with_schedule(4, schedule)
            return (list(report.losses), controller.clock,
                    [t.downtime_seconds for t in controller.transitions])

        tracer = Tracer()
        assert run(None) == run(tracer)
        assert tracer.events()

    def test_autotuner_identical_with_auditor(self, planned):
        """The audited full-fidelity rung changes no trial cost."""
        from repro.autotune import AutoTuner
        from repro.obs import CostModelAuditor

        graph, _, _ = planned
        plain = AutoTuner(graph, dgx1()).tune()
        auditor = CostModelAuditor()
        audited = AutoTuner(
            graph, dgx1(), telemetry=Telemetry(auditor=auditor)
        ).tune()
        assert [t.cost for t in plain.trials] == \
            [t.cost for t in audited.trials]
        assert plain.candidate == audited.candidate
        assert len(auditor.records) > 0


class TestTrainerTelemetry:
    def test_phase_order(self, planned):
        """An armed 2-layer epoch lays its phases out in the pass's
        order: forward per layer, backward and scatter in reverse."""
        graph, rel, plan = planned
        tracer = Tracer()
        DistributedTrainer(
            rel, plan, build_model("gcn", 16, 8, 5, seed=0),
            synthetic_features(graph, 16), synthetic_labels(graph, 5),
            telemetry=Telemetry(tracer=tracer),
        ).run_epoch()
        names = [s.name for s in tracer.spans if s.track == TRAINER_TRACK]
        assert names == [
            "allgather L0", "L0 forward", "allgather L1", "L1 forward",
            "L1 backward", "scatter L1", "L0 backward",
            "optimizer.allreduce", "epoch 0",
        ]


class TestResilientTelemetry:
    def test_recovery_lifecycle_spans(self, planned):
        from repro.faults import DeviceCrash, FaultPlan
        from repro.gnn import ResilientTrainer

        graph, _, _ = planned
        features = synthetic_features(graph, 6)
        labels = synthetic_labels(graph, 4)

        def run(tracer):
            trainer = ResilientTrainer(
                graph, dgx1(), build_model("gcn", 6, 8, 4, seed=7),
                features, labels,
                fault_plan=FaultPlan(
                    [DeviceCrash(device=3, time=1e-6)], seed=2
                ),
                checkpoint_every=2, telemetry=Telemetry(tracer=tracer),
            )
            return trainer.train(3)

        tracer = Tracer()
        traced = run(tracer)
        names = {s.name for s in tracer.by_track("trainer")}
        assert "bootstrap" in names
        assert "rollback" in names and "repartition" in names
        assert any(n.startswith("epoch ") for n in names)
        # Tracing changed nothing about the run itself.
        bare = run(None)
        assert bare.total_seconds == traced.total_seconds
        assert bare.losses == traced.losses
        assert bare.log.signature() == traced.log.signature()


class TestSessionTelemetry:
    def test_arm_telemetry_records_collectives(self, planned):
        from repro.api import DGCLSession

        graph, rel, _ = planned
        session = DGCLSession(dgx1())
        session.build_comm_info(graph, assignment=None, seed=0)
        session.arm_telemetry()
        features = np.random.default_rng(0).standard_normal(
            (graph.num_vertices, 4)
        ).astype(np.float32)
        blocks = session.dispatch_features(features)
        session.graph_allgather(blocks)
        tracer = session.telemetry.tracer
        phases = [s.name for s in tracer.by_cat("phase")]
        assert "graph_allgather" in phases
        assert tracer.now == pytest.approx(
            session.simulated_comm_seconds
        )

    def test_unarmed_session_comm_time_unchanged(self, planned):
        from repro.api import DGCLSession

        graph, _, _ = planned

        def comm_seconds(armed: bool) -> float:
            session = DGCLSession(dgx1())
            session.build_comm_info(graph, seed=0)
            if armed:
                session.arm_telemetry()
            features = np.zeros((graph.num_vertices, 4), dtype=np.float32)
            session.graph_allgather(session.dispatch_features(features))
            return session.simulated_comm_seconds

        assert comm_seconds(False) == comm_seconds(True)


class TestNoProcessGlobalTelemetry:
    def test_sinks_live_only_on_handles(self, planned):
        """No module holds a sink, and unarmed work records nowhere."""
        import importlib
        import pkgutil

        import repro
        from repro.api import DGCLSession
        from repro.obs import CostModelAuditor, FlightRecorder

        sinks = (MetricsRegistry, Tracer, CostModelAuditor, FlightRecorder)
        held = [
            f"{info.name}.{name}"
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            for name, value in vars(importlib.import_module(info.name)).items()
            if isinstance(value, sinks)
        ]
        assert held == []

        graph, _, _ = planned
        with DGCLSession(dgx1()) as session:
            session.build_comm_info(graph, seed=0)
            loader, sampler, planner = session.sample_loader(
                graph, batch_size=32, fanouts=(4, 4)
            )
            planner.plan_batch(sampler.sample(next(loader.batches(0))))
            session.shrink([6, 7])
            session.grow([6, 7])
            assert session.telemetry == Telemetry()


class TestConsole:
    def test_env_controls_level(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG", "info")
        console.set_verbosity(None)
        console.info("hello %d", 7)
        console.debug("hidden")
        err = capsys.readouterr().err
        assert "[repro] hello 7" in err and "hidden" not in err

    def test_explicit_setting_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG", "debug")
        console.set_verbosity(console.QUIET)
        try:
            console.info("silent")
            assert capsys.readouterr().err == ""
        finally:
            console.set_verbosity(None)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            console.set_verbosity("shout")


class TestTimelineFaultMerge:
    def test_fault_marks_in_events_and_gantt(self, planned):
        _, _, plan = planned
        report = PlanExecutor(plan.topology).execute(plan, 1024)
        log = FaultLog()
        log.append(report.total_time / 2, "link", "detect", "wire-1",
                   "stalled transfers")
        events = timeline_events(report, fault_log=log)
        marks = [e for e in events if e.label.startswith("!")]
        assert len(marks) == 1 and marks[0].duration == 0.0
        chart = render_gantt(report, max_rows=500, fault_log=log)
        assert "! detect wire-1" in chart
        # Without the log the chart is untouched.
        assert "!" not in render_gantt(report, max_rows=500)


class TestCliTelemetry:
    def test_evaluate_json_and_trace(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        code = main([
            "evaluate", "--dataset", "reddit", "--gpus", "4",
            "--scheme", "dgcl", "--json", "--emit-trace", str(out),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schemes"][0]["scheme"] == "dgcl"
        assert payload["schemes"][0]["status"] == "ok"
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_plan_json(self, capsys):
        code = main(["plan", "--dataset", "reddit", "--gpus", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["num_tuples"] > 0
        assert payload["partition"]["num_parts"] == 4

    def test_trace_verb_writes_chrome_file(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "trace", "--dataset", "reddit", "--gpus", "4",
            "--scheme", "dgcl", "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert "comm.flows" in capsys.readouterr().out

    def test_trace_verb_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main([
            "trace", "--dataset", "reddit", "--gpus", "4",
            "--format", "jsonl", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        parsed = [json.loads(line) for line in lines]
        assert any(e["type"] == "span" for e in parsed)
        assert parsed[-1]["type"] == "metrics"

    #: sha256 of each CLI telemetry export, recorded before the sinks
    #: became one ``Telemetry`` handle: an export depends only on its
    #: inputs, so a refactor of how sinks travel must not move a byte.
    #: ``train.trace.json`` is the digest pinned when aggregation became
    #: one sparse product: its epoch-1 ``loss`` argument moved by 1e-8
    #: relative (float32 summation order), and no other byte moved.
    EXPORT_DIGESTS = {
        "train.trace.json":
            "5c81d566bb8247a2f77ffea8a2405123e562cc32538b0492cf41598fae364a09",
        "scheme.trace.json":
            "ab2d4e81cf69663f7ab69760df30f88d87b022bb9ab557884982f41a65695b97",
        "evaluate.trace.json":
            "cbffef7b900559168a28aa807ff4fa716df2870ee34107801d805997e50b0c5e",
        "evaluate.json":
            "ce7bf93ad42121d76ee75f44921a0234087b3b917da8b780399b92a16150fd27",
        "profile.json":
            "6e5588bb40a170a5dc1a2ea9979d72de9498a7866005f42c10f506c4c70a3a48",
        "train-cli.trace.json":
            "c083049dca3a7fe00a35c39daad1dd389bb56adf3f0edad09a1aca56481e36b3",
        "train-fault.trace.json":
            "9ef4f809c7d73304426aae658ad36e446a13ffea49a70a27f5ea6c6997cb184f",
    }

    @pytest.mark.parametrize("out, argv", [
        ("train.trace.json", ["trace", "--dataset", "web-google", "--gpus",
                              "8", "--train", "--epochs", "2", "--output"]),
        ("scheme.trace.json", ["trace", "--dataset", "reddit", "--gpus", "4",
                               "--scheme", "dgcl", "--output"]),
        ("profile.json", ["profile", "--dataset", "web-google", "--gpus", "8",
                          "--output"]),
        ("train-cli.trace.json", ["train", "--dataset", "web-google",
                                  "--gpus", "4", "--epochs", "2",
                                  "--emit-trace"]),
    ])
    def test_export_digest(self, tmp_path, out, argv):
        path = tmp_path / out
        assert main(argv + [str(path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.EXPORT_DIGESTS[out]

    def test_evaluate_export_digests(self, tmp_path, capsys):
        path = tmp_path / "evaluate.trace.json"
        assert main(["evaluate", "--dataset", "web-google", "--gpus", "4",
                     "--emit-trace", str(path), "--json"]) == 0
        stdout = capsys.readouterr().out.encode()
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == self.EXPORT_DIGESTS["evaluate.trace.json"])
        assert (hashlib.sha256(stdout).hexdigest()
                == self.EXPORT_DIGESTS["evaluate.json"])

    def test_resilient_export_digest(self, tmp_path):
        from repro.faults.spec import DeviceCrash, FaultPlan

        spec = tmp_path / "chaos.json"
        FaultPlan([DeviceCrash(device=3, time=2e-5)], seed=2).save(str(spec))
        path = tmp_path / "train-fault.trace.json"
        assert main(["train", "--dataset", "web-google", "--gpus", "4",
                     "--epochs", "2", "--fault-spec", str(spec),
                     "--emit-trace", str(path)]) == 0
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == self.EXPORT_DIGESTS["train-fault.trace.json"])
