"""Session-first API: lifecycle, shutdown guarantees, error hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as dgcl
import repro.errors
from repro.api import DGCLSession, PlanReport
from repro.graph.generators import rmat
from repro.topology import dgx1


@pytest.fixture()
def graph():
    return rmat(120, 700, seed=5)


class TestContextManager:
    def test_factory_returns_open_session(self):
        s = dgcl.session(dgx1(4))
        assert not s.closed
        s.shutdown()
        assert s.closed

    def test_with_block_shuts_down(self, graph):
        with dgcl.session(dgx1(4)) as s:
            s.build_comm_info(graph)
            assert not s.closed
        assert s.closed
        assert s.plan is None and s.relation is None

    def test_cleanup_on_exception(self, graph):
        with pytest.raises(KeyError, match="boom"):
            with dgcl.session(dgx1(4)) as s:
                s.build_comm_info(graph)
                raise KeyError("boom")
        assert s.closed  # __exit__ ran, exception propagated

    def test_double_shutdown_is_idempotent(self):
        s = dgcl.session(dgx1(4))
        s.shutdown()
        s.shutdown()  # no error
        assert s.closed

    def test_reentering_closed_session_rejected(self):
        s = dgcl.session(dgx1(4))
        s.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            with s:
                pass

    def test_calls_after_shutdown_raise(self, graph):
        s = dgcl.session(dgx1(4))
        s.build_comm_info(graph)
        feats = np.zeros((graph.num_vertices, 3))
        blocks = s.dispatch_features(feats)
        s.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            s.build_comm_info(graph)
        with pytest.raises(RuntimeError, match="shut down"):
            s.dispatch_features(feats)
        with pytest.raises(RuntimeError, match="shut down"):
            s.graph_allgather(blocks)
        with pytest.raises(RuntimeError, match="shut down"):
            s.tune(graph)

    def test_factory_passes_fidelity(self, graph):
        with dgcl.session(dgx1(4), fidelity="cost") as s:
            report = s.build_comm_info(graph)
            assert isinstance(report, PlanReport)
            assert report.fidelity == "cost"

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            DGCLSession(dgx1(4), fidelity="exact")


class TestPlanReport:
    def test_report_fields(self, graph):
        with dgcl.session(dgx1(4)) as s:
            report = s.build_comm_info(graph)
            assert report.plan_source == "planned"
            assert report.fidelity == "event"
            assert report.num_stages == len(report.stage_costs) >= 1
            assert report.total_cost == pytest.approx(
                sum(report.stage_costs))
            assert report.tune_report is None
            d = report.as_dict()
            assert d["plan_source"] == "planned"
            assert d["num_routes"] == len(report.plan.routes)

    def test_report_is_frozen(self, graph):
        with dgcl.session(dgx1(4)) as s:
            report = s.build_comm_info(graph)
            with pytest.raises(Exception):
                report.fidelity = "cost"

    def test_positional_options_rejected(self, graph):
        with dgcl.session(dgx1(4)) as s:
            with pytest.raises(TypeError):
                s.build_comm_info(graph, None)  # assignment is kw-only


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in repro.errors.__all__:
            cls = getattr(repro.errors, name)
            assert issubclass(cls, repro.errors.ReproError)

    def test_stdlib_bases_preserved(self):
        assert issubclass(repro.errors.FaultSpecError, ValueError)
        assert issubclass(repro.errors.PlanCacheError, ValueError)
        assert issubclass(repro.errors.DeviceLostError, RuntimeError)
        assert issubclass(repro.errors.UnrecoverableFaultError, RuntimeError)
        assert issubclass(repro.errors.SimulatedOOMError, RuntimeError)
        assert issubclass(repro.errors.OracleViolation, AssertionError)

    def test_historical_homes_reexport(self):
        from repro.autotune.cache import PlanCacheError
        from repro.chaos.oracles import OracleViolation
        from repro.faults.policy import DeviceLostError, UnrecoverableFaultError
        from repro.faults.spec import FaultSpecError
        from repro.simulator.devices import SimulatedOOMError

        assert PlanCacheError is repro.errors.PlanCacheError
        assert OracleViolation is repro.errors.OracleViolation
        assert UnrecoverableFaultError is repro.errors.UnrecoverableFaultError
        assert FaultSpecError is repro.errors.FaultSpecError
        assert DeviceLostError is repro.errors.DeviceLostError
        assert SimulatedOOMError is repro.errors.SimulatedOOMError

    def test_one_clause_catches_the_family(self):
        with pytest.raises(repro.errors.ReproError):
            raise repro.errors.FaultSpecError("bad spec")
        with pytest.raises(repro.errors.ReproError):
            raise repro.errors.SimulatedOOMError(0, 100, 64, 32)
        with pytest.raises(repro.errors.ReproError):
            raise repro.errors.UnrecoverableFaultError("nv:0-1", 3)
