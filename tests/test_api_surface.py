"""The public API surface, pinned.

``repro.api`` is the compatibility contract of the library: the names
in ``__all__`` and their signatures are what Listing-1 scripts, the
docs, and downstream callers are written against.  This snapshot makes
any change to that surface an *explicit* diff in review instead of an
accidental side effect — if a failure lands here, either revert the
signature change or update the snapshot (and ``docs/api.md``)
deliberately.
"""

from __future__ import annotations

import inspect

import repro.api as api

#: Exactly the names the module exports, alphabetical.
EXPECTED_ALL = [
    "DGCLSession",
    "PlanReport",
    "register_scheme",
    "serve",
    "session",
]

#: Module-level functions: name -> str(inspect.signature).
EXPECTED_FUNCTIONS = {
    "register_scheme":
        "(name: 'str', *, builder: 'Optional[Callable]' = None, "
        "cost_fn: 'Optional[Callable]' = None, version: 'str' = '1', "
        "aliases: 'Sequence[str]' = (), description: 'str' = '', "
        "feasible: 'Optional[Callable[[object], bool]]' = None, "
        "tunable_method: 'bool' = False, tunable_chunks: 'bool' = False, "
        "staleness_options: 'Sequence[int]' = (0,), "
        "replace_existing: 'bool' = False) -> 'SchemeSpec'",
    "serve":
        "(scenario: 'str' = 'poisson', *, gpus: 'int' = 8, "
        "topology: 'str' = 'dgx', seed: 'int' = 0, "
        "horizon_scale: 'float' = 1.0, "
        "fault_plan: 'Optional[FaultPlan]' = None, plan_cache=None) "
        "-> 'ServeReport'",
    "session":
        "(topology: 'Topology', *, fault_plan: 'Optional[FaultPlan]' = None, "
        "strategy: 'str' = 'spst', plan_cache=None, "
        "fidelity: 'str' = 'event', "
        "elastic: 'Optional[ElasticPolicy]' = None) "
        "-> 'DGCLSession'",
}

#: Session methods whose keyword-only contract the docs promise.
EXPECTED_METHODS = {
    "DGCLSession.__init__":
        "(self, topology: 'Topology', fault_plan: 'Optional[FaultPlan]' = "
        "None, strategy: 'str' = 'spst', plan_cache=None, "
        "fidelity: 'str' = 'event', "
        "elastic: 'Optional[ElasticPolicy]' = None) -> 'None'",
    "DGCLSession.build_comm_info":
        "(self, graph: 'Graph', *, assignment: 'Optional[np.ndarray]' = "
        "None, seed: 'int' = 0, chunks_per_class: 'int' = 4, "
        "strategy: 'Optional[str]' = None, "
        "tune_kwargs: 'Optional[dict]' = None) -> 'PlanReport'",
    "DGCLSession.tune":
        "(self, graph: 'Graph', *, seed: 'int' = 0, "
        "chunks_per_class: 'int' = 4, plan_based_only: 'bool' = False, "
        "assignment: 'Optional[np.ndarray]' = None, **kwargs)",
    "DGCLSession.sample_loader":
        "(self, graph: 'Graph', *, batch_size: 'int', "
        "fanouts: 'Optional[Tuple[int, ...]]' = None, "
        "hops: 'Optional[int]' = None, "
        "train_vertices: 'Optional[np.ndarray]' = None, "
        "assignment: 'Optional[np.ndarray]' = None, seed: 'int' = 0, "
        "chunks_per_class: 'int' = 4, drop_last: 'bool' = True, "
        "incremental: 'bool' = True)",
}

#: PlanReport's dataclass fields, in declaration order.
EXPECTED_PLAN_REPORT_FIELDS = [
    "plan", "plan_source", "fidelity",
    "stage_costs", "total_cost", "tune_report",
]


class TestApiSurface:
    def test_all_is_exact(self):
        assert sorted(api.__all__) == EXPECTED_ALL
        for name in api.__all__:
            assert hasattr(api, name)

    def test_function_signatures(self):
        for name, expected in EXPECTED_FUNCTIONS.items():
            got = str(inspect.signature(getattr(api, name)))
            assert got == expected, f"{name}: {got!r} != {expected!r}"

    def test_method_signatures(self):
        for path, expected in EXPECTED_METHODS.items():
            cls_name, meth_name = path.split(".")
            obj = getattr(getattr(api, cls_name), meth_name)
            got = str(inspect.signature(obj))
            assert got == expected, f"{path}: {got!r} != {expected!r}"

    def test_plan_report_fields(self):
        import dataclasses

        fields = [f.name for f in dataclasses.fields(api.PlanReport)]
        assert fields == EXPECTED_PLAN_REPORT_FIELDS

    def test_knob_vocabularies(self):
        assert not hasattr(api, "SESSION_ENGINES")
        assert api.SESSION_FIDELITIES == ("event", "cost")
        # The historical tuple survives, but the live vocabulary is the
        # scheme registry's — every built-in plan-based scheme included.
        assert api.SESSION_STRATEGIES == ("spst", "p2p", "auto")

    def test_session_vocabulary_is_registry_derived(self):
        from repro.schemes import session_strategy_names

        names = session_strategy_names()
        for legacy in api.SESSION_STRATEGIES:
            assert legacy in names
        for scheme in ("dgcl", "dgcl-cache", "peer-to-peer",
                       "cagnet-1.5d", "cagnet-2d", "distgnn-delayed"):
            assert scheme in names
