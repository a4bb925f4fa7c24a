"""Outside-in per-layer tracing for the end-to-end benchmark.

A :class:`Recorder` wraps the public functions and methods of each
layer of ``repro`` by patching the attribute its callers resolve at
call time (``repro.gnn.layers.segment_sum``, ``CompiledAllgather.
forward``, ...), records one :class:`~harness.Span` per call and puts
the originals back on :meth:`Recorder.remove`.  Nothing under ``src/``
knows it is being traced.  A target that no longer exists fails
:meth:`Recorder.install` loudly rather than reading as zero time.
"""

from __future__ import annotations

import functools
import importlib
import json
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from harness import Span

LAYER_CLASSES = ("GCNLayer", "GINLayer", "CommNetLayer", "SAGELayer",
                 "GATLayer")


class TraceTargetError(RuntimeError):
    """A traced function is no longer where the wrappers patch it."""


def _kernel_bytes(rec: "Recorder", args, out) -> None:
    rec.count("gnn.kernel_bytes", args[0].nbytes)


def _compiled(rec: "Recorder", args, out) -> None:
    rec.rows_per_call[args[0]] = args[0].bytes_per_row_factor


def _rows_moved(rec: "Recorder", args, out) -> None:
    allgather = args[0]
    rows = rec.rows_per_call.get(allgather)
    if rows is None:
        rows = rec.rows_per_call[allgather] = allgather.bytes_per_row_factor
    rec.count("comm.rows_moved", rows)


def _planned_batch(rec: "Recorder", args, out) -> None:
    rec.count(f"sampling.plan_source.{out.plan_source}")
    rec.count("sampling.batch_vertices", out.subgraph.num_vertices)


def _flows(rec: "Recorder", args, out) -> None:
    rec.count("simulator.flows", out.num_flows)


def _methods(cls_names, attr):
    return [("repro.gnn.layers", cls, attr) for cls in cls_names]


#: ``(span name, [(module, class or None, attribute)], after-hook)``.
TARGETS: List[Tuple[str, List[Tuple[str, Optional[str], str]], Optional[Callable]]] = [
    ("graph.load_dataset", [("repro.graph.datasets", None, "load_dataset"),
                            ("repro.graph", None, "load_dataset")], None),
    ("partition", [("repro.api", None, "hierarchical_partition"),
                   ("repro.serve.server", None, "partition"),
                   ("repro.serve.scenarios", None, "partition")], None),
    ("api.build_comm_info", [("repro.api", "DGCLSession", "build_comm_info")],
     None),
    ("core.relation", [("repro.core.relation", "CommRelation", "__init__")],
     None),
    ("core.spst_plan", [("repro.core.spst", "SPSTPlanner", "plan")], None),
    ("comm.allgather.compile",
     [("repro.comm.allgather", "CompiledAllgather", "__init__")], _compiled),
    ("comm.allgather.forward",
     [("repro.comm.allgather", "CompiledAllgather", "forward")], _rows_moved),
    ("comm.allgather.backward",
     [("repro.comm.allgather", "CompiledAllgather", "backward")], _rows_moved),
    ("gnn.segment_sum", [("repro.gnn.layers", None, "segment_sum"),
                         ("repro.gnn.functional", None, "segment_sum")],
     _kernel_bytes),
    ("gnn.scatter_back", [("repro.gnn.layers", None, "scatter_back")], None),
    ("gnn.layer.forward", _methods(LAYER_CLASSES, "forward"), None),
    ("gnn.layer.backward", _methods(LAYER_CLASSES, "backward"), None),
    ("gnn.optimizer.step", [("repro.gnn.models", "SGD", "step")], None),
    ("gnn.trainer", [("repro.gnn.distributed", "DistributedTrainer", "run_epoch"),
                     ("repro.gnn.minibatch", "MiniBatchTrainer", "batch_gradients")],
     None),
    ("sampling.sample", [("repro.sampling.samplers", "NeighborSampler", "sample"),
                         ("repro.sampling.samplers", "KHopSampler", "sample")],
     None),
    ("sampling.plan_batch",
     [("repro.sampling.planner", "BatchPlanner", "plan_batch")], _planned_batch),
    ("simulator.execute",
     [("repro.simulator.executor", "PlanExecutor", "execute_tuples")], _flows),
    ("simulator.network",
     [("repro.simulator.network", "NetworkSimulator", "run")], None),
    ("baselines.evaluate_scheme",
     [("repro.baselines.strategies", None, "evaluate_scheme"),
      ("repro.baselines", None, "evaluate_scheme")], None),
    ("serve.run", [("repro.serve.server", "ServeSession", "run")], None),
    ("serve.restrict_forward",
     [("repro.serve.server", None, "restrict_forward")], None),
    ("serve.batcher.form", [("repro.serve.batcher", "CoalescingBatcher", "form")],
     None),
    ("serve.admission.try_take",
     [("repro.serve.admission", "TokenBucket", "try_take")], None),
    ("obs.quantile.observe",
     [("repro.obs.quantile", "QuantileDigest", "observe")], None),
]


class Recorder:
    """In-memory spans and counters of one traced workload run.

    ``phase``/``index`` label what the run is doing (``"setup"`` 0,
    ``"step"`` 3, ...); every span and counter records them.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self.index = 0
        #: Rows one call of a compiled allgather moves, per instance.
        self.rows_per_call = weakref.WeakKeyDictionary()
        self._stack: List[int] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` in the current phase."""
        self.counters[(self.phase, name)] += value

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = rec._next_id
            rec._next_id += 1
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec._stack.pop()
                rec.spans.append(Span(sid, parent, name, start, end,
                                      rec.phase, rec.index))
            if after is not None:
                after(rec, args, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every target; raises :class:`TraceTargetError` if one
        has moved."""
        try:
            for name, targets, after in TARGETS:
                for module, cls, attr in targets:
                    owner = importlib.import_module(module)
                    if cls is not None:
                        owner = getattr(owner, cls, None)
                    original = vars(owner).get(attr) if owner is not None else None
                    if original is None:
                        where = f"{module}.{cls}.{attr}" if cls else f"{module}.{attr}"
                        raise TraceTargetError(
                            f"{where} not found: span {name!r} would read 0"
                        )
                    setattr(owner, attr, self._wrap(name, original, after))
                    self._patches.append((owner, attr, original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The spans in Chrome trace-event format (load in Perfetto or
        ``chrome://tracing``)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (s.start - t0) * 1e6, "dur": (s.end - s.start) * 1e6,
                "args": {"id": s.sid, "parent": s.parent, "phase": s.phase,
                         "index": s.index, "workload": self.workload},
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, directory: Path, layers: dict) -> None:
        """Write ``trace_<workload>.json`` and ``layers_<workload>.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"trace_{self.workload}.json", "w") as f:
            json.dump(self.chrome_trace(), f)
        with open(directory / f"layers_{self.workload}.json", "w") as f:
            json.dump(layers, f, indent=1, sort_keys=True)
