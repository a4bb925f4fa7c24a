"""Trace one distributed training epoch and export it for Perfetto.

Arms the distributed trainer with a
:class:`~repro.obs.telemetry.Telemetry` handle holding a
:class:`~repro.obs.tracer.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry`, runs one epoch of a
2-layer GCN on the Reddit twin across 4 simulated GPUs, and writes a
Chrome ``trace_event`` file.  Open the output in
https://ui.perfetto.dev (or chrome://tracing): one row per trainer
phase, one per device, one per physical wire — every timestamp is
simulated, so the same seed always produces the byte-identical file.

Run:  python examples/trace_epoch.py [out.trace.json]
"""

import sys

from repro.baselines import Workload
from repro.gnn.distributed import DistributedTrainer
from repro.graph.datasets import synthetic_features, synthetic_labels
from repro.obs import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    stats_table,
    write_chrome_trace,
)
from repro.topology import topology_for_gpu_count


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "epoch.trace.json"
    workload = Workload("reddit", "gcn", topology_for_gpu_count(4))
    spec = workload.spec
    features = synthetic_features(workload.graph, spec.feature_size)
    labels = synthetic_labels(workload.graph, spec.num_classes)

    tracer, metrics = Tracer(), MetricsRegistry()
    trainer = DistributedTrainer(
        workload.relation, workload.spst_plan, workload.model,
        features, labels, telemetry=Telemetry(tracer=tracer, metrics=metrics),
    )
    result = trainer.run_epoch()
    print(f"epoch 0: loss = {result.loss:.4f}, "
          f"{tracer.duration() * 1e3:.3f} ms simulated")

    print("\ntrainer phases:")
    for span in tracer.by_track("trainer"):
        print(f"  {span.start * 1e6:9.2f} - {span.finish * 1e6:9.2f} us  "
              f"{span.name}")

    print("\nmetrics:")
    print(stats_table(metrics))

    write_chrome_trace(tracer, out, metrics=metrics)
    print(f"\nwrote {len(tracer.events())} spans on "
          f"{len(tracer.tracks())} tracks to {out}")


if __name__ == "__main__":
    main()
