"""Quickstart: the paper's Listing 1, end to end.

Trains a 2-layer GCN on the Web-Google twin across 8 simulated GPUs:
partition the graph, plan communication with SPST, run real distributed
epochs (embeddings genuinely travel through the planned trees), and
check the result matches single-GPU training bit for bit.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro.api as dgcl
from repro.gnn import SingleDeviceTrainer, build_gcn
from repro.gnn.distributed import DistributedTrainer
from repro.graph import load_dataset
from repro.graph.datasets import DATASETS, synthetic_features, synthetic_labels
from repro.topology import dgx1


def main() -> None:
    spec = DATASETS["web-google"]
    graph = load_dataset("web-google")
    print(f"dataset: {graph}")

    # ---- Listing 1, lines 9-12: init, buildCommInfo, dispatch --------
    topology = dgx1()
    with dgcl.session(topology) as session:
        report = session.build_comm_info(graph)
        plan = report.plan
        print(f"topology: {topology}")
        print(f"plan:     {plan}")
        print(f"          planned cost: {report.total_cost * 1e6:.2f} us over "
              f"{report.num_stages} stage(s)")
        print(f"          volume by link kind: "
              f"{ {str(k): v for k, v in plan.volume_by_kind().items()} }")

        features = synthetic_features(graph, spec.feature_size)
        labels = synthetic_labels(graph, spec.num_classes)

        # ---- distributed training (the forward loop of Listing 1) --------
        relation = session.relation
        model = build_gcn(spec.feature_size, spec.hidden_size, spec.num_classes,
                          seed=42)
        trainer = DistributedTrainer(relation, plan, model, features, labels,
                                     lr=0.05)
        print("\ntraining 5 epochs on 8 simulated GPUs:")
        for epoch in range(5):
            result = trainer.run_epoch()
            print(f"  epoch {epoch}: loss = {result.loss:.4f}")

        # ---- sanity: distributed == single-GPU --------------------------
        reference = SingleDeviceTrainer(
            graph,
            build_gcn(spec.feature_size, spec.hidden_size, spec.num_classes,
                      seed=42),
            features, labels, lr=0.05,
        )
        ref_losses = reference.train(5)
        match = np.allclose(ref_losses, trainer.loss_history, rtol=1e-4)
        print(f"\nsingle-GPU reference losses: "
              f"{[f'{l:.4f}' for l in ref_losses]}")
        print(f"distributed == single-GPU: {match}")

        est = plan.estimated_cost(spec.feature_size * 4)
        simulated = session.executor.execute(plan, spec.feature_size * 4).total_time
        print(f"\ncost model estimate for one allgather: {est * 1e6:.1f} us")
        print(f"simulated execution of one allgather:  {simulated * 1e6:.1f} us")
        assert match, "distributed training diverged from the reference!"


if __name__ == "__main__":
    main()
