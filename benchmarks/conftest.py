"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark module regenerates one table or figure of the paper
(see DESIGN.md §4).  Results are written as formatted text tables under
``benchmarks/results/`` and also printed, and each module asserts the
*shape* claims of its experiment — who wins, roughly by how much — so a
regression in the planner or simulator fails the suite loudly.

Workloads (graph + partition + plans) are cached per process, so
tables that share a cell partition and plan it once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import pytest

from repro.baselines import Workload
from repro.topology import topology_for_gpu_count
from repro.topology.topology import Topology

RESULTS_DIR = Path(__file__).parent / "results"

_TOPOLOGIES: Dict[int, Topology] = {}
_WORKLOADS: Dict[tuple, Workload] = {}


def shared_topology(num_gpus: int) -> Topology:
    """One topology instance per GPU count (keeps cache keys stable)."""
    if num_gpus not in _TOPOLOGIES:
        _TOPOLOGIES[num_gpus] = topology_for_gpu_count(num_gpus)
    return _TOPOLOGIES[num_gpus]


def get_workload(dataset: str, model: str, num_gpus: int, **kwargs) -> Workload:
    key = (dataset, model, num_gpus, tuple(sorted(kwargs.items())))
    if key not in _WORKLOADS:
        _WORKLOADS[key] = Workload(
            dataset, model, shared_topology(num_gpus), **kwargs
        )
    return _WORKLOADS[key]


def write_table(
    name: str,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
) -> str:
    """Format, save and print one reproduced table."""
    rows = [list(map(str, row)) for row in rows]
    header = list(map(str, header))
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]

    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()

    lines = [title, "=" * len(title), "", fmt(header),
             fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    if notes:
        lines += ["", notes]
    text = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


#: Footnote of both §6.1 coordination tables (ablation and protocol
#: overhead), which read the same protocol runner.
COORDINATION_NOTES = (
    "Decentralized = §6.1 ready/done protocol; centralized adds a master "
    "barrier per stage.  On uniform runs the two tie at twin scale; the "
    "decentralized win is straggler isolation (see tests/test_runtime.py)."
)


def ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
