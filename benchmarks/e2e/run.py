"""End-to-end benchmark of the DGCL reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR]

Runs each workload (all four by default) one at a time, each in a fresh
process with single-threaded BLAS and an empty ``REPRO_CACHE_DIR``
inside the checkout.  With ``--workload``, the last line printed is the
result object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics.
Exits non-zero when a check fails, a traced span never fires, or the
program under test (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # also run as ``python -m benchmarks.e2e.run``

import harness  # noqa: E402

#: A workload process that runs longer than this is killed.
CHILD_TIMEOUT_S = 170


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS,
                        help="run only this workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset, feature, sampler and request seed")
    parser.add_argument("--seconds", type=float,
                        help="timed region per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced steps")
    parser.add_argument("--trace-dir", type=Path,
                        help="with --trace 1, write trace_<workload>.json "
                             "and layers_<workload>.json here")
    args = parser.parse_args(argv)

    src = harness.ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program under test not found at {src / 'repro'}",
              file=sys.stderr)
        return 2
    seconds = args.seconds or harness.load_spec()["run_seconds"]
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(src) + (os.pathsep + path if path else ""),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    status = 0
    for name in [args.workload] if args.workload else harness.WORKLOADS:
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        if args.trace_dir is not None:
            cmd += ["--trace-dir", str(args.trace_dir.resolve())]
        with tempfile.TemporaryDirectory(prefix=".e2e-cache-",
                                         dir=harness.ROOT) as cache:
            try:
                code = subprocess.run(
                    cmd, env=dict(env, REPRO_CACHE_DIR=cache),
                    cwd=harness.ROOT, timeout=CHILD_TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                print(f"error: {name} ran past {CHILD_TIMEOUT_S} s",
                      file=sys.stderr)
                code = 124
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
