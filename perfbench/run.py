#!/usr/bin/env python3
"""dcnn benchmark: training throughput per strategy, scoring, and per-layer
timings.

Run from the root of a dcnn checkout:

    python3 perfbench/run.py --workload train-l1500-1r --seed 1 --seconds 25 --trace 0

One invocation generates its inputs from ``--seed``, sets the workload up
several times, runs one untimed warm-up operation, then runs operations
(``train()`` calls, or scoring passes) for about ``--seconds`` seconds.
Every operation's output is checked against the float64 reference in
``checks.py``.  The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of ``tracing.py``.  Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    seq_length: int
    per_class: int  # positives and negatives each
    strategy: str = ""  # "" scores a checkpoint instead of training
    replicas: int = 1
    batch_per_replica: int = 64
    epochs: int = 1

    @property
    def processes(self) -> int:
        if not self.strategy or self.replicas == 1:
            return 1
        return self.replicas + (self.strategy == "ps")


WORKLOADS = {
    "train-l1500-1r": Workload(1500, 184, "allreduce", 1, 64, 1),
    "ring-l200-2r": Workload(200, 500, "allreduce", 2, 4, 2),
    "ps-l200-2w": Workload(200, 500, "ps", 2, 4, 2),
    "score-l1500": Workload(1500, 256),
}


def pin_threads(processes: int) -> dict:
    """Cap BLAS/OpenMP threads so processes x threads <= nproc.  Set before
    NumPy loads; forked workers inherit it."""
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, nproc // processes)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return {"nproc": nproc, "processes": processes, "threads_per_process": threads}


def environment(pinned: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **pinned,
        **{var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    pinned = pin_threads(workload.processes)

    if not (ROOT / "src" / "dcnn" / "__init__.py").is_file():
        print(f"dcnn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench  # noqa: E402  (after the thread pinning above)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result, record = bench.run(args.workload, workload, args.seed, args.seconds,
                                   bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["env"] = environment(pinned)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "record": str(record_path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
