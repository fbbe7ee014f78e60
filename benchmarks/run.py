"""Time-to-certified-answer benchmark for mindisc.

Usage, from the repository root:

    python3 benchmarks/run.py --workload quick-certify --seed 1 --seconds 30 --trace 0

It measures the mindisc sources under ``src/`` next to this directory and
prints, one per line, every metric with its unit, then as the last line a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# single-threaded BLAS/OpenMP, fixed before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mindisc" / "__init__.py").is_file():
        print(f"error: no mindisc sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import mindisc
    from harness import measure
    from workloads import WORKLOADS

    if Path(mindisc.__file__).resolve().parent != SRC / "mindisc":
        print(f"error: imported mindisc from {mindisc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    print("# env " + json.dumps(environment(), sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result.failed} of {result.attempted} operations failed")
    for name, note in result.notes.items():
        if name in result.metrics:
            print(f"{name} = {result.metrics[name]:.6g} {result.units[name]} ({note})")
        else:
            print(f"# {name}: {note}")
    for failure in result.failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
