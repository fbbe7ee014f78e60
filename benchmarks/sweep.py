"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/sweep.py --seeds 1-10 --output benchmarks/BENCH_0.json
    python3 benchmarks/sweep.py --seeds 1,1 --trace 1 --workloads cli-files

Runs ``run.py`` once per workload and seed, one run at a time, and writes
every run's result plus, per metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median ("spread").  Without ``--output`` the summary goes to stdout only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = done.stdout.strip().splitlines()
            report.setdefault("environment", json.loads(lines[0].removeprefix("# env ")))
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        names = runs[0]["metrics"]
        summary = {
            name: {"unit": names[name]["unit"],
                   **summarise([run["metrics"][name]["value"] for run in runs])}
            for name in names
        }
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, row in summary.items():
            print(f"{workload:15s} {name:32s} median {row['median']:.6g} {row['unit']:6s} "
                  f"spread {row['spread']:.3f}")
    if args.output:
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
