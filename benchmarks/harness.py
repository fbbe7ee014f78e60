"""Closed-loop, single-caller measurement of one workload.

One caller runs the workload's operations back to back, each after the
previous one returns, in passes over the operation list until the run
length is used up.  An untraced run (``trace=False``) gives the end-to-end
metrics.  A traced run alternates untraced and traced passes and gives the
per-layer metrics of :func:`tracing.layer_metrics`, each the median over
its traced passes, plus the tracing overhead.

Every operation and every set-up runs between two runs of the reference
work of :mod:`reference`, and the end-to-end timings are rescaled to the
host speed at which the reference takes ``REFERENCE_S``, so that most of
the host's drift in speed cancels out.
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from reference import REFERENCE_S, reference_time
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Op, Workload

# set-up is repeated at least this often and for at least this long, so
# that its median spans the machine's short speed swings
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND_TAIL = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "certified_frac": "ratio",
    "certified_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "solver.steps": "count",
    "solver.attempts": "count",
    "solver.wasted_step_frac": "ratio",
    "solver.self_s": "s",
    "solver.us_per_step": "us",
    "certificates.calls": "count",
    "certificates.self_s": "s",
    "certificates.ms_per_call": "ms",
    "certificates.gap_bound_max": "prob",
    "certificates.herm_residual_max": "rel",
    "povm.constructions": "count",
    "povm.self_s": "s",
    "matrices.spectral_calls": "count",
    "matrices.spectral_s": "s",
    "ensembles.builds": "count",
    "ensembles.self_s": "s",
    "cli.load_s": "s",
    "cli.emit_s": "s",
    "cli.bytes_read": "B",
    "cli.bytes_written": "B",
    "cli.load_mb_per_s": "MB/s",
    "cli.emit_mb_per_s": "MB/s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    solves: int = 0
    certified: int = 0
    failures: list[str] = field(default_factory=list)


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    notes: dict[str, str]
    failures: list[str]

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


class Timing(NamedTuple):
    raw: float  # wall time, in seconds
    reference: float  # mean of the reference runs just before and after

    @property
    def scaled(self) -> float:
        """``raw`` at the host speed at which the reference takes REFERENCE_S."""
        return self.raw * REFERENCE_S / self.reference


def timed(call: Callable[[], Any]) -> tuple[Any, Timing]:
    """Call ``call`` between two runs of the reference work."""
    before = reference_time()
    t0 = time.perf_counter()
    try:
        result = call()
    finally:
        raw = time.perf_counter() - t0
        after = reference_time()
    return result, Timing(raw, (before + after) / 2)


def run_pass(ops: list[Op], tally: Tally, tracer: Tracer | None = None) -> list[Timing | None]:
    """Run every operation once; return each one's timing, None where it failed."""
    timings: list[Timing | None] = []
    for op in ops:
        tally.attempted += 1
        tally.solves += op.is_solve
        recording = tracer.recording(tally.attempted) if tracer else contextlib.nullcontext()
        try:
            with recording:
                result, timing = timed(op.call)
            certified = op.check(result)
        except Exception as exc:  # any error is a failed operation; the run goes on
            tally.failed += 1
            tally.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            timings.append(None)
            continue
        timings.append(timing)
        tally.certified += bool(op.is_solve and certified)
    return timings


def timed_setup(workload: Workload, seed: int, workdir: Path) -> tuple[list[Op], list[Timing]]:
    """Build the inputs repeatedly; return the last build and every build's timing."""
    timings: list[Timing] = []
    while len(timings) < SETUP_MIN_REPEATS or sum(t.raw for t in timings) < SETUP_MIN_SECONDS:
        ops, timing = timed(lambda: workload.setup(seed, workdir))
        timings.append(timing)
    return ops, timings


def pass_seconds(timings: list[Timing | None]) -> float:
    """Scaled time of one pass; failed operations left out."""
    return sum(t.scaled for t in timings if t is not None)


def tail_percentile(count: int) -> float:
    """Highest of TAIL_PERCENTILES with at least MIN_BEYOND_TAIL samples beyond it."""
    for q in TAIL_PERCENTILES:
        if count * (100.0 - q) / 100.0 >= MIN_BEYOND_TAIL:
            return q
    return 50.0


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(tally: Tally, passes: list[list[Timing | None]],
                setups: list[Timing]) -> tuple[dict, dict]:
    # the per-pass median latency averages the two operation kinds that
    # meet at the middle of a mixed list, where a pooled median would take
    # the extremes of each
    scaled = [[t.scaled for t in timings if t is not None] for timings in passes]
    latencies = [t for pass_latencies in scaled for t in pass_latencies]
    n = len(latencies)
    q = tail_percentile(n)
    pass_s = statistics.median(pass_seconds(timings) for timings in passes)
    per_pass = tally.certified / len(passes)
    references = [t.reference for timings in passes for t in timings if t is not None]
    raw_pass_s = statistics.median(sum(t.raw for t in timings if t is not None) for timings in passes)
    metrics = {
        "setup_s": statistics.median(t.scaled for t in setups),
        "pass_s": pass_s,
        "op_ms_p50": 1e3 * statistics.median(statistics.median(p) for p in scaled if p) if n else 0.0,
        "op_ms_tail": 1e3 * float(np.percentile(latencies, q)) if n else 0.0,
        "certified_frac": tally.certified / tally.solves if tally.solves else 0.0,
        "certified_per_s": per_pass / pass_s if pass_s else 0.0,
        "peak_rss_mb": _peak_rss_mib(),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "pass_s": f"median of {len(passes)} passes",
        "op_ms_p50": f"median of per-pass medians, n={n} in {len(passes)} passes",
        "op_ms_tail": f"p{q:g}, n={n}",
        "certified_frac": f"{tally.certified} of {tally.solves} solves",
        "certified_per_s": f"{per_pass:g} certified per pass",
        "peak_rss_mb": "ru_maxrss",
        "host": (f"reference took {1e3 * statistics.median(references):.4g} ms "
                 f"(scaled to {1e3 * REFERENCE_S:g} ms); unscaled pass {raw_pass_s:.6g} s"
                 if references else "no operation passed"),
    }
    return metrics, notes


def _scaled_layers(layers: dict, timings: list[Timing | None]) -> dict:
    """Rescale one pass's layer times to the reference speed, as the
    end-to-end timings are; counts and ratios stay as they are."""
    factors = [REFERENCE_S / t.reference for t in timings if t is not None]
    factor = statistics.median(factors) if factors else 1.0
    scale = {"s": factor, "ms": factor, "us": factor, "MB/s": 1.0 / factor}
    return {name: value * scale.get(LAYER_UNITS[name], 1.0) for name, value in layers.items()}


def _layers(ops, workload, seed, workdir, seconds, tally, out_dir) -> tuple[dict, dict]:
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed(), tracer.recording("setup"):
        workload.setup(seed, workdir)
    setup_ids = range(len(tracer.spans))
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(ops, tally))
        first = len(tracer.spans)
        with tracer.installed():
            traced.append(run_pass(ops, tally, tracer))
        layers = layer_metrics(tracer.spans, range(first, len(tracer.spans)), setup_ids)
        per_pass.append(_scaled_layers(layers, traced[-1]))
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    traced_s = statistics.median(pass_seconds(timings) for timings in traced)
    untraced_s = statistics.median(pass_seconds(timings) for timings in untraced)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path, t0)
    notes = {name: f"median of {len(traced)} traced passes" for name in metrics}
    notes["trace.overhead_frac"] = f"{len(traced)} traced vs {len(untraced)} untraced passes"
    notes["spans"] = f"{len(tracer.spans)} spans written to {spans_path.name}"
    return metrics, notes


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> Result:
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=out_dir))
    try:
        tally = Tally()
        if trace:
            ops = workload.setup(seed, workdir)
            metrics, notes = _layers(ops, workload, seed, workdir, seconds, tally, out_dir)
            units = LAYER_UNITS
        else:
            ops, setups = timed_setup(workload, seed, workdir)
            passes = []
            start = time.perf_counter()
            while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
                passes.append(run_pass(ops, tally))
            metrics, notes = _end_to_end(tally, passes, setups)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Result(tally.attempted, tally.failed, metrics, units, notes, tally.failures)
