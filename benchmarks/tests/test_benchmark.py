"""Tests of the benchmark itself: run with ``python3 -m pytest benchmarks/tests``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import mindisc as md  # noqa: E402
import mindisc.cli  # noqa: E402
import harness  # noqa: E402
from harness import END_TO_END_UNITS, LAYER_UNITS, measure, tail_percentile  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from tracing import Span, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, ascent_generic  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATED_COUNTS = ("solver.steps", "solver.attempts", "certificates.calls",
                   "cli.bytes_read", "cli.bytes_written")


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path / "out"


@pytest.fixture
def short_ascent(monkeypatch):
    """ascent-generic cut to its two fastest solves, one pass per run."""
    def setup(seed, workdir):
        return [op for op in ascent_generic(seed, workdir)
                if op.label in ("trine", "zero-prior d=3 n=4")]

    monkeypatch.setitem(WORKLOADS, "ascent-generic", Workload("ascent-generic", setup))


def test_config_names_match_harness():
    assert {w["name"] for w in CONFIG["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("workload", ["quick-certify", "cli-files"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = LAYER_UNITS if trace else END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and f" {unit} (" in line for line in lines), name


def test_ascent_metrics_and_checks(short_ascent, out_dir):
    for trace, units in ((False, END_TO_END_UNITS), (True, LAYER_UNITS)):
        result = measure("ascent-generic", 3, 0.0, trace, out_dir)
        assert result.correct, result.failures
        assert set(result.metrics) == set(units)


def test_wrong_solve_answer_counted_as_failed(monkeypatch, out_dir):
    def fake_solve(ens, start=None, config=None):
        # the uniform POVM, falsely reported as a certified optimum
        povm = md.uniform_povm(len(ens), ens.dim)
        cert = dataclasses.replace(md.certify(ens, povm), is_optimal=True, witness=None)
        return md.SolveTrace((), povm, cert, True, 0)

    monkeypatch.setattr(md, "solve", fake_solve)
    result = measure("quick-certify", 3, 0.0, False, out_dir)
    ops = WORKLOADS["quick-certify"].setup(3, out_dir)
    assert result.attempted == len(ops)
    assert result.failed == sum(op.is_solve for op in ops) > 0
    assert not result.correct
    assert all("verdicts disagree" in f or "p_corr" in f for f in result.failures)


def test_wrong_cli_answer_counted_as_failed(monkeypatch, out_dir):
    def fake_solve(ens, start=None, config=None):
        # an honest certificate of a suboptimal answer
        povm = md.uniform_povm(len(ens), ens.dim)
        cert = md.certify(ens, povm)
        return md.SolveTrace((), povm, cert, cert.is_optimal, 0)

    monkeypatch.setattr(mindisc.cli, "solve", fake_solve)
    result = measure("cli-files", 3, 0.0, False, out_dir)
    assert not result.correct
    assert any(f.startswith("solve random32:") and "reference" in f for f in result.failures)


@pytest.mark.parametrize("workload", ["quick-certify", "cli-files", "ascent-generic"])
def test_counts_repeat_for_fixed_seed(workload, short_ascent, out_dir):
    first, second = (measure(workload, 5, 0.0, True, out_dir) for _ in range(2))
    assert first.correct and second.correct
    for name in REPEATED_COUNTS:
        assert first.metrics[name] == second.metrics[name], name
    assert first.metrics["certificates.calls"] > 0


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    argv = [sys.executable, "benchmarks/run.py", "--workload", "quick-certify",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_timing_rescales_by_reference(monkeypatch):
    # a host twice as slow doubles the operation and the reference alike
    ticks = iter([0.0, 0.010, 0.0, 0.020])
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(ticks))
    refs = iter([2e-3, 2e-3, 4e-3, 4e-3])
    monkeypatch.setattr(harness, "reference_time", lambda: next(refs))
    _, fast = harness.timed(lambda: None)
    _, slow = harness.timed(lambda: None)
    assert (fast.raw, slow.raw) == (pytest.approx(0.010), pytest.approx(0.020))
    assert fast.scaled == pytest.approx(slow.scaled) == pytest.approx(0.010 * REFERENCE_S / 2e-3)


def test_end_to_end_metrics_follow_scaled_times(monkeypatch, out_dir):
    # operation i takes (i + 1) ms at the reference speed; every other pass
    # runs on a host three times as slow, which the reference shows
    pass_no = {"n": 0}

    def fake_run_pass(ops, tally, tracer=None):
        pass_no["n"] += 1
        tally.attempted += len(ops)
        tally.solves += sum(op.is_solve for op in ops)
        slow = 3.0 if pass_no["n"] % 2 else 1.0
        return [harness.Timing(slow * 1e-3 * (i + 1), slow * REFERENCE_S)
                for i in range(len(ops))]

    monkeypatch.setattr(harness, "run_pass", fake_run_pass)
    monkeypatch.setitem(WORKLOADS, "quick-certify",
                        Workload("quick-certify", WORKLOADS["quick-certify"].setup, min_passes=4))
    result = measure("quick-certify", 3, 0.0, False, out_dir)
    count = len(WORKLOADS["quick-certify"].setup(3, out_dir))
    assert result.metrics["pass_s"] == pytest.approx(1e-3 * count * (count + 1) / 2)
    assert result.metrics["op_ms_p50"] == pytest.approx((count + 1) / 2)
    assert result.metrics["op_ms_tail"] <= count


def test_tail_percentile_keeps_ten_beyond():
    assert tail_percentile(40) == 75.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(5000) == 99.0


def test_self_time_subtracts_children():
    spans = [
        Span("solver.solve", 0.0, 10.0, None, 1, (("steps", 4), ("returned_steps", 1))),
        Span("certificates.certify", 1.0, 4.0, 0, 1),
        Span("matrices.spectral_decompose", 2.0, 3.0, 1, 1),
        Span("povm.validate_povm", 5.0, 6.0, 0, 1),
    ]
    metrics = layer_metrics(spans, range(4), range(0))
    assert metrics["solver.self_s"] == 6.0
    assert metrics["certificates.self_s"] == 2.0
    assert metrics["solver.attempts"] == 1
    assert metrics["solver.us_per_step"] == 1.5e6
    assert metrics["solver.wasted_step_frac"] == 0.75
    assert metrics["matrices.spectral_calls"] == 1
