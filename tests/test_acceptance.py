"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

import mindisc as md
from helpers import random_instance, suboptimal_mode_instance
from mindisc import cli

_CACHE: dict[str, object] = {}


def _report(number: int, name: str, extra: str = "") -> None:
    suffix = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {number} ({name}): PASS{suffix}")


def _random_pairs_500():
    if "pairs500" not in _CACHE:
        combos = [(dim, n) for dim in (2, 3, 4) for n in (2, 3, 4)]
        pairs = []
        for i in range(500):
            dim, n = combos[i % len(combos)]
            pairs.append(random_instance(31_000 + i, dim, n))
        _CACHE["pairs500"] = pairs
    return _CACHE["pairs500"]


def _binary_solutions():
    if "binary" not in _CACHE:
        rows = []
        for i in range(50):
            ens = md.random_mixed(2, 2, seed=52_000 + i)
            trace = md.solve(ens)
            _, oracle = md.helstrom_binary(
                float(ens.priors[0]), ens.states[0], float(ens.priors[1]), ens.states[1]
            )
            rows.append((ens, trace, oracle))
        _CACHE["binary"] = rows
    return _CACHE["binary"]


def _pair_solutions():
    if "pairs" not in _CACHE:
        rows = []
        for c in (0.0, 0.25, 0.5, 0.75, 0.9):
            ens = md.pure_pair(c)
            _, oracle = md.helstrom_binary(0.5, ens.states[0], 0.5, ens.states[1])
            rows.append((c, ens, md.solve(ens), oracle))
        _CACHE["pairs"] = rows
    return _CACHE["pairs"]


def _trine_solution():
    if "trine" not in _CACHE:
        ens = md.trine()
        _CACHE["trine"] = (ens, md.solve(ens))
    return _CACHE["trine"]


def _certified_optima():
    optima = [
        (ens, trace.final_povm, trace.final_certificate)
        for ens, trace, _ in _binary_solutions()
    ]
    optima += [
        (ens, trace.final_povm, trace.final_certificate)
        for _, ens, trace, _ in _pair_solutions()
    ]
    ens, trace = _trine_solution()
    optima.append((ens, trace.final_povm, trace.final_certificate))
    return optima


def test_criterion_01_witness_trace_identity():
    start = time.perf_counter()
    for ens, povm in _random_pairs_500():
        total = sum(
            np.trace(md.witness_operator(ens, povm, j) @ povm[j]).real
            for j in range(len(ens))
        )
        assert abs(total) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, "sum_j tr(G_j pi_j) = 0 on 500 random pairs", f"{elapsed:.2f}s")


def test_criterion_02_lagrange_trace_identity():
    for ens, povm in _random_pairs_500():
        gamma = md.lagrange_operator(ens, povm)
        assert abs(np.trace(gamma).real - md.p_correct(ens, povm)) <= 1e-10
    _report(2, "tr(Gamma) = P_corr on the same 500 pairs")


def test_criterion_03_first_order_gain():
    epsilon = 1e-5
    for i in range(100):
        ens, povm, mode = suboptimal_mode_instance(
            seed=63_000 + 977 * i, dim=2, n=3, min_lam=0.01
        )
        measured = (
            md.p_correct(ens, md.perturb(povm, mode, epsilon)) - md.p_correct(ens, povm)
        ) / epsilon
        assert abs(measured + 2 * mode.eigenvalue) / (-2 * mode.eigenvalue) <= 1e-3
    _report(3, "measured (P'-P)/eps matches 2*lambda on 100 instances")


def test_criterion_04_perturbation_validity():
    rng = np.random.default_rng(74_000)
    checked = 0
    seed = 0
    while checked < 1000:
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        ens, povm = random_instance(74_500 + seed, dim, n)
        seed += 1
        mode = md.find_negative_mode(ens, povm)
        if mode is None:
            continue
        epsilon = float(rng.uniform(1e-6, 1.0))
        perturbed = md.perturb(povm, mode, epsilon)
        assert isinstance(perturbed, md.Povm)
        checked += 1
    _report(4, "perturb keeps POVM validity on 1000 (mode, eps) draws")


def test_criterion_05_binary_oracle_equivalence():
    start = time.perf_counter()
    for ens, trace, oracle in _binary_solutions():
        assert abs(trace.final_certificate.p_corr - oracle) <= 1e-6
        assert trace.final_certificate.tolerance == 1e-7
        assert trace.final_certificate.is_optimal
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, "solve matches helstrom_binary on 50 dim-2 ensembles", f"{elapsed:.2f}s")


def test_criterion_06_pure_pair_closed_form():
    for c, _, trace, oracle in _pair_solutions():
        closed_form = 0.5 * (1 + np.sqrt(1 - c * c))
        assert abs(oracle - closed_form) <= 1e-12
        assert abs(trace.final_certificate.p_corr - closed_form) <= 1e-6
    _report(6, "pure pairs reach (1 + sqrt(1 - c^2))/2")


def test_criterion_07_trine_optimum():
    ens, trace = _trine_solution()
    assert abs(trace.final_certificate.p_corr - 2.0 / 3.0) <= 1e-6
    assert trace.final_certificate.is_optimal
    _, brute_value = md.brute_force(ens, budget=8, seed=7)
    assert abs(brute_value - 2.0 / 3.0) <= 1e-6
    _report(7, "trine optimum 2/3 certified and confirmed by brute force")


def test_criterion_08_sufficiency_challengers():
    rng = np.random.default_rng(85_000)
    for ens, povm, cert in _certified_optima():
        assert cert.is_optimal
        best = md.p_correct(ens, povm)
        for _ in range(100):
            challenger = md.random_povm(len(ens), ens.dim, rng)
            assert md.p_correct(ens, challenger) <= best + 1e-6
    _report(8, "100 challengers per certified optimum never exceed it")


def test_criterion_09_necessity_of_negative_modes():
    shapes = [(2, 2)] * 70 + [(2, 3)] * 15 + [(3, 2)] * 15
    checked = 0
    attempts = 0
    while checked < 100:
        dim, n = shapes[checked]
        ens, povm = random_instance(96_000 + attempts, dim, n)
        attempts += 1
        assert attempts < 300  # random POVMs are essentially never optimal
        _, best = md.brute_force(ens, budget=6, seed=96_500 + attempts)
        margin = best - md.p_correct(ens, povm)
        if margin < 1e-3:
            continue
        mode = md.find_negative_mode(ens, povm)
        assert mode is not None, f"margin {margin:.3e} but no negative mode"
        assert mode.eigenvalue < 0
        checked += 1
    _report(9, "negative mode found for all 100 strictly suboptimal POVMs")


def test_criterion_10_equality_condition_consistency():
    for ens, povm, cert in _certified_optima():
        assert cert.is_optimal
        assert cert.pairwise_equality_residual <= 1e-6
        assert cert.zero_product_residual <= 1e-6
    _report(10, "equality residuals below 1e-6 at every certified optimum")


def test_criterion_11_cli_determinism(tmp_path):
    problem = tmp_path / "problem.json"
    code = cli.main(
        ["generate", "--kind", "random", "--dim", "2", "--n", "3", "--seed", "19",
         "--output", str(problem)]
    )
    assert code == 0
    outputs = []
    for tag in ("first", "second"):
        report = tmp_path / f"report-{tag}.json"
        solution = tmp_path / f"solution-{tag}.json"
        cli.main(
            ["solve", str(problem), "--seed", "4", "--max-iter", "4800",
             "--output", str(solution), "--report", str(report)]
        )
        outputs.append((report.read_bytes(), solution.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    _report(11, "repeated cmd_solve emits byte-identical reports")
