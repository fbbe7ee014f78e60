"""The benchmark's three workloads: seeded inputs, timed calls and output checks.

A workload's ``setup(seed, workdir)`` builds every input through the public
API and returns a list of :class:`Op`.  The harness times ``op.call()``
alone and then runs ``op.check(result)``, which raises :class:`CheckFailed`
on a wrong answer and returns, for a solve, whether the returned
certificate is optimal.

Calls go through module attributes (``md.solve``, ``cli.main``) looked up
at call time, so the traced run's wrappers and the tests' fakes see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import mindisc as md
import mindisc.cli as cli

TOL = md.DEFAULT_TOL
# answers compared with a closed form (Helstrom, trine) must agree this closely
ORACLE_TOL = 1e-9
# recomputations of the same quantity from the same POVM
REPEAT_TOL = 1e-12
TRINE_P = 2.0 / 3.0


class CheckFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool | None]
    is_solve: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], list[Op]]
    # passes made even when --seconds is already used up
    min_passes: int = 1


def _sub_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(2**31, size=count)]


def _helstrom_p(ens: md.Ensemble) -> float:
    return md.helstrom_binary(ens.priors[0], ens.states[0], ens.priors[1], ens.states[1])[1]


# ---------------------------------------------------------------------------
# library checks

def check_solve(ens: md.Ensemble, start_p: float, expected_p: float | None, trace) -> bool:
    md.validate_povm(list(trace.final_povm))
    returned = trace.final_certificate
    cert = md.certify(ens, trace.final_povm, TOL)
    expect(
        cert.is_optimal == returned.is_optimal == trace.converged,
        f"verdicts disagree: recertified {cert.is_optimal}, returned "
        f"{returned.is_optimal}, converged {trace.converged}",
    )
    expect(
        abs(cert.p_corr - returned.p_corr) <= REPEAT_TOL,
        f"recertified p_corr {cert.p_corr!r} != returned {returned.p_corr!r}",
    )
    expect(
        returned.p_corr >= start_p - REPEAT_TOL,
        f"p_corr {returned.p_corr!r} below the start's {start_p!r}",
    )
    if expected_p is not None:
        expect(
            abs(returned.p_corr - expected_p) <= ORACLE_TOL,
            f"p_corr {returned.p_corr!r} != reference {expected_p!r}",
        )
    return cert.is_optimal


def check_certify(expected_optimal: bool, expected_p: float, p_tol: float, cert) -> None:
    expect(
        cert.is_optimal == expected_optimal,
        f"verdict {cert.is_optimal}, expected {expected_optimal}",
    )
    expect(
        abs(cert.p_corr - expected_p) <= p_tol,
        f"p_corr {cert.p_corr!r} != reference {expected_p!r}",
    )
    if not cert.is_optimal:
        expect(
            cert.witness is not None and cert.witness.eigenvalue < -cert.tolerance,
            "not-optimal verdict without a witness below -tol",
        )


def solve_op(label: str, ens: md.Ensemble, expected_p: float | None, config=None) -> Op:
    start_p = md.p_correct(ens, md.uniform_povm(len(ens), ens.dim))
    return Op(
        label=label,
        call=lambda: md.solve(ens, None, config),
        check=partial(check_solve, ens, start_p, expected_p),
        is_solve=True,
    )


def certify_op(label: str, ens: md.Ensemble, povm: md.Povm, optimal: bool,
               expected_p: float, p_tol: float) -> Op:
    return Op(
        label=label,
        call=lambda: md.certify(ens, povm, TOL),
        check=partial(check_certify, optimal, expected_p, p_tol),
    )


# ---------------------------------------------------------------------------
# ascent-generic

# The ensembles are a fixed suite.  Several instances stop within ~1e-11 of
# the optimum with a Hermiticity residual near tol, so whether they certify
# is a coin toss per instance; drawing them from --seed would make
# certified_frac over ten instances swing by half between seeds.
ASCENT_SUITE_SEED = 1
ASCENT_RANDOM_SHAPES = ((2, 3), (3, 3), (3, 4), (4, 4), (4, 8), (8, 8), (16, 4))
# at most 600 steps per instance over the six attempts, so that a pass
# lasts about a second and a run makes many of them
ASCENT_CONFIG = md.SolverConfig(max_iter=100)


def _pure_ensemble(rng: np.random.Generator, dim: int, priors) -> md.Ensemble:
    n = len(priors)
    kets = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return md.Ensemble(np.asarray(priors, dtype=float), tuple(md.pure_state(k) for k in kets))


def ascent_generic(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(ASCENT_SUITE_SEED)
    ops = [solve_op("trine", md.trine(), TRINE_P, ASCENT_CONFIG)]
    for (d, n), s in zip(ASCENT_RANDOM_SHAPES, _sub_seeds(rng, len(ASCENT_RANDOM_SHAPES))):
        ops.append(solve_op(f"random d={d} n={n}", md.random_mixed(d, n, s), None, ASCENT_CONFIG))
    ops.append(solve_op("pure d=4 n=6", _pure_ensemble(rng, 4, [1 / 6] * 6), None, ASCENT_CONFIG))
    zero = [1 / 3, 1 / 3, 1 / 3, 0.0]
    ops.append(solve_op("zero-prior d=3 n=4", _pure_ensemble(rng, 3, zero), None, ASCENT_CONFIG))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# quick-certify

PAIR_OVERLAPS = (0.0, 0.25, 0.5, 0.75, 0.9)
PAIR_PRIORS = ((0.5, 0.5), (0.3, 0.7))
BINARY_DIMS = (2, 4, 8, 16, 32)
NOT_OPTIMAL_SHAPES = ((8, 8), (16, 8), (16, 16), (32, 16))


def quick_certify(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    binary = [
        (f"pair c={c} priors={p}", md.pure_pair(c, p))
        for c in PAIR_OVERLAPS
        for p in PAIR_PRIORS
    ]
    binary += [
        (f"random d={d} n=2", md.random_mixed(d, 2, s))
        for d, s in zip(BINARY_DIMS, _sub_seeds(rng, len(BINARY_DIMS)))
    ]
    ops = []
    for label, ens in binary:
        helstrom_povm, helstrom_p = md.helstrom_binary(
            ens.priors[0], ens.states[0], ens.priors[1], ens.states[1]
        )
        ops.append(solve_op(label, ens, helstrom_p))
        ops.append(certify_op(f"helstrom {label}", ens, helstrom_povm, True, helstrom_p, ORACLE_TOL))
    trine = md.trine()
    ops.append(certify_op("srm trine", trine, md.square_root_measurement(trine), True, TRINE_P, ORACLE_TOL))
    for (d, n), s in zip(NOT_OPTIMAL_SHAPES, _sub_seeds(rng, len(NOT_OPTIMAL_SHAPES))):
        ens = md.random_mixed(d, n, s)
        for kind, povm in (("srm", md.square_root_measurement(ens)), ("random", md.random_povm(n, d, rng))):
            ops.append(certify_op(f"{kind} d={d} n={n}", ens, povm, False, md.p_correct(ens, povm), REPEAT_TOL))
    return ops


# ---------------------------------------------------------------------------
# cli-files

def run_cli(argv: list[str]) -> int:
    """In-process ``mindisc`` command with its report output captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read_report(path: Path) -> tuple[bytes, dict]:
    """Read a report and delete it, so a command that fails to write the
    next one cannot pass on a stale copy."""
    raw = path.read_bytes()
    path.unlink()
    return raw, json.loads(raw)


def _expect_exit(code: int, report: dict) -> bool:
    optimal = report["certificate"]["verdict"] == "optimal"
    expect(code == (cli.EXIT_OPTIMAL if optimal else cli.EXIT_NOT_OPTIMAL),
           f"exit code {code} for verdict {report['certificate']['verdict']}")
    return optimal


def check_generate(path: Path, expected: bytes, code: int) -> None:
    expect(code == 0, f"generate exited {code}")
    expect(path.read_bytes() == expected, f"{path.name} differs from problem_to_json")


def check_cli_solve(name: str, report_path: Path, start_p: float, expected_p: float,
                    state: dict, code: int) -> bool:
    raw, report = _read_report(report_path)
    optimal = _expect_exit(code, report)
    expect(report["p_corr"] >= start_p - REPEAT_TOL,
           f"p_corr {report['p_corr']!r} below the start's {start_p!r}")
    expect(abs(report["p_corr"] - expected_p) <= ORACLE_TOL,
           f"p_corr {report['p_corr']!r} != reference {expected_p!r}")
    first = state.setdefault(("report", name), raw)
    expect(raw == first, f"repeated solve of {name} changed the report")
    state[("solved", name)] = (optimal, report["p_corr"])
    return optimal


def check_cli_certify(report_path: Path, expected_optimal: bool, expected_p: float,
                      code: int) -> None:
    _, report = _read_report(report_path)
    optimal = _expect_exit(code, report)
    expect(optimal == expected_optimal, f"verdict optimal={optimal}, expected {expected_optimal}")
    expect(abs(report["p_corr"] - expected_p) <= REPEAT_TOL,
           f"p_corr {report['p_corr']!r} != reference {expected_p!r}")
    if not optimal:
        witness = report["certificate"]["witness"]
        expect(witness is not None and witness["eigenvalue"] < -report["tolerance"],
               "not-optimal verdict without a witness below -tol")


def check_solution_certify(name: str, report_path: Path, state: dict, code: int) -> None:
    solved = state.get(("solved", name))
    expect(solved is not None, f"no checked solve of {name} precedes its certify")
    check_cli_certify(report_path, solved[0], solved[1], code)


def cli_files(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    s16, s32, s_spec, s_big, solver_seed = _sub_seeds(rng, 5)
    state: dict = {}
    trine = md.trine()
    problems = []  # (name, ensemble, generate arguments or None, --start, reference p_corr)
    for name, d, s in (("random16", 16, s16), ("random32", 32, s32)):
        ens = md.random_mixed(d, 2, s)
        argv = ["--kind", "random", "--dim", str(d), "--n", "2", "--seed", str(s)]
        problems.append((name, ens, argv, "uniform", _helstrom_p(ens)))
    problems.append(("trine", trine, ["--kind", "trine"], "srm", TRINE_P))
    spec = {"kind": "random", "dim": 8, "n": 2, "seed": s_spec}
    (workdir / "spec.json").write_text(json.dumps({"spec": spec}))
    spec_ens = md.random_mixed(8, 2, s_spec)
    problems.append(("spec", spec_ens, None, "uniform", _helstrom_p(spec_ens)))

    generate_ops, solve_ops, certify_ops = [], [], []
    for name, ens, generate_argv, start, expected_p in problems:
        problem = workdir / f"{name}.json"
        solution = workdir / f"{name}.solution.json"
        if generate_argv is not None:
            expected = cli.problem_to_json(ens).encode()
            argv = ["generate", *generate_argv, "--output", str(problem)]
            generate_ops.append(Op(f"generate {name}", partial(run_cli, argv),
                                   partial(check_generate, problem, expected)))
        start_povm = (md.square_root_measurement(ens) if start == "srm"
                      else md.uniform_povm(len(ens), ens.dim))
        start_p = md.p_correct(ens, start_povm)
        report = workdir / f"{name}.solve-report.json"
        argv = ["solve", str(problem), "--seed", str(solver_seed), "--start", start,
                "--output", str(solution), "--report", str(report)]
        solve_ops.append(Op(f"solve {name}", partial(run_cli, argv),
                            partial(check_cli_solve, name, report, start_p, expected_p, state),
                            is_solve=True))
        report = workdir / f"{name}.certify-report.json"
        argv = ["certify", str(solution), "--report", str(report)]
        certify_ops.append(Op(f"certify {name}", partial(run_cli, argv),
                              partial(check_solution_certify, name, report, state)))

    big = md.random_mixed(32, 16, s_big)
    srm = md.square_root_measurement(big)
    big_path = workdir / "srm32x16.json"
    big_path.write_text(cli.problem_to_json(big, srm))
    report = workdir / "srm32x16.certify-report.json"
    argv = ["certify", str(big_path), "--report", str(report)]
    certify_ops.append(Op("certify srm d=32 n=16", partial(run_cli, argv),
                          partial(check_cli_certify, report, False, md.p_correct(big, srm))))
    return generate_ops + solve_ops + certify_ops


WORKLOADS = {
    # medians over at least five passes of the slowest workload
    "ascent-generic": Workload("ascent-generic", ascent_generic, min_passes=5),
    "quick-certify": Workload("quick-certify", quick_certify),
    "cli-files": Workload("cli-files", cli_files),
}
