"""Verdict sweep: how many solves of four fixed instance groups certify,
and in how many steps.

Every instance is solved from the uniform start with
``SolverConfig(max_iter=3000)``, at most 3000 steps per solve:

- ``shapes``: ``random_mixed(d, n, 1)`` for d in {2, 3, 4, 6, 8, 16} and
  n in {3, 4, 8, 16} (24 instances);
- ``zero-prior``: ``_zero_prior_rank_two(seed)`` for seeds 0..79;
- ``qubits``: ``_perturbed_qubits(n, delta, theta, seed)`` for n in
  {4, 5, 8}, delta in {1e-3, 1e-2}, theta in {0.3, 0.5, pi/4} and seeds
  0..1 (36 instances);
- ``random``: 300 ensembles drawn from ``default_rng(12345)``: d in 2..6,
  n in 3..7, each state of a random rank 1..d, and a zero prior on state 0
  of every third ensemble.

The ``zero-prior`` and ``qubits`` builders are those of
``tests/test_solver.py``.  The solver draws no random numbers, so the table
depends only on the floating-point results of numpy and its BLAS; a rounding
change in the solver can move the crawling qubit instances either way.

Run from the repository root:

    PYTHONPATH=src python3 tools/verdict_sweep.py
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import mindisc as md  # noqa: E402
from test_solver import _perturbed_qubits, _zero_prior_rank_two  # noqa: E402

CONFIG = md.SolverConfig(max_iter=3000)


def _shapes():
    for d, n in itertools.product((2, 3, 4, 6, 8, 16), (3, 4, 8, 16)):
        yield md.random_mixed(d, n, 1)


def _zero_priors():
    for seed in range(80):
        yield _zero_prior_rank_two(seed)


def _qubits():
    for n, delta, theta, seed in itertools.product(
        (4, 5, 8), (1e-3, 1e-2), (0.3, 0.5, np.pi / 4), (0, 1)
    ):
        yield _perturbed_qubits(n, delta, theta, seed)


def _random_ensembles():
    rng = np.random.default_rng(12345)
    for k in range(300):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(3, 8))
        priors = rng.random(n)
        if k % 3 == 0:
            priors[0] = 0.0
        states = []
        for _ in range(n):
            rank = int(rng.integers(1, d + 1))
            a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            states.append(md.validate_density(a @ a.conj().T / np.linalg.norm(a) ** 2))
        yield md.Ensemble(priors / priors.sum(), tuple(states))


GROUPS = {
    "shapes": _shapes,
    "zero-prior": _zero_priors,
    "qubits": _qubits,
    "random": _random_ensembles,
}


def sweep(name: str) -> tuple[int, int, int, float]:
    """(certified, instances, steps, seconds) of one group."""
    certified = count = steps = 0
    start = time.perf_counter()
    for ens in GROUPS[name]():
        trace = md.solve(ens, config=CONFIG)
        count += 1
        certified += trace.final_certificate.is_optimal
        steps += len(trace.iterations)
    return certified, count, steps, time.perf_counter() - start


def main() -> int:
    print(f"{'group':<12} {'certified':>11} {'steps':>8} {'time_s':>8}")
    totals = [0, 0, 0, 0.0]
    for name in GROUPS:
        row = sweep(name)
        totals = [t + r for t, r in zip(totals, row)]
        certified, count, steps, seconds = row
        print(f"{name:<12} {f'{certified}/{count}':>11} {steps:>8} {seconds:>8.1f}", flush=True)
    certified, count, steps, seconds = totals
    print(f"{'total':<12} {f'{certified}/{count}':>11} {steps:>8} {seconds:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
