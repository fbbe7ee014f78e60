"""Verdict sweep: how many solves of eight fixed instance groups certify,
and in how many steps; exits 1 when a gated group certifies fewer than its
floor.

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
  of every third ensemble;
- ``identical``, ``commuting``, ``low-rank``, ``depolarised``: 40
  ensembles each from ``default_rng(2024)``, d in 2..6, n in 3..7 and
  random priors, of one full-rank state repeated n times, of random
  diagonal states, of states of rank 1..2 with n in d..2d, and of pure
  states depolarised by lambda in (0.01, 0.5).

The ``zero-prior`` and ``qubits`` builders are those of ``tests/helpers.py``.
The solver draws no random numbers, so the table depends only on the
floating-point results of numpy and its BLAS; a rounding change in the
solver can move the crawling qubit instances either way, so ``qubits`` is
printed but has no floor.  Every other group must certify at least its
count in ``FLOORS``, or the sweep names it on stderr and exits 1.

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
from helpers import _perturbed_qubits, _zero_prior_rank_two  # noqa: E402

CONFIG = md.SolverConfig(max_iter=3000)
FAMILY_SIZE = 40


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


def _random_density(rng: np.random.Generator, d: int, rank: int) -> md.DensityMatrix:
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return md.validate_density(a @ a.conj().T / np.linalg.norm(a) ** 2)


def _random_ensembles():
    rng = np.random.default_rng(12345)
    for k in range(300):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(3, 8))
        priors = rng.random(n)
        if k % 3 == 0:
            priors[0] = 0.0
        states = [_random_density(rng, d, int(rng.integers(1, d + 1))) for _ in range(n)]
        yield md.Ensemble(priors / priors.sum(), tuple(states))


def _family(draw_states):
    """FAMILY_SIZE ensembles from ``default_rng(2024)``: d in 2..6 and n in
    3..7 (``draw_states`` may redraw n), random priors, and the states of
    ``draw_states(rng, d, n)``."""
    rng = np.random.default_rng(2024)
    for _ in range(FAMILY_SIZE):
        d = int(rng.integers(2, 7))
        states = draw_states(rng, d, int(rng.integers(3, 8)))
        priors = rng.random(len(states))
        yield md.Ensemble(priors / priors.sum(), tuple(states))


def _identical(rng, d, n):
    return [_random_density(rng, d, d)] * n


def _commuting(rng, d, n):
    return [md.validate_density(np.diag(w / w.sum())) for w in rng.random((n, d))]


def _low_rank(rng, d, n):
    n = int(rng.integers(d, 2 * d + 1))
    return [_random_density(rng, d, int(rng.integers(1, 3))) for _ in range(n)]


def _depolarised(rng, d, n):
    states = []
    for _ in range(n):
        lam = rng.uniform(0.01, 0.5)
        pure = _random_density(rng, d, 1).mat
        states.append(md.validate_density((1 - lam) * pure + lam * np.eye(d) / d))
    return states


GROUPS = {
    "shapes": _shapes,
    "zero-prior": _zero_priors,
    "qubits": _qubits,
    "random": _random_ensembles,
    "identical": lambda: _family(_identical),
    "commuting": lambda: _family(_commuting),
    "low-rank": lambda: _family(_low_rank),
    "depolarised": lambda: _family(_depolarised),
}

# the fewest certified solves each group may read; ``qubits`` is not gated,
# since its crawling instances certify or not with the BLAS build
FLOORS = {
    "shapes": 24,
    "zero-prior": 78,
    "random": 300,
    "identical": FAMILY_SIZE,
    "commuting": FAMILY_SIZE,
    "low-rank": FAMILY_SIZE,
    "depolarised": FAMILY_SIZE,
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
    counts = {}
    for name in GROUPS:
        row = sweep(name)
        totals = [t + r for t, r in zip(totals, row)]
        certified, count, steps, seconds = row
        counts[name] = certified
        print(f"{name:<12} {f'{certified}/{count}':>11} {steps:>8} {seconds:>8.1f}", flush=True)
    certified, count, steps, seconds = totals
    lost = [name for name, floor in FLOORS.items() if counts[name] < floor]
    print(f"{'total':<12} {f'{certified}/{count}':>11} {steps:>8} {seconds:>8.1f}")
    for name in lost:
        print(f"{name}: {counts[name]} certified, below the floor of {FLOORS[name]}", file=sys.stderr)
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
