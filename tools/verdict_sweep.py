"""Verdict sweep: how many solves of nine fixed instance groups certify
from four starts, and in how many steps; exits 1 when a gated (group,
start) cell certifies fewer than its floor.  A solve certifies when the
verdict of its final certificate holds: every witness eigenvalue is at
least -tol, at the default tol = 1e-7, which bounds its distance to the
optimum by d tol whether or not its Lagrange operator is Hermitian.

Every instance is solved with ``SolverConfig(max_iter=3000)``, at most 3000
steps per solve, from each of four starts: the uniform measurement, the
square-root measurement, ``random_povm(n, d, k)`` for the instance's index
k in its group, and the empty start [I, 0, ..., 0].  The fixed-point map
cannot grow an empty element, so with three or more states ``solve``
climbs from the empty start mixed once with ``EMPTY_START_MIX`` of the
uniform measurement.  The groups are

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
  states depolarised by lambda in (0.01, 0.5);
- ``binary``: ``random_mixed(d, 2, 100 d + s)`` for d in {2, 3, 4, 8, 16,
  32} and s in 0..3, and the ten ``pure_pair(c, priors)`` of the
  quick-certify benchmark (34 instances).  ``solve`` takes Helstrom's
  measurement in closed form from any start, so each solve takes at most
  one step.

The ``zero-prior`` and ``qubits`` builders are those of ``tests/helpers.py``.
The solver draws no random numbers, so the table depends only on the
floating-point results of numpy and its BLAS; a rounding change in the
solver can move the crawling qubit instances either way, so ``qubits`` is
printed but has no floor.  Every other (group, start) cell must certify at
least its count in ``FLOORS``, or the sweep names it on stderr and exits 1.

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


def _binary():
    for d, s in itertools.product((2, 3, 4, 8, 16, 32), range(4)):
        yield md.random_mixed(d, 2, 100 * d + s)
    for c, priors in itertools.product((0.0, 0.25, 0.5, 0.75, 0.9), ((0.5, 0.5), (0.3, 0.7))):
        yield md.pure_pair(c, priors)


def _empty(ens: md.Ensemble, k: int) -> md.Povm:
    d = ens.dim
    return md.validate_povm([np.eye(d)] + [np.zeros((d, d))] * (len(ens) - 1))


# start of the k-th instance of a group; None is solve's uniform start
STARTS = {
    "uniform": lambda ens, k: None,
    "srm": lambda ens, k: md.square_root_measurement(ens),
    "random": lambda ens, k: md.random_povm(len(ens), ens.dim, k),
    "empty": _empty,
}

GROUPS = {
    "shapes": _shapes,
    "zero-prior": _zero_priors,
    "qubits": _qubits,
    "random": _random_ensembles,
    "identical": lambda: _family(_identical),
    "commuting": lambda: _family(_commuting),
    "low-rank": lambda: _family(_low_rank),
    "depolarised": lambda: _family(_depolarised),
    "binary": _binary,
}

# the fewest certified solves each (group, start) cell may read; ``qubits``
# is not gated, since its crawling instances certify or not with the BLAS
# build
_GROUP_FLOORS = {
    "shapes": 24,
    "zero-prior": 79,
    "random": 300,
    "identical": FAMILY_SIZE,
    "commuting": FAMILY_SIZE,
    "low-rank": FAMILY_SIZE,
    "depolarised": FAMILY_SIZE,
    "binary": 34,
}
FLOORS = {(group, start): floor for start in STARTS for group, floor in _GROUP_FLOORS.items()}
# zero-prior certifies in full from these three; instance 25 ends on the
# floor from the empty start
FLOORS.update({("zero-prior", start): 80 for start in ("uniform", "srm", "random")})


def sweep(instances: list[md.Ensemble], start: str) -> tuple[int, int, int, float]:
    """(certified, instances, steps, seconds) of one group from one start."""
    certified = steps = 0
    t0 = time.perf_counter()
    for k, ens in enumerate(instances):
        trace = md.solve(ens, STARTS[start](ens, k), CONFIG)
        certified += trace.final_certificate.is_optimal
        steps += len(trace.iterations)
    return certified, len(instances), steps, time.perf_counter() - t0


def main() -> int:
    print(f"{'group':<12} {'start':<8} {'certified':>11} {'steps':>8} {'time_s':>8}")
    totals = [0, 0, 0, 0.0]
    counts = {}
    for name, build in GROUPS.items():
        instances = list(build())
        for start in STARTS:
            row = sweep(instances, start)
            totals = [t + r for t, r in zip(totals, row)]
            certified, count, steps, seconds = row
            counts[name, start] = certified
            print(f"{name:<12} {start:<8} {f'{certified}/{count}':>11} {steps:>8} {seconds:>8.1f}",
                  flush=True)
    certified, count, steps, seconds = totals
    lost = [cell for cell, floor in FLOORS.items() if counts[cell] < floor]
    print(f"{'total':<21} {f'{certified}/{count}':>11} {steps:>8} {seconds:>8.1f}")
    for cell in lost:
        print(f"{' from '.join(cell)}: {counts[cell]} certified, below the floor of {FLOORS[cell]}",
              file=sys.stderr)
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
