"""A fixed unit of work that measures how fast the host runs right now.

The benchmark runs on a shared host whose speed drifts by half or more over
minutes, with no CPU time stolen by the hypervisor to show for it, so CPU
time drifts as well.  :func:`reference_time` times a fixed piece of work
shaped like mindisc's own calls, which no change to mindisc can touch.  The
harness times it next to every operation and rescales the operation's
time to the speed at which the reference takes :data:`REFERENCE_S`.

The shape matters.  A tight loop of eigendecompositions slowed by 14% in a
spell in which a 1 ms pair solve slowed by 46%: mindisc runs through much
Python and numpy code per call, and that suffers most when the host is
busy.  So the reference does the same kinds of things in miniature: frozen
dataclasses that validate small complex matrices on construction, sums,
eigendecompositions, a linear solve and a JSON round trip.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

# the reference takes about this long on a quiet core of the 2-CPU Xeon VM
# the benchmark was written on; scaled times are seconds at that speed
REFERENCE_S = 1e-3

_DIMS = (2, 3, 4, 6, 8)
_PER_GROUP = 3
_DOC = {"kind": "reference", "dim": 4, "values": [[0.125, -0.5, 1e-3, 3.25]] * 4}


@dataclass(frozen=True)
class _Weighted:
    weight: float
    mat: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.mat)):
            raise ValueError("non-finite entry")
        if not np.allclose(self.mat, self.mat.conj().T, atol=1e-12):
            raise ValueError("not Hermitian")
        values = np.linalg.eigvalsh(self.mat)
        if values[0] < -1e-9 * max(1.0, abs(values[-1])):
            raise ValueError("not positive semidefinite")


def _positive(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a @ a.conj().T / dim


_RNG = np.random.default_rng(20021)
_GROUPS = [[_positive(_RNG, d) for _ in range(_PER_GROUP)] for d in _DIMS]


def _work() -> float:
    acc = 0.0
    for mats in _GROUPS:
        items = [_Weighted(1.0 / (i + 1), mat) for i, mat in enumerate(mats)]
        total = sum(item.weight * item.mat for item in items)
        values, vectors = np.linalg.eigh(total)
        acc += float(values[0]) + float(np.einsum("ij,ji->", total, vectors).real)
        shifted = total + 3.0 * np.eye(total.shape[0])
        acc += float(np.trace(np.linalg.solve(shifted, total)).real)
        acc += len(json.loads(json.dumps(_DOC, sort_keys=True))["values"])
        acc += float(np.linalg.norm(np.asarray([item.weight for item in items])))
    return acc


def reference_time() -> float:
    """Wall time of one run of the reference work, in seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
