"""Density matrices, prior-weighted ensembles, and generators for test ensembles.

A ``DensityMatrix`` built on its own checks its one matrix.  The generators
(``random_mixed``, ``pure_pair``, ``trine``) and the CLI's problem loader
build an ensemble's states as one raw (n, d, d) stack instead, and check
it once, through ``_checked_states``: one ``checked_psd`` of the stack and
one trace test.  A stack that fails is checked again row by row, so the
first bad state raises exactly the error its own ``DensityMatrix`` raises.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .matrices import NumericFailure, as_matrix, checked_psd, readonly

TRACE_TOL = 1e-9
PRIOR_TOL = 1e-9


class TraceNotOneError(ValueError):
    def __init__(self, trace: complex):
        self.trace = complex(trace)
        super().__init__(f"trace is {self.trace.real:.12g}, expected 1")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator."""

    mat: np.ndarray

    def __post_init__(self):
        arr = checked_psd(as_matrix(self.mat))
        trace = arr.trace()
        if abs(trace - 1.0) > TRACE_TOL:
            raise TraceNotOneError(trace)
        object.__setattr__(self, "mat", readonly(arr))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def check_density(state) -> None:
    """Reject a ``state`` that is not a DensityMatrix with TypeError."""
    if not isinstance(state, DensityMatrix):
        raise TypeError(f"expected a DensityMatrix, got {type(state).__name__}")


def validate_density(m) -> DensityMatrix:
    """Wrap a Hermitian matrix as a DensityMatrix, enforcing its invariants."""
    return DensityMatrix(m)


def _check_index(i, count: int, what: str) -> None:
    """Reject an index ``i`` of one of ``count`` items that is not an integer
    (a bool is not one) with TypeError, and one outside 0 .. count - 1 with
    IndexError; ``what`` names the item in the message."""
    if isinstance(i, bool) or not isinstance(i, numbers.Integral):
        raise TypeError(f"{what} index must be an integer, got {i!r}")
    if not 0 <= i < count:
        raise IndexError(f"{what} {i} out of range for {count} {what}s")


def _checked_states(stack: np.ndarray) -> tuple[DensityMatrix, ...]:
    """The states of a raw (n, d, d) stack, n >= 1, checked as one stack.

    One ``checked_psd`` of the stack and one trace test stand for the n
    checks of n DensityMatrix constructions, and each row of the checked
    stack becomes a readonly DensityMatrix with the bits that construction
    gives it.  If the stack fails, its rows are checked again one at a
    time, in order, so the first bad row raises its own DensityMatrix's
    error: same type, same message, ``index`` None.
    """
    try:
        hermitian = checked_psd(stack)
        valid = np.abs(np.trace(hermitian, axis1=1, axis2=2) - 1.0).max() <= TRACE_TOL
    except (ValueError, NumericFailure):
        valid = False
    if not valid:
        return tuple(DensityMatrix(m) for m in stack)
    states = []
    for row in readonly(hermitian):
        state = object.__new__(DensityMatrix)
        object.__setattr__(state, "mat", row)
        states.append(state)
    return tuple(states)


def _projector(v) -> np.ndarray:
    """v v^dagger / |v|^2 of a nonzero vector, as an unchecked matrix."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    norm_sq = float(np.vdot(vec, vec).real)
    if norm_sq == 0.0:
        raise ValueError("cannot build a state from the zero vector")
    return np.outer(vec, vec.conj()) / norm_sq


def pure_state(v) -> DensityMatrix:
    """Rank-1 density matrix v v^dagger / |v|^2 for a nonzero vector."""
    return DensityMatrix(_projector(v))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States paired with prior probabilities summing to one; ``weighted_states``
    holds every p_i rho_i as one readonly (n, d, d) stack."""

    priors: np.ndarray
    states: tuple[DensityMatrix, ...]
    weighted_states: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        priors = np.asarray(self.priors)
        if priors.dtype.kind not in "iuf":
            raise TypeError(f"priors must be real numbers, got dtype {priors.dtype}")
        priors = np.asarray(priors, dtype=float).reshape(-1)
        states = tuple(self.states)
        if not states:
            raise ValueError("ensemble needs at least one state")
        if priors.shape[0] != len(states):
            raise ValueError(
                f"{priors.shape[0]} priors for {len(states)} states"
            )
        for state in states:
            check_density(state)
        if not np.all(np.isfinite(priors)):
            raise ValueError("priors have non-finite entries")
        if np.any(priors < 0):
            raise ValueError(f"priors must be nonnegative, got {priors.min():.6g}")
        total = float(priors.sum())
        if abs(total - 1.0) > PRIOR_TOL:
            raise ValueError(f"priors sum to {total:.12g}, expected 1")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValueError(f"states have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "priors", readonly(priors))
        object.__setattr__(self, "states", states)
        stack = priors[:, None, None] * np.array([s.mat for s in states])
        object.__setattr__(self, "weighted_states", readonly(stack))

    def __len__(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def has_zero_prior(self) -> bool:
        return bool(np.any(self.priors == 0.0))

    def weighted(self, i: int) -> np.ndarray:
        """Prior-weighted state p_i rho_i; ``i`` is checked as an outcome
        index is (TypeError, IndexError)."""
        _check_index(i, len(self.states), "state")
        return self.weighted_states[i]

    def average_state(self) -> np.ndarray:
        """Barycenter sum_i p_i rho_i."""
        return np.add.reduce(self.weighted_states, 0)


@dataclass(frozen=True)
class PurePairSpec:
    """Two qubit pure states with |<psi1|psi2>| = overlap."""

    overlap: float
    priors: tuple[float, float] = (0.5, 0.5)


@dataclass(frozen=True)
class TrineSpec:
    """Three symmetric qubit pure states, Bloch vectors 120 degrees apart."""


@dataclass(frozen=True)
class RandomMixedSpec:
    """``n`` seeded random full-rank states of dimension ``dim``."""

    dim: int
    n: int
    seed: int


EnsembleSpec = PurePairSpec | TrineSpec | RandomMixedSpec


def pure_pair(overlap: float, priors: tuple[float, float] = (0.5, 0.5)) -> Ensemble:
    """Two real qubit pure states with the requested overlap in [0, 1)."""
    c = float(overlap)
    if not 0.0 <= c < 1.0:
        raise ValueError(f"overlap must lie in [0, 1), got {c}")
    half = np.arccos(c) / 2.0
    psi1 = np.array([np.cos(half), np.sin(half)])
    psi2 = np.array([np.cos(half), -np.sin(half)])
    return Ensemble(priors, _checked_states(np.array([_projector(psi1), _projector(psi2)])))


def trine() -> Ensemble:
    """Equal-prior trine ensemble; pairwise squared overlap 1/4."""
    s = np.sqrt(3.0) / 2.0
    kets = [np.array([1.0, 0.0]), np.array([0.5, s]), np.array([-0.5, s])]
    states = _checked_states(np.array([_projector(k) for k in kets]))
    return Ensemble(np.full(3, 1.0 / 3.0), states)


def _check_shape(n: int, dim: int) -> None:
    if n < 1 or dim < 1:
        raise ValueError(f"need n >= 1 and dim >= 1, got n={n}, dim={dim}")


def _gaussian_grams(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """(n, d, d) stack of A A^dagger, each A drawn as Gaussian real, then imaginary, part."""
    draws = rng.standard_normal((n, 2, dim, dim))
    a = draws[:, 0] + 1j * draws[:, 1]
    return a @ a.conj().swapaxes(1, 2)


def random_mixed(dim: int, n: int, seed: int) -> Ensemble:
    """``n`` uniform-prior states rho = A A^dagger / tr, A complex Gaussian.

    The construction is full rank almost surely, so downstream code sees
    genuinely mixed states.  Identical seeds reproduce identical ensembles.
    """
    _check_shape(n, dim)
    raws = _gaussian_grams(np.random.default_rng(seed), n, dim)
    # the stacked trace and division give each matrix raw / raw.trace().real bit for bit
    raws /= np.trace(raws, axis1=1, axis2=2).real[:, None, None]
    return Ensemble(np.full(n, 1.0 / n), _checked_states(raws))


def generate(spec: EnsembleSpec) -> Ensemble:
    """Build the ensemble described by a spec value."""
    if isinstance(spec, PurePairSpec):
        return pure_pair(spec.overlap, spec.priors)
    if isinstance(spec, TrineSpec):
        return trine()
    if isinstance(spec, RandomMixedSpec):
        return random_mixed(spec.dim, spec.n, spec.seed)
    raise TypeError(f"unknown ensemble spec {type(spec).__name__}")
