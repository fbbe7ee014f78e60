"""Density matrices, prior-weighted ensembles, and generators for test ensembles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import (
    HERM_TOL,
    PSD_TOL,
    NotHermitianError,
    NotPositiveError,
    as_matrix,
    herm_deviation,
    hermitize,
    ordered_sum,
    readonly,
)

TRACE_TOL = 1e-9
PRIOR_TOL = 1e-9


class TraceNotOneError(ValueError):
    def __init__(self, trace: complex):
        self.trace = complex(trace)
        super().__init__(f"trace is {self.trace.real:.12g}, expected 1")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator."""

    mat: np.ndarray

    def __post_init__(self):
        arr = as_matrix(self.mat)
        if not np.all(np.isfinite(arr)):
            raise ValueError("state has non-finite entries")
        deviation = herm_deviation(arr)
        if deviation > HERM_TOL:
            raise NotHermitianError(deviation)
        arr = hermitize(arr)
        lowest = float(np.linalg.eigvalsh(arr)[0])
        if lowest < -PSD_TOL:
            raise NotPositiveError(lowest)
        trace = arr.trace()
        if abs(trace - 1.0) > TRACE_TOL:
            raise TraceNotOneError(trace)
        object.__setattr__(self, "mat", readonly(arr))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def validate_density(m) -> DensityMatrix:
    """Wrap a Hermitian matrix as a DensityMatrix, enforcing its invariants."""
    return DensityMatrix(as_matrix(m))


def pure_state(v) -> DensityMatrix:
    """Rank-1 density matrix v v^dagger / |v|^2 for a nonzero vector."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    norm_sq = float(np.vdot(vec, vec).real)
    if norm_sq == 0.0:
        raise ValueError("cannot build a state from the zero vector")
    return DensityMatrix(np.outer(vec, vec.conj()) / norm_sq)


@dataclass(frozen=True)
class Ensemble:
    """States paired with prior probabilities summing to one; ``weighted_states``
    holds every p_i rho_i as one readonly (n, d, d) stack."""

    priors: np.ndarray
    states: tuple[DensityMatrix, ...]
    weighted_states: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float).reshape(-1)
        states = tuple(self.states)
        if not states:
            raise ValueError("ensemble needs at least one state")
        if priors.shape[0] != len(states):
            raise ValueError(
                f"{priors.shape[0]} priors for {len(states)} states"
            )
        if np.any(priors < 0):
            raise ValueError(f"negative prior {priors.min():.6g}")
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
        """Prior-weighted state p_i rho_i."""
        return self.weighted_states[i]

    def average_state(self) -> np.ndarray:
        """Barycenter sum_i p_i rho_i."""
        return ordered_sum(self.weighted_states)


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
    return Ensemble(np.asarray(priors, dtype=float), (pure_state(psi1), pure_state(psi2)))


def trine() -> Ensemble:
    """Equal-prior trine ensemble; pairwise squared overlap 1/4."""
    s = np.sqrt(3.0) / 2.0
    kets = [np.array([1.0, 0.0]), np.array([0.5, s]), np.array([-0.5, s])]
    states = tuple(pure_state(k) for k in kets)
    return Ensemble(np.full(3, 1.0 / 3.0), states)


def random_mixed(dim: int, n: int, seed: int) -> Ensemble:
    """``n`` uniform-prior states rho = A A^dagger / tr, A complex Gaussian.

    The construction is full rank almost surely, so downstream code sees
    genuinely mixed states.  Identical seeds reproduce identical ensembles.
    """
    if n < 1:
        raise ValueError(f"need at least one state, got n={n}")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw = a @ a.conj().T
        states.append(DensityMatrix(raw / raw.trace().real))
    return Ensemble(np.full(n, 1.0 / n), tuple(states))


def generate(spec: EnsembleSpec) -> Ensemble:
    """Build the ensemble described by a spec value."""
    if isinstance(spec, PurePairSpec):
        return pure_pair(spec.overlap, spec.priors)
    if isinstance(spec, TrineSpec):
        return trine()
    if isinstance(spec, RandomMixedSpec):
        return random_mixed(spec.dim, spec.n, spec.seed)
    raise TypeError(f"unknown ensemble spec {type(spec).__name__}")
