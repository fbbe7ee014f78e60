"""POVM container with validity checks, outcome statistics, and constructions.

A POVM here always has exactly one outcome per ensemble state: measurement
outcome ``i`` is the guess "state i was prepared".  Mismatched counts are
rejected rather than truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .ensembles import Ensemble
from .matrices import (
    HERM_TOL,
    PSD_TOL,
    NotHermitianError,
    NotPositiveError,
    NumericFailure,
    as_matrix,
    hermitize,
    ordered_sum,
    readonly,
    spectral_decompose,
)

COMPLETENESS_TOL = 1e-9
IMAG_TOL = 1e-10

# eigenvalues of the average state at or below this floor count as kernel
SUPPORT_FLOOR = 1e-12
SUPPORT_LEAK_TOL = 1e-9


class IncompleteSumError(ValueError):
    """POVM elements do not sum to the identity."""

    def __init__(self, deviation: float):
        self.deviation = float(deviation)
        super().__init__(
            f"element sum deviates from identity by {self.deviation:.3e}"
        )


class DimensionMismatchError(ValueError):
    """Outcome counts or matrix dimensions do not line up."""


class SupportError(ValueError):
    """A weighted state leaks outside the support of the average state."""


@dataclass(frozen=True)
class Povm:
    """Ordered probability operators: Hermitian, PSD, summing to identity,
    held as one readonly (n, d, d) array."""

    elements: np.ndarray

    def __post_init__(self):
        mats = [as_matrix(raw) for raw in self.elements]
        if not mats:
            raise ValueError("POVM needs at least one element")
        dim = mats[0].shape[0]
        for i, arr in enumerate(mats):
            if arr.shape[0] != dim:
                raise DimensionMismatchError(
                    f"element {i} has dimension {arr.shape[0]}, expected {dim}"
                )
        stack = np.array(mats)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"element {int(np.argmin(finite))} has non-finite entries")
        adjoint = stack.conj().swapaxes(1, 2)
        deviations = np.abs(stack - adjoint).max(axis=(1, 2))
        bad = np.flatnonzero(deviations > HERM_TOL)
        if bad.size:
            raise NotHermitianError(deviations[bad[0]], index=int(bad[0]))
        stack += adjoint
        stack /= 2
        lowest = np.linalg.eigvalsh(stack)[:, 0]
        bad = np.flatnonzero(lowest < -PSD_TOL)
        if bad.size:
            raise NotPositiveError(lowest[bad[0]], index=int(bad[0]))
        deviation = float(np.max(np.abs(ordered_sum(stack) - np.eye(dim))))
        if deviation > COMPLETENESS_TOL:
            raise IncompleteSumError(deviation)
        object.__setattr__(self, "elements", readonly(stack))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.elements)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.elements[i]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


def validate_povm(elements) -> Povm:
    """Wrap a list of Hermitian matrices as a Povm, enforcing all invariants."""
    return Povm(elements)


def _real_trace(product: np.ndarray) -> float:
    value = complex(np.trace(product))
    if abs(value.imag) > IMAG_TOL:
        raise NumericFailure(
            f"trace has imaginary part {value.imag:.3e}, expected real"
        )
    return value.real


def check_match(ens: Ensemble, povm: Povm) -> None:
    """Reject outcome-count or dimension mismatches between ensemble and POVM."""
    if len(povm) != len(ens):
        raise DimensionMismatchError(
            f"{len(povm)} POVM outcomes for {len(ens)} states"
        )
    if povm.dim != ens.dim:
        raise DimensionMismatchError(
            f"POVM dimension {povm.dim} does not match state dimension {ens.dim}"
        )


def outcome_probability(rho, povm: Povm, j: int) -> float:
    """Probability tr(rho pi_j) of outcome ``j`` on state ``rho``."""
    if not 0 <= j < len(povm):
        raise IndexError(f"outcome {j} out of range for {len(povm)} outcomes")
    if rho.dim != povm.dim:
        raise DimensionMismatchError(
            f"state dimension {rho.dim} does not match POVM dimension {povm.dim}"
        )
    return _real_trace(rho.mat @ povm[j])


def p_correct(ens: Ensemble, povm: Povm) -> float:
    """Success probability sum_i p_i tr(rho_i pi_i)."""
    check_match(ens, povm)
    total = 0.0
    for i in range(len(ens)):
        total += ens.priors[i] * _real_trace(ens.states[i].mat @ povm[i])
    return float(total)


def p_error(ens: Ensemble, povm: Povm) -> float:
    return 1.0 - p_correct(ens, povm)


def uniform_povm(n: int, dim: int) -> Povm:
    """``n`` copies of identity/n; the always-valid default solver start."""
    if n < 1 or dim < 1:
        raise ValueError(f"need n >= 1 and dim >= 1, got n={n}, dim={dim}")
    element = np.eye(dim, dtype=complex) / n
    return Povm(tuple(element.copy() for _ in range(n)))


def _inv_sqrt_on_support(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse square root on the support of a PSD matrix, plus kernel projector.

    Eigenvalues at or below SUPPORT_FLOOR are treated as kernel.
    """
    spectrum = spectral_decompose(mat)
    keep = spectrum.eigenvalues > SUPPORT_FLOOR
    vs = spectrum.eigenvectors[:, keep]
    inv_sqrt = (vs / np.sqrt(spectrum.eigenvalues[keep])) @ vs.conj().T
    kernel = np.eye(mat.shape[0]) - vs @ vs.conj().T
    return hermitize(inv_sqrt), hermitize(kernel)


def square_root_measurement(ens: Ensemble) -> Povm:
    """The measurement pi_i = S^{-1/2} p_i rho_i S^{-1/2}, S the average state.

    Any completeness deficit from a rank-deficient S (its kernel projector)
    is assigned to outcome 0.  Raises SupportError when some weighted state
    is not contained in the support of S.
    """
    average = ens.average_state()
    inv_sqrt, kernel = _inv_sqrt_on_support(average)
    elements = []
    for i in range(len(ens)):
        weighted = ens.weighted(i)
        leak = _real_trace(kernel @ weighted @ kernel)
        if leak > SUPPORT_LEAK_TOL:
            raise SupportError(
                f"state {i} leaks {leak:.3e} outside the average-state support"
            )
        elements.append(hermitize(inv_sqrt @ weighted @ inv_sqrt))
    elements[0] = elements[0] + kernel
    return validate_povm(elements)


def random_povm(n: int, dim: int, rng) -> Povm:
    """Random ``n``-outcome POVM by completing random PSD blocks.

    Draws A_i with complex Gaussian entries, forms B_i = A_i A_i^dagger and
    returns pi_i = S^{-1/2} B_i S^{-1/2} with S = sum_i B_i.  ``rng`` is a
    numpy Generator or a seed.
    """
    if n < 1 or dim < 1:
        raise ValueError(f"need n >= 1 and dim >= 1, got n={n}, dim={dim}")
    gen = np.random.default_rng(rng)
    blocks = []
    for _ in range(n):
        a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        blocks.append(a @ a.conj().T)
    inv_sqrt, kernel = _inv_sqrt_on_support(ordered_sum(blocks))
    elements = [hermitize(inv_sqrt @ block @ inv_sqrt) for block in blocks]
    elements[0] = elements[0] + kernel
    return validate_povm(elements)
