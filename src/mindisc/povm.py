"""POVM container with validity checks, outcome statistics, and constructions.

A POVM here always has exactly one outcome per ensemble state: measurement
outcome ``i`` is the guess "state i was prepared".  Mismatched counts are
rejected rather than truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .ensembles import Ensemble, _check_index, _check_shape, _gaussian_grams, check_density
from .matrices import (
    NumericFailure,
    _hermitian_part,
    as_matrix,
    checked_eigh,
    checked_psd,
    readonly,
)

COMPLETENESS_TOL = 1e-9
IMAG_TOL = 1e-10

# eigenvalues of the average state at or below this floor count as kernel
SUPPORT_FLOOR = 1e-12
# a full-rank S whose eigenvalues span a wider ratio than this is
# ill-conditioned, and its completion is normalised a second time
CONDITION_RATIO = 1e-6


def _completeness_deviation(stack: np.ndarray) -> float:
    """Largest entry of |sum_i E_i - I| over an (n, d, d) stack, summed by
    ``np.add.reduce``."""
    total = np.add.reduce(stack, axis=0)
    diagonal = total.reshape(-1)[:: stack.shape[1] + 1]
    diagonal -= 1.0
    return float(np.abs(total).max())


class IncompleteSumError(ValueError):
    """POVM elements do not sum to the identity."""

    def __init__(self, deviation: float):
        self.deviation = float(deviation)
        super().__init__(
            f"element sum deviates from identity by {self.deviation:.3e}"
        )


class DimensionMismatchError(ValueError):
    """Outcome counts or matrix dimensions do not line up."""


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered probability operators: Hermitian, PSD, summing to identity,
    held as one readonly (n, d, d) array.

    An (n, d, d) ndarray of n >= 1 square elements is checked as one stack;
    any other input is walked element by element, which names the first
    element of the wrong shape.  Both give the same elements and errors.
    """

    elements: np.ndarray

    def __post_init__(self):
        stack = self.elements
        if not (isinstance(stack, np.ndarray) and stack.ndim == 3
                and len(stack) and 0 < stack.shape[1] == stack.shape[2]):
            stack = _element_stack(stack)
        stack = checked_psd(stack)
        deviation = _completeness_deviation(stack)
        if deviation > COMPLETENESS_TOL:
            raise IncompleteSumError(deviation)
        object.__setattr__(self, "elements", readonly(stack))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.elements)

    def __getitem__(self, i: int) -> np.ndarray:
        """Element ``i``, an index checked by ``check_outcome``."""
        check_outcome(self, i)
        return self.elements[i]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


def _element_stack(elements) -> np.ndarray:
    """The square matrices of ``elements``, checked one by one and stacked."""
    mats = [as_matrix(raw) for raw in elements]
    if not mats:
        raise ValueError("POVM needs at least one element")
    dim = mats[0].shape[0]
    for i, arr in enumerate(mats):
        if arr.shape[0] != dim:
            raise DimensionMismatchError(
                f"element {i} has dimension {arr.shape[0]}, expected {dim}"
            )
    return np.array(mats)


def validate_povm(elements) -> Povm:
    """Wrap a list of Hermitian matrices as a Povm, enforcing all invariants."""
    return Povm(elements)


def _check_imaginary(norm_sq: float) -> None:
    """Raise NumericFailure unless traces that should be real have an
    imaginary part of squared norm ``norm_sq`` at most IMAG_TOL**2, so a
    NaN norm raises too."""
    if not norm_sq <= IMAG_TOL**2:
        raise NumericFailure(f"traces have imaginary norm {math.sqrt(norm_sq):.3e}, expected real")


def _real_traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a_k b_k) for two (n, d, d) stacks, or Re tr(a b) for two matrices."""
    values = np.einsum("...ij,...ji->...", a, b)
    _check_imaginary(np.vdot(values.imag, values.imag))
    return values.real


def _gamma(products: np.ndarray) -> tuple[np.ndarray, float]:
    """The Lagrange operator Gamma = sum_i P_i of the products P_i = W_i pi_i,
    summed by ``np.add.reduce``, and the success probability Re tr Gamma.

    Unguarded: the solver's engine calls it on W and pi that are Hermitian
    by construction.  ``_checked_gamma`` first checks the traces.
    """
    gamma = np.add.reduce(products, 0)
    # reducing the diagonal is what gamma.trace() does, minus its dispatch
    return gamma, float(np.add.reduce(gamma.diagonal()).real)


def _checked_gamma(products: np.ndarray) -> tuple[np.ndarray, float]:
    """``_gamma`` after the per-outcome guard: every tr P_i is real for
    Hermitian W_i and pi_i, and NumericFailure is raised unless their
    imaginary parts have a norm of at most IMAG_TOL (a NaN fails)."""
    imag = np.add.reduce(products.diagonal(0, 1, 2).imag, 1)  # Im tr P_i
    _check_imaginary(imag.dot(imag))
    return _gamma(products)


def _success_probability(weighted: np.ndarray, elements: np.ndarray) -> float:
    """P_corr = Re tr Gamma, Gamma = sum_i W_i pi_i, for stacks W = p rho and pi,
    guarded: the bits of the solver's records and of ``certify``."""
    return _checked_gamma(weighted @ elements)[1]


def check_match(ens: Ensemble, povm: Povm) -> None:
    """Reject a ``povm`` that is not a Povm (TypeError) and outcome-count or
    dimension mismatches between ensemble and POVM."""
    if not isinstance(povm, Povm):
        raise TypeError(f"expected a Povm, got {type(povm).__name__}")
    if len(povm) != len(ens):
        raise DimensionMismatchError(
            f"{len(povm)} POVM outcomes for {len(ens)} states"
        )
    if povm.dim != ens.dim:
        raise DimensionMismatchError(
            f"POVM dimension {povm.dim} does not match state dimension {ens.dim}"
        )


def check_outcome(povm: Povm, j: int) -> None:
    """Reject an outcome index ``j`` that is not an integer (a bool is not
    one) with TypeError, and one outside 0 .. len(povm) - 1 with IndexError."""
    _check_index(j, len(povm), "outcome")


def outcome_probability(rho, povm: Povm, j: int) -> float:
    """Probability tr(rho pi_j) of outcome ``j`` on the DensityMatrix ``rho``."""
    check_density(rho)
    check_outcome(povm, j)
    if rho.dim != povm.dim:
        raise DimensionMismatchError(
            f"state dimension {rho.dim} does not match POVM dimension {povm.dim}"
        )
    return float(_real_traces(rho.mat, povm.elements[j]))


def p_correct(ens: Ensemble, povm: Povm) -> float:
    """Success probability sum_i p_i tr(rho_i pi_i), computed as Re tr Gamma of
    the Lagrange operator Gamma = sum_i p_i rho_i pi_i."""
    check_match(ens, povm)
    return _success_probability(ens.weighted_states, povm.elements)


def p_error(ens: Ensemble, povm: Povm) -> float:
    return 1.0 - p_correct(ens, povm)


def _uniform_elements(n: int, dim: int) -> np.ndarray:
    """A fresh (n, dim, dim) stack of identity/n, bit for bit the elements of
    ``uniform_povm(n, dim)``, unvalidated."""
    elements = np.zeros((n, dim, dim), dtype=complex)
    elements.reshape(n, -1)[:, :: dim + 1] = 1 / n
    return elements


def uniform_povm(n: int, dim: int) -> Povm:
    """``n`` copies of identity/n; the always-valid default solver start."""
    _check_shape(n, dim)
    return Povm(_uniform_elements(n, dim))


def _inv_sqrt_on_support(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverse square root on the support of a PSD matrix, plus kernel projector,
    from the matrix's eigensystem (eigenvectors in columns).

    Eigenvalues at or below SUPPORT_FLOOR are treated as kernel.  The kernel
    projector is None when there is no kernel, that is when the matrix is
    full rank; eigenvalues ascend, so the smallest one decides that, and a
    full-rank matrix takes its eigenvectors without copying them.
    """
    if eigenvalues[0] > SUPPORT_FLOOR:
        inv_sqrt = (eigenvectors / np.sqrt(eigenvalues)) @ eigenvectors.conj().T
        return _hermitian_part(inv_sqrt), None
    keep = eigenvalues > SUPPORT_FLOOR
    vs = eigenvectors[:, keep]
    inv_sqrt = _hermitian_part((vs / np.sqrt(eigenvalues[keep])) @ vs.conj().T)
    return inv_sqrt, _hermitian_part(np.eye(eigenvectors.shape[0]) - vs @ vs.conj().T)


def _normalizer(s: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """S^{-1/2} on the support of S, S's kernel projector (None if S is
    full rank), and whether a full-rank S is ill-conditioned:
    lambda_min < ``CONDITION_RATIO`` lambda_max, read from the same ``eigh``."""
    eigenvalues, eigenvectors = checked_eigh(_hermitian_part(s))
    inv_sqrt, kernel = _inv_sqrt_on_support(eigenvalues, eigenvectors)
    ill = kernel is None and eigenvalues[0] < CONDITION_RATIO * eigenvalues[-1]
    return inv_sqrt, kernel, bool(ill)


def _sum_normalizer(elements: np.ndarray) -> np.ndarray:
    """T^{-1/2} of the element sum T of a stack completed through an
    ill-conditioned S.  The first normalisation amplifies rounding by S's
    condition number, so T misses the identity by more than rounding; T
    itself is near I, so normalising by it is well conditioned."""
    return _normalizer(np.add.reduce(elements, 0))[0]


def _completed_povm(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """pi_i = S^{-1/2} B_i S^{-1/2} over the stack B, S = sum_i B_i, with S's
    kernel projector, if it has one, added to outcome 0; returns the
    elements and that projector (None if S is full rank).

    The one completion of the square-root measurement and ``random_povm``;
    the fixed-point step calls ``_normalizer`` and ``_sum_normalizer``
    directly.  Unvalidated, but exactly Hermitian: both terms are.  PSD
    blocks lie in S's support, as B_i <= S, so the elements sum to the
    identity up to rounding.  On an ill-conditioned full-rank S the sandwich
    amplifies that rounding, so the elements are sandwiched once more by
    T^{-1/2}, T their sum, which is near I and well conditioned: their sum
    then misses the identity by rounding alone.
    """
    inv_sqrt, kernel, ill = _normalizer(np.add.reduce(blocks, 0))
    elements = _hermitian_part(inv_sqrt @ blocks @ inv_sqrt)
    if ill:
        inv_sqrt = _sum_normalizer(elements)
        elements = _hermitian_part(inv_sqrt @ elements @ inv_sqrt)
    if kernel is not None:
        elements[0] += kernel
    return elements, kernel


def square_root_measurement(ens: Ensemble) -> Povm:
    """The measurement pi_i = S^{-1/2} p_i rho_i S^{-1/2}, S the average state.

    Any completeness deficit from a rank-deficient S (its kernel projector)
    is assigned to outcome 0.  No support check is needed: each weighted
    state p_i rho_i <= S lies in the support of S.  A full-rank but
    ill-conditioned S gets a second normalisation (see ``_completed_povm``),
    so its rounding no longer makes the elements miss completeness.
    """
    return validate_povm(_completed_povm(ens.weighted_states)[0])


def random_povm(n: int, dim: int, rng) -> Povm:
    """Random ``n``-outcome POVM by completing random PSD blocks.

    Draws A_i with complex Gaussian entries, forms B_i = A_i A_i^dagger and
    returns pi_i = S^{-1/2} B_i S^{-1/2} with S = sum_i B_i.  ``rng`` is a
    numpy Generator or a seed.
    """
    _check_shape(n, dim)
    blocks = _gaussian_grams(np.random.default_rng(rng), n, dim)
    return validate_povm(_completed_povm(blocks)[0])
