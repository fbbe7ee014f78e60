"""Optimality certificates for minimum-error discrimination measurements.

A measurement maximizes the success probability exactly when every witness
operator G_j = sym(Gamma) - p_j rho_j is positive semidefinite, where
Gamma = sum_i p_i rho_i pi_i; Hermiticity of Gamma and the equality
conditions pi_j (p_j rho_j - p_k rho_k) pi_k = 0 follow at any optimum.
The certificate bundles all of these residuals with a verdict at a stated
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble
from .matrices import as_matrix, checked_eigh, fix_phase, hermitize, ordered_sum, readonly
from .povm import Povm, check_match, p_correct

DEFAULT_TOL = 1e-7


@dataclass(frozen=True)
class Witness:
    """Improvable direction: an outcome whose witness operator dips negative."""

    outcome: int
    eigenvalue: float
    vector: np.ndarray


@dataclass(frozen=True)
class Certificate:
    """All optimality residuals for one (ensemble, POVM) pair.

    ``is_optimal`` is True iff every witness minimum eigenvalue is at least
    ``-tolerance`` and the Lagrange-operator Hermiticity residual is at most
    ``tolerance``.  When False, ``witness`` carries the globally most
    negative eigenpair across outcomes.
    """

    p_corr: float
    lagrange_herm_residual: float
    witness_min_eigenvalues: tuple[float, ...]
    pairwise_equality_residual: float
    zero_product_residual: float
    tolerance: float
    is_optimal: bool
    witness: Witness | None

    @property
    def p_err(self) -> float:
        return 1.0 - self.p_corr


def _gamma(weighted: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Gamma = sum_i W_i E_i from (n, d, d) stacks W = p rho and E = pi."""
    return ordered_sum(weighted @ elements)


def _witness_scan(gamma: np.ndarray, weighted: np.ndarray):
    """One batched ``eigh`` of every witness G_j = sym(Gamma) - W_j: returns the
    witnesses, their minimum eigenvalues, the most negative outcome (ties:
    smallest index) and its eigenvector as ``eigh`` gives it."""
    witnesses = hermitize(gamma) - weighted
    values, vectors = checked_eigh(witnesses)
    j = int(np.argmin(values[:, 0]))
    return witnesses, values[:, 0], j, vectors[j, :, 0]


def _herm_residual(m: np.ndarray) -> float:
    return float(np.linalg.norm(m - m.conj().T) / max(1.0, np.linalg.norm(m)))


def _max_norm(stack: np.ndarray) -> float:
    return float(np.linalg.norm(stack, axis=(1, 2)).max())


def _zero_product_residual(witnesses: np.ndarray, elements: np.ndarray) -> float:
    return _max_norm(witnesses @ elements)


def _pairwise_residual(weighted: np.ndarray, elements: np.ndarray) -> float:
    # row by row, so that no temporary exceeds n d^2 entries
    return max(_max_norm(e @ (w - weighted) @ elements) for w, e in zip(weighted, elements))


def lagrange_operator(ens: Ensemble, povm: Povm) -> np.ndarray:
    """sum_i p_i rho_i pi_i, returned raw (unsymmetrized).

    Its trace equals the success probability for any valid POVM; it is
    Hermitian only at an optimum, so callers interested in the symmetric
    part must hermitize it themselves.
    """
    check_match(ens, povm)
    return _gamma(ens.weighted_states, povm.elements)


def witness_operator(ens: Ensemble, povm: Povm, j: int) -> np.ndarray:
    """G_j = (1/2) sum_i p_i (rho_i pi_i + pi_i rho_i) - p_j rho_j."""
    check_match(ens, povm)
    if not 0 <= j < len(ens):
        raise IndexError(f"outcome {j} out of range for {len(ens)} outcomes")
    return hermitize(lagrange_operator(ens, povm)) - ens.weighted(j)


def hermiticity_residual(m) -> float:
    """Frobenius anti-Hermitian residual, scaled by max(1, ||m||_F)."""
    return _herm_residual(as_matrix(m))


def pairwise_equality_residual(ens: Ensemble, povm: Povm) -> float:
    """max over ordered pairs (j, k) of ||pi_j (p_j rho_j - p_k rho_k) pi_k||_F."""
    check_match(ens, povm)
    return _pairwise_residual(ens.weighted_states, povm.elements)


def zero_product_residual(ens: Ensemble, povm: Povm) -> float:
    """max_k ||(sym(Gamma) - p_k rho_k) pi_k||_F; vanishes at any optimum."""
    witnesses = hermitize(lagrange_operator(ens, povm)) - ens.weighted_states
    return _zero_product_residual(witnesses, povm.elements)


def certify(
    ens: Ensemble, povm: Povm, tol: float = DEFAULT_TOL, strict: bool = False
) -> Certificate:
    """Evaluate the full optimality certificate at tolerance ``tol``.

    With ``strict=True`` the verdict additionally requires both equality
    residuals to sit below ``tol``; by default they are reported but not
    gated on, since positivity of the witnesses already implies them.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    check_match(ens, povm)
    weighted, elements = ens.weighted_states, povm.elements
    gamma = _gamma(weighted, elements)
    herm_residual = _herm_residual(gamma)
    eq_residual = _pairwise_residual(weighted, elements)
    witnesses, minima, j, vector = _witness_scan(gamma, weighted)
    zp_residual = _zero_product_residual(witnesses, elements)
    lowest = float(minima[j])
    optimal = lowest >= -tol and herm_residual <= tol
    if strict:
        optimal = optimal and eq_residual <= tol and zp_residual <= tol

    return Certificate(
        p_corr=p_correct(ens, povm),
        lagrange_herm_residual=herm_residual,
        witness_min_eigenvalues=tuple(minima.tolist()),
        pairwise_equality_residual=eq_residual,
        zero_product_residual=zp_residual,
        tolerance=float(tol),
        is_optimal=optimal,
        witness=None if optimal else Witness(j, lowest, readonly(fix_phase(vector))),
    )
