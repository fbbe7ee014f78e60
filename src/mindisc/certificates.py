"""Optimality certificates for minimum-error discrimination measurements.

A measurement maximizes the success probability exactly when every witness
operator G_j = sym(Gamma) - p_j rho_j is positive semidefinite, where
Gamma = sum_i p_i rho_i pi_i; Hermiticity of Gamma and the equality
conditions pi_j (p_j rho_j - p_k rho_k) pi_k = 0 follow at any optimum.
The certificate bundles all of these residuals with a weak-duality bound on
the distance to the optimum (Eldar, Megretski and Verghese, IEEE TIT 49,
1007 (2003)) and a verdict at a stated tolerance.  Both
Z = sym(Gamma) + mu I with mu = max(0, -min_j lambda_min(G_j)) and
Z = sym(Gamma) + sum_j neg(G_j), where neg(G) is the negative part of G,
are dual feasible (Z - p_j rho_j is at least G_j + neg(G_j) >= 0), so for
any valid POVM P_opt - P_corr <= tr(Z) - P_corr, which is the smaller of
d mu and sum_j tr neg(G_j), whatever Gamma's anti-Hermitian part is.  The
verdict is therefore the witness test alone: it holds exactly when every
witness eigenvalue is at least -tol, and then the gap is at most d tol.  A
verdict that fails always has a witness eigenvalue below -tol, a negative
mode.

The solver screens its candidates with two cheaper tests that can only
prove the verdict fails (``_passes_trace_test`` and
``_passes_cholesky_test``); each allows for its own rounding and that of
the witness scan, so neither fails where the scan would pass.

The pairwise residual reuses the products P_k = W_k pi_k (W_k = p_k rho_k)
whose sum is Gamma: pi_j W_j = P_j^*, so
X_jk = pi_j (W_j - W_k) pi_k = P_j^* pi_k - pi_j P_k, and X_kj = -X_jk^*.
Each unordered pair is therefore formed once, and all pairs (j, k > j) of
row j come from one gemm; no temporary holds more than 2 n d^2 entries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble
from .matrices import (
    EPS,
    _cholesky_completes,
    _hermitian_part,
    as_matrix,
    checked_eigh,
    checked_eigvalsh,
    fix_phase,
    hermitize,
    readonly,
)
from .povm import Povm, _checked_gamma, check_match, check_outcome

DEFAULT_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class Witness:
    """Lowest witness eigenpair: the outcome j whose witness operator G_j has
    the smallest eigenvalue across outcomes, that eigenvalue, and a unit
    eigenvector of it.  Below zero it is a negative mode: a step of the
    measurement along ``vector`` toward outcome j raises P_corr.
    ``find_negative_mode`` returns one only below ``-tol``; ``certify``
    reports one with every verdict that fails, and its eigenvalue then
    always lies below ``-tol``."""

    outcome: int
    eigenvalue: float
    vector: np.ndarray


@dataclass(frozen=True)
class Certificate:
    """All optimality residuals for one (ensemble, POVM) pair.

    ``is_optimal`` is True iff every witness minimum eigenvalue is at least
    ``-tolerance``.  When False, ``witness`` carries the globally most
    negative eigenvalue across outcomes, as listed in
    ``witness_min_eigenvalues``, with a unit eigenvector of it; that
    eigenvalue lies below ``-tolerance``.
    ``gap_bound`` = min(d max(0, -min_j lambda_min(G_j)), sum_j tr neg(G_j)),
    where tr neg(G) sums the magnitudes of G's negative eigenvalues, bounds
    P_opt - P_corr whatever the verdict, and is at most d ``tolerance``
    when the verdict holds.  ``lagrange_herm_residual`` is reported but
    not gated on: the bound does not need Gamma to be Hermitian.
    """

    p_corr: float
    lagrange_herm_residual: float
    witness_min_eigenvalues: tuple[float, ...]
    pairwise_equality_residual: float
    zero_product_residual: float
    gap_bound: float
    tolerance: float
    is_optimal: bool
    witness: Witness | None

    @property
    def p_err(self) -> float:
        return 1.0 - self.p_corr


def _check_real(name: str, value) -> None:
    """Reject a value that is not a real number; a bool is not one."""
    # a plain float skips the slower abstract-base-class test
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def _check_tolerance(tol: float) -> None:
    _check_real("tolerance", tol)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def _witness_scan(gamma: np.ndarray, weighted: np.ndarray):
    """Eigenvalues of every witness G_j = sym(Gamma) - W_j from one batched
    ``eigvalsh``: returns the witnesses, their eigenvalues (row j ascending
    for G_j) and the most negative outcome j (ties: smallest index).  No
    eigenvector is formed here; ``_witness`` forms one for a single witness
    when a caller needs it."""
    witnesses = _hermitian_part(gamma) - weighted
    values = checked_eigvalsh(witnesses)
    return witnesses, values, int(values[:, 0].argmin())


def _verdict(gamma: np.ndarray, weighted: np.ndarray, tol: float):
    """The optimality verdict at Gamma, the one rule that ``certify`` and
    ``solve`` apply: every witness eigenvalue at least ``-tol``.  Returns the
    verdict (a bool) and the witness scan."""
    witness_scan = _witness_scan(gamma, weighted)
    _, values, j = witness_scan
    return bool(values[j, 0] >= -tol), witness_scan


# The two screens below return False only when the verdict at Gamma fails.
# Each compares against -tol widened by a margin that covers its own rounding
# and that of the scan: every ||Gamma||_F and ||W_j||_F is at most 1, so
# every witness has ||G_j||_2 <= 2, and ``eigvalsh`` is backward stable, so
# the scan's lowest eigenvalue lies within a few d eps of the exact one.

def _passes_trace_test(
    gamma: np.ndarray, products: np.ndarray, elements: np.ndarray, tol: float
) -> bool:
    """False only when the verdict fails: when some
    t_j = Re tr(Gamma pi_j) - Re tr(W_j pi_j) = tr(G_j pi_j), which is at
    least lambda_min(G_j) tr pi_j, lies below -(tol + 8 d^2 eps) tr pi_j.

    ``products`` holds the P_j = W_j pi_j whose sum is Gamma, and their
    diagonals give Re tr(W_j pi_j).  Each pi_j is Hermitian, so
    Re tr(Gamma pi_j) is the real dot product of the two matrices' entries:
    one real gemv of the element stack against Gamma.  Both terms of t_j
    round by at most about 2 d^2 eps tr pi_j, since ||pi_j||_F <= tr pi_j.
    """
    n, d, _ = elements.shape
    cross = elements.reshape(n, -1).view(float) @ gamma.reshape(-1).view(float)
    own = np.add.reduce(products.diagonal(0, 1, 2).real, 1)
    size = np.add.reduce(elements.diagonal(0, 1, 2).real, 1)
    return not (cross - own < -(tol + 8 * d * d * EPS) * size).any()


def _passes_cholesky_test(gamma: np.ndarray, weighted: np.ndarray, tol: float) -> bool:
    """False only when the verdict fails: when the batched Cholesky of
    every G_j + (tol + delta) I, delta = 4 (d + 1)^2 eps (1 + tol), does
    not complete (``matrices._cholesky_completes``).

    If the scan passes, each shifted witness A has lambda_min(A) at least
    delta less the scan's rounding, and its diagonal entries are at most
    2 + tol + delta.  A Cholesky completes on such an A whenever
    lambda_min(A) exceeds d (d + 1) eps / 2 times its largest diagonal entry
    (Demmel; Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 10.7), and delta exceeds that with room for complex
    arithmetic; its pivots then stay near lambda_min(A) or above, so its
    factor, bounded by the square roots of A's diagonal, is finite."""
    d = len(gamma)
    shifted = _hermitian_part(gamma)
    shifted.reshape(-1)[:: d + 1] += tol + 4 * (d + 1) ** 2 * EPS * (1.0 + tol)
    return _cholesky_completes(shifted - weighted)


def _witness(witnesses: np.ndarray, values: np.ndarray, j: int) -> Witness:
    """The ``Witness`` of outcome j from a witness scan: the scan's lowest
    eigenvalue of G_j and a unit eigenvector of it, from an ``eigh`` of G_j
    alone, under ``fix_phase``'s convention."""
    vector = readonly(fix_phase(checked_eigh(witnesses[j])[1][:, 0]))
    return Witness(j, float(values[j, 0]), vector)


def _frobenius(m: np.ndarray) -> float:
    """``np.linalg.norm(m)`` of a complex array, by numpy's own formula (the
    entries in memory order, real and imaginary parts dotted apart) without
    the wrapper's dispatch."""
    flat = m.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _herm_residual(m: np.ndarray) -> float:
    return _frobenius(m - m.conj().T) / max(1.0, _frobenius(m))


def _max_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm in an (n, d, d) stack: the bits of
    ``np.linalg.norm(stack, axis=(1, 2)).max()`` by numpy's own formula for
    it, without the wrapper's dispatch.  The square root is correctly
    rounded and monotone, so it is taken once, of the largest sum."""
    squares = np.add.reduce((stack.conj() * stack).real, axis=(1, 2))
    return math.sqrt(squares.max())


def _zero_product_residual(witnesses: np.ndarray, elements: np.ndarray) -> float:
    return _max_norm(witnesses @ elements)


def _max_block_square(blocks: np.ndarray) -> float:
    """Largest squared Frobenius norm among the square blocks stacked down ``blocks``."""
    flat = blocks.view(float).reshape(-1, 1, 2 * blocks.shape[1] ** 2)
    return float((flat @ flat.swapaxes(1, 2)).max())


def _pairwise_residual(products: np.ndarray, elements: np.ndarray) -> float:
    """max over (j, k) of ||pi_j (W_j - W_k) pi_k||_F from the stacks P = W pi and pi."""
    # row j forms X_jk^* = pi_k (W_j - W_k) pi_j = [pi_k, P_k^*] [P_j; -pi_j]
    # for every k > j in one gemm; ``rows`` holds 2 n d^2 entries and one
    # row's product at a time at most n d^2
    n, d, _ = elements.shape
    rows = np.concatenate((elements, products.conj().swapaxes(1, 2)), axis=2)
    rows = rows.reshape(n * d, 2 * d)
    squares = (
        _max_block_square(rows[(j + 1) * d:] @ np.concatenate((products[j], -elements[j])))
        for j in range(n - 1)
    )
    return math.sqrt(max(squares, default=0.0))


def lagrange_operator(ens: Ensemble, povm: Povm) -> np.ndarray:
    """sum_i p_i rho_i pi_i, returned raw (unsymmetrized).

    Its trace equals the success probability for any valid POVM; it is
    Hermitian only at an optimum, so callers interested in the symmetric
    part must hermitize it themselves.
    """
    check_match(ens, povm)
    return _checked_gamma(ens.weighted_states @ povm.elements)[0]


def witness_operator(ens: Ensemble, povm: Povm, j: int) -> np.ndarray:
    """G_j = (1/2) sum_i p_i (rho_i pi_i + pi_i rho_i) - p_j rho_j."""
    check_match(ens, povm)
    check_outcome(povm, j)
    return hermitize(lagrange_operator(ens, povm)) - ens.weighted_states[j]


def hermiticity_residual(m) -> float:
    """Frobenius anti-Hermitian residual, scaled by max(1, ||m||_F)."""
    return _herm_residual(as_matrix(m))


def pairwise_equality_residual(ens: Ensemble, povm: Povm) -> float:
    """max over ordered pairs (j, k) of ||pi_j (p_j rho_j - p_k rho_k) pi_k||_F."""
    check_match(ens, povm)
    return _pairwise_residual(ens.weighted_states @ povm.elements, povm.elements)


def zero_product_residual(ens: Ensemble, povm: Povm) -> float:
    """max_k ||(sym(Gamma) - p_k rho_k) pi_k||_F; vanishes at any optimum."""
    witnesses = hermitize(lagrange_operator(ens, povm)) - ens.weighted_states
    return _zero_product_residual(witnesses, povm.elements)


def certify(ens: Ensemble, povm: Povm, tol: float = DEFAULT_TOL) -> Certificate:
    """Evaluate the full optimality certificate at tolerance ``tol``.

    The verdict is ``_verdict``'s: no witness eigenvalue below ``-tol``, so
    a verdict that holds has ``gap_bound <= d tol`` and one that fails
    reports a witness below ``-tol``.  Gamma's Hermiticity residual and both
    equality residuals are reported but not gated on: positivity of the
    witnesses already bounds the gap, and at the optimum implies them.  An
    eigenvector is computed only on a not-optimal verdict, for the witness
    it reports.
    Gamma comes from the products W_i pi_i that the pairwise residual reads,
    summed by ``povm._gamma`` as in the solver's loop but behind the
    imaginary-trace guard, and ``p_corr`` is Re tr Gamma: bit for bit
    ``p_correct`` and a solve's last record.
    """
    _check_tolerance(tol)
    check_match(ens, povm)
    weighted, elements = ens.weighted_states, povm.elements
    products = weighted @ elements
    gamma, p_corr = _checked_gamma(products)
    eq_residual = _pairwise_residual(products, elements)
    del products  # freed before the witness scan allocates its own stacks
    optimal, (witnesses, values, j) = _verdict(gamma, weighted, tol)
    zp_residual = _zero_product_residual(witnesses, elements)
    minima = values[:, 0]
    lowest = float(minima[j])
    negative_trace = float(np.maximum(-values, 0.0).sum())

    return Certificate(
        p_corr=p_corr,
        lagrange_herm_residual=_herm_residual(gamma),
        witness_min_eigenvalues=tuple(minima.tolist()),
        pairwise_equality_residual=eq_residual,
        zero_product_residual=zp_residual,
        gap_bound=min(ens.dim * max(0.0, -lowest), negative_trace),
        tolerance=float(tol),
        is_optimal=optimal,
        witness=None if optimal else _witness(witnesses, values, j),
    )


def find_negative_mode(ens: Ensemble, povm: Povm, tol: float = DEFAULT_TOL) -> Witness | None:
    """The witness ``certify`` reports, when its eigenvalue lies below
    ``-tol``; None when ``_verdict``, ``certify``'s rule, holds: every
    witness eigenvalue at least ``-tol``.

    Ties across outcomes break toward the smallest outcome index; within one
    witness operator the deterministic eigenvector convention of
    ``spectral_decompose`` applies.  The decision reads eigenvalues only;
    eigenvectors are computed, for the returned outcome's witness alone,
    only when a mode is returned.  ``tol`` must be finite and positive.
    """
    _check_tolerance(tol)
    optimal, scan = _verdict(lagrange_operator(ens, povm), ens.weighted_states, tol)
    return None if optimal else _witness(*scan)
