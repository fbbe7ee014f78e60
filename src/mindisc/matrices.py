"""Dense complex matrix foundation: Hermitian repair, spectra, positivity.

Tolerances are double-precision constants for the desk-scale problems this
package targets (dimension <= ~64).

Positivity is decided by the sign of the lowest eigenvalue, but from order
``_CHOLESKY_MIN_DIM`` up ``checked_psd`` first tries to prove it without
one: a batched Cholesky of H + (PSD_TOL - m) I that completes shows that
H's lowest eigenvalue, as ``eigvalsh`` would compute it, is at least
-PSD_TOL.  The margin m covers the rounding of the factorisation (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3) and of
the eigenvalue scan; Rump (BIT 46, 433 (2006)) verifies positive
definiteness by the same kind of test.  ``_cholesky_completes`` is the one
Cholesky kernel, shared with the solver's screen in ``certificates``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
PSD_TOL = 1e-9
# machine epsilon of a double
EPS = float(np.finfo(float).eps)

# Below this order the eigenvalue scan costs less than the Cholesky proof
# that would replace it.  On a 2-vCPU Xeon (numpy 2.4.6, one BLAS thread)
# the proof took 11.5 us against eigvalsh's 8.0 us on a (2, 2, 2) stack,
# 12.0 against 12.1 us at (2, 6, 6), 13.1 against 15.2 us at (2, 8, 8)
# and 122 against 895 us at (16, 32, 32).
_CHOLESKY_MIN_DIM = 8

# relative cutoff below which a vector component is treated as zero when
# fixing eigenvector phases
_PHASE_CUTOFF = 1e-12


class MatrixShapeError(ValueError):
    """Input is not a square matrix, or dimensions do not line up."""


class NotHermitianError(ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""

    def __init__(self, deviation: float, index: int | None = None):
        self.deviation = float(deviation)
        self.index = index
        where = "" if index is None else f"element {index} "
        super().__init__(
            f"{where}deviates from Hermitian symmetry by {self.deviation:.3e}"
        )


class NotPositiveError(ValueError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""

    def __init__(self, eigenvalue: float, index: int | None = None):
        self.eigenvalue = float(eigenvalue)
        self.index = index
        where = "" if index is None else f"element {index} "
        super().__init__(f"{where}has negative eigenvalue {self.eigenvalue:.6e}")


class NumericFailure(RuntimeError):
    """A floating-point computation produced an unusable result."""


class EigendecompositionError(NumericFailure):
    """The eigensolver failed to converge or returned non-finite output."""


def as_matrix(m) -> np.ndarray:
    """Coerce to a complex square 2-D array, raising MatrixShapeError otherwise."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise MatrixShapeError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def readonly(arr: np.ndarray) -> np.ndarray:
    """Return ``arr`` flagged immutable (shared, not copied)."""
    arr.setflags(write=False)
    return arr


def herm_deviation(m) -> float:
    """Largest entrywise deviation of ``m`` from its own conjugate transpose."""
    arr = as_matrix(m)
    return float(np.max(np.abs(arr - arr.conj().T)))


def is_hermitian(m) -> bool:
    return herm_deviation(m) <= HERM_TOL


def _square_or_stack(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] == 0:
        raise MatrixShapeError(f"expected a square matrix or stack, got shape {arr.shape}")
    return arr


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, from one sum in the usual case:
    a non-finite entry makes the sum non-finite, and only a sum that
    overflows needs the entrywise test."""
    return cmath.isfinite(a.sum()) or bool(np.isfinite(a).all())


def _hermitian_part(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(a + a^dagger)/2 of a complex square array or stack, unchecked,
    written into ``out`` when one is given.

    The sum is halved in place by dividing by 2.  numpy divides a complex
    array by 2 as by the complex number 2 + 0j, which signs some zeros
    differently from a multiplication by 0.5, so only the division keeps
    the bits of (a + a^dagger)/2.
    """
    out = np.add(a, a.conj().swapaxes(-1, -2), out=out)
    out /= 2
    return out


def hermitize(m) -> np.ndarray:
    """Hermitian part (m + m^dagger)/2 of a square matrix, or of each matrix in a stack.

    The result is exactly Hermitian entrywise, so a second application
    returns it bit for bit.  Inputs already Hermitian within HERM_TOL move
    by at most HERM_TOL/2.
    """
    return _hermitian_part(_square_or_stack(m))


def _cholesky_completes(a: np.ndarray) -> bool:
    """Whether a batched ``np.linalg.cholesky`` of the Hermitian matrix or
    stack ``a`` runs to completion: no pivot is nonpositive (LAPACK's
    ``LinAlgError``) and the factor is finite.  The factor is tested as
    well, since a NaN pivot does not stop the factorisation."""
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return _all_finite(factor)


def _proves_psd(hermitian: np.ndarray) -> bool:
    """The shifted Cholesky proof described in ``checked_psd``: True only
    when every eigenvalue ``eigvalsh`` would give ``hermitian`` is at least
    -PSD_TOL."""
    d = hermitian.shape[-1]
    largest_trace = float(hermitian.diagonal(0, -2, -1).real.sum(-1).max())
    margin = 16 * (d + 1) ** 2 * EPS * (largest_trace + d * PSD_TOL)
    if not 0.0 <= margin < PSD_TOL:
        return False
    shifted = hermitian.copy()
    shifted.reshape(-1, d * d)[:, :: d + 1] += PSD_TOL - margin
    return _cholesky_completes(shifted)


def checked_psd(m) -> np.ndarray:
    """Hermitian part of a square matrix, or of each matrix in a stack, after
    checking, in this order, that its entries are finite (else ValueError),
    that it is Hermitian within HERM_TOL (else NotHermitianError) and
    positive semidefinite within PSD_TOL (else NotPositiveError).  In a
    stack the first offending element is named: ``index`` holds its
    position, and the error carries that element's own deviation or
    eigenvalue; for a single matrix ``index`` is None.  An eigensolver
    failure raises EigendecompositionError, not a validation error.

    The Hermiticity test takes one max over the whole stack; per-element
    maxima are formed only when it fails, to name the element.

    Positivity means that ``eigvalsh`` puts no eigenvalue of an element H
    below -PSD_TOL.  From order d = ``_CHOLESKY_MIN_DIM`` up it is first
    proved without eigenvalues.  Take t the largest trace in the stack and
    m = 16 (d + 1)^2 eps (t + d PSD_TOL); when 0 <= m < PSD_TOL, one
    batched Cholesky of every A = H + (PSD_TOL - m) I is tried.  If it
    completes, the computed factor R has R*R = A + E with
    |E| <= gamma_{d+1} |R*| |R| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.3), so ||E||_2 <= gamma_{d+1} tr(R*R), at
    most about (d + 1) eps (t + d PSD_TOL), and A + E >= 0 gives
    lambda_min(H) >= -PSD_TOL + m less that rounding and the rounding of the
    shift.  Every eigenvalue of H then lies in [-PSD_TOL, t + d PSD_TOL],
    and ``eigvalsh``, backward stable, reads the lowest one within a small
    multiple of d eps (t + d PSD_TOL).  m covers both, with room for complex
    arithmetic, so the scan would raise nothing, and the Hermitian part is
    returned without it.  Rump (BIT 46, 433 (2006)) verifies positive
    definiteness by the same kind of test.  When the factorisation fails,
    or m is out of that range, the ``eigvalsh`` scan decides, as it does
    below the gate, so every result and error is that of the scan."""
    arr = _square_or_stack(m)

    def first(bad: np.ndarray) -> int | None:
        return None if arr.ndim == 2 else int(np.argmax(bad))

    if not _all_finite(arr):
        i = first(~np.isfinite(arr).all(axis=(-2, -1)))
        raise ValueError(f"{'matrix' if i is None else f'element {i}'} has non-finite entries")
    deviations = np.abs(arr - arr.conj().swapaxes(-1, -2))
    if deviations.max() > HERM_TOL:
        deviations = deviations.max(axis=(-2, -1))
        i = first(deviations > HERM_TOL)
        raise NotHermitianError(deviations.flat[i or 0], index=i)
    hermitian = _hermitian_part(arr)
    if arr.shape[-1] >= _CHOLESKY_MIN_DIM and _proves_psd(hermitian):
        return hermitian
    lowest = checked_eigvalsh(hermitian)[..., 0]
    if lowest.min() < -PSD_TOL:
        i = first(lowest < -PSD_TOL)
        raise NotPositiveError(lowest.flat[i or 0], index=i)
    return hermitian


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigensystem of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; ``eigenvectors`` holds one
    unit-norm eigenvector per column, in matching order.  Each column's
    first significant component is normalized to be real and positive,
    which pins down the output even for repeated eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def pair(self, k: int) -> tuple[float, np.ndarray]:
        """Eigenvalue/eigenvector pair at ascending position ``k``."""
        return float(self.eigenvalues[k]), self.eigenvectors[:, k]

    def reconstruct(self) -> np.ndarray:
        """Assemble sum_k lambda_k v_k v_k^dagger."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Scale a vector, or each column of a matrix at once, so that its first
    significant component is real positive.

    Columns are scaled independently, so fixing some columns gives the bits
    of the same columns of the fixed matrix.  The pivots are indexed
    directly, as a (1,) slice of a vector or a (1, k) row of a matrix's k
    columns: the shape ``np.take_along_axis`` gives them, which matters,
    since a 1 x 1 matrix scaled by a (1,) factor takes numpy's broadcast
    multiply loop, whose complex products can differ in the last bit.
    """
    mags = np.abs(vectors)
    lead = (mags > _PHASE_CUTOFF * mags.max(axis=0)).argmax(axis=0)
    if vectors.ndim == 1:
        pivot = vectors[lead:lead + 1]
    else:
        pivot = vectors[lead[None], np.arange(vectors.shape[1])]
    return vectors * (pivot.conj() / np.abs(pivot))


def checked_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a Hermitian matrix or stack; raises EigendecompositionError."""
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigh did not converge: {exc}") from exc
    if not (_all_finite(eigenvalues) and _all_finite(eigenvectors)):
        raise EigendecompositionError("eigensolver returned non-finite values")
    return eigenvalues, eigenvectors


def checked_eigvalsh(m) -> np.ndarray:
    """``eigvalsh`` of a Hermitian matrix or stack, the eigenvalues alone;
    raises EigendecompositionError as ``checked_eigh`` does."""
    try:
        eigenvalues = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigvalsh did not converge: {exc}") from exc
    if not _all_finite(eigenvalues):
        raise EigendecompositionError("eigensolver returned non-finite values")
    return eigenvalues


def spectral_decompose(m) -> Spectrum:
    """Eigendecompose a Hermitian matrix into a deterministic Spectrum.

    Raises NotHermitianError if ``m`` is not Hermitian within HERM_TOL and
    EigendecompositionError if the underlying solver fails.  The public
    entry point, behind ``min_eigenvalue`` too; the package's own kernels
    take ``checked_eigh`` of matrices Hermitian by construction, with
    ``fix_phase`` where they need its convention.
    """
    arr = as_matrix(m)
    deviation = herm_deviation(arr)
    if deviation > HERM_TOL:
        raise NotHermitianError(deviation)
    eigenvalues, eigenvectors = checked_eigh(_hermitian_part(arr))
    return Spectrum(readonly(eigenvalues.astype(float)), readonly(fix_phase(eigenvectors)))


def min_eigenvalue(m) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a Hermitian matrix with one unit eigenvector.

    A degenerate minimum resolves to the first column of the deterministic
    ascending decomposition.
    """
    return spectral_decompose(m).pair(0)
