"""Dense complex matrix foundation: Hermitian repair, spectra, positivity.

Tolerances are double-precision defaults for the desk-scale problems this
package targets (dimension <= ~64).  Operations that depend on them accept
an override.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
PSD_TOL = 1e-9
EIG_RESIDUAL_TOL = 1e-8

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


def is_hermitian(m, tol: float = HERM_TOL) -> bool:
    return herm_deviation(m) <= tol


def hermitize(m) -> np.ndarray:
    """Project onto the Hermitian part, (m + m^dagger)/2.

    The result is exactly Hermitian entrywise, so a second application
    returns it bit for bit.  Inputs already Hermitian within HERM_TOL move
    by at most HERM_TOL/2.
    """
    arr = as_matrix(m)
    return (arr + arr.conj().T) / 2


@dataclass(frozen=True)
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


def ordered_sum(stack: np.ndarray) -> np.ndarray:
    """Sum over the first axis in index order (numpy's pairwise sum rounds otherwise)."""
    return sum(stack)


def fix_phase(vector: np.ndarray) -> np.ndarray:
    """Scale ``vector`` so its first significant component is real positive."""
    mags = np.abs(vector)
    lead = int(np.argmax(mags > _PHASE_CUTOFF * mags.max()))
    pivot = vector[lead]
    return vector * (pivot.conjugate() / abs(pivot))


def checked_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a Hermitian matrix or stack; raises EigendecompositionError."""
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigh did not converge: {exc}") from exc
    if not (np.all(np.isfinite(eigenvalues)) and np.all(np.isfinite(eigenvectors))):
        raise EigendecompositionError("eigensolver returned non-finite values")
    return eigenvalues, eigenvectors


def spectral_decompose(m, tol: float = HERM_TOL) -> Spectrum:
    """Eigendecompose a Hermitian matrix into a deterministic Spectrum.

    Raises NotHermitianError if ``m`` is not Hermitian within ``tol`` and
    EigendecompositionError if the underlying solver fails.
    """
    arr = as_matrix(m)
    deviation = herm_deviation(arr)
    if deviation > tol:
        raise NotHermitianError(deviation)
    eigenvalues, eigenvectors = checked_eigh(hermitize(arr))
    fixed = np.column_stack([fix_phase(v) for v in eigenvectors.T])
    return Spectrum(readonly(eigenvalues.astype(float)), readonly(fixed))


def min_eigenvalue(m, tol: float = HERM_TOL) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a Hermitian matrix with one unit eigenvector.

    A degenerate minimum resolves to the first column of the deterministic
    ascending decomposition.
    """
    return spectral_decompose(m, tol=tol).pair(0)
