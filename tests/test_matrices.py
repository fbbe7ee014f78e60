import numpy as np
import pytest

from helpers import random_complex, random_hermitian
from mindisc.matrices import (
    EigendecompositionError,
    MatrixShapeError,
    NotHermitianError,
    Spectrum,
    _hermitian_part,
    checked_eigh,
    checked_eigvalsh,
    checked_psd,
    fix_phase,
    hermitize,
    is_hermitian,
    min_eigenvalue,
    spectral_decompose,
)


def test_hermitize_identity_is_fixed_point():
    eye = np.eye(3, dtype=complex)
    assert np.array_equal(hermitize(eye), eye)


def test_hermitize_upper_triangular_example():
    m = np.array([[0.0, 1j], [0.0, 0.0]])
    expected = np.array([[0.0, 0.5j], [-0.5j, 0.0]])
    assert np.allclose(hermitize(m), expected, atol=0)


def test_hermitize_keeps_hermitian_input():
    h = random_hermitian(np.random.default_rng(3), 5)
    assert np.max(np.abs(hermitize(h) - h)) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_hermitize_is_exact_projection(seed):
    m = random_complex(np.random.default_rng(seed), 4)
    once = hermitize(m)
    assert np.array_equal(hermitize(once), once)


def test_hermitize_rejects_non_square():
    with pytest.raises(MatrixShapeError):
        hermitize(np.zeros((2, 3)))


def test_hermitize_stack_matches_each_matrix():
    rng = np.random.default_rng(11)
    stack = np.array([random_complex(rng, 4) for _ in range(5)])
    projected = hermitize(stack)
    for m, h in zip(stack, projected):
        assert np.array_equal(h, hermitize(m))
    with pytest.raises(MatrixShapeError):
        hermitize(np.zeros((2, 3, 4)))


def test_is_hermitian():
    assert is_hermitian(np.diag([1.0, 2.0]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_diagonal():
    spectrum = spectral_decompose(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(spectrum.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)


def test_spectral_pauli_x():
    spectrum = spectral_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-12)


def _charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier recursion; independent of any eigensolver."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mk = np.zeros_like(a)
    eye = np.eye(n)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(a @ mk).real / k
    return coeffs


def test_spectral_matches_charpoly_roots():
    # companion-matrix roots of the characteristic polynomial are the oracle
    m = random_hermitian(np.random.default_rng(11), 4)
    roots = np.roots(_charpoly_coefficients(m))
    assert np.max(np.abs(roots.imag)) <= 1e-8
    scale = np.linalg.norm(m, 2)
    expected = np.sort(roots.real)
    got = spectral_decompose(m).eigenvalues
    assert np.max(np.abs(got - expected)) <= 1e-8 * max(1.0, scale)


def test_spectrum_invariants_bulk():
    # residuals, orthonormality, reconstruction, and the trace identity on
    # 1000 random Hermitian matrices of dimension <= 8
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        m = random_hermitian(rng, dim)
        spectrum = spectral_decompose(m)
        norm = max(np.linalg.norm(m, 2), 1e-30)
        v = spectrum.eigenvectors
        residual = m @ v - v * spectrum.eigenvalues
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8 * norm
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-8
        assert np.linalg.norm(spectrum.reconstruct() - m) <= 1e-8 * norm
        assert abs(np.trace(m).real - spectrum.eigenvalues.sum()) <= 1e-9 * dim * norm
        assert np.all(np.diff(spectrum.eigenvalues) >= 0)


def test_spectral_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_output_is_deterministic():
    m = random_hermitian(np.random.default_rng(7), 6)
    first = spectral_decompose(m)
    second = spectral_decompose(np.array(m))
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_eigenvector_leading_component_real_positive():
    spectrum = spectral_decompose(random_hermitian(np.random.default_rng(9), 5))
    for k in range(5):
        _, vec = spectrum.pair(k)
        lead = vec[np.argmax(np.abs(vec) > 1e-12 * np.abs(vec).max())]
        assert abs(lead.imag) <= 1e-12
        assert lead.real > 0


def test_min_eigenvalue_identity():
    value, vector = min_eigenvalue(np.eye(2, dtype=complex))
    assert value == pytest.approx(1.0)
    assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12


def test_min_eigenvalue_diagonal():
    value, vector = min_eigenvalue(np.diag([-0.25, 0.5]).astype(complex))
    assert value == pytest.approx(-0.25)
    assert np.allclose(vector, [1.0, 0.0], atol=1e-12)


def test_spectrum_type_shape():
    spectrum = spectral_decompose(np.diag([1.0, 2.0]))
    assert isinstance(spectrum, Spectrum)
    assert spectrum.dim == 2
    assert spectrum.eigenvalues.flags.writeable is False
    assert spectrum.eigenvectors.flags.writeable is False


def _phase_fixed_per_column(vectors: np.ndarray) -> np.ndarray:
    """Each column scaled so that its first component above 1e-12 of its
    largest is real positive, one column at a time."""
    columns = []
    for v in vectors.T:
        mags = np.abs(v)
        pivot = v[int(np.argmax(mags > 1e-12 * mags.max()))]
        columns.append(v * (pivot.conjugate() / abs(pivot)))
    return np.column_stack(columns)


def test_phase_fix_of_whole_matrix_is_bit_identical_to_per_column_fix():
    rng = np.random.default_rng(31)
    for trial in range(300):
        dim = (1, 2, 3, 4, 8, 16, 32)[trial % 7]
        if trial % 5 == 0:
            # degenerate diagonal spectra: eigenvectors with exact zeros
            m = np.diag(rng.integers(0, 3, dim).astype(float))
        else:
            m = random_hermitian(rng, dim)
        _, vectors = np.linalg.eigh(hermitize(m))
        expected = _phase_fixed_per_column(vectors)
        assert spectral_decompose(m).eigenvectors.tobytes() == expected.tobytes()
        assert fix_phase(vectors[:, 0]).tobytes() == expected[:, 0].tobytes()


def _phase_fixed_along_axis(vectors: np.ndarray) -> np.ndarray:
    """The phase fix with its pivots gathered by ``np.take_along_axis``."""
    mags = np.abs(vectors)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    pivot = np.take_along_axis(vectors, lead[None], axis=0)
    return vectors * (pivot.conj() / np.abs(pivot))


def test_phase_fix_is_bit_identical_to_the_take_along_axis_form():
    rng = np.random.default_rng(47)
    for trial in range(200):
        dim = (1, 2, 3, 5, 8, 16, 32)[trial % 7]
        vectors = random_complex(rng, dim)
        if trial % 3 == 0:
            # leading entries zero or below the cutoff move the pivot down
            vectors[: rng.integers(dim), :] *= (0.0, 1e-14)[trial % 2]
        expected = _phase_fixed_along_axis(vectors)
        assert fix_phase(vectors).tobytes() == expected.tobytes()
        # fixing some columns gives those columns of the fixed matrix
        kept = rng.random(dim) < 0.5
        assert fix_phase(vectors[:, kept]).tobytes() == expected[:, kept].tobytes()
        for column in vectors.T:  # single vectors, as a witness's eigenvector
            assert fix_phase(column).tobytes() == _phase_fixed_along_axis(column).tobytes()


@pytest.mark.parametrize("stacked", [True, False], ids=["stack", "matrix"])
def test_checked_psd_names_a_non_hermitian_element_with_its_own_deviation(stacked):
    # element 1 deviates by 0.25; element 2, when it fails too, by 0.5
    half = np.eye(2) / 2
    skewed = np.array([[0.5, 0.375], [0.125, 0.5]])
    if stacked:
        worse = np.array([[0.5, 0.0], [0.5, 0.5]])
        for stack in (np.stack((half, skewed, half)), np.stack((half, skewed, worse))):
            with pytest.raises(NotHermitianError) as err:
                checked_psd(stack)
            assert err.value.index == 1
            assert err.value.deviation == 0.25
    else:
        with pytest.raises(NotHermitianError) as err:
            checked_psd(skewed)
        assert err.value.index is None
        assert err.value.deviation == 0.25


def test_checked_eigvalsh_maps_solver_failures(monkeypatch):
    m = np.stack([random_hermitian(np.random.default_rng(k), 3) for k in range(2)])
    assert np.array_equal(checked_eigvalsh(m), np.linalg.eigvalsh(m))

    def no_convergence(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(EigendecompositionError, match="did not converge"):
        checked_eigvalsh(m)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    with pytest.raises(EigendecompositionError, match="non-finite"):
        checked_eigvalsh(m)


def test_checked_eigh_maps_solver_failures(monkeypatch):
    m = np.stack([random_hermitian(np.random.default_rng(k), 3) for k in range(2)])
    values, vectors = checked_eigh(m)
    reference = np.linalg.eigh(m)
    assert np.array_equal(values, reference[0]) and np.array_equal(vectors, reference[1])

    def no_convergence(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(EigendecompositionError, match="did not converge"):
        checked_eigh(m)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.full(a.shape[:-1], np.nan), a))
    with pytest.raises(EigendecompositionError, match="non-finite"):
        checked_eigh(m)
    # finite eigenvalues with non-finite eigenvectors fail the same check
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (reference[0], np.full_like(a, np.inf)))
    with pytest.raises(EigendecompositionError, match="non-finite"):
        checked_eigh(m)


# entries whose sums depend on the order of addition, and signed zeros
_SUM_ENTRIES = np.array([0.0, -0.0, 1.0, -1.0, 0.1, 3e-17, 1e16])


def _signed_zero_stack(rng: np.random.Generator, shape) -> np.ndarray:
    stack = np.empty(shape, dtype=complex)
    stack.real = rng.choice(_SUM_ENTRIES, size=shape)
    stack.imag = rng.choice(_SUM_ENTRIES, size=shape)
    return stack


@pytest.mark.parametrize("shape", [(2, 2), (5, 5), (3, 2, 2), (6, 4, 4)])
def test_hermitian_part_is_bit_identical_to_its_formula(shape):
    rng = np.random.default_rng(sum(shape))
    arrays = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)]
    arrays += [_signed_zero_stack(rng, shape) for _ in range(20)]
    arrays.append(arrays[0].swapaxes(-1, -2))
    for a in arrays:
        before = a.copy()
        expected = (a + a.conj().swapaxes(-1, -2)) / 2
        assert _hermitian_part(a).tobytes() == expected.tobytes()
        assert a.tobytes() == before.tobytes()
