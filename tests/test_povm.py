import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindisc as md
import mindisc.matrices as matrices
import mindisc.povm as povm_module
from helpers import _ill_conditioned_triple, count_eigh_calls
from mindisc.ensembles import _gaussian_grams
from mindisc.povm import _completeness_deviation, _success_probability, check_match


def test_projective_pair_is_valid():
    povm = md.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert len(povm) == 2 and povm.dim == 2


def test_single_outcome_identity_is_valid():
    povm = md.validate_povm([np.eye(2)])
    assert len(povm) == 1


def test_not_positive_reports_index():
    with pytest.raises(md.NotPositiveError) as err:
        md.validate_povm([np.diag([1.2, 0.0]), np.diag([-0.2, 1.0])])
    assert err.value.index == 1
    assert err.value.eigenvalue == pytest.approx(-0.2)


def test_not_hermitian_reports_index():
    bad = np.array([[0.5, 0.4], [0.0, 0.5]])
    with pytest.raises(md.NotHermitianError) as err:
        md.validate_povm([np.eye(2) - bad, bad])
    assert err.value.index is not None


def test_incomplete_sum_reports_deviation():
    with pytest.raises(md.IncompleteSumError) as err:
        md.validate_povm([np.diag([0.5, 0.5])])
    assert err.value.deviation == pytest.approx(0.5)


def test_povm_rejects_mixed_dimensions():
    with pytest.raises(md.DimensionMismatchError):
        md.validate_povm([np.eye(2) / 2, np.eye(3) / 2])


def test_povm_elements_are_readonly():
    povm = md.validate_povm([np.eye(2)])
    with pytest.raises(ValueError):
        povm[0][0, 0] = 5.0


@pytest.mark.parametrize(
    "index, error, message",
    [
        (True, TypeError, "index must be an integer, got True"),
        (1.0, TypeError, "index must be an integer, got 1.0"),
        (-1, IndexError, "-1 out of range for 3"),
        (3, IndexError, "3 out of range for 3"),
    ],
)
def test_element_and_weighted_state_indexes_are_checked(index, error, message):
    # checked as check_outcome checks an outcome index: a numpy integer is one
    povm, ens = md.uniform_povm(3, 2), md.trine()
    assert povm[np.int64(2)].tobytes() == povm.elements[2].tobytes()
    assert ens.weighted(np.int64(2)).tobytes() == ens.weighted_states[2].tobytes()
    with pytest.raises(error, match=f"outcome {message}"):
        povm[index]
    with pytest.raises(error, match=f"state {message}"):
        ens.weighted(index)


def test_outcome_probability_projective():
    rho = md.validate_density(np.diag([1.0, 0.0]))
    povm = md.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert md.outcome_probability(rho, povm, 0) == pytest.approx(1.0)
    assert md.outcome_probability(rho, povm, 1) == pytest.approx(0.0)


def test_outcome_probability_maximally_mixed():
    rho = md.validate_density(np.eye(2) / 2)
    povm = md.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert md.outcome_probability(rho, povm, 0) == pytest.approx(0.5)


def test_outcome_probabilities_sum_to_one_on_trine_srm(trine_srm):
    plus = md.pure_state([1.0, 1.0])
    values = [md.outcome_probability(plus, trine_srm, j) for j in range(3)]
    assert all(-1e-12 <= v <= 1 + 1e-12 for v in values)
    assert sum(values) == pytest.approx(1.0, abs=1e-9)


def test_outcome_probability_errors():
    rho = md.validate_density(np.eye(2) / 2)
    povm = md.validate_povm([np.eye(2)])
    with pytest.raises(IndexError):
        md.outcome_probability(rho, povm, 1)
    rho3 = md.validate_density(np.eye(3) / 3)
    with pytest.raises(md.DimensionMismatchError):
        md.outcome_probability(rho3, povm, 0)


def test_p_correct_perfect_discrimination(orthogonal_pair, orthogonal_projectors):
    assert md.p_correct(orthogonal_pair, orthogonal_projectors) == pytest.approx(1.0)
    assert md.p_error(orthogonal_pair, orthogonal_projectors) == pytest.approx(0.0)


def test_p_correct_identical_states_is_half():
    rho = md.random_mixed(2, 1, seed=3).states[0]
    ens = md.Ensemble([0.5, 0.5], (rho, rho))
    povm = md.random_povm(2, 2, rng=9)
    assert md.p_correct(ens, povm) == pytest.approx(0.5, abs=1e-12)


def test_p_correct_trine_srm(trine_ensemble, trine_srm):
    assert md.p_correct(trine_ensemble, trine_srm) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_p_correct_rejects_count_mismatch(trine_ensemble):
    with pytest.raises(md.DimensionMismatchError):
        md.p_correct(trine_ensemble, md.uniform_povm(2, 2))
    with pytest.raises(md.DimensionMismatchError):
        md.p_correct(trine_ensemble, md.uniform_povm(3, 3))


def test_uniform_povm_examples(trine_ensemble):
    povm = md.uniform_povm(2, 2)
    assert np.allclose(povm[0], np.eye(2) / 2)
    assert md.p_correct(trine_ensemble, md.uniform_povm(3, 2)) == pytest.approx(1.0 / 3.0)
    assert len(md.uniform_povm(1, 4)) == 1
    with pytest.raises(ValueError):
        md.uniform_povm(0, 2)


def test_srm_orthogonal_pair_gives_projectors(orthogonal_pair):
    povm = md.square_root_measurement(orthogonal_pair)
    for element, state in zip(povm, orthogonal_pair.states):
        assert np.allclose(element, state.mat, atol=1e-10)


def test_srm_trine_scaled_projectors(trine_ensemble, trine_srm):
    # the trine average state is I/2, so S^{-1/2} = sqrt(2) I and each
    # element is (2/3) of the state projector
    average = trine_ensemble.average_state()
    assert np.allclose(average, np.eye(2) / 2, atol=1e-12)
    for element, state in zip(trine_srm, trine_ensemble.states):
        assert np.allclose(element, (2.0 / 3.0) * state.mat, atol=1e-12)


def test_srm_single_state_is_identity():
    ens = md.Ensemble([1.0], (md.pure_state([0.0, 1.0]),))
    povm = md.square_root_measurement(ens)
    assert len(povm) == 1
    assert np.allclose(povm[0], np.eye(2), atol=1e-12)


def test_srm_exists_when_a_state_with_admitted_negative_eigenvalues_sees_the_kernel():
    # S = diag(1, 0, 0): p_0 rho_0's eigenvalues -0.999 eps, which validation
    # admits, cancel p_1 rho_1's 1.8e-9 of weight on S's kernel; the SRM is
    # still the completion, bit for bit, and a start that certifies
    eps = 0.9e-9
    delta = 0.999 * eps / 0.001
    rho0 = md.validate_density(np.diag([1 + 2 * eps, -eps, -eps]))
    rho1 = md.validate_density(np.diag([1 - 2 * delta, delta, delta]))
    ens = md.Ensemble((0.999, 0.001), (rho0, rho1))
    elements, kernel = povm_module._completed_povm(ens.weighted_states)
    assert kernel is not None
    assert np.trace(kernel @ ens.weighted_states[1]).real > 1e-9
    srm = md.square_root_measurement(ens)
    assert srm.elements.tobytes() == elements.tobytes()
    assert md.solve(ens, srm).converged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_srm_sums_to_the_identity_when_the_average_state_is_ill_conditioned(seed):
    # S is full rank with a condition number near 1e10: the sandwich alone
    # misses completeness by up to 4e-5, and the second normalisation by the
    # element sum brings it back to rounding
    ens = _ill_conditioned_triple(seed)
    inv_sqrt, kernel, ill = povm_module._normalizer(np.add.reduce(ens.weighted_states, 0))
    assert kernel is None and ill
    once = inv_sqrt @ ens.weighted_states @ inv_sqrt
    assert _completeness_deviation(once) > md.COMPLETENESS_TOL
    srm = md.square_root_measurement(ens)
    assert _completeness_deviation(srm.elements.copy()) <= 1e-13
    assert md.solve(ens, srm).converged


def test_a_well_conditioned_srm_is_normalised_once(monkeypatch):
    # the second normalisation is for ill-conditioned S alone, so the common
    # case pays one eigh
    ens = md.random_mixed(4, 3, 1)
    calls = count_eigh_calls(monkeypatch, povm_module)
    md.square_root_measurement(ens)
    assert calls == [(4, 4)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    dim=st.integers(1, 4),
    n=st.integers(1, 4),
)
def test_srm_output_is_always_valid(seed, dim, n):
    ens = md.random_mixed(dim, n, seed=seed)
    povm = md.square_root_measurement(ens)
    assert isinstance(povm, md.Povm)
    assert len(povm) == n


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    dim=st.integers(1, 4),
    n=st.integers(1, 4),
)
def test_outcome_probabilities_form_distribution(seed, dim, n):
    rng = np.random.default_rng(seed)
    povm = md.random_povm(n, dim, rng)
    rho = md.random_mixed(dim, 1, seed=seed).states[0]
    values = [md.outcome_probability(rho, povm, j) for j in range(n)]
    assert all(v >= -1e-12 for v in values)
    assert sum(values) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_p_correct_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    ens = md.random_mixed(dim, n, seed=seed)
    povm = md.random_povm(n, dim, rng)
    value = md.p_correct(ens, povm)
    assert -1e-12 <= value <= 1 + 1e-12
    assert md.p_error(ens, povm) == pytest.approx(1 - value, abs=1e-12)


def test_random_povm_is_seeded():
    first = md.random_povm(3, 2, rng=42)
    second = md.random_povm(3, 2, rng=42)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["srm", "random"])
def test_constructions_take_one_eigh_of_s_and_no_spectral_decompose(monkeypatch, kind):
    kets = np.random.default_rng(3).standard_normal((3, 4))
    ens = md.Ensemble(np.full(3, 1 / 3), tuple(md.pure_state(k) for k in kets))
    seen = []
    real = povm_module.checked_eigh
    monkeypatch.setattr(povm_module, "checked_eigh", lambda m: seen.append(m) or real(m))
    # spectral_decompose looks its eigensolver up in the matrices module
    spectral = count_eigh_calls(monkeypatch, matrices)
    if kind == "srm":
        povm = md.square_root_measurement(ens)
        s = ens.average_state()
    else:
        povm = md.random_povm(4, 3, 5)
        s = np.add.reduce(_gaussian_grams(np.random.default_rng(5), 4, 3), 0)
    assert len(seen) == 1
    np.testing.assert_allclose(seen[0], s, atol=1e-12)
    assert spectral == []
    assert povm.dim == len(s)


def test_check_match_passes_on_consistent_pair(trine_ensemble, trine_srm):
    check_match(trine_ensemble, trine_srm)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_report_index(bad):
    with pytest.raises(ValueError, match="element 1 has non-finite"):
        md.validate_povm([np.diag([1.0, 0.0]), np.diag([bad, 1.0])])


@pytest.mark.parametrize(
    "make",
    [
        lambda: md.pure_state([1.0, 1j]),
        md.trine,
        lambda: md.uniform_povm(2, 2),
        lambda: md.spectral_decompose(np.diag([1.0, 2.0])),
        lambda: md.certify(md.trine(), md.uniform_povm(3, 2)),
        lambda: md.certify(md.trine(), md.uniform_povm(3, 2)).witness,
        lambda: md.find_negative_mode(md.trine(), md.uniform_povm(3, 2)),
    ],
    ids=["DensityMatrix", "Ensemble", "Povm", "Spectrum", "Certificate", "Witness", "find_negative_mode"],
)
def test_array_holding_values_compare_and_hash(make):
    value, copy = make(), make()
    assert value == value
    assert isinstance(value == copy, bool)
    hash(value)


@pytest.mark.parametrize(
    "mat, error",
    [
        ([[np.nan, 0.0], [0.0, 1.0]], ValueError),
        ([[0.5, 0.1], [0.0, 0.5]], md.NotHermitianError),
        ([[1.5, 0.0], [0.0, -0.5]], md.NotPositiveError),
    ],
    ids=["non-finite", "not-hermitian", "negative-eigenvalue"],
)
def test_states_and_measurement_elements_share_one_matrix_check(mat, error):
    with pytest.raises(error) as state:
        md.validate_density(mat)
    with pytest.raises(error) as element:
        md.validate_povm([mat])
    assert type(state.value) is type(element.value) is error
    if error is ValueError:
        assert "non-finite" in str(state.value)
        assert "element 0 has non-finite" in str(element.value)
    else:
        assert state.value.index is None
        assert element.value.index == 0


def _valid_element_lists():
    ens = md.random_mixed(3, 4, 5)
    return [
        list(md.square_root_measurement(md.trine()).elements),
        list(md.random_povm(4, 3, 5).elements),
        list(md.square_root_measurement(ens).elements),
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
    ]


def test_povm_from_a_stack_holds_the_bytes_of_povm_from_a_list():
    for mats in _valid_element_lists():
        from_list = md.validate_povm(mats)
        from_stack = md.validate_povm(np.array(mats))
        assert from_stack.elements.dtype == from_list.elements.dtype == complex
        assert from_stack.elements.tobytes() == from_list.elements.tobytes()


def _rejection(elements):
    with pytest.raises(ValueError) as err:
        md.validate_povm(elements)
    return type(err.value), str(err.value), getattr(err.value, "index", None)


_HALF = np.eye(2) / 2
_BAD_POVMS = {
    "empty": (np.empty((0, 2, 2)), []),
    "mixed-dimensions": (
        np.array([_HALF, np.eye(3) / 2], dtype=object),
        [_HALF, np.eye(3) / 2],
    ),
    "non-square": (np.zeros((2, 2, 3)), [np.zeros((2, 3))] * 2),
    "non-finite": (np.array([_HALF, np.diag([0.5, np.nan])]), [_HALF, np.diag([0.5, np.nan])]),
    "non-hermitian": (np.array([_HALF, _HALF + [[0, 0.1], [0, 0]]]), [_HALF, _HALF + [[0, 0.1], [0, 0]]]),
    "non-psd": (np.array([np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])]), [np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])]),
    "incomplete": (np.array([_HALF, 0.4 * np.eye(2)]), [_HALF, 0.4 * np.eye(2)]),
}


@pytest.mark.parametrize("name", list(_BAD_POVMS))
def test_povm_from_a_stack_rejects_as_povm_from_a_list(name):
    stack, mats = _BAD_POVMS[name]
    assert isinstance(stack, np.ndarray)
    assert _rejection(stack) == _rejection(mats)


def test_success_probability_rejects_traces_that_are_not_real():
    weighted = np.array([np.eye(2) / 2, np.eye(2) / 2], dtype=complex)
    elements = np.array([np.diag([1j, 0.0]), np.diag([0.0, 1.0])])
    with pytest.raises(md.NumericFailure, match="imaginary norm"):
        _success_probability(weighted, elements)
    # the imaginary parts cancel in tr Gamma, yet each outcome's trace is checked
    elements[1] = np.diag([0.0, 1.0 - 1j])
    assert np.add.reduce(weighted @ elements, axis=0).trace().imag == 0.0
    with pytest.raises(md.NumericFailure, match="imaginary norm"):
        _success_probability(weighted, elements)


@pytest.mark.parametrize("part", [1.0, 1j])
def test_success_probability_rejects_a_nan_entry(part):
    weighted = np.array([np.eye(2) / 2, np.eye(2) / 2], dtype=complex)
    elements = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    elements[1, 0, 1] = np.nan * part  # off the diagonal, in the real or imaginary part
    with pytest.raises(md.NumericFailure, match="imaginary norm nan"):
        _success_probability(weighted, elements)


@pytest.mark.parametrize("n", [8, 16])
def test_completeness_deviation_on_d1_stacks_matches_the_index_order_sum(n):
    # numpy sums a d=1 stack pairwise once n >= 4, not in index order
    rng = np.random.default_rng(n)
    for _ in range(50):
        weights = rng.random(n) * 10.0 ** rng.integers(-6, 1, size=n)
        stack = (weights / weights.sum() + 1e-12j * rng.standard_normal(n)).reshape(n, 1, 1)
        reference = float(np.abs(sum(stack) - 1.0).max())
        assert abs(_completeness_deviation(stack) - reference) <= 1e-15


@pytest.mark.parametrize(
    "call",
    [
        lambda ens, elements: md.solve(ens, start=elements),
        lambda ens, elements: md.certify(ens, elements),
        lambda ens, elements: md.p_correct(ens, elements),
        lambda ens, elements: md.lagrange_operator(ens, elements),
    ],
    ids=["solve", "certify", "p_correct", "lagrange_operator"],
)
def test_a_list_in_place_of_a_povm_is_a_type_error(trine_ensemble, trine_srm, call):
    with pytest.raises(TypeError, match="expected a Povm, got list"):
        call(trine_ensemble, list(trine_srm))


@pytest.mark.parametrize(
    "call",
    [
        lambda rho: md.Ensemble([1.0], (rho,)),
        lambda rho: md.outcome_probability(rho, md.uniform_povm(2, 2), 0),
        lambda rho: md.helstrom_binary(0.5, rho, 0.5, rho),
    ],
    ids=["Ensemble", "outcome_probability", "helstrom_binary"],
)
def test_an_array_in_place_of_a_density_matrix_is_a_type_error(call):
    with pytest.raises(TypeError, match="expected a DensityMatrix, got ndarray"):
        call(np.eye(2) / 2)
