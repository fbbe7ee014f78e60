import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindisc as md
from mindisc.povm import check_match


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


def test_check_match_passes_on_consistent_pair(trine_ensemble, trine_srm):
    check_match(trine_ensemble, trine_srm)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_report_index(bad):
    with pytest.raises(ValueError, match="element 1 has non-finite"):
        md.validate_povm([np.diag([1.0, 0.0]), np.diag([bad, 1.0])])
