import numpy as np
import pytest

import mindisc as md
from mindisc.ensembles import PRIOR_TOL


def test_maximally_mixed_is_valid():
    rho = md.validate_density(np.eye(2) / 2)
    assert rho.dim == 2


def test_negative_eigenvalue_rejected():
    with pytest.raises(md.NotPositiveError) as err:
        md.validate_density(np.diag([1.5, -0.5]))
    assert err.value.eigenvalue == pytest.approx(-0.5)


def test_wrong_trace_rejected():
    with pytest.raises(md.TraceNotOneError) as err:
        md.validate_density(np.diag([0.6, 0.6]))
    assert err.value.trace.real == pytest.approx(1.2)


def test_non_hermitian_rejected():
    with pytest.raises(md.NotHermitianError):
        md.validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_projector_is_valid_pure_state():
    rho = md.validate_density(np.diag([1.0, 0.0]))
    assert np.linalg.matrix_rank(rho.mat) == 1


@pytest.mark.parametrize(
    "vec,expected",
    [
        ([1.0, 0.0], np.diag([1.0, 0.0])),
        ([1.0, 1.0], np.full((2, 2), 0.5)),
        ([1.0, 1.0j], np.array([[0.5, -0.5j], [0.5j, 0.5]])),
    ],
)
def test_pure_state_examples(vec, expected):
    assert np.allclose(md.pure_state(vec).mat, expected, atol=1e-15)


def test_pure_state_rejects_zero_vector():
    with pytest.raises(ValueError):
        md.pure_state([0.0, 0.0])


def test_pure_state_normalizes():
    rho = md.pure_state([3.0, 4.0j])
    assert rho.mat.trace().real == pytest.approx(1.0)


def test_ensemble_rejects_bad_priors():
    states = (md.pure_state([1, 0]), md.pure_state([0, 1]))
    with pytest.raises(ValueError):
        md.Ensemble([0.7, 0.7], states)
    with pytest.raises(ValueError):
        md.Ensemble([1.2, -0.2], states)
    with pytest.raises(ValueError):
        md.Ensemble([1.0], states)


def test_ensemble_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        md.Ensemble([0.5, 0.5], (md.pure_state([1, 0]), md.pure_state([1, 0, 0])))


def test_ensemble_rejects_empty():
    with pytest.raises(ValueError):
        md.Ensemble([], ())


def test_zero_prior_is_permitted():
    ens = md.Ensemble([1.0, 0.0], (md.pure_state([1, 0]), md.pure_state([0, 1])))
    assert ens.has_zero_prior


def test_pure_pair_overlap_zero_is_orthogonal():
    ens = md.pure_pair(0.0)
    product = ens.states[0].mat @ ens.states[1].mat
    assert np.max(np.abs(product)) <= 1e-12


@pytest.mark.parametrize("overlap", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
def test_pure_pair_overlap_matches_request(overlap):
    ens = md.pure_pair(overlap)
    # rank-1 states: |<psi1|psi2>|^2 = tr(rho1 rho2)
    fidelity = np.trace(ens.states[0].mat @ ens.states[1].mat).real
    assert abs(np.sqrt(max(fidelity, 0.0)) - overlap) <= 1e-12


def test_pure_pair_rejects_bad_overlap():
    with pytest.raises(ValueError):
        md.pure_pair(1.0)
    with pytest.raises(ValueError):
        md.pure_pair(-0.1)


def test_pure_pair_priors():
    ens = md.pure_pair(0.3, priors=(0.2, 0.8))
    assert np.allclose(ens.priors, [0.2, 0.8])


def test_trine_geometry():
    ens = md.trine()
    assert len(ens) == 3
    assert np.allclose(ens.priors, 1.0 / 3.0)
    for i in range(3):
        for j in range(i + 1, 3):
            overlap_sq = np.trace(ens.states[i].mat @ ens.states[j].mat).real
            assert overlap_sq == pytest.approx(0.25, abs=1e-12)


def test_random_mixed_is_seeded():
    first = md.random_mixed(2, 3, seed=7)
    second = md.random_mixed(2, 3, seed=7)
    for a, b in zip(first.states, second.states):
        assert np.array_equal(a.mat, b.mat)
    assert np.array_equal(first.priors, second.priors)


def test_random_mixed_differs_across_seeds():
    a = md.random_mixed(2, 1, seed=1)
    b = md.random_mixed(2, 1, seed=2)
    assert not np.allclose(a.states[0].mat, b.states[0].mat)


def test_random_mixed_full_rank_typical():
    ens = md.random_mixed(4, 2, seed=0)
    for state in ens.states:
        assert np.linalg.eigvalsh(state.mat)[0] > 1e-6


def test_random_mixed_rejects_bad_counts():
    with pytest.raises(ValueError):
        md.random_mixed(2, 0, seed=0)
    with pytest.raises(ValueError):
        md.random_mixed(0, 1, seed=0)


def test_generate_dispatch():
    assert len(md.generate(md.TrineSpec())) == 3
    assert len(md.generate(md.PurePairSpec(0.5))) == 2
    assert md.generate(md.RandomMixedSpec(dim=3, n=4, seed=2)).dim == 3
    with pytest.raises(TypeError):
        md.generate(object())


def test_generated_ensembles_satisfy_invariants():
    # every generator output passes validation exactly as constructed
    for ens in (md.trine(), md.pure_pair(0.4), md.random_mixed(3, 3, seed=5)):
        for state in ens.states:
            md.validate_density(state.mat)
        assert abs(ens.priors.sum() - 1.0) <= PRIOR_TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        md.validate_density([[bad, 0], [0, 0.5]])


@pytest.mark.parametrize("priors", [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [np.nan, np.nan]])
def test_ensemble_rejects_non_finite_priors(priors):
    states = (md.pure_state([1, 0]), md.pure_state([0, 1]))
    with pytest.raises(ValueError, match="non-finite"):
        md.Ensemble(priors, states)


@pytest.mark.parametrize("priors", [["0.5", "0.5"], [True, False], [0.5 + 0j, 0.5]])
def test_ensemble_rejects_priors_that_are_not_real_numbers(priors):
    states = (md.pure_state([1, 0]), md.pure_state([0, 1]))
    with pytest.raises(TypeError, match="real numbers"):
        md.Ensemble(priors, states)
    with pytest.raises(TypeError, match="real numbers"):
        md.helstrom_binary(priors[0], states[0], priors[1], states[1])
