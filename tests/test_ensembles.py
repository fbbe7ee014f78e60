import numpy as np
import pytest

import mindisc as md
from helpers import BAD_STATES, count_calls
from mindisc import ensembles
from mindisc.ensembles import PRIOR_TOL, _checked_states


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
    with pytest.raises(TypeError, match="real numbers"):
        md.pure_pair(0.5, tuple(priors))
    with pytest.raises(TypeError, match="real numbers"):
        md.generate(md.PurePairSpec(0.5, tuple(priors)))


def _raised(build) -> Exception:
    with pytest.raises(Exception) as err:
        build()
    return err.value


def _assert_same_error(got: Exception, expected: Exception) -> None:
    assert type(got) is type(expected)
    assert str(got) == str(expected)
    # the deviation, eigenvalue or trace it carries, and index None
    assert vars(got) == vars(expected)
    assert getattr(got, "index", None) is None


@pytest.mark.parametrize("kind", BAD_STATES)
def test_stack_check_raises_the_per_state_error_of_state_1_of_3(kind):
    stack = np.array([np.diag([1.0, 0.0]), BAD_STATES[kind], np.eye(2) / 2], dtype=complex)
    per_state = _raised(lambda: [md.validate_density(m) for m in stack])
    _assert_same_error(_raised(lambda: _checked_states(stack)), per_state)


@pytest.mark.parametrize(
    "first, second, expected",
    [
        ("non-psd", "non-finite", md.NotPositiveError),
        ("trace", "non-hermitian", md.TraceNotOneError),
        ("non-hermitian", "non-finite", md.NotHermitianError),
    ],
)
def test_stack_check_reports_the_first_bad_state(first, second, expected):
    # the stack's own check would name state 1 first; the rows are rechecked in order
    stack = np.array([BAD_STATES[first], BAD_STATES[second], np.eye(2) / 2], dtype=complex)
    error = _raised(lambda: _checked_states(stack))
    assert type(error) is expected
    _assert_same_error(error, _raised(lambda: md.validate_density(stack[0])))


def _assert_same_bits(ens: md.Ensemble, reference: md.Ensemble) -> None:
    assert len(ens) == len(reference)
    for state, expected in zip(ens.states, reference.states):
        assert isinstance(state, md.DensityMatrix)
        assert not state.mat.flags.writeable
        assert state.mat.tobytes() == expected.mat.tobytes()
    assert ens.weighted_states.tobytes() == reference.weighted_states.tobytes()
    assert ens.priors.tobytes() == reference.priors.tobytes()


@pytest.mark.parametrize("dim, n", [(1, 1), (2, 3), (3, 5), (4, 8), (8, 8), (16, 4), (32, 16)])
def test_random_mixed_matches_per_state_construction(monkeypatch, dim, n):
    seed = 97 * dim + n
    raws = ensembles._gaussian_grams(np.random.default_rng(seed), n, dim)
    reference = md.Ensemble(
        np.full(n, 1.0 / n), tuple(md.DensityMatrix(raw / raw.trace().real) for raw in raws)
    )
    calls = count_calls(monkeypatch, ensembles, "checked_psd")
    ens = md.random_mixed(dim, n, seed)
    assert calls == [(n, dim, dim)]
    _assert_same_bits(ens, reference)


@pytest.mark.parametrize("overlap", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("priors", [(0.5, 0.5), (0.2, 0.8), (1, 0)])
def test_pure_pair_matches_per_state_construction(monkeypatch, overlap, priors):
    half = np.arccos(overlap) / 2.0
    kets = ([np.cos(half), np.sin(half)], [np.cos(half), -np.sin(half)])
    reference = md.Ensemble(np.asarray(priors, dtype=float), tuple(map(md.pure_state, kets)))
    calls = count_calls(monkeypatch, ensembles, "checked_psd")
    ens = md.pure_pair(overlap, priors)
    assert calls == [(2, 2, 2)]
    _assert_same_bits(ens, reference)


def test_trine_matches_per_state_construction(monkeypatch):
    s = np.sqrt(3.0) / 2.0
    kets = ([1.0, 0.0], [0.5, s], [-0.5, s])
    reference = md.Ensemble(np.full(3, 1.0 / 3.0), tuple(map(md.pure_state, kets)))
    calls = count_calls(monkeypatch, ensembles, "checked_psd")
    ens = md.trine()
    assert calls == [(3, 2, 2)]
    _assert_same_bits(ens, reference)
