import numpy as np
import pytest

import mindisc as md
from helpers import random_instance
from mindisc.matrices import min_eigenvalue


def test_lagrange_single_state(single_state_problem):
    ens, povm = single_state_problem
    assert np.allclose(md.lagrange_operator(ens, povm), ens.states[0].mat, atol=1e-15)


def test_lagrange_orthogonal_pair(orthogonal_pair, orthogonal_projectors):
    gamma = md.lagrange_operator(orthogonal_pair, orthogonal_projectors)
    assert np.allclose(gamma, np.eye(2) / 2, atol=1e-12)


def test_lagrange_trine_srm(trine_ensemble, trine_srm):
    gamma = md.lagrange_operator(trine_ensemble, trine_srm)
    assert md.hermiticity_residual(gamma) <= 1e-12
    assert np.trace(gamma).real == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_lagrange_trace_equals_p_correct_on_random_pairs():
    for seed in range(25):
        ens, povm = random_instance(seed, dim=2 + seed % 3, n=2 + seed % 3)
        gamma = md.lagrange_operator(ens, povm)
        assert abs(np.trace(gamma).real - md.p_correct(ens, povm)) <= 1e-10


def test_lagrange_generally_not_hermitian():
    ens, povm = random_instance(1, dim=3, n=3)
    assert md.hermiticity_residual(md.lagrange_operator(ens, povm)) > 1e-6


def test_witness_single_state_vanishes(single_state_problem):
    ens, povm = single_state_problem
    assert np.max(np.abs(md.witness_operator(ens, povm, 0))) <= 1e-15


def test_witness_orthogonal_pair_is_other_state(orthogonal_pair, orthogonal_projectors):
    for j, k in ((0, 1), (1, 0)):
        witness = md.witness_operator(orthogonal_pair, orthogonal_projectors, j)
        assert np.allclose(witness, 0.5 * orthogonal_pair.states[k].mat, atol=1e-12)
        assert np.linalg.eigvalsh(witness)[0] == pytest.approx(0.0, abs=1e-12)


def test_witness_negative_for_suboptimal_trine(trine_ensemble):
    # the uniform POVM scores 1/3 < 2/3, so some witness must dip negative
    uniform = md.uniform_povm(3, 2)
    minima = [
        min_eigenvalue(md.witness_operator(trine_ensemble, uniform, j))[0]
        for j in range(3)
    ]
    assert min(minima) < -1e-3


def test_witness_index_check(trine_ensemble, trine_srm):
    with pytest.raises(IndexError):
        md.witness_operator(trine_ensemble, trine_srm, 3)


def test_witness_trace_sum_vanishes_for_any_povm():
    # sum_j tr(G_j pi_j) = 0 follows from completeness alone
    for seed in range(25):
        ens, povm = random_instance(seed + 500, dim=2 + seed % 3, n=2 + seed % 3)
        total = sum(
            np.trace(md.witness_operator(ens, povm, j) @ povm[j]).real
            for j in range(len(ens))
        )
        assert abs(total) <= 1e-9


def test_certify_orthogonal_pair(orthogonal_pair, orthogonal_projectors):
    cert = md.certify(orthogonal_pair, orthogonal_projectors, tol=1e-8)
    assert cert.is_optimal
    assert cert.witness is None
    assert cert.p_corr == pytest.approx(1.0)
    assert cert.lagrange_herm_residual <= 1e-10
    assert cert.pairwise_equality_residual <= 1e-10
    assert cert.zero_product_residual <= 1e-10


def test_certify_trine_srm_optimal(trine_ensemble, trine_srm):
    cert = md.certify(trine_ensemble, trine_srm, tol=1e-8)
    assert cert.is_optimal
    assert min(cert.witness_min_eigenvalues) >= -1e-8


def test_certify_trine_uniform_not_optimal(trine_ensemble):
    cert = md.certify(trine_ensemble, md.uniform_povm(3, 2), tol=1e-8)
    assert not cert.is_optimal
    assert cert.witness is not None
    assert cert.witness.eigenvalue < -1e-3
    assert cert.witness.eigenvalue == pytest.approx(min(cert.witness_min_eigenvalues))
    # the witness is a genuine eigenpair of its witness operator
    g = md.witness_operator(trine_ensemble, md.uniform_povm(3, 2), cert.witness.outcome)
    residual = g @ cert.witness.vector - cert.witness.eigenvalue * cert.witness.vector
    assert np.linalg.norm(residual) <= 1e-8


def test_certificate_p_err_complement(trine_ensemble, trine_srm):
    cert = md.certify(trine_ensemble, trine_srm)
    assert cert.p_err == 1.0 - cert.p_corr


def test_certify_rejects_bad_tolerance(trine_ensemble, trine_srm):
    with pytest.raises(ValueError):
        md.certify(trine_ensemble, trine_srm, tol=0.0)


def test_pairwise_residual_single_state(single_state_problem):
    ens, povm = single_state_problem
    assert md.pairwise_equality_residual(ens, povm) == 0.0


def test_pairwise_residual_orthogonal_pair(orthogonal_pair, orthogonal_projectors):
    assert md.pairwise_equality_residual(orthogonal_pair, orthogonal_projectors) <= 1e-12


def test_pairwise_residual_trine_srm(trine_ensemble, trine_srm):
    assert md.pairwise_equality_residual(trine_ensemble, trine_srm) <= 1e-10


def test_zero_product_residual_single_state(single_state_problem):
    ens, povm = single_state_problem
    assert md.zero_product_residual(ens, povm) <= 1e-15


def test_zero_product_residual_orthogonal_pair(orthogonal_pair, orthogonal_projectors):
    assert md.zero_product_residual(orthogonal_pair, orthogonal_projectors) <= 1e-12


def test_zero_product_residual_positive_for_suboptimal(trine_ensemble):
    assert md.zero_product_residual(trine_ensemble, md.uniform_povm(3, 2)) > 1e-3


def test_equality_conditions_follow_at_optima(trine_ensemble, trine_srm,
                                              orthogonal_pair, orthogonal_projectors):
    for ens, povm in ((trine_ensemble, trine_srm), (orthogonal_pair, orthogonal_projectors)):
        cert = md.certify(ens, povm, tol=1e-7)
        assert cert.is_optimal
        assert cert.pairwise_equality_residual <= 10 * cert.tolerance
        assert cert.zero_product_residual <= 10 * cert.tolerance


def test_pairwise_residual_recovered_from_zero_products(trine_ensemble, trine_srm):
    # pre-multiplying (sym(Gamma) - p_k rho_k) pi_k by pi_j and subtracting
    # pi_j (sym(Gamma) - p_j rho_j) post-multiplied by pi_k reproduces the
    # pairwise equality residual exactly
    from mindisc.matrices import hermitize

    for ens, povm in (
        (trine_ensemble, trine_srm),
        (trine_ensemble, md.uniform_povm(3, 2)),
        random_instance(77, dim=3, n=3),
    ):
        symmetric = hermitize(md.lagrange_operator(ens, povm))
        right = [(symmetric - ens.weighted(k)) @ povm[k] for k in range(len(ens))]
        left = [povm[j] @ (symmetric - ens.weighted(j)) for j in range(len(ens))]
        worst = 0.0
        for j in range(len(ens)):
            for k in range(len(ens)):
                reconstructed = povm[j] @ right[k] - left[j] @ povm[k]
                worst = max(worst, float(np.linalg.norm(reconstructed)))
        assert worst == pytest.approx(md.pairwise_equality_residual(ens, povm), abs=1e-12)

    cert = md.certify(trine_ensemble, trine_srm, tol=1e-7)
    assert cert.is_optimal and cert.pairwise_equality_residual <= cert.tolerance


def test_sufficiency_certified_beats_challengers(trine_ensemble, trine_srm):
    cert = md.certify(trine_ensemble, trine_srm, tol=1e-7)
    assert cert.is_optimal
    rng = np.random.default_rng(123)
    n, dim = len(trine_ensemble), trine_ensemble.dim
    slack = n * cert.tolerance * dim
    for _ in range(100):
        challenger = md.random_povm(n, dim, rng)
        assert md.p_correct(trine_ensemble, challenger) <= cert.p_corr + slack


def test_strict_mode_still_accepts_exact_optima(trine_ensemble, trine_srm):
    assert md.certify(trine_ensemble, trine_srm, strict=True).is_optimal
    assert not md.certify(trine_ensemble, md.uniform_povm(3, 2), strict=True).is_optimal


def test_verdict_follows_tolerance_exactly(trine_ensemble):
    # uniform POVM on the trine: most negative witness eigenvalue is -1/6
    # and its Lagrange operator is Hermitian, so the verdict flips as the
    # tolerance crosses 1/6
    uniform = md.uniform_povm(3, 2)
    tight = md.certify(trine_ensemble, uniform, tol=0.16)
    loose = md.certify(trine_ensemble, uniform, tol=0.17)
    assert min(tight.witness_min_eigenvalues) == pytest.approx(-1.0 / 6.0, abs=1e-12)
    assert tight.lagrange_herm_residual <= 1e-12
    assert not tight.is_optimal
    assert loose.is_optimal


def _consistency_instances():
    rng = np.random.default_rng(2024)
    kets = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    pure = tuple(md.pure_state(k) for k in kets)
    yield random_instance(5, dim=3, n=4)
    yield md.Ensemble(np.full(3, 1 / 3), pure), md.random_povm(3, 4, rng)
    yield md.Ensemble([0.6, 0.4, 0.0], pure), md.random_povm(3, 4, rng)
    yield md.Ensemble([1.0], (md.random_mixed(3, 1, seed=9).states[0],)), md.uniform_povm(1, 3)
    scalar = md.validate_density([[1.0]])
    yield md.Ensemble([0.5, 0.3, 0.2], (scalar,) * 3), md.random_povm(3, 1, rng)


@pytest.mark.parametrize("case", range(5))
def test_certify_agrees_with_public_functions(case):
    # certify, find_negative_mode and the public residuals share one set of
    # kernels, so their values agree exactly, not just within a tolerance
    ens, povm = list(_consistency_instances())[case]
    tol = 1e-7
    cert = md.certify(ens, povm, tol=tol)
    per_outcome = [min_eigenvalue(md.witness_operator(ens, povm, j)) for j in range(len(ens))]
    assert cert.witness_min_eigenvalues == tuple(value for value, _ in per_outcome)
    assert cert.pairwise_equality_residual == md.pairwise_equality_residual(ens, povm)
    assert cert.zero_product_residual == md.zero_product_residual(ens, povm)
    assert cert.lagrange_herm_residual == md.hermiticity_residual(md.lagrange_operator(ens, povm))

    mode = md.find_negative_mode(ens, povm, tol)
    if mode is None:
        assert min(cert.witness_min_eigenvalues) >= -tol
    else:
        assert cert.witness is not None
        assert cert.witness.outcome == mode.outcome
        assert cert.witness.eigenvalue == -mode.lam
        assert np.array_equal(cert.witness.vector, mode.vector)
        assert np.array_equal(cert.witness.vector, per_outcome[mode.outcome][1])
