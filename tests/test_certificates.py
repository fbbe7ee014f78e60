import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mindisc as md
import mindisc.certificates as certificates
from helpers import count_eigh_calls, random_instance
from mindisc.matrices import min_eigenvalue
from mindisc.povm import _gamma


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


@pytest.mark.parametrize("seed", range(4))
def test_hermiticity_residual_is_bit_identical_to_the_norm_formula(seed):
    # non-contiguous inputs: the norm sums their entries in memory order
    rng = np.random.default_rng(seed)
    big = (rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))) * 10.0 ** (seed - 2)
    for m in (big, big.T, big[1:5, 2:6], big[::2, ::2], big.T[::-2, 1::2][:3, :3], big[::-1, ::-1]):
        expected = float(np.linalg.norm(m - m.conj().T) / max(1.0, np.linalg.norm(m)))
        assert md.hermiticity_residual(m).hex() == expected.hex()


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 4, 4), (5, 1, 1), (2, 2, 2), (16, 8, 8), (3, 32, 32)])
def test_max_norm_is_bit_identical_to_the_norm_formula(shape):
    rng = np.random.default_rng(sum(shape))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for m in (stack, stack * 1e-160, stack.swapaxes(1, 2), stack[:, ::-1]):
        expected = float(np.linalg.norm(m, axis=(1, 2)).max())
        assert certificates._max_norm(m).hex() == expected.hex()


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


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_certify_rejects_non_finite_tolerance(trine_ensemble, trine_srm, tol):
    with pytest.raises(ValueError, match="finite"):
        md.certify(trine_ensemble, trine_srm, tol=tol)


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
    witnesses = [md.witness_operator(ens, povm, j) for j in range(len(ens))]
    # certify reads eigenvalues from eigvalsh, whose rounding differs from eigh's
    assert cert.witness_min_eigenvalues == tuple(np.linalg.eigvalsh(g)[0] for g in witnesses)
    assert cert.pairwise_equality_residual == md.pairwise_equality_residual(ens, povm)
    assert cert.zero_product_residual == md.zero_product_residual(ens, povm)
    assert cert.lagrange_herm_residual == md.hermiticity_residual(md.lagrange_operator(ens, povm))
    assert cert.p_corr == md.p_correct(ens, povm)

    mode = md.find_negative_mode(ens, povm, tol)
    if mode is None:
        assert min(cert.witness_min_eigenvalues) >= -tol
    else:
        assert cert.witness is not None
        assert cert.witness.outcome == mode.outcome
        assert cert.witness.eigenvalue == mode.eigenvalue
        assert np.array_equal(cert.witness.vector, mode.vector)
        assert np.array_equal(cert.witness.vector, min_eigenvalue(witnesses[mode.outcome])[1])


def test_negative_mode_is_the_certificate_witness():
    tol = 1e-7
    negative = 0
    for ens, povm in _consistency_instances():
        cert = md.certify(ens, povm, tol=tol)
        if cert.is_optimal:
            continue
        assert cert.witness.eigenvalue == min(cert.witness_min_eigenvalues)
        mode = md.find_negative_mode(ens, povm, tol)
        if mode is None:
            continue
        negative += 1
        assert (mode.outcome, mode.eigenvalue) == (cert.witness.outcome, cert.witness.eigenvalue)
        assert mode.vector.tobytes() == cert.witness.vector.tobytes()
    assert negative == 4


def test_certify_computes_one_eigenvector_set_only_on_a_not_optimal_verdict(
    monkeypatch, trine_ensemble, trine_srm
):
    ensembles = [md.random_mixed(8, 8, seed) for seed in range(3)]
    povms = [md.random_povm(8, 8, np.random.default_rng(seed)) for seed in range(3)]
    calls = count_eigh_calls(monkeypatch, certificates)
    assert md.certify(trine_ensemble, trine_srm).is_optimal
    assert calls == []
    for ens, povm in zip(ensembles, povms):
        assert not md.certify(ens, povm).is_optimal
    assert calls == [(8, 8)] * 3


def _expected_gap_bound(ens, povm) -> float:
    """min(d mu, sum_j tr neg(G_j)) from each witness operator's spectrum."""
    values = np.array(
        [np.linalg.eigvalsh(md.witness_operator(ens, povm, j)) for j in range(len(ens))]
    )
    return min(ens.dim * max(0.0, -values[:, 0].min()), np.maximum(-values, 0.0).sum())


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_gap_bound_bounds_distance_to_binary_optimum(dim):
    # weak duality: P_opt - P_corr <= min(d mu, sum_j tr neg(G_j)) for any
    # valid POVM; Helstrom gives P_opt for two states
    rng = np.random.default_rng(4242 + dim)
    ensembles = [md.pure_pair(0.5, priors=(0.3, 0.7))]
    ensembles += [md.random_mixed(dim, 2, seed=seed) for seed in range(dim, dim + 10)]
    for ens in ensembles:
        _, helstrom_p = md.helstrom_binary(
            float(ens.priors[0]), ens.states[0], float(ens.priors[1]), ens.states[1]
        )
        for _ in range(20):
            povm = md.random_povm(2, ens.dim, rng)
            cert = md.certify(ens, povm)
            assert cert.gap_bound == pytest.approx(_expected_gap_bound(ens, povm), rel=1e-12)
            assert cert.gap_bound <= ens.dim * max(0.0, -min(cert.witness_min_eigenvalues))
            assert helstrom_p - cert.p_corr <= cert.gap_bound + 1e-12


def _pairwise_reference(ens, povm) -> float:
    """The defining formula: max over ordered pairs of ||pi_j (W_j - W_k) pi_k||_F,
    one (n, d, d) stack of products per row j."""
    weighted, elements = ens.weighted_states, povm.elements
    return max(
        float(np.linalg.norm(e @ (w - weighted) @ elements, axis=(1, 2)).max())
        for w, e in zip(weighted, elements)
    )


def _with_zero_prior(ens: md.Ensemble, k: int) -> md.Ensemble:
    priors = np.array(ens.priors)
    priors[k] = 0.0
    return md.Ensemble(priors / priors.sum(), ens.states)


def _reference_cases(dim: int, n: int):
    ens = md.random_mixed(dim, n, seed=10 * dim + n)
    rng = np.random.default_rng(dim * n)
    yield ens, md.square_root_measurement(ens)
    yield ens, md.random_povm(n, dim, rng)
    yield ens, md.solve(ens).final_povm
    if n >= 3:
        zero = _with_zero_prior(ens, 1)
        yield zero, md.square_root_measurement(zero)
        yield zero, md.random_povm(n, dim, rng)
        yield zero, md.solve(zero).final_povm


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("dim", [1, 2, 4, 32])
def test_pairwise_residual_matches_reference_formula(dim, n):
    for ens, povm in _reference_cases(dim, n):
        value = md.pairwise_equality_residual(ens, povm)
        if n == 1:
            assert value == 0.0
        assert value == pytest.approx(_pairwise_reference(ens, povm), rel=1e-12, abs=1e-15)
        assert md.certify(ens, povm).pairwise_equality_residual == value


@pytest.mark.parametrize("dim, n", [(2, 3), (4, 8), (32, 16)])
def test_pairwise_residual_is_invariant_under_relabelling(dim, n):
    ens = _with_zero_prior(md.random_mixed(dim, n, seed=dim + n), n - 1)
    order = np.random.default_rng(n).permutation(n)
    for povm in (md.square_root_measurement(ens), md.random_povm(n, dim, np.random.default_rng(dim))):
        value = md.pairwise_equality_residual(ens, povm)
        permuted = md.pairwise_equality_residual(
            md.Ensemble(ens.priors[order], tuple(ens.states[i] for i in order)),
            md.validate_povm(povm.elements[order]),
        )
        assert value > 0.0
        assert permuted == pytest.approx(value, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("dim, n", [(1, 8), (2, 3), (4, 8), (16, 4), (32, 16)])
def test_p_correct_is_the_real_trace_of_the_lagrange_operator_bit_for_bit(dim, n):
    ens = md.random_mixed(dim, n, seed=1)
    for povm in (md.square_root_measurement(ens), md.random_povm(n, dim, rng=2)):
        p = md.p_correct(ens, povm)
        assert p.hex() == float(md.lagrange_operator(ens, povm).trace().real).hex()
        assert p.hex() == md.certify(ens, povm).p_corr.hex()


@pytest.mark.parametrize("tol", ["1e-7", True, 1e-7 + 0j, None])
def test_certify_rejects_a_tolerance_that_is_not_a_real_number(trine_ensemble, trine_srm, tol):
    with pytest.raises(TypeError, match="tolerance must be a real number"):
        md.certify(trine_ensemble, trine_srm, tol=tol)


def _near_optimal_povm(kind: str, dim: int, n: int, seed: int) -> tuple[md.Ensemble, md.Povm]:
    """An ensemble with a measurement at or near its optimum: Helstrom's for
    a pair, the square-root measurement for the trine, a solve's for more
    states."""
    if kind == "pair":
        ens = md.random_mixed(dim, 2, seed)
        return ens, md.helstrom_binary(ens.priors[0], ens.states[0], ens.priors[1], ens.states[1])[0]
    if kind == "trine":
        ens = md.trine()
        return ens, md.square_root_measurement(ens)
    ens = md.random_mixed(dim, n, seed)
    return ens, md.solve(ens, None, md.SolverConfig(tol=1e-12, max_iter=300)).final_povm


@given(
    kind=st.sampled_from(["pair", "trine", "solved"]),
    dim=st.integers(1, 5),
    n=st.integers(3, 5),
    seed=st.integers(0, 2**32 - 1),
    weight=st.floats(1e-16, 1.0),
    scale=st.integers(-16, 0),
    placed=st.booleans(),
    tol_exponent=st.floats(-14.0, -1.0),
    offset=st.floats(-1e-9, 1e-9),
)
def test_a_screen_that_fails_leaves_the_lowest_witness_below_minus_tol(
    kind, dim, n, seed, weight, scale, placed, tol_exponent, offset
):
    # a mix of a near-optimal measurement with a random one, at weights
    # spread over 32 decades up to 1, gives witness minima from rounding
    # level to order one; tol is drawn down to 1e-14, or placed within
    # 1e-9 tol of the lowest witness eigenvalue, on either side
    ens, optimum = _near_optimal_povm(kind, dim, n, seed)
    mix = min(1.0, weight * 10.0**scale)
    other = md.random_povm(len(ens), ens.dim, seed)
    elements = md.validate_povm((1 - mix) * optimum.elements + mix * other.elements).elements
    weighted = ens.weighted_states
    products = weighted @ elements
    gamma = _gamma(products)[0]
    lowest = float(certificates._witness_scan(gamma, weighted)[1][:, 0].min())
    tol = 10.0**tol_exponent
    if placed and lowest <= -1e-14:
        tol = -lowest * (1.0 + offset)
    if not certificates._passes_trace_test(gamma, products, elements, tol):
        assert lowest < -tol
    if not certificates._passes_cholesky_test(gamma, weighted, tol):
        assert lowest < -tol
