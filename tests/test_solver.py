import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindisc as md
from helpers import random_instance, suboptimal_mode_instance
from mindisc.solver import _argmax_quadratic, _coefficients


def test_no_mode_at_orthogonal_optimum(orthogonal_pair, orthogonal_projectors):
    assert md.find_negative_mode(orthogonal_pair, orthogonal_projectors) is None


def test_no_mode_for_single_state(single_state_problem):
    ens, povm = single_state_problem
    assert md.find_negative_mode(ens, povm) is None


def test_trine_uniform_has_negative_mode(trine_ensemble):
    mode = md.find_negative_mode(trine_ensemble, md.uniform_povm(3, 2))
    assert mode is not None
    assert mode.lam > 1e-3
    # eigenpair residual against the witness operator
    g = md.witness_operator(trine_ensemble, md.uniform_povm(3, 2), mode.outcome)
    assert np.linalg.norm(g @ mode.vector + mode.lam * mode.vector) <= 1e-8
    assert np.linalg.norm(mode.vector) == pytest.approx(1.0, abs=1e-12)


def test_perturb_epsilon_one_projective_flip():
    povm = md.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    mode = md.NegativeMode(outcome=1, lam=1.0, vector=np.array([1.0, 0.0], dtype=complex))
    flipped = md.perturb(povm, mode, 1.0)
    assert np.allclose(flipped[0], np.zeros((2, 2)), atol=1e-15)
    assert np.allclose(flipped[1], np.eye(2), atol=1e-15)


def test_perturb_small_epsilon_near_identity(trine_ensemble):
    povm = md.uniform_povm(3, 2)
    mode = md.find_negative_mode(trine_ensemble, povm)
    perturbed = md.perturb(povm, mode, 1e-9)
    for before, after in zip(povm, perturbed):
        assert np.max(np.abs(before - after)) <= 1e-8


def test_perturb_rejects_bad_epsilon(trine_ensemble):
    povm = md.uniform_povm(3, 2)
    mode = md.find_negative_mode(trine_ensemble, povm)
    for epsilon in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            md.perturb(povm, mode, epsilon)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), epsilon=st.floats(1e-6, 1.0))
def test_perturb_preserves_validity(seed, epsilon):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    n = int(rng.integers(2, 5))
    povm = md.random_povm(n, dim, rng)
    vector = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vector /= np.linalg.norm(vector)
    mode = md.NegativeMode(outcome=int(rng.integers(n)), lam=1.0, vector=vector)
    assert isinstance(md.perturb(povm, mode, epsilon), md.Povm)


def test_gain_first_order_coefficient_is_twice_lambda():
    ens, povm, mode = suboptimal_mode_instance(seed=5)
    epsilon = 1e-6
    assert abs(md.gain(ens, povm, mode, epsilon) / epsilon - 2 * mode.lam) <= 1e-6


def test_gain_positive_for_small_steps():
    ens, povm, mode = suboptimal_mode_instance(seed=6)
    for epsilon in (1e-4, 1e-2):
        assert md.gain(ens, povm, mode, epsilon) > 0.0


@pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.5, 1.0])
def test_gain_matches_direct_reevaluation(epsilon):
    for seed in (0, 1, 2, 3, 4):
        ens, povm, mode = suboptimal_mode_instance(seed=seed * 31 + 1)
        direct = md.p_correct(ens, md.perturb(povm, mode, epsilon)) - md.p_correct(ens, povm)
        assert abs(md.gain(ens, povm, mode, epsilon) - direct) <= 1e-10


def test_gain_first_order_law_scaling():
    # |gain/eps - 2 lam| <= C eps with C bounded by the quadratic coefficient
    for seed in (11, 12, 13):
        ens, povm, mode = suboptimal_mode_instance(seed=seed)
        for epsilon in (1e-3, 1e-4, 1e-5):
            assert abs(md.gain(ens, povm, mode, epsilon) / epsilon - 2 * mode.lam) <= 2 * epsilon


def test_linear_coefficient_targets_witnessed_outcome():
    ens, povm, mode = suboptimal_mode_instance(seed=21)
    _, b = _coefficients(
        ens.priors, [s.mat for s in ens.states], list(povm), mode.outcome, mode.vector
    )
    assert b > 0
    assert b == pytest.approx(2 * mode.lam, rel=1e-8)


def test_argmax_quadratic_interior():
    assert _argmax_quadratic(-1.0, 0.6) == pytest.approx(0.3)


def test_argmax_quadratic_boundary():
    assert _argmax_quadratic(0.5, 0.6) == 1.0
    assert _argmax_quadratic(-0.1, 0.6) == 1.0  # vertex at 3.0, clamped


def test_best_epsilon_gains_positive(trine_ensemble):
    povm = md.uniform_povm(3, 2)
    mode = md.find_negative_mode(trine_ensemble, povm)
    epsilon = md.best_epsilon(trine_ensemble, povm, mode)
    assert 0.0 < epsilon <= 1.0
    assert md.gain(trine_ensemble, povm, mode, epsilon) > 0.0


def test_best_epsilon_maximizes_over_grid():
    ens, povm, mode = suboptimal_mode_instance(seed=8)
    star = md.best_epsilon(ens, povm, mode)
    best_gain = md.gain(ens, povm, mode, star)
    for epsilon in np.linspace(0.01, 1.0, 34):
        assert md.gain(ens, povm, mode, float(epsilon)) <= best_gain + 1e-12


def test_solve_orthogonal_pair(orthogonal_pair):
    trace = md.solve(orthogonal_pair)
    assert trace.converged
    assert trace.final_certificate.p_corr == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5, 0.75])
@pytest.mark.parametrize("q", [0.5, 0.3])
def test_solve_pure_pair_matches_helstrom(overlap, q):
    ens = md.pure_pair(overlap, priors=(q, 1 - q))
    _, oracle = md.helstrom_binary(q, ens.states[0], 1 - q, ens.states[1])
    closed_form = 0.5 * (1 + np.sqrt(1 - 4 * q * (1 - q) * overlap**2))
    assert oracle == pytest.approx(closed_form, abs=1e-12)
    trace = md.solve(ens)
    assert trace.converged
    assert trace.final_certificate.p_corr == pytest.approx(oracle, abs=1e-6)


def test_solve_trine(trine_ensemble):
    trace = md.solve(trine_ensemble, config=md.SolverConfig(max_iter=400))
    assert trace.converged
    assert trace.final_certificate.p_corr == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_solve_trace_strictly_increases(trine_ensemble):
    trace = md.solve(trine_ensemble, config=md.SolverConfig(max_iter=400))
    values = [record.p_corr for record in trace.iterations]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_solve_records_describe_steps():
    ens = md.pure_pair(0.5)
    trace = md.solve(ens)
    assert trace.iterations_used >= len(trace.iterations)
    for record in trace.iterations:
        assert record.lam > 0
        assert 0 < record.epsilon <= 1


def test_solve_converged_implies_certified():
    for seed in range(8):
        ens = md.random_mixed(2, 2, seed=seed + 40)
        trace = md.solve(ens)
        if trace.converged:
            assert trace.final_certificate.is_optimal


def test_solve_accepts_explicit_start(trine_ensemble, trine_srm):
    trace = md.solve(trine_ensemble, start=trine_srm)
    assert trace.converged
    assert len(trace.iterations) == 0  # already optimal


def test_solve_is_deterministic():
    ens = md.random_mixed(2, 3, seed=17)
    config = md.SolverConfig(max_iter=200, seed=5)
    first = md.solve(ens, config=config)
    second = md.solve(ens, config=config)
    assert first.final_certificate.p_corr == second.final_certificate.p_corr
    for a, b in zip(first.final_povm, second.final_povm):
        assert np.array_equal(a, b)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        md.SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        md.SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        md.SolverConfig(restarts=-1)


def test_helstrom_identical_states_tie():
    rho = md.validate_density(np.eye(2) / 2)
    povm, value = md.helstrom_binary(0.5, rho, 0.5, rho)
    assert value == pytest.approx(0.5)
    assert np.allclose(povm[0], np.eye(2), atol=1e-12)


def test_helstrom_orthogonal_pure_states():
    povm, value = md.helstrom_binary(
        0.5, md.pure_state([1, 0]), 0.5, md.pure_state([0, 1])
    )
    assert value == pytest.approx(1.0)


def test_helstrom_half_overlap_closed_form():
    ens = md.pure_pair(0.5)
    _, value = md.helstrom_binary(0.5, ens.states[0], 0.5, ens.states[1])
    assert value == pytest.approx(0.5 * (1 + np.sqrt(3) / 2), abs=1e-12)


def test_helstrom_equals_trace_norm_formula():
    for seed in range(10):
        ens = md.random_mixed(3, 2, seed=seed)
        p1, p2 = float(ens.priors[0]), float(ens.priors[1])
        povm, value = md.helstrom_binary(p1, ens.states[0], p2, ens.states[1])
        delta = p1 * ens.states[0].mat - p2 * ens.states[1].mat
        trace_norm = np.abs(np.linalg.eigvalsh(delta)).sum()
        assert value == pytest.approx(0.5 * (1 + trace_norm), abs=1e-12)
        assert value == pytest.approx(md.p_correct(ens, povm), abs=1e-12)


def test_helstrom_output_certifies_optimal():
    ens = md.random_mixed(2, 2, seed=23)
    povm, value = md.helstrom_binary(
        float(ens.priors[0]), ens.states[0], float(ens.priors[1]), ens.states[1]
    )
    cert = md.certify(ens, povm, tol=1e-7)
    assert cert.is_optimal
    assert cert.p_corr == pytest.approx(value, abs=1e-12)


def test_helstrom_rejects_bad_priors():
    rho = md.validate_density(np.eye(2) / 2)
    with pytest.raises(ValueError):
        md.helstrom_binary(0.6, rho, 0.6, rho)


def test_brute_force_orthogonal_pair(orthogonal_pair):
    _, value = md.brute_force(orthogonal_pair, budget=4, seed=0)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_brute_force_agrees_with_helstrom():
    ens = md.pure_pair(0.5)
    _, value = md.brute_force(ens, budget=6, seed=0)
    _, oracle = md.helstrom_binary(0.5, ens.states[0], 0.5, ens.states[1])
    assert abs(value - oracle) <= 1e-6


def test_brute_force_trine(trine_ensemble):
    _, value = md.brute_force(trine_ensemble, budget=6, seed=0)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_brute_force_guard_rails():
    with pytest.raises(ValueError):
        md.brute_force(md.random_mixed(5, 2, seed=0))
    with pytest.raises(ValueError):
        md.brute_force(md.random_mixed(2, 5, seed=0))
    with pytest.raises(ValueError):
        md.brute_force(md.trine(), budget=0)


def test_binary_oracle_agreement_small_batch():
    for seed in range(5):
        ens = md.random_mixed(2, 2, seed=seed + 900)
        trace = md.solve(ens)
        _, oracle = md.helstrom_binary(
            float(ens.priors[0]), ens.states[0], float(ens.priors[1]), ens.states[1]
        )
        assert abs(trace.final_certificate.p_corr - oracle) <= 1e-6
        assert trace.converged


def test_trine_suboptimal_witness_matches_gap(trine_ensemble):
    # uniform POVM on the trine sits 1/3 below the optimum found by the
    # brute-force oracle, and the witness eigenvalue is strictly negative
    _, value = md.brute_force(trine_ensemble, budget=4, seed=2)
    uniform_p = md.p_correct(trine_ensemble, md.uniform_povm(3, 2))
    assert value - uniform_p == pytest.approx(1.0 / 3.0, abs=1e-6)
    mode = md.find_negative_mode(trine_ensemble, md.uniform_povm(3, 2))
    assert mode is not None and mode.lam > 0
