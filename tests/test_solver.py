import dataclasses
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindisc as md
import mindisc.certificates as certificates
import mindisc.solver as solver
from helpers import (
    _perturbed_qubits,
    _zero_prior_rank_two,
    count_calls,
    count_eigh_calls,
    random_instance,
    suboptimal_mode_instance,
)
from mindisc.povm import SUPPORT_FLOOR, _completed_povm, _inv_sqrt_on_support
from mindisc.solver import (
    ANDERSON_DEPTH,
    _AndersonHistory,
    _argmax_quadratic,
    _factor_map,
    _hermitian_sqrt,
    _kernel_is_unseen,
)


def test_no_mode_at_orthogonal_optimum(orthogonal_pair, orthogonal_projectors):
    assert md.find_negative_mode(orthogonal_pair, orthogonal_projectors) is None


def test_no_mode_for_single_state(single_state_problem):
    ens, povm = single_state_problem
    assert md.find_negative_mode(ens, povm) is None


def test_trine_uniform_has_negative_mode(trine_ensemble):
    mode = md.find_negative_mode(trine_ensemble, md.uniform_povm(3, 2))
    assert mode is not None
    assert -mode.eigenvalue > 1e-3
    # eigenpair residual against the witness operator
    g = md.witness_operator(trine_ensemble, md.uniform_povm(3, 2), mode.outcome)
    assert np.linalg.norm(g @ mode.vector - mode.eigenvalue * mode.vector) <= 1e-8
    assert np.linalg.norm(mode.vector) == pytest.approx(1.0, abs=1e-12)


def test_perturb_epsilon_one_projective_flip():
    povm = md.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    mode = md.Witness(outcome=1, eigenvalue=-1.0, vector=np.array([1.0, 0.0], dtype=complex))
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


@pytest.mark.parametrize("epsilon", [True, np.True_, False, None, "0.5"])
@pytest.mark.parametrize("operation", ["perturb", "gain"])
def test_epsilon_that_is_not_a_real_number_is_a_type_error(trine_ensemble, operation, epsilon):
    # a bool is not a step size, as it is no tolerance or count: True is not epsilon = 1
    povm = md.uniform_povm(3, 2)
    mode = md.find_negative_mode(trine_ensemble, povm)
    calls = {
        "perturb": lambda: md.perturb(povm, mode, epsilon),
        "gain": lambda: md.gain(trine_ensemble, povm, mode, epsilon),
    }
    with pytest.raises(TypeError, match="epsilon must be a real number"):
        calls[operation]()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), epsilon=st.floats(1e-6, 1.0))
def test_perturb_preserves_validity(seed, epsilon):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    n = int(rng.integers(2, 5))
    povm = md.random_povm(n, dim, rng)
    vector = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vector /= np.linalg.norm(vector)
    mode = md.Witness(outcome=int(rng.integers(n)), eigenvalue=-1.0, vector=vector)
    assert isinstance(md.perturb(povm, mode, epsilon), md.Povm)


def test_gain_first_order_coefficient_is_twice_lambda():
    ens, povm, mode = suboptimal_mode_instance(seed=5)
    epsilon = 1e-6
    assert abs(md.gain(ens, povm, mode, epsilon) / epsilon + 2 * mode.eigenvalue) <= 1e-6


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
            assert abs(md.gain(ens, povm, mode, epsilon) / epsilon + 2 * mode.eigenvalue) <= 2 * epsilon


def test_linear_coefficient_targets_witnessed_outcome():
    ens, povm, mode = suboptimal_mode_instance(seed=21)
    _, b = solver._block_coefficients(
        ens.weighted_states, povm.elements, mode.outcome, mode.vector[:, None]
    )
    assert b > 0
    assert b == pytest.approx(-2 * mode.eigenvalue, rel=1e-8)


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


def test_best_epsilon_rejects_directions_that_do_not_ascend():
    # random modes on random measurements: about half point downhill to
    # first order, where no step size in (0, 1] is an argmax
    ens = md.random_mixed(3, 3, seed=0)
    rng = np.random.default_rng(0)
    rejected = 0
    for _ in range(200):
        povm = md.random_povm(3, 3, rng)
        vector = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mode = md.Witness(
            outcome=int(rng.integers(3)), eigenvalue=-1.0, vector=vector / np.linalg.norm(vector)
        )
        _, b = solver._block_coefficients(
            ens.weighted_states, povm.elements, mode.outcome, mode.vector[:, None]
        )
        if b <= 0:
            rejected += 1
            with pytest.raises(ValueError, match="not an ascent direction"):
                md.best_epsilon(ens, povm, mode)
        else:
            epsilon = md.best_epsilon(ens, povm, mode)
            assert 0.0 < epsilon <= 1.0
            assert md.gain(ens, povm, mode, epsilon) > 0.0
            md.perturb(povm, mode, epsilon)
    assert rejected > 0


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
    trace = md.solve(trine_ensemble, config=md.SolverConfig(max_iter=2400))
    assert trace.converged
    assert trace.final_certificate.p_corr == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_solve_trace_strictly_increases(trine_ensemble):
    trace = md.solve(trine_ensemble, config=md.SolverConfig(max_iter=2400))
    values = [record.p_corr for record in trace.iterations]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_solve_records_describe_steps():
    # a solve of three or more states takes fixed-point steps alone, from
    # the default start and from the mixed empty one
    for ens in (md.trine(), md.random_mixed(4, 5, 3)):
        for start in (None, _empty_start(ens)):
            trace = md.solve(ens, start)
            assert trace.converged and trace.iterations
            assert trace.iterations_used == len(trace.iterations)
            for record in trace.iterations:
                assert record.engine == "fixed_point"


def test_last_record_matches_final_certificate():
    # both kinds of step and the certificate compute P_corr as Re tr Gamma,
    # so the last record, a fixed-point or (for n = 2) "helstrom" one, holds
    # the certified value to the bit
    for seed in range(40):
        rng = np.random.default_rng(seed)
        dim, n = (int(k) for k in rng.integers(2, 9, size=2))
        config = md.SolverConfig(max_iter=100)
        trace = md.solve(md.random_mixed(dim, n, seed), config=config)
        if trace.iterations:
            assert trace.iterations[-1].p_corr == trace.final_certificate.p_corr


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
    config = md.SolverConfig(max_iter=1200)
    first = md.solve(ens, config=config)
    second = md.solve(ens, config=config)
    assert first.final_certificate.p_corr == second.final_certificate.p_corr
    for a, b in zip(first.final_povm, second.final_povm):
        assert np.array_equal(a, b)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        md.SolverConfig(tol=0.0)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        md.SolverConfig(max_iter=0)


@pytest.mark.parametrize(
    "field, value", [("max_iter", 2.5), ("max_iter", "10"), ("max_iter", True)]
)
def test_solver_config_rejects_a_budget_that_is_not_an_integer(field, value):
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        md.SolverConfig(**{field: value})


def test_solver_config_default_budget_is_sixty_thousand_steps():
    assert md.SolverConfig().max_iter == 60_000


@pytest.mark.parametrize("field", ["restarts", "seed"])
def test_solver_config_has_no_restarts_or_seed(field):
    with pytest.raises(TypeError):
        md.SolverConfig(**{field: 0})


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_solver_config_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError, match="finite"):
        md.SolverConfig(tol=tol)


@pytest.mark.parametrize("tol", ["1e-7", True, 1e-7 + 0j, None])
def test_solver_config_rejects_a_tol_that_is_not_a_real_number(tol):
    with pytest.raises(TypeError, match="tolerance must be a real number"):
        md.SolverConfig(tol=tol)


@pytest.mark.parametrize("config", [{"tol": 1e-7}, 1e-7, "default"])
def test_solve_rejects_a_config_that_is_not_a_solver_config(trine_ensemble, config):
    with pytest.raises(TypeError, match="expected a SolverConfig, got"):
        md.solve(trine_ensemble, None, config)


def test_helstrom_identical_states_tie():
    rho = md.validate_density(np.eye(2) / 2)
    povm, value = md.helstrom_binary(0.5, rho, 0.5, rho)
    assert value == pytest.approx(0.5)
    assert np.allclose(povm[0], np.eye(2), atol=1e-12)


@pytest.mark.parametrize("priors", [(np.nan, 0.5), (0.5, np.nan), (np.inf, -np.inf)])
def test_helstrom_rejects_non_finite_priors(priors):
    with pytest.raises(ValueError, match="finite"):
        md.helstrom_binary(priors[0], md.pure_state([1, 0]), priors[1], md.pure_state([0, 1]))


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


def test_helstrom_rejects_negative_priors():
    # they sum to one, but are no probability distribution
    with pytest.raises(ValueError, match="nonnegative"):
        md.helstrom_binary(-0.5, md.pure_state([1, 0]), 1.5, md.pure_state([0, 1]))


def test_helstrom_rejects_bad_priors():
    rho = md.validate_density(np.eye(2) / 2)
    with pytest.raises(ValueError):
        md.helstrom_binary(0.6, rho, 0.6, rho)


def test_helstrom_rejects_states_of_different_dimensions():
    with pytest.raises(ValueError, match="dimensions"):
        md.helstrom_binary(0.5, md.pure_state([1, 0]), 0.5, md.pure_state([1, 0, 0]))


def _helstrom_reference(p1, rho1, p2, rho2):
    """Reference: the closed form on the raw priors and states, with no Ensemble."""
    delta = p1 * rho1.mat - p2 * rho2.mat
    spectrum = md.spectral_decompose(delta)
    vs = spectrum.eigenvectors[:, spectrum.eigenvalues >= 0.0]
    first = md.hermitize(vs @ vs.conj().T)
    second = md.hermitize(np.eye(rho1.dim) - first)
    return md.validate_povm([first, second]), p2 + float(np.trace(delta @ first).real)


@pytest.mark.parametrize("seed", [1, 3, 7919, 11, 2024])
def test_helstrom_is_bit_identical_to_the_reference_on_benchmark_pairs(seed):
    # the binary ensembles of the quick-certify benchmark workload, with
    # more dimensions, and real diagonal pairs whose Delta has exact zeros
    pairs = [md.pure_pair(c, p) for c in (0.0, 0.25, 0.5, 0.75, 0.9)
             for p in ((0.5, 0.5), (0.3, 0.7))]
    dims = (1, 2, 3, 4, 5, 8, 16, 32)
    rng = np.random.default_rng(seed)
    seeds = rng.integers(2**31, size=len(dims))
    pairs += [md.random_mixed(d, 2, int(s)) for d, s in zip(dims, seeds)]
    for d in dims[:5]:
        states = tuple(md.validate_density(np.diag(rng.dirichlet(np.ones(d)))) for _ in range(2))
        pairs += [md.Ensemble((0.4, 0.6), states), md.Ensemble((0.5, 0.5), states[:1] * 2)]
    for ens in pairs:
        args = (ens.priors[0], ens.states[0], ens.priors[1], ens.states[1])
        povm, value = md.helstrom_binary(*args)
        ref_povm, ref_value = _helstrom_reference(*args)
        assert povm.elements.tobytes() == ref_povm.elements.tobytes()
        assert value == ref_value


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
    with pytest.raises(ValueError, match="budget must be at least 1"):
        md.brute_force(md.trine(), budget=0)


def test_brute_force_keeps_its_other_starts_when_the_srm_raises(monkeypatch):
    # the SRM's completion can miss the identity on an ill-conditioned S;
    # brute_force then solves from the uniform POVM and its random starts
    def incomplete(ens):
        raise md.IncompleteSumError(1.6e-9)

    starts = []
    real_solve = solver.solve
    monkeypatch.setattr(solver, "square_root_measurement", incomplete)
    monkeypatch.setattr(solver, "solve", lambda ens, start, config: starts.append(start)
                        or real_solve(ens, start, config))
    _, value = md.brute_force(md.trine(), budget=2, seed=0)
    rng = np.random.default_rng(0)
    expected = [md.uniform_povm(3, 2)] + [md.random_povm(3, 2, rng) for _ in range(2)]
    assert [p.elements.tobytes() for p in starts] == [p.elements.tobytes() for p in expected]
    assert value == pytest.approx(2.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize("budget", [True, 2.5, "3"])
def test_brute_force_rejects_a_budget_that_is_not_an_integer(monkeypatch, budget):
    # rejected before any start is built
    monkeypatch.setattr(solver, "square_root_measurement", None)
    with pytest.raises(TypeError, match="budget must be an integer"):
        md.brute_force(md.trine(), budget=budget)


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
    assert mode is not None and mode.eigenvalue < 0


def _pure_ensemble(seed: int, dim: int, priors) -> md.Ensemble:
    rng = np.random.default_rng(seed)
    kets = rng.standard_normal((len(priors), dim)) + 1j * rng.standard_normal((len(priors), dim))
    return md.Ensemble(np.asarray(priors, dtype=float), tuple(md.pure_state(k) for k in kets))


@pytest.mark.parametrize(
    "ens",
    [
        md.random_mixed(2, 3, seed=1),
        md.random_mixed(3, 3, seed=2),
        md.random_mixed(4, 8, seed=3),
        md.random_mixed(8, 8, seed=4),
        _pure_ensemble(5, 4, [1 / 6] * 6),
        _pure_ensemble(6, 3, [1 / 3, 1 / 3, 1 / 3, 0.0]),
    ],
    ids=["mixed-2x3", "mixed-3x3", "mixed-4x8", "mixed-8x8", "pure-4x6", "zero-prior-3x4"],
)
def test_default_solve_certifies_generic_ensembles(ens):
    trace = md.solve(ens)
    assert trace.converged
    assert md.certify(ens, trace.final_povm).is_optimal
    # three or more states run the fixed-point engine alone
    assert {record.engine for record in trace.iterations} == {"fixed_point"}


@pytest.mark.parametrize(
    "ens",
    [md.pure_pair(0.5), md.pure_pair(0.9, priors=(0.3, 0.7))]
    + [md.random_mixed(d, 2, seed=d) for d in (2, 3, 4, 8, 16)]
    + [md.random_mixed(d, 2, 100 * d + s) for d in (2, 3, 4, 8, 16, 32) for s in range(4)]
    + [md.pure_pair(c, p) for c in (0.0, 0.25, 0.5, 0.75, 0.9) for p in ((0.5, 0.5), (0.3, 0.7))],
)
def test_binary_solves_take_helstroms_measurement_from_any_start(ens):
    # a start that certifies takes no step; any other takes one step to the
    # POVM of helstrom_binary, bit for bit, whose certificate is optimal
    helstrom, _ = md.helstrom_binary(ens.priors[0], ens.states[0], ens.priors[1], ens.states[1])
    starts = (None, md.square_root_measurement(ens), md.random_povm(2, ens.dim, 0), _empty_start(ens))
    for start in starts:
        trace = md.solve(ens, start)
        assert trace.converged
        assert trace.iterations_used == len(trace.iterations) <= 1
        if trace.iterations:
            (record,) = trace.iterations
            assert record.engine == "helstrom"
            assert record.p_corr == trace.final_certificate.p_corr
            assert trace.final_povm.elements.tobytes() == helstrom.elements.tobytes()
        else:
            assert trace.final_povm.elements.tobytes() == start.elements.tobytes()


def test_trine_srm_is_a_fixed_point_of_the_fixed_point_step(trine_ensemble, trine_srm):
    weighted = trine_ensemble.weighted_states
    stepped = _completed_povm(weighted @ trine_srm.elements @ weighted)[0]
    assert np.max(np.abs(stepped - trine_srm.elements)) <= 1e-12


def test_fixed_point_step_gives_a_valid_hermitian_povm():
    for seed in range(10):
        ens, povm = random_instance(seed, 3, 4)
        weighted = ens.weighted_states
        stepped = _completed_povm(weighted @ povm.elements @ weighted)[0]
        # exactly Hermitian, so validation leaves every bit in place
        assert np.array_equal(stepped, stepped.conj().swapaxes(1, 2))
        assert np.array_equal(md.validate_povm(stepped).elements, stepped)


def test_capped_attempt_continues_from_its_endpoint():
    ens = md.random_mixed(8, 8, seed=1)
    trace = md.solve(ens, config=md.SolverConfig(max_iter=240))
    assert trace.converged
    # one start: the returned run holds every step taken
    assert len(trace.iterations) == trace.iterations_used
    values = [record.p_corr for record in trace.iterations]
    assert all(b > a for a, b in zip(values, values[1:]))
    # a run capped at k steps takes the first k steps of the uncapped one
    steps = len(values)
    for k in (1, steps // 2, steps - 1):
        capped = md.solve(ens, config=md.SolverConfig(max_iter=k))
        assert _record_bits(capped) == _record_bits(trace)[:k], k


def test_capped_solve_spends_its_budget_and_certifies_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return md.certify(*args, **kwargs)

    monkeypatch.setattr(solver, "certify", counted)
    trace = md.solve(md.random_mixed(32, 16, seed=1), config=md.SolverConfig(max_iter=9))
    assert not trace.converged
    assert trace.iterations_used == len(trace.iterations) == 9
    assert len(calls) == 1


def test_fixed_point_stop_check_reads_eigenvalues_only(monkeypatch, trine_ensemble, trine_srm):
    ens = md.random_mixed(4, 4, seed=1)
    engine_calls = count_eigh_calls(monkeypatch, solver)
    scan_calls = count_eigh_calls(monkeypatch, certificates)
    # the trine opens in the fixed-point engine, whose stop check certifies
    # the SRM before any step
    trace = md.solve(trine_ensemble, trine_srm)
    assert trace.converged and trace.iterations_used == 0
    assert trace.final_povm.elements.tobytes() == trine_srm.elements.tobytes()
    assert engine_calls == scan_calls == []
    # a whole fixed-point solve: every eigh is the engine's own (S and the
    # square roots), none comes from a stop check or from the final certify
    trace = md.solve(ens)
    assert trace.converged and {r.engine for r in trace.iterations} == {"fixed_point"}
    assert scan_calls == []


def test_plain_fixed_point_step_raises_on_a_success_probability_that_is_not_finite(monkeypatch):
    # the first fixed-point step has no history to mix, so it is the plain step
    def non_finite(weighted, factors):
        output, elements, kernel = _factor_map(weighted, factors)
        return output, np.full_like(elements, np.nan), kernel

    monkeypatch.setattr(solver, "_factor_map", non_finite)
    with pytest.raises(md.NumericFailure, match="success probability is not finite"):
        md.solve(md.trine())


def test_binary_solve_takes_no_step_from_a_start_whose_verdict_holds():
    # a start just off Helstrom's measurement whose lowest witness eigenvalue,
    # about -1.1e-9, lies inside the verdict's -tol: certify accepts it, so
    # the solve takes no step and returns the start
    ens = md.random_mixed(4, 2, seed=3)
    helstrom, _ = md.helstrom_binary(ens.priors[0], ens.states[0], ens.priors[1], ens.states[1])
    uniform = md.uniform_povm(2, 4)
    start = md.validate_povm((1 - 1e-8) * helstrom.elements + 1e-8 * uniform.elements)
    cert = md.certify(ens, start)
    assert cert.is_optimal and min(cert.witness_min_eigenvalues) < 0.0
    trace = md.solve(ens, start)
    assert trace.converged and trace.iterations_used == 0
    assert trace.final_certificate.p_corr == md.p_correct(ens, start)


def _zero_prior(ens: md.Ensemble, k: int) -> md.Ensemble:
    priors = np.array(ens.priors)
    priors[k] = 0.0
    return md.Ensemble(priors / priors.sum(), ens.states)


@pytest.mark.parametrize(
    "ens, config",
    [
        (_zero_prior(md.random_mixed(4, 7, seed=74), 2), md.SolverConfig(max_iter=1800)),
        (md.random_mixed(6, 5, seed=237), md.SolverConfig()),
        (md.random_mixed(16, 16, seed=1), md.SolverConfig()),
    ],
    ids=["zero-prior-4x7", "mixed-6x5", "mixed-16x16"],
)
def test_accelerated_fixed_point_certifies_slow_instances(ens, config):
    trace = md.solve(ens, config=config)
    assert trace.converged
    assert trace.iterations_used <= 300
    fixed = [record.p_corr for record in trace.iterations if record.engine == "fixed_point"]
    assert fixed
    assert all(b > a for a, b in zip(fixed, fixed[1:]))
    # the engine's output is exactly Hermitian, so validation moved no bit:
    # the last record's P_corr is that of the returned POVM, bit for bit
    assert trace.iterations[-1].p_corr == md.p_correct(ens, trace.final_povm)
    elements = trace.final_povm.elements
    assert np.array_equal(md.validate_povm(elements).elements, elements)


def test_trine_srm_is_a_fixed_point_of_the_factor_map(trine_ensemble, trine_srm):
    factors = _hermitian_sqrt(trine_srm.elements)
    outputs, elements, kernel = _factor_map(trine_ensemble.weighted_states, factors)
    assert kernel is None
    assert np.max(np.abs(elements - trine_srm.elements)) <= 1e-12
    assert np.max(np.abs(outputs - factors)) <= 1e-12


def test_factor_map_matches_the_fixed_point_step():
    for seed in range(10):
        ens, povm = random_instance(seed, 3, 4)
        weighted = ens.weighted_states
        _, elements, kernel = _factor_map(weighted, _hermitian_sqrt(povm.elements))
        assert kernel is None
        assert np.array_equal(elements, elements.conj().swapaxes(1, 2))
        stepped = _completed_povm(weighted @ povm.elements @ weighted)[0]
        assert np.max(np.abs(elements - stepped)) <= 1e-12


def _three_pure_states_in_d4() -> md.Ensemble:
    # three pure states in d=4 leave S singular at every step
    rng = np.random.default_rng(2)
    kets = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    return md.Ensemble(np.full(3, 1 / 3), tuple(md.pure_state(k) for k in kets))


def test_factor_map_matches_the_fixed_point_step_when_s_has_a_kernel():
    ens = _three_pure_states_in_d4()
    weighted = ens.weighted_states
    rng = np.random.default_rng(5)
    for povm in [md.uniform_povm(3, 4)] + [md.random_povm(3, 4, rng) for _ in range(5)]:
        _, elements, kernel = _factor_map(weighted, _hermitian_sqrt(povm.elements))
        assert kernel is not None
        # the kernel is the complement of the states' span, which no W_j sees
        assert _kernel_is_unseen(weighted, kernel)
        assert np.array_equal(elements, elements.conj().swapaxes(1, 2))
        stepped = _completed_povm(weighted @ povm.elements @ weighted)[0]
        assert np.max(np.abs(elements - stepped)) <= 1e-12


def _support_reference(eigenvalues, eigenvectors):
    """V diag(lambda)^{-1/2} V^* on the support and I - V V^*, formed as
    two products before either is symmetrized."""
    keep = eigenvalues > SUPPORT_FLOOR
    vs = eigenvectors[:, keep]
    inv_sqrt = (vs / np.sqrt(eigenvalues[keep])) @ vs.conj().T
    kernel = np.eye(eigenvectors.shape[0]) - vs @ vs.conj().T
    return (inv_sqrt + inv_sqrt.conj().T) / 2, (kernel + kernel.conj().T) / 2


@pytest.mark.parametrize("rank", [5, 3])
def test_inv_sqrt_on_support_gives_a_kernel_only_when_singular(rank):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, rank)) + 1j * rng.standard_normal((5, rank))
    s = a @ a.conj().T
    eigenvalues, eigenvectors = np.linalg.eigh(s)
    inv_sqrt, kernel = _inv_sqrt_on_support(eigenvalues, eigenvectors)
    ref_inv_sqrt, ref_kernel = _support_reference(eigenvalues, eigenvectors)
    assert np.max(np.abs(inv_sqrt - ref_inv_sqrt)) <= 1e-12
    if rank == 5:
        assert kernel is None
        kernel = np.zeros((5, 5))
    else:
        assert np.array_equal(kernel, kernel.conj().T)
        assert np.max(np.abs(kernel @ kernel - kernel)) <= 1e-12
        assert np.trace(kernel).real == pytest.approx(5 - rank, abs=1e-12)
    # the reference's kernel is a ~1e-16 residue when S is full rank
    assert np.max(np.abs(kernel - ref_kernel)) <= 1e-12
    # S^{-1/2} S S^{-1/2} is the projector onto the support
    assert np.max(np.abs(inv_sqrt @ s @ inv_sqrt - (np.eye(5) - kernel))) <= 1e-12


@pytest.mark.parametrize(
    "lowest", [SUPPORT_FLOOR, np.nextafter(SUPPORT_FLOOR, 1.0), 2 * SUPPORT_FLOOR]
)
def test_inv_sqrt_on_support_at_the_floor(lowest):
    # an eigenvalue equal to SUPPORT_FLOOR is kernel; the next double up is support
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    eigenvalues = np.array([lowest, 0.25, 1.0, 3.0])
    inv_sqrt, kernel = _inv_sqrt_on_support(eigenvalues, q)
    ref_inv_sqrt, ref_kernel = _support_reference(eigenvalues, q)
    assert np.array_equal(inv_sqrt, inv_sqrt.conj().T)
    assert np.max(np.abs(inv_sqrt - ref_inv_sqrt)) <= 1e-12 * np.abs(ref_inv_sqrt).max()
    if lowest == SUPPORT_FLOOR:
        assert kernel is not None
        assert np.max(np.abs(kernel - ref_kernel)) <= 1e-12
        assert np.trace(kernel).real == pytest.approx(1.0, abs=1e-12)
    else:
        assert kernel is None
        # the inverse square root reaches the smallest eigenvalue's direction
        scale = 1.0 / np.sqrt(lowest)
        assert np.abs(inv_sqrt @ q[:, 0] - scale * q[:, 0]).max() <= 1e-12 * scale


def test_anderson_mix_solves_a_real_affine_map():
    # z -> a z + b conj(z) + c is affine over the reals but not over the
    # complex numbers; two differences span its two real dimensions
    a, b, c = 0.3 + 0.2j, 0.4 - 0.1j, 1.0 - 2.0j

    def g(z):
        return a * z + b * np.conj(z) + c

    history = _AndersonHistory((1, 1, 1))
    x = np.array([[[0.5 + 0.5j]]])
    for _ in range(3):
        history.push(x, g(x))
        x = g(x)
    mixed = history.mix()
    assert mixed.shape == (1, 1, 1)
    assert np.max(np.abs(g(mixed) - mixed)) <= 1e-12


def _anderson_reference(pairs):
    """Real Gram matrix and Anderson mix recomputed from whole (input,
    output) pairs, oldest first, with complex arithmetic."""
    inputs = np.array([x.reshape(-1) for x, _ in pairs])
    outputs = np.array([g.reshape(-1) for _, g in pairs])
    residuals = outputs - inputs
    df, dg = np.diff(residuals, axis=0), np.diff(outputs, axis=0)
    gram = (df.conj() @ df.T).real
    gamma = np.linalg.lstsq(gram, (df.conj() @ residuals[-1]).real, rcond=None)[0]
    return gram, (outputs[-1] - gamma @ dg).reshape(pairs[-1][1].shape)


def test_anderson_history_rolls_its_gram_matrix_and_mix():
    # a contraction that mixes real and imaginary parts, so a lost
    # imaginary part would change both the Gram matrix and the mix
    rng = np.random.default_rng(11)
    shape = (3, 2, 2)
    size = int(np.prod(shape))
    a = 0.3 * (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))) / size
    b = 0.3 * (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))) / size
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)

    def g(x):
        z = x.reshape(-1)
        return (a @ z + b @ z.conj() + c).reshape(shape) + 0.1 * np.sin(x)

    history = _AndersonHistory(shape)
    pairs = []
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for push in range(ANDERSON_DEPTH + 4):
        pairs.append((x, g(x)))
        history.push(*pairs[-1])
        kept = pairs[-(ANDERSON_DEPTH + 1):]
        assert history.count == len(kept) - 1
        if push == 0:
            x = pairs[-1][1]
            continue
        gram, mixed = _anderson_reference(kept)
        k = history.count
        assert np.max(np.abs(history.gram[:k, :k] - gram)) <= 1e-12 * np.abs(gram).max()
        got = history.mix()
        assert got.dtype == complex and got.shape == shape
        assert np.max(np.abs(got - mixed)) <= 1e-12 * np.abs(mixed).max()
        # alternate mixed and plain steps, as the engine does
        x = got if push % 2 else pairs[-1][1]
    history.clear()
    assert history.count == 0
    history.push(x, g(x))
    assert history.count == 0


def _anderson_pairs(rng, shape, count):
    return [
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
         rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for _ in range(count)
    ]


def test_anderson_mix_on_a_singular_gram_matrix_matches_lstsq():
    # a repeated (x, g) pair makes a zero difference row, so the Gram matrix
    # is singular and the coefficients rest on numpy's lstsq cutoff
    rng = np.random.default_rng(12)
    shape = (3, 2, 2)
    p1, p2, p3 = _anderson_pairs(rng, shape, 3)
    for pushes in ([p1, p2, p2], [p1, p2, p2, p3], [p1, p2, p1, p2]):
        history = _AndersonHistory(shape)
        for pair in pushes:
            history.push(*pair)
        k = history.count
        gram = history.gram[:k, :k]
        assert np.linalg.matrix_rank(gram) < k
        f, g = history.last
        gamma = np.linalg.lstsq(gram, history.df[:k] @ f, rcond=None)[0]
        expected = (g - gamma @ history.dg[:k]).view(complex).reshape(shape)
        got = history.mix()
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.abs(expected).max()


def test_anderson_mix_without_differences_is_the_last_output():
    rng = np.random.default_rng(13)
    shape = (2, 2, 2)
    (x, g), = _anderson_pairs(rng, shape, 1)
    history = _AndersonHistory(shape)
    for _ in range(ANDERSON_DEPTH + 1):
        history.push(x, g)
    assert history.count == ANDERSON_DEPTH
    assert not history.gram.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = history.mix()
    assert np.array_equal(mixed, g)


def test_singular_s_is_flagged_and_the_solve_certifies():
    ens = _three_pure_states_in_d4()
    povm = md.uniform_povm(3, 4)
    _, elements, kernel = _factor_map(ens.weighted_states, _hermitian_sqrt(povm.elements))
    assert kernel is not None
    md.validate_povm(elements)
    trace = md.solve(ens)
    assert trace.converged
    fixed = [record.p_corr for record in trace.iterations if record.engine == "fixed_point"]
    assert fixed
    assert all(b > a for a, b in zip(fixed, fixed[1:]))


def test_fixed_point_keeps_its_factors_when_no_state_sees_the_kernel(monkeypatch):
    # three pure states in d=4: S's kernel is the complement of their span,
    # which every W_j annihilates, so the factors and the Anderson history
    # carry over from step to step instead of restarting from square roots
    ens = _three_pure_states_in_d4()
    calls = []
    real_sqrt = solver._hermitian_sqrt
    monkeypatch.setattr(solver, "_hermitian_sqrt", lambda e: calls.append(1) or real_sqrt(e))
    trace = md.solve(ens)
    assert trace.converged
    assert all(record.engine == "fixed_point" for record in trace.iterations)
    assert len(trace.iterations) > 1
    assert len(calls) == 1


def test_fixed_point_restarts_from_square_roots_when_a_state_sees_the_kernel(monkeypatch):
    # from the mixed empty start the fixed-point steps leave S a kernel that
    # some W_j sees, so the factors of a step do not factor its POVM: the
    # next step takes the Hermitian square roots of that POVM instead
    ens = _zero_prior_rank_two(25)
    events = []
    real_unseen, real_sqrt, real_map = (
        solver._kernel_is_unseen, solver._hermitian_sqrt, solver._factor_map)

    def unseen(weighted, kernel):
        verdict = real_unseen(weighted, kernel)
        events.append(("unseen", verdict))
        return verdict

    def mapped(weighted, factors):
        result = real_map(weighted, factors)
        events.append(("map", result[1]))
        return result

    monkeypatch.setattr(solver, "_kernel_is_unseen", unseen)
    monkeypatch.setattr(solver, "_hermitian_sqrt", lambda e: events.append(("sqrt", e)) or real_sqrt(e))
    monkeypatch.setattr(solver, "_factor_map", mapped)
    md.solve(ens, _empty_start(ens))
    kinds = [event[0] for event in events]
    seen = kinds.index("unseen")
    assert events[seen][1] is False
    # the step after the restart opens with square roots of the POVM the
    # step before it accepted
    assert kinds[seen - 1:seen + 3] == ["map", "unseen", "sqrt", "map"]
    assert events[seen + 1][1].tobytes() == events[seen - 1][1].tobytes()


@pytest.mark.parametrize(
    "n, delta, theta, seed",
    [
        (4, 1e-3, 0.5, 0),
        (4, 1e-3, 0.5, 1),
        (4, 1e-2, np.pi / 4, 0),
        (5, 1e-3, 0.3, 0),
        (6, 1e-3, 0.5, 2),
        (8, 1e-3, 0.5, 0),
    ],
)
def test_perturbed_symmetric_qubits_certify(n, delta, theta, seed):
    # nearly symmetric qubit ensembles, whose degenerate optima the
    # fixed-point engine approaches slowly, still certify within 300 steps
    ens = _perturbed_qubits(n, delta, theta, seed)
    trace = md.solve(ens, config=md.SolverConfig(max_iter=300))
    assert trace.converged
    assert trace.iterations[0].engine == "fixed_point"


@pytest.mark.parametrize("seed", [19, 25, 141])
def test_fixed_point_accepts_only_valid_measurements_when_s_is_ill_conditioned(seed):
    # rank-2 states in d=6 with small priors leave S with a condition number
    # near 1e8, where S^{-1/2} B_j S^{-1/2} lost positivity and the element
    # sum lost its 1e-9 completeness, and the final validation raised
    ens = _zero_prior_rank_two(seed)
    start = md.uniform_povm(4, 6)
    trace = md.solve(ens, start, md.SolverConfig(max_iter=200))
    assert trace.final_certificate.p_corr >= md.p_correct(ens, start)
    md.validate_povm(trace.final_povm.elements)


def test_second_normalisation_certifies_an_ill_conditioned_zero_prior_instance(monkeypatch):
    # S's condition number near 1e8 amplified rounding in each step's element
    # sum until ``_accepts`` refused every step, short of Gamma's
    # Hermiticity; renormalised by the element sum, the steps are accepted
    ens = _zero_prior_rank_two(19)
    renormalised = count_calls(monkeypatch, solver, "_sum_normalizer")
    trace = md.solve(ens)
    assert trace.converged
    assert renormalised


def test_a_well_conditioned_step_is_normalised_once(monkeypatch):
    ens = md.random_mixed(4, 5, 3)
    renormalised = count_calls(monkeypatch, solver, "_sum_normalizer")
    trace = md.solve(ens)
    assert trace.converged and renormalised == []


def _orthonormal_columns(rng: np.random.Generator, dim: int, k: int) -> np.ndarray:
    a = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    return np.linalg.qr(a)[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    epsilon=st.floats(0.0, 1.0, exclude_min=True),
    fraction=st.floats(0.0, 1.0),
)
def test_block_step_preserves_validity(seed, epsilon, fraction):
    # P = V V* is a projector, so the damped elements plus eps (2 - eps) P
    # still sum to the identity and stay positive semidefinite
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    n = int(rng.integers(2, 5))
    k = 1 + min(dim - 1, int(fraction * dim))
    povm = md.random_povm(n, dim, rng)
    basis = _orthonormal_columns(rng, dim, k)
    stepped = solver._block_step(povm.elements, int(rng.integers(n)), basis, epsilon)
    assert isinstance(md.validate_povm(stepped), md.Povm)


@pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.5, 1.0])
def test_block_gain_matches_direct_reevaluation(epsilon):
    for seed in range(6):
        ens, povm = random_instance(seed, 4, 3)
        rng = np.random.default_rng(seed)
        for k in (2, 3, 4):
            basis = _orthonormal_columns(rng, 4, k)
            j0 = int(rng.integers(3))
            a, b = solver._block_coefficients(ens.weighted_states, povm.elements, j0, basis)
            stepped = md.validate_povm(solver._block_step(povm.elements, j0, basis, epsilon))
            direct = md.p_correct(ens, stepped) - md.p_correct(ens, povm)
            assert abs((a * epsilon + b) * epsilon - direct) <= 1e-10


def test_block_linear_gain_is_twice_the_negative_eigenvalue_sum():
    for seed in range(10):
        ens, povm = random_instance(seed, 6, 2)
        values = np.array([np.linalg.eigvalsh(md.witness_operator(ens, povm, j)) for j in (0, 1)])
        j0 = int(np.argmin(values[:, 0]))
        g = md.witness_operator(ens, povm, j0)
        eigenvalues, eigenvectors = np.linalg.eigh(g)
        negative = eigenvalues < 0
        assert negative.sum() > 1
        _, b = solver._block_coefficients(
            ens.weighted_states, povm.elements, j0, eigenvectors[:, negative]
        )
        assert b == pytest.approx(-2 * eigenvalues[negative].sum(), rel=1e-10)


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
def test_binary_solves_from_uniform_certify_in_one_closed_form_step(dim):
    # one closed-form step gives outcome 0 the nonnegative eigenspace of
    # p1 rho1 - p2 rho2 and outcome 1 the rest: Helstrom's measurement
    ens = md.random_mixed(dim, 2, seed=dim + 7)
    trace = md.solve(ens)
    assert trace.converged
    assert trace.iterations_used == len(trace.iterations) == 1
    _, oracle = md.helstrom_binary(ens.priors[0], ens.states[0], ens.priors[1], ens.states[1])
    assert abs(trace.final_certificate.p_corr - oracle) <= 1e-12


def test_single_state_solve_takes_no_step(single_state_problem):
    # the only measurement of one state is [I]: the start certifies
    ens, povm = single_state_problem
    for start in (None, povm):
        trace = md.solve(ens, start)
        assert trace.converged and trace.iterations_used == 0


def test_solve_runs_one_start(monkeypatch):
    # a run that stalls short of the verdict is not resumed from another
    # start: the optimality conditions are sufficient, so it sits at no local
    # maximum that a second start would escape
    def second_start(*args, **kwargs):
        raise AssertionError("solve built a second start")

    monkeypatch.setattr(solver, "square_root_measurement", second_start)
    monkeypatch.setattr(solver, "random_povm", second_start)
    ens = _zero_prior_rank_two(19)
    trace = md.solve(ens)
    assert trace.iterations_used == len(trace.iterations)
    assert trace.final_certificate.p_corr >= md.p_correct(ens, md.uniform_povm(4, 6))


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
def test_find_negative_mode_rejects_bad_tolerance(trine_ensemble, trine_srm, tol):
    # at the trine's SRM the lowest witness eigenvalue may be a rounding-level
    # negative number, which a tolerance that is not positive reports as a mode
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        md.find_negative_mode(trine_ensemble, trine_srm, tol)
    assert md.find_negative_mode(trine_ensemble, trine_srm, 1e-12) is None


@pytest.mark.parametrize("outcome", [-1, 3])
@pytest.mark.parametrize("operation", ["perturb", "gain", "best_epsilon"])
def test_mode_outcome_out_of_range_is_an_index_error(trine_ensemble, operation, outcome):
    povm = md.uniform_povm(3, 2)
    mode = md.find_negative_mode(trine_ensemble, povm)
    bad = md.Witness(outcome=outcome, eigenvalue=mode.eigenvalue, vector=mode.vector)
    calls = {
        "perturb": lambda: md.perturb(povm, bad, 0.5),
        "gain": lambda: md.gain(trine_ensemble, povm, bad, 0.5),
        "best_epsilon": lambda: md.best_epsilon(trine_ensemble, povm, bad),
    }
    with pytest.raises(IndexError, match="out of range"):
        calls[operation]()


@pytest.mark.parametrize("outcome", [True, 1.0])
@pytest.mark.parametrize(
    "operation", ["witness_operator", "outcome_probability", "perturb", "gain", "best_epsilon"]
)
def test_outcome_index_that_is_not_an_integer_is_a_type_error(trine_ensemble, operation, outcome):
    # a numpy integer is an index; a bool or a float is not one
    povm = md.uniform_povm(3, 2)
    mode = md.find_negative_mode(trine_ensemble, povm)

    def with_mode(j):
        return md.Witness(outcome=j, eigenvalue=mode.eigenvalue, vector=mode.vector)

    calls = {
        "witness_operator": lambda j: md.witness_operator(trine_ensemble, povm, j),
        "outcome_probability": lambda j: md.outcome_probability(trine_ensemble.states[0], povm, j),
        "perturb": lambda j: md.perturb(povm, with_mode(j), 0.5),
        "gain": lambda j: md.gain(trine_ensemble, povm, with_mode(j), 0.5),
        "best_epsilon": lambda j: md.best_epsilon(trine_ensemble, povm, with_mode(j)),
    }
    calls[operation](np.int64(mode.outcome))
    with pytest.raises(TypeError, match="outcome index must be an integer"):
        calls[operation](outcome)


@pytest.mark.parametrize(
    "vector", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf], [1.0, complex(0.0, np.nan)]]
)
@pytest.mark.parametrize("operation", ["perturb", "gain", "best_epsilon"])
def test_mode_with_non_finite_vector_is_rejected(trine_ensemble, trine_srm, operation, vector):
    bad = md.Witness(outcome=0, eigenvalue=-0.1, vector=np.array(vector, dtype=complex))
    calls = {
        "perturb": lambda: md.perturb(trine_srm, bad, 0.5),
        "gain": lambda: md.gain(trine_ensemble, trine_srm, bad, 0.5),
        "best_epsilon": lambda: md.best_epsilon(trine_ensemble, trine_srm, bad),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mode vector has non-finite entries"):
            calls[operation]()


@pytest.mark.parametrize(
    "vector, message",
    [([1.0, 0.0, 0.0], "mode vector has dimension 3, POVM has 2"),
     ([0.0, 0.0], "mode vector is zero")],
    ids=["dimension", "zero"],
)
@pytest.mark.parametrize("operation", ["perturb", "gain", "best_epsilon"])
def test_mode_with_a_wrong_dimension_or_zero_vector_is_rejected(
    trine_ensemble, trine_srm, operation, vector, message
):
    bad = md.Witness(outcome=0, eigenvalue=-0.1, vector=np.array(vector, dtype=complex))
    calls = {
        "perturb": lambda: md.perturb(trine_srm, bad, 0.5),
        "gain": lambda: md.gain(trine_ensemble, trine_srm, bad, 0.5),
        "best_epsilon": lambda: md.best_epsilon(trine_ensemble, trine_srm, bad),
    }
    with pytest.raises(ValueError, match=f"^{message}$"):
        calls[operation]()


def test_iteration_record_holds_p_corr_and_engine_alone():
    fields = dataclasses.fields(solver.IterationRecord)
    assert [field.name for field in fields] == ["p_corr", "engine"]
    assert all(field.default is dataclasses.MISSING for field in fields)


def _record_bits(trace) -> list[tuple]:
    return [(r.p_corr.hex(), r.engine) for r in trace.iterations]


@pytest.mark.parametrize(
    "make",
    [
        lambda: md.pure_pair(0.5, (0.3, 0.7)),
        lambda: md.random_mixed(4, 2, 3),
        md.trine,
        lambda: md.random_mixed(3, 4, 1),
        lambda: _zero_prior_rank_two(3),
    ],
    ids=["pure-pair", "mixed-pair", "trine", "mixed-n4", "zero-prior"],
)
def test_default_start_is_the_uniform_povm_bit_for_bit(make):
    ens = make()
    config = md.SolverConfig(max_iter=300)
    default = md.solve(ens, None, config)
    explicit = md.solve(ens, md.uniform_povm(len(ens), ens.dim), config)
    assert default.iterations
    assert _record_bits(default) == _record_bits(explicit)
    assert default.final_povm.elements.tobytes() == explicit.final_povm.elements.tobytes()
    assert default.converged == explicit.converged


@pytest.mark.parametrize("n", [2, 4])
def test_default_starts_are_never_shared(monkeypatch, n):
    starts = []
    if n == 2:
        # a binary solve reads its start only for the start's verdict, so
        # the spy takes the stack the start builder hands it
        build = solver._uniform_elements

        def spy(*args):
            starts.append(build(*args))
            return starts[-1]

        monkeypatch.setattr(solver, "_uniform_elements", spy)
    else:
        # the first step of the fixed-point engine sees the start
        step = solver._FixedPoint.step

        def spy(*args):
            starts.append(args[2])
            return step(*args)

        monkeypatch.setattr(solver._FixedPoint, "step", spy)
    ens = md.random_mixed(3, n, 1)
    config = md.SolverConfig(max_iter=1)
    md.solve(ens, None, config)
    first = len(starts)
    md.solve(ens, None, config)
    a, b = starts[0], starts[first]
    assert np.array_equal(a, md.uniform_povm(n, 3).elements)
    assert not np.shares_memory(a, b)


def _empty_start(ens: md.Ensemble) -> md.Povm:
    """[I, 0, ..., 0]: the fixed-point map cannot grow the empty elements."""
    d = ens.dim
    return md.validate_povm([np.eye(d)] + [np.zeros((d, d))] * (len(ens) - 1))


def _mixed_start(ens: md.Ensemble, start: md.Povm) -> md.Povm:
    """The mix of ``start`` with the uniform POVM that ``solve`` climbs from
    when ``start`` leaves a seen element empty."""
    mix = solver.EMPTY_START_MIX
    uniform = md.uniform_povm(len(ens), ens.dim)
    return md.validate_povm((1.0 - mix) * start.elements + mix * uniform.elements)


@pytest.mark.parametrize(
    "make",
    [md.trine, lambda: md.random_mixed(4, 5, 3), lambda: md.random_mixed(6, 3, 2)],
    ids=["trine", "mixed-d4-n5", "mixed-d6-n3"],
)
def test_empty_start_is_mixed_once_and_certifies_in_fixed_point_steps(monkeypatch, make):
    # the fixed-point map cannot grow an empty element, so the start is mixed
    # with the uniform POVM once, before the first step, and the solve
    # climbs from the mix in fixed-point steps alone
    ens = make()
    start = _empty_start(ens)
    seen = []
    step = solver._FixedPoint.step
    monkeypatch.setattr(solver._FixedPoint, "step", lambda *args: seen.append(args[2]) or step(*args))
    uniform = count_calls(monkeypatch, solver, "_uniform_elements")
    trace = md.solve(ens, start)
    assert trace.converged
    assert len(uniform) == 1
    assert seen[0].tobytes() == _mixed_start(ens, start).elements.tobytes()
    assert {record.engine for record in trace.iterations} == {"fixed_point"}
    assert len(seen) >= len(trace.iterations) >= 1


def test_a_start_is_mixed_only_when_an_element_a_state_sees_is_empty(monkeypatch):
    # the empty element of the zero-prior state is no reason to mix: the
    # start that gives it no weight is climbed from as it is
    ens = _zero_prior(md.random_mixed(3, 4, 1), 1)
    start = md.validate_povm([np.eye(3) / 3, np.zeros((3, 3)), np.eye(3) / 3, np.eye(3) / 3])
    uniform = count_calls(monkeypatch, solver, "_uniform_elements")
    trace = md.solve(ens, start, md.SolverConfig(max_iter=5))
    assert uniform == [] and len(trace.iterations) == 5
    # an empty element of a state of positive prior is mixed
    md.solve(ens, _empty_start(ens), md.SolverConfig(max_iter=1))
    assert len(uniform) == 1


@pytest.mark.parametrize(
    "make",
    [
        md.trine,
        lambda: md.random_mixed(4, 5, 3),
        lambda: md.Ensemble((0.3, 0.5, 0.2), (md.random_mixed(3, 1, 7).states[0],) * 3),
    ],
    ids=["trine", "mixed-d4-n5", "identical"],
)
@pytest.mark.parametrize("budget", [1, 2, 3])
def test_a_capped_solve_from_the_empty_start_ends_at_or_above_its_mix(make, budget):
    # the records climb from the mix, so a capped solve is bounded below by
    # the mix's P_corr, (1 - mix) P_start + mix / n, not by the start's
    ens = make()
    start = _empty_start(ens)
    trace = md.solve(ens, start, md.SolverConfig(max_iter=budget))
    assert len(trace.iterations) == budget
    assert trace.final_certificate.p_corr >= md.p_correct(ens, _mixed_start(ens, start))


@pytest.mark.parametrize(
    "make, start, config, starts",
    [
        (lambda: _zero_prior_rank_two(25), None, md.SolverConfig(max_iter=400), 1),
        (lambda: md.random_mixed(4, 5, 3), _empty_start, None, 2),
    ],
    ids=["zero-prior-25", "mixed-d4-n5-empty"],
)
def test_gamma_is_formed_once_per_candidate(monkeypatch, make, start, config, starts):
    # one Gamma for the start and one per candidate; a mixed start adds one,
    # for the start's verdict and then for the mix
    calls = {}
    for name in ("_gamma", "_factor_map"):
        calls[name] = 0

        def spy(*args, name=name, real=getattr(solver, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(solver, name, spy)
    ens = make()
    md.solve(ens, start(ens) if start else None, config)
    assert calls["_factor_map"]
    assert calls["_gamma"] == starts + calls["_factor_map"]


@pytest.mark.parametrize(
    "make, start, config",
    [
        (lambda: _zero_prior_rank_two(25), None, md.SolverConfig(max_iter=400)),
        (lambda: md.random_mixed(4, 5, 3), _empty_start, None),
    ],
    ids=["zero-prior-25", "mixed-d4-n5-empty"],
)
def test_witness_scans_at_most_one_per_accepted_povm(monkeypatch, make, start, config):
    # the verdict scans in ``certificates``: one scan at most per accepted
    # POVM, the start included, and one for the final certify
    calls = count_calls(monkeypatch, certificates, "_witness_scan")
    ens = make()
    trace = md.solve(ens, start(ens) if start else None, config)
    assert len(calls) <= len(trace.iterations) + 2


@pytest.mark.parametrize(
    "make, start",
    [
        (lambda: md.random_mixed(4, 5, 3), _empty_start),
        (lambda: md.random_mixed(6, 3, 2), _empty_start),
        (md.trine, _empty_start),
        (lambda: md.random_mixed(3, 4, 1), None),
        (lambda: _zero_prior_rank_two(3), None),
        (lambda: md.random_mixed(4, 2, 3), None),
    ],
    ids=["mixed-d4-n5-empty", "mixed-d6-n3-empty", "trine-empty", "mixed-d3-n4",
         "zero-prior-3", "binary-d4"],
)
def test_solve_stops_at_the_first_povm_whose_verdict_holds(make, start):
    # a solve capped short of the default solve's step count takes every
    # step it may and does not certify; at that count it certifies at the
    # same POVM, so no POVM accepted before the last passes the verdict
    ens = make()
    start = start(ens) if start else None
    trace = md.solve(ens, start)
    steps = len(trace.iterations)
    assert trace.converged and steps >= 1
    for budget in range(1, steps):
        capped = md.solve(ens, start, md.SolverConfig(max_iter=budget))
        assert len(capped.iterations) == budget and not capped.converged, budget
    last = md.solve(ens, start, md.SolverConfig(max_iter=steps))
    assert last.converged
    assert last.final_povm.elements.tobytes() == trace.final_povm.elements.tobytes()


def _assert_same_certificate(returned, fresh):
    for name in (
        "p_corr", "lagrange_herm_residual", "pairwise_equality_residual",
        "zero_product_residual", "gap_bound", "tolerance",
    ):
        assert getattr(returned, name).hex() == getattr(fresh, name).hex(), name
    assert [v.hex() for v in returned.witness_min_eigenvalues] == [
        v.hex() for v in fresh.witness_min_eigenvalues
    ]
    assert returned.is_optimal == fresh.is_optimal
    if fresh.witness is None:
        assert returned.witness is None
        return
    assert returned.witness.outcome == fresh.witness.outcome
    assert returned.witness.eigenvalue.hex() == fresh.witness.eigenvalue.hex()
    assert returned.witness.vector.tobytes() == fresh.witness.vector.tobytes()


@pytest.mark.parametrize(
    "make, start, config, verdict",
    [
        (lambda: md.random_mixed(3, 4, 1), None, md.SolverConfig(), True),
        (lambda: _zero_prior_rank_two(25), lambda: _empty_start(_zero_prior_rank_two(25)),
         md.SolverConfig(), False),
        (lambda: md.random_mixed(32, 16, 1), None, md.SolverConfig(max_iter=3), False),
    ],
    ids=["certified", "floor", "cap"],
)
def test_final_certificate_is_a_fresh_certify_of_the_final_povm(make, start, config, verdict):
    ens = make()
    trace = md.solve(ens, start() if start else None, config)
    assert trace.converged is verdict
    budget = config.max_iter
    if not verdict:
        # the floor run stops short of its budget, the capped one spends it
        assert (len(trace.iterations) == budget) is (config.max_iter == 3)
    _assert_same_certificate(trace.final_certificate, md.certify(ens, trace.final_povm, config.tol))


def test_random_mixed_shapes_certify_within_the_step_budget():
    # every shape certifies from the uniform start; the steps they take in
    # all guard against a change that slows the fixed-point engine down
    config = md.SolverConfig(max_iter=3000)
    steps = 0
    for dim in (2, 3, 4, 6, 8, 16):
        for n in (3, 4, 8, 16):
            ens = md.random_mixed(dim, n, 1)
            trace = md.solve(ens, None, config)
            assert trace.converged, (dim, n)
            # one Lagrange operator per candidate: the last record, p_correct
            # and the certificate read the same bits
            p = trace.iterations[-1].p_corr
            assert p == md.p_correct(ens, trace.final_povm) == trace.final_certificate.p_corr
            steps += trace.iterations_used
    assert steps <= 900


def test_a_verdict_holds_whatever_the_hermiticity_residual_of_gamma():
    # the gap bound needs no Hermitian Gamma, so this solve certifies while
    # Gamma's anti-Hermitian part is still far above tol
    ens = _zero_prior_rank_two(47)
    trace = md.solve(ens, md.random_povm(4, 6, 47))
    cert = trace.final_certificate
    assert trace.converged and cert.is_optimal
    assert cert.lagrange_herm_residual > cert.tolerance
    assert cert.gap_bound <= ens.dim * cert.tolerance


def _verdict_sweep():
    """``tools/verdict_sweep.py``, imported from its file."""
    path = Path(__file__).resolve().parent.parent / "tools" / "verdict_sweep.py"
    spec = importlib.util.spec_from_file_location("verdict_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_verdict_screens_never_move_a_stop(monkeypatch):
    # the trace and Cholesky tests fail only where the witness scan would,
    # so switching both to "may hold" leaves every solve bit for bit as it
    # was, on the sweep's shapes, zero-prior and qubit instances
    sweep = _verdict_sweep()
    instances = [ens for build in (sweep._shapes, sweep._zero_priors, sweep._qubits)
                 for ens in build()]
    rejected = {}
    for name in ("_passes_trace_test", "_passes_cholesky_test"):
        rejected[name] = 0

        def spy(*args, name=name, real=getattr(solver, name)):
            passes = real(*args)
            rejected[name] += not passes
            return passes

        monkeypatch.setattr(solver, name, spy)
    screened = [md.solve(ens, None, sweep.CONFIG) for ens in instances]
    # each screen decides some stop checks on its own
    assert all(rejected.values()), rejected
    for name in rejected:
        monkeypatch.setattr(solver, name, lambda *args: True)
    for ens, expected in zip(instances, screened, strict=True):
        trace = md.solve(ens, None, sweep.CONFIG)
        assert _record_bits(trace) == _record_bits(expected)
        assert trace.final_povm.elements.tobytes() == expected.final_povm.elements.tobytes()
        assert trace.converged is expected.converged
