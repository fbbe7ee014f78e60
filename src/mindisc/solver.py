"""Ascent solver for minimum-error discrimination, plus independent oracles.

Whenever some witness operator G_j has a negative eigenvalue -lam with unit
eigenvector v, the rank-1 update

    pi'_i = (1 - eps v v*) pi_i (1 - eps v v*) + eps (2 - eps) v v* [i == j]

is again a valid measurement and improves the success probability by
2 eps lam to first order.  The improvement is exactly quadratic in eps for
this family, so each iteration takes the argmax of that quadratic instead
of an infinitesimal step.  A point with no negative mode satisfies the
sufficient optimality conditions, so a certified fixed point is a global
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import DEFAULT_TOL, Certificate, certify, lagrange_operator
from .certificates import _gamma, _witness_scan
from .ensembles import PRIOR_TOL, DensityMatrix, Ensemble
from .matrices import (
    NumericFailure,
    fix_phase,
    hermitize,
    ordered_sum,
    readonly,
    spectral_decompose,
)
from .povm import (
    Povm,
    check_match,
    p_correct,
    random_povm,
    square_root_measurement,
    uniform_povm,
    validate_povm,
)

# ascent pushes negative modes well below the certificate tolerance so the
# equality-condition residuals settle before the loop stops
ASCENT_TOL = 1e-10


@dataclass(frozen=True)
class NegativeMode:
    """Most negative witness eigenpair; ``lam`` stores the positive magnitude."""

    outcome: int
    lam: float
    vector: np.ndarray


@dataclass(frozen=True)
class IterationRecord:
    p_corr: float
    outcome: int
    lam: float
    epsilon: float


@dataclass(frozen=True)
class SolveTrace:
    """Outcome of one solve call: per-step records for the returned run."""

    iterations: tuple[IterationRecord, ...]
    final_povm: Povm
    final_certificate: Certificate
    converged: bool
    iterations_used: int


@dataclass(frozen=True)
class SolverConfig:
    tol: float = DEFAULT_TOL
    max_iter: int = 10000
    stall_threshold: float = 1e-14
    seed: int = 0
    restarts: int = 5

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.restarts < 0:
            raise ValueError(f"restarts must be nonnegative, got {self.restarts}")


# ---------------------------------------------------------------------------
# inner loop on (n, d, d) stacks; public operations wrap these with checked types

def _state_stack(ens: Ensemble) -> np.ndarray:
    return np.array([s.mat for s in ens.states])


def _real_dots(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Re vdot(x, row) per row, as Re(x . conj(row)): BLAS then gets ``x`` in
    its own memory layout, whose strides fix the summation order."""
    return (x[..., None, :] @ rows.conj()[..., :, None])[..., 0, 0].real


def _success_probability(weighted: np.ndarray, elements: np.ndarray) -> float:
    return float(ordered_sum(np.einsum("kij,kji->k", weighted, elements).real))


def _coefficients(
    priors: np.ndarray,
    mats: np.ndarray,
    elements: np.ndarray,
    j0: int,
    vector: np.ndarray,
) -> tuple[float, float]:
    """Coefficients (a, b) of the exact step gain  a eps^2 + b eps."""
    pi_v = np.asarray(elements) @ vector
    rho_v = np.asarray(mats) @ vector
    v_pi_v = _real_dots(vector, pi_v)
    v_rho_v = _real_dots(vector, rho_v)
    expect_rho = priors[j0] * v_rho_v[j0]
    a = ordered_sum(priors * v_pi_v * v_rho_v) - expect_rho
    b = 2.0 * expect_rho - ordered_sum(2.0 * priors * _real_dots(rho_v, pi_v))
    return float(a), float(b)


def _argmax_quadratic(a: float, b: float) -> float:
    """Maximizer of a x^2 + b x over (0, 1] for b > 0."""
    if a < 0.0:
        return min(1.0, -b / (2.0 * a))
    return 1.0


def _apply_step(
    elements: np.ndarray, j0: int, vector: np.ndarray, epsilon: float
) -> np.ndarray:
    projector = np.outer(vector, vector.conj())
    damp = np.eye(elements.shape[1]) - epsilon * projector
    updated = damp @ elements @ damp
    updated += updated.conj().swapaxes(1, 2)
    updated /= 2
    updated[j0] += epsilon * (2.0 - epsilon) * projector
    return updated


# ---------------------------------------------------------------------------
# public operations

def find_negative_mode(
    ens: Ensemble, povm: Povm, tol: float = DEFAULT_TOL
) -> NegativeMode | None:
    """Globally most negative witness eigenpair, or None if all clear ``-tol``.

    Ties across outcomes break toward the smallest outcome index; within one
    witness operator the deterministic eigenvector convention of
    ``spectral_decompose`` applies.
    """
    _, minima, j, vector = _witness_scan(lagrange_operator(ens, povm), ens.weighted_states)
    if minima[j] >= -tol:
        return None
    return NegativeMode(outcome=j, lam=-float(minima[j]), vector=readonly(fix_phase(vector)))


def _check_mode(povm: Povm, mode: NegativeMode) -> np.ndarray:
    if not 0 <= mode.outcome < len(povm):
        raise IndexError(
            f"mode outcome {mode.outcome} out of range for {len(povm)} outcomes"
        )
    vector = np.asarray(mode.vector, dtype=complex).reshape(-1)
    if vector.shape[0] != povm.dim:
        raise ValueError(
            f"mode vector has dimension {vector.shape[0]}, POVM has {povm.dim}"
        )
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError("mode vector is zero")
    return vector / norm


def perturb(povm: Povm, mode: NegativeMode, epsilon: float) -> Povm:
    """Apply the rank-1 update toward ``mode`` with step size ``epsilon``.

    Valid for every epsilon in (0, 1]; the output is itself a checked Povm.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    vector = _check_mode(povm, mode)
    return validate_povm(_apply_step(povm.elements, mode.outcome, vector, epsilon))


def gain(ens: Ensemble, povm: Povm, mode: NegativeMode, epsilon: float) -> float:
    """Exact success-probability change of the perturbation at ``epsilon``.

    Evaluated in closed form as a quadratic in epsilon; for a true negative
    mode the linear coefficient is twice the eigenvalue magnitude.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    check_match(ens, povm)
    vector = _check_mode(povm, mode)
    a, b = _coefficients(ens.priors, _state_stack(ens), povm.elements, mode.outcome, vector)
    return (a * epsilon + b) * epsilon


def best_epsilon(ens: Ensemble, povm: Povm, mode: NegativeMode) -> float:
    """Step size maximizing the exact quadratic gain over (0, 1]."""
    check_match(ens, povm)
    vector = _check_mode(povm, mode)
    a, b = _coefficients(ens.priors, _state_stack(ens), povm.elements, mode.outcome, vector)
    return _argmax_quadratic(a, b)


def _ascend(
    ens: Ensemble, povm: Povm, config: SolverConfig, ascent_tol: float
) -> tuple[Povm, list[IterationRecord]]:
    priors, weighted, elements = ens.priors, ens.weighted_states, povm.elements
    mats = _state_stack(ens)

    records: list[IterationRecord] = []
    current_p = _success_probability(weighted, elements)
    for _ in range(config.max_iter):
        _, minima, j0, vector = _witness_scan(_gamma(weighted, elements), weighted)
        value = float(minima[j0])
        if value >= -ascent_tol:
            break
        a, b = _coefficients(priors, mats, elements, j0, vector)
        epsilon = _argmax_quadratic(a, b)
        predicted = (a * epsilon + b) * epsilon
        if not np.isfinite(predicted):
            raise NumericFailure("predicted step gain is not finite")
        if predicted < config.stall_threshold:
            break
        candidate = _apply_step(elements, j0, vector, epsilon)
        new_p = _success_probability(weighted, candidate)
        if not np.isfinite(new_p):
            raise NumericFailure("success probability is not finite")
        if new_p <= current_p:
            # rounding floor: the predicted gain no longer materializes
            break
        elements = candidate
        records.append(
            IterationRecord(p_corr=new_p, outcome=j0, lam=-value, epsilon=epsilon)
        )
        current_p = new_p
    return validate_povm(elements), records


def solve(
    ens: Ensemble, start: Povm | None = None, config: SolverConfig | None = None
) -> SolveTrace:
    """Run the perturbation ascent to a certified optimum.

    Starts from ``start`` (default: the uniform POVM), repeatedly removes
    the most negative witness mode at its optimal step size, and certifies
    the fixed point at ``config.tol``.  If the certificate is not optimal
    (stall or iteration cap), the square-root measurement and then up to
    ``config.restarts - 1`` seeded random POVMs are tried as fresh starts
    and the best run is returned.  ``converged`` is True exactly when the
    returned certificate is optimal; ``iterations`` describes the returned
    run while ``iterations_used`` counts steps across all attempts.
    """
    config = config or SolverConfig()
    initial = start if start is not None else uniform_povm(len(ens), ens.dim)
    check_match(ens, initial)
    rng = np.random.default_rng(config.seed)
    ascent_tol = min(config.tol, ASCENT_TOL)

    # restart ladder: the square-root measurement first (exact for symmetric
    # ensembles, where the ascent approaches a degenerate optimum only
    # sublinearly), then seeded random POVMs
    def restart_candidate(k: int) -> Povm:
        if k == 0:
            try:
                return square_root_measurement(ens)
            except ValueError:
                pass
        return random_povm(len(ens), ens.dim, rng)

    best: tuple[Povm, list[IterationRecord], Certificate] | None = None
    total_steps = 0
    for attempt in range(config.restarts + 1):
        povm0 = initial if attempt == 0 else restart_candidate(attempt - 1)
        final, records = _ascend(ens, povm0, config, ascent_tol)
        total_steps += len(records)
        cert = certify(ens, final, config.tol)
        if cert.is_optimal:
            best = (final, records, cert)
            break
        if best is None or cert.p_corr > best[2].p_corr:
            best = (final, records, cert)
    final, records, cert = best
    return SolveTrace(
        iterations=tuple(records),
        final_povm=final,
        final_certificate=cert,
        converged=cert.is_optimal,
        iterations_used=total_steps,
    )


def helstrom_binary(
    p1: float, rho1: DensityMatrix, p2: float, rho2: DensityMatrix
) -> tuple[Povm, float]:
    """Closed-form optimal binary measurement and its success probability.

    Projects outcome 0 onto the nonnegative eigenspace of
    p1 rho1 - p2 rho2 (zero eigenvalues included, which settles ties), so
    P_corr = p2 + tr(Delta pi_1) = (1 + sum |eig(Delta)|) / 2.
    """
    if abs(p1 + p2 - 1.0) > PRIOR_TOL:
        raise ValueError(f"priors sum to {p1 + p2:.12g}, expected 1")
    if rho1.dim != rho2.dim:
        raise ValueError(f"state dimensions differ: {rho1.dim} vs {rho2.dim}")
    delta = p1 * rho1.mat - p2 * rho2.mat
    spectrum = spectral_decompose(delta)
    keep = spectrum.eigenvalues >= 0.0
    vs = spectrum.eigenvectors[:, keep]
    first = hermitize(vs @ vs.conj().T)
    second = hermitize(np.eye(rho1.dim) - first)
    povm = validate_povm([first, second])
    success = p2 + float(np.trace(delta @ first).real)
    return povm, success


def _bloch_projective_povm(theta: float, phi: float) -> Povm:
    spinor = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    first = np.outer(spinor, spinor.conj())
    return validate_povm([first, np.eye(2) - first])


def brute_force(ens: Ensemble, budget: int = 16, seed: int = 0) -> tuple[Povm, float]:
    """Independent desk-scale search for the best measurement.

    Runs the ascent from the uniform POVM, the square-root measurement,
    ``budget`` random POVMs, and (for two-state qubit problems) the best
    few points of a Bloch-sphere grid of projective measurements, and
    returns the best POVM found with its success probability.  Guard
    rails: dimension <= 4 and at most 4 states.
    """
    if ens.dim > 4 or len(ens) > 4:
        raise ValueError(
            f"brute_force is limited to dim <= 4 and n <= 4, got dim={ens.dim}, n={len(ens)}"
        )
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    rng = np.random.default_rng(seed)

    starts: list[Povm] = [uniform_povm(len(ens), ens.dim)]
    try:
        starts.append(square_root_measurement(ens))
    except ValueError:
        pass
    for _ in range(budget):
        starts.append(random_povm(len(ens), ens.dim, rng))
    if len(ens) == 2 and ens.dim == 2:
        grid = [
            _bloch_projective_povm(theta, phi)
            for theta in np.linspace(0.0, np.pi, 13)
            for phi in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        ]
        grid.sort(key=lambda candidate: p_correct(ens, candidate), reverse=True)
        starts.extend(grid[:5])

    # modest iteration cap: the multi-start sweep, not ascent depth, does
    # the work here, and stalled-but-high starts still rank correctly
    config = SolverConfig(max_iter=600, seed=int(rng.integers(2**31)), restarts=0)
    best_povm: Povm | None = None
    best_p = -np.inf
    for povm0 in starts:
        trace = solve(ens, povm0, config)
        value = trace.final_certificate.p_corr
        if value > best_p:
            best_povm, best_p = trace.final_povm, value
    return best_povm, float(best_p)
