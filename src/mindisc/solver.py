"""Solver for minimum-error discrimination, with the binary closed form.

A problem with three or more states is solved by one monotone iteration,
the fixed-point map of Jezek, Rehacek and Fiurasek (PRA 65, 060301(R),
2002),

    pi_j <- S^{-1/2} W_j pi_j W_j S^{-1/2},   W_j = p_j rho_j,  S = sum_j W_j pi_j W_j,

whose fixed points satisfy the equality conditions and which converges
linearly on most instances, crawling near some degenerate optima such as
those of nearly symmetric qubit ensembles.  The optimality conditions are sufficient as
well as necessary, so a fixed point that also passes the witness test is a
global optimum, and one engine is enough.  ``solve`` holds its one loop:
the verdict, ``certificates._verdict``, ``certify``'s own, is checked for
the start and for each POVM the loop accepts, and the loop stops at the
first POVM where it holds, when a step finds no candidate that raises
P_corr (the floor), or when the ``max_iter`` steps of a ``SolverConfig``
are spent.  The verdict is the witness test alone, every witness
eigenvalue at least -tol, which bounds the gap to the optimum by d tol
whether or not Gamma is Hermitian, so the loop takes no step only to make
Gamma Hermitian.  Before the verdict's witness scan, each accepted POVM
goes through two cheaper tests that can only prove the verdict fails: the
trace test t_j = tr(G_j pi_j) >= lambda_min(G_j) tr pi_j, from one real
gemv and the diagonals of the products W_j pi_j the step already formed,
and a batched Cholesky of the shifted witnesses G_j + (tol + delta) I.
Each allows for rounding, so the stops are those of the scan alone.  The
result is certified once, when the solve stops.

The map cannot grow an element's support: an element that is zero stays
zero.  So a given start that fails its verdict and leaves empty an element
whose state has a positive prior is mixed once with the uniform
measurement, (1 - ``EMPTY_START_MIX``) start + ``EMPTY_START_MIX`` I/n,
and the loop climbs from the mix.  The default start, the uniform
measurement, has no empty element and skips the test.

The iteration runs on factors A_j with pi_j = A_j A_j^*, through the map
g(A)_j = S^{-1/2} W_j A_j, S = sum_j (W_j A_j)(W_j A_j)^*: the same step,
whose output is a measurement by construction.  S is one product of the
side-by-side matrix [W_1 A_1 ... W_n A_n] with its conjugate transpose,
and a full-rank S, the usual case, costs no kernel projector.  An
ill-conditioned S (``povm.CONDITION_RATIO``) amplifies rounding in the
element sum, so then g is normalised a second time by T^{-1/2}, T the sum
of its Gram products, which is near I.  Anderson acceleration (Walker and
Ni, SIAM J. Numer. Anal. 49, 1715 (2011)) feeds the map a mix of its last
few inputs and outputs in place of the last output, from a rolling history
that adds one row of inner products per step; its coefficients come from
an ``eigh`` of that history's k x k Gram matrix, with the relative cutoff
of ``lstsq``.  The mix is only a proposal: it is kept when its image
raises P_corr and is otherwise dropped, with the history, for the plain
step.

For two states the conditions hold at Helstrom's measurement (Helstrom,
Quantum Detection and Estimation Theory, 1976): outcome 0 projects onto
the nonnegative eigenspace of Delta = p1 rho1 - p2 rho2 and outcome 1 onto
the rest.  A binary solve checks the start's verdict and, short of it,
takes one step to that measurement from one ``eigh`` of Delta, whatever
the start; ``helstrom_binary`` shares the kernel, so the two return the
same bits.  Delta is the difference of two rows of the ensemble's
validated, exactly Hermitian stack of weighted states, so the kernel
eigendecomposes it with ``checked_eigh`` and ``fix_phase`` and no second
Hermiticity check: ``spectral_decompose`` serves the public API and
``min_eigenvalue`` alone.  A binary solve then pays for at most four LAPACK
calls (the start's verdict, Delta, validation and the certificate) and
their checks.

The paper's own argument is the perturbation that ``perturb``, ``gain``
and ``best_epsilon`` expose, toward a negative mode of
``find_negative_mode``.  Whenever some witness operator G_j has negative
eigenvalues, let V hold their unit eigenvectors in its columns and
P = V V* be the projector onto that negative eigenspace.  The block update

    pi'_i = (1 - eps P) pi_i (1 - eps P) + eps (2 - eps) P [i == j]

is again a valid measurement: each damped element stays positive
semidefinite, and since P^2 = P the elements still sum to
(1 - eps P)^2 + eps (2 - eps) P = 1.  It improves the success probability
by 2 eps sum_k |lam_k| to first order, summed over the negative
eigenvalues -|lam_k|.  The improvement is exactly quadratic in eps, and its
two coefficients come from k x k blocks for a k-column V; ``best_epsilon``
takes the argmax of that quadratic.  So a point with a negative mode is
not optimal, and one with none satisfies the sufficient conditions.

At the benchmark's sizes (d <= 16, n <= 8) a step is bound by the dispatch
of its few dozen numpy calls, not by arithmetic on its small matrices, so
the loop's kernels keep their calls and temporaries few.  The Lagrange
operator Gamma = sum_j W_j pi_j is formed with ``povm._gamma`` once for the
start, once for a mixed start, and once per candidate: Re tr Gamma is the
candidate's P_corr, which the accept test reads, and an accepted
candidate's Gamma is what its verdict reads.  The verdict scans the
witnesses only once both screens pass.  The engine skips
the imaginary-trace guard, since its W and pi are Hermitian by
construction and a NaN P_corr already stops it; ``p_correct`` and
``certify`` run the guard, then form Gamma and P_corr the same way, so a
solve's last record, ``p_correct`` of the returned POVM and its
certificate agree bit for bit, and every returned POVM is guarded once.
Every stack sum (Gamma, the average state, the element sum of the
completeness test, the S of a completion) is ``np.add.reduce``, which
adds an (n, d, d) stack in index order when d >= 2 (a d = 1 stack
pairwise).  The square-root measurement and ``random_povm`` share one
completion kernel, ``povm._completed_povm``, and the factor map calls its
normalisers, ``povm._normalizer`` and ``povm._sum_normalizer``, directly:
deterministic for a given numpy and BLAS build, with no eigenvector phase
fixed.  Norms follow numpy's own formula without its wrapper, and
finiteness tests take one sum.  The default start is built directly as an
(n, d, d) stack of identity/n, valid by construction, with no validation.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .certificates import DEFAULT_TOL, Certificate, Witness, certify
from .certificates import (
    _check_real,
    _check_tolerance,
    _max_norm,
    _passes_cholesky_test,
    _passes_trace_test,
    _verdict,
)
from .ensembles import DensityMatrix, Ensemble
from .matrices import (
    EPS,
    NumericFailure,
    _all_finite,
    _hermitian_part,
    checked_eigh,
    fix_phase,
)
from .povm import (
    COMPLETENESS_TOL,
    SUPPORT_FLOOR,
    Povm,
    _completeness_deviation,
    _gamma,
    _normalizer,
    _sum_normalizer,
    _uniform_elements,
    check_match,
    check_outcome,
    random_povm,
    square_root_measurement,
    uniform_povm,
    validate_povm,
)

# a start that leaves a seen element empty is mixed with this weight of the
# uniform POVM, since the fixed-point map cannot grow an empty element
EMPTY_START_MIX = 1e-3
# the fixed-point engine's Anderson mix spans this many differences of its
# last ANDERSON_DEPTH + 1 (input, output) pairs
ANDERSON_DEPTH = 3


@dataclass(frozen=True)
class IterationRecord:
    """One accepted step and the P_corr it reached.  ``engine`` is
    "fixed_point" for a step of three or more states and "helstrom" for the
    closed-form step of a binary problem."""

    p_corr: float
    engine: str


@dataclass(frozen=True)
class SolveTrace:
    """Outcome of one solve call: a record of every step from the start.

    ``converged`` equals ``final_certificate.is_optimal`` and
    ``iterations_used`` equals ``len(iterations)``; both stay because the
    benchmark harness reads and builds them."""

    iterations: tuple[IterationRecord, ...]
    final_povm: Povm
    final_certificate: Certificate
    converged: bool
    iterations_used: int


def _check_count(name: str, value) -> None:
    """Reject a count that is not an integer (a bool is not one) or is below 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class SolverConfig:
    """Settings of one ``solve`` call.

    ``tol`` is the certificate tolerance, a finite positive number.
    ``max_iter``, an integer of at least 1, is the step budget: a solve
    takes at most that many steps.
    """

    tol: float = DEFAULT_TOL
    max_iter: int = 60_000

    def __post_init__(self):
        _check_tolerance(self.tol)
        _check_count("max_iter", self.max_iter)


# the settings of a solve called without a config; frozen, so one serves all
_DEFAULT_CONFIG = SolverConfig()


# ---------------------------------------------------------------------------
# inner loop on (n, d, d) stacks; public operations wrap these with checked types

def _block_coefficients(
    weighted: np.ndarray, elements: np.ndarray, j0: int, basis: np.ndarray
) -> tuple[float, float]:
    """Coefficients (a, b) of the exact gain  a eps^2 + b eps  of the block
    step toward outcome ``j0`` along the orthonormal columns V of ``basis``,
    from k x k blocks (k columns):

        a = sum_i Re tr((V* W_i V)(V* pi_i V)) - tr(V* W_j0 V)
        b = 2 tr(V* W_j0 V) - 2 sum_i Re tr((pi_i V)* (W_i V))

    Each sum is one ``vdot`` over the stacked blocks; its real part is the
    sum's, since V* pi_i V is Hermitian.
    """
    basis_h = basis.conj().T
    w_v = weighted @ basis
    pi_v = elements @ basis
    v_w_v = basis_h @ w_v
    expect_w = float(np.trace(v_w_v[j0]).real)
    a = np.vdot(basis_h @ pi_v, v_w_v).real - expect_w
    b = 2.0 * expect_w - 2.0 * np.vdot(pi_v, w_v).real
    return float(a), float(b)


def _argmax_quadratic(a: float, b: float) -> float:
    """Maximizer of a x^2 + b x over (0, 1] for b > 0."""
    if a < 0.0:
        return min(1.0, -b / (2.0 * a))
    return 1.0


def _block_step(
    elements: np.ndarray, j0: int, basis: np.ndarray, epsilon: float
) -> np.ndarray:
    """pi'_i = (I - eps P) pi_i (I - eps P) + eps (2 - eps) P [i == j0] with
    P = V V* the projector onto the orthonormal columns V of ``basis``."""
    projector = basis @ basis.conj().T
    damp = np.eye(elements.shape[1]) - epsilon * projector
    updated = damp @ elements @ damp
    updated[j0] += epsilon * (2.0 - epsilon) * projector
    return _hermitian_part(updated)


# ---------------------------------------------------------------------------
# public operations

def _check_epsilon(epsilon: float) -> None:
    _check_real("epsilon", epsilon)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")


def _check_mode(povm: Povm, mode: Witness) -> np.ndarray:
    check_outcome(povm, mode.outcome)
    vector = np.asarray(mode.vector, dtype=complex).reshape(-1)
    if vector.shape[0] != povm.dim:
        raise ValueError(
            f"mode vector has dimension {vector.shape[0]}, POVM has {povm.dim}"
        )
    if not np.isfinite(vector).all():
        raise ValueError("mode vector has non-finite entries")
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError("mode vector is zero")
    return vector / norm


def perturb(povm: Povm, mode: Witness, epsilon: float) -> Povm:
    """Apply the rank-1 update toward ``mode`` with step size ``epsilon``.

    Valid for every epsilon in (0, 1]; the output is itself a checked Povm.
    """
    _check_epsilon(epsilon)
    vector = _check_mode(povm, mode)
    return validate_povm(_block_step(povm.elements, mode.outcome, vector[:, None], epsilon))


def gain(ens: Ensemble, povm: Povm, mode: Witness, epsilon: float) -> float:
    """Exact success-probability change of the perturbation at ``epsilon``.

    Evaluated in closed form as a quadratic in epsilon; for a negative mode
    of ``find_negative_mode`` the linear coefficient is -2 ``mode.eigenvalue``.
    """
    _check_epsilon(epsilon)
    check_match(ens, povm)
    vector = _check_mode(povm, mode)
    a, b = _block_coefficients(ens.weighted_states, povm.elements, mode.outcome, vector[:, None])
    return (a * epsilon + b) * epsilon


def best_epsilon(ens: Ensemble, povm: Povm, mode: Witness) -> float:
    """Step size maximizing the exact quadratic gain over (0, 1].

    Raises ValueError when the gain's linear coefficient is not positive:
    then no step along ``mode`` gains to first order, and the maximum over
    (0, 1] may not exist.
    """
    check_match(ens, povm)
    vector = _check_mode(povm, mode)
    a, b = _block_coefficients(ens.weighted_states, povm.elements, mode.outcome, vector[:, None])
    if not b > 0.0:
        raise ValueError(f"not an ascent direction: linear gain coefficient {b!r} <= 0")
    return _argmax_quadratic(a, b)


def _factor_map(
    weighted: np.ndarray, factors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The fixed-point step on factors A_j of pi_j = A_j A_j^*:
    g(A)_j = S^{-1/2} W_j A_j with S = sum_j (W_j A_j)(W_j A_j)^*.

    S is one product of the side-by-side (d, n d) matrix [W_1 A_1 ... W_n A_n]
    with its conjugate transpose.  Returns g(A), the POVM g(A) g(A)^* with
    S's kernel projector on outcome 0 (exactly Hermitian, not validated),
    and that projector, which is None when S is full rank, that is when
    g(A) factors the whole POVM.  The elements are formed as the Gram
    products g_j g_j^*, which stay positive semidefinite to rounding however
    ill-conditioned S is; S^{-1/2} B_j S^{-1/2} does not.  Their sum need
    not stay near I: an ill-conditioned full-rank S amplifies rounding in
    it, so then g is normalised once more, g <- T^{-1/2} g with T the sum
    of the Gram products, and the elements are formed again.
    """
    n, d, _ = factors.shape
    # the products are written straight into the side matrix's rows
    side = np.empty((d, n, d), dtype=complex)
    products = np.matmul(weighted, factors, out=side.transpose(1, 0, 2))
    side = side.reshape(d, n * d)
    inv_sqrt, kernel, ill = _normalizer(side @ side.conj().T)
    outputs = inv_sqrt @ products
    elements = _hermitian_part(outputs @ outputs.conj().swapaxes(1, 2))
    if ill:
        outputs = _sum_normalizer(elements) @ outputs
        elements = _hermitian_part(outputs @ outputs.conj().swapaxes(1, 2))
    if kernel is not None:
        elements[0] += kernel
    return outputs, elements, kernel


def _kernel_is_unseen(weighted: np.ndarray, kernel: np.ndarray) -> bool:
    """Whether every W_j annihilates the kernel projector K that
    ``_factor_map`` put on outcome 0.  Then the products W_j A_j, and so the
    map, are the same whether or not the factors hold K."""
    return _max_norm(weighted @ kernel) <= SUPPORT_FLOOR


def _accepts(candidate: np.ndarray, new_p: float, current_p: float) -> bool:
    """Whether a fixed-point step's POVM raises P_corr and sums to the
    identity within ``COMPLETENESS_TOL``, as ``validate_povm`` requires."""
    return new_p > current_p and _completeness_deviation(candidate) <= COMPLETENESS_TOL


def _hermitian_sqrt(elements: np.ndarray) -> np.ndarray:
    """Hermitian square root of each PSD element, rounding negatives to zero."""
    eigenvalues, eigenvectors = checked_eigh(elements)
    roots = np.sqrt(np.maximum(eigenvalues, 0.0))
    return (eigenvectors * roots[:, None, :]) @ eigenvectors.conj().swapaxes(1, 2)


def _real_view(a: np.ndarray) -> np.ndarray:
    """The entries of a complex128 array as one real vector (re, im
    interleaved), without a copy when ``a`` is contiguous."""
    return a.reshape(-1).view(float)


class _AndersonHistory:
    """Rolling history of the fixed-point map for the Anderson mix.

    Keeps the differences of the last ``ANDERSON_DEPTH + 1`` residuals
    f = g - x and outputs g of the map, oldest first, as real vectors in the
    rows of ``df`` and ``dg``, with the real Gram matrix of the residual
    differences.
    A push adds one row of inner products and drops the oldest.  The map is
    not complex-analytic, so the mix coefficients are real: they are the
    minimum-norm least-squares solution of dF gamma ~ f_k over the real
    space of factor entries, from an ``eigh`` of the k x k Gram matrix.
    Eigenvalues at or below eps k lam_max, the cutoff of numpy's
    ``lstsq(rcond=None)``, drop directions the history no longer resolves;
    an all-zero Gram matrix gives no coefficients, and the mix is g_k.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        size = 2 * math.prod(shape)
        self.df = np.empty((ANDERSON_DEPTH, size))
        self.dg = np.empty((ANDERSON_DEPTH, size))
        self.gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
        self.clear()

    def clear(self) -> None:
        self.count = 0
        self.last: tuple[np.ndarray, np.ndarray] | None = None

    def push(self, x: np.ndarray, g: np.ndarray) -> None:
        """Add the map's input ``x`` and output ``g``."""
        g = _real_view(g)
        f = g - _real_view(x)
        if self.last is not None:
            k = self.count
            if k == len(self.df):
                k -= 1
                self.df[:k] = self.df[1:]
                self.dg[:k] = self.dg[1:]
                self.gram[:k, :k] = self.gram[1:, 1:]
            np.subtract(f, self.last[0], out=self.df[k])
            np.subtract(g, self.last[1], out=self.dg[k])
            row = self.df[: k + 1] @ self.df[k]
            self.gram[k, : k + 1] = row
            self.gram[: k + 1, k] = row
            self.count = k + 1
        self.last = (f, g)

    def mix(self) -> np.ndarray:
        """The Anderson mix g_k - dG gamma, shaped as the map's factors;
        needs ``count >= 1``."""
        k = self.count
        f, g = self.last
        values, vectors = np.linalg.eigh(self.gram[:k, :k])
        lams = values.tolist()
        # eigenvalues ascend; those at or below eps k lam_max are dropped, as
        # lstsq(rcond=None) drops singular values of this PSD matrix
        kept = bisect.bisect_right(lams, EPS * k * lams[-1])
        basis = vectors[:, kept:]
        gamma = basis @ ((self.df[:k] @ f) @ basis / values[kept:])
        return (g - gamma @ self.dg[:k]).view(complex).reshape(self.shape)


class _FixedPoint:
    """The fixed-point engine of one solve: its factors and Anderson history.

    A step maps factors through ``_factor_map``.  Its input is the Anderson
    mix of the last ``ANDERSON_DEPTH + 1`` (input, output) pairs; a mix that
    is not finite, does not raise P_corr, or whose elements miss the
    identity by more than ``COMPLETENESS_TOL`` drops the history and gives
    way to the plain step from the accepted factors.  Only a plain step
    that fails the same tests is the floor, which ends the solve.  Every
    accepted POVM is thus an output of the map that ``validate_povm``
    accepts.  When S has a kernel, its projector on outcome 0 is in no
    factor.  The factors and the history carry on if every W_j annihilates
    that projector, as when the states do not span the space; otherwise the
    factors restart from the Hermitian square roots of the accepted POVM,
    as they do at the first step.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.factors: np.ndarray | None = None
        self.history = _AndersonHistory(shape)

    def step(
        self, weighted: np.ndarray, elements: np.ndarray, current_p: float
    ) -> tuple[IterationRecord, np.ndarray, np.ndarray, np.ndarray] | None:
        """One step from the accepted ``elements``, whose P_corr is
        ``current_p``: returns its record, the new POVM, that POVM's
        products W_j pi_j and their sum Gamma, or None on the floor."""
        if self.factors is None:
            self.factors = _hermitian_sqrt(elements)
        history = self.history
        if history.count:
            mixed = history.mix()
            if _all_finite(mixed):
                step = self._trial(weighted, mixed, current_p, False)
                if step is not None:
                    return step
            history.clear()
        return self._trial(weighted, self.factors, current_p, True)

    def _trial(
        self, weighted: np.ndarray, factors: np.ndarray, current_p: float, plain: bool
    ) -> tuple[IterationRecord, np.ndarray, np.ndarray, np.ndarray] | None:
        """Map ``factors``, form the image's Gamma and keep the image if
        ``_accepts`` it; None otherwise.  A P_corr that is not finite
        rejects a mix and raises on the ``plain`` step."""
        output, candidate, kernel = _factor_map(weighted, factors)
        products = weighted @ candidate
        gamma, new_p = _gamma(products)
        if plain and not math.isfinite(new_p):
            raise NumericFailure("success probability is not finite")
        if not _accepts(candidate, new_p, current_p):
            return None
        if kernel is None or _kernel_is_unseen(weighted, kernel):
            self.factors = output
            self.history.push(factors, output)
        else:
            self.factors = None
            self.history.clear()
        record = IterationRecord(new_p, "fixed_point")
        return record, candidate, products, gamma


def _leaves_a_seen_element_empty(priors: np.ndarray, elements: np.ndarray) -> bool:
    """Whether some element of trace at most ``SUPPORT_FLOOR`` belongs to a
    state of positive prior: the fixed-point map cannot grow it."""
    traces = np.einsum("ijj->i", elements).real
    return bool(((traces <= SUPPORT_FLOOR) & (priors > 0.0)).any())


def solve(
    ens: Ensemble, start: Povm | None = None, config: SolverConfig | None = None
) -> SolveTrace:
    """Run the fixed-point engine, or the binary closed form, to a
    certified optimum.

    Runs one start, ``start`` (default: the uniform POVM, built as a new
    stack for each call and bit for bit ``uniform_povm``'s), for at most
    ``config.max_iter`` steps.  A problem with three or more states runs
    the fixed-point engine until the verdict holds, until a step finds no
    candidate that raises P_corr (the floor) or until the budget is spent.
    A given start that fails its verdict and leaves empty an element whose
    state has a positive prior is first mixed once,
    (1 - ``EMPTY_START_MIX``) start + ``EMPTY_START_MIX`` I/n, since the
    map cannot grow an empty element; the records then climb from the mix,
    not from the start.  So the returned P_corr is at least the mix's,
    (1 - EMPTY_START_MIX) P_start + EMPTY_START_MIX / n, since the uniform
    POVM scores 1/n, and a solve capped at a few steps can end below
    P_start itself.  A binary problem runs no
    engine: unless the start's verdict holds, it takes one "helstrom" step
    to ``helstrom_binary``'s POVM, bit for bit, and stops.  Either way the
    result is then validated and certified at ``config.tol``.  The
    optimality conditions are sufficient as well as necessary, so a run
    that stops short has no local maximum to escape: there is nothing to
    restart.  ``converged`` is True exactly when the returned certificate
    is optimal; ``iterations`` holds every step from the start, and
    ``iterations_used`` counts them.  No random numbers are drawn.  A
    ``start`` that is not a Povm, or a ``config`` that is not a
    SolverConfig, raises TypeError.

    Each step returns a candidate with its Gamma and P_corr, or None on the
    floor.  Gamma is formed once for the start, once for a mixed start and
    once per candidate, and ``certify``'s verdict, every witness
    eigenvalue at least ``-config.tol``, is checked for the start and for
    each accepted candidate, so a converged solve's gap bound is at most
    d ``config.tol``.  An accepted candidate's scan runs only after the
    trace and Cholesky screens of ``certificates`` pass; they fail only
    where the scan would, so they move no stop.  A solve that does not
    converge returns a certificate whose witness lies below
    ``-config.tol``.
    """
    if config is None:
        config = _DEFAULT_CONFIG
    elif not isinstance(config, SolverConfig):
        raise TypeError(f"expected a SolverConfig, got {type(config).__name__}")
    weighted, tol, budget = ens.weighted_states, config.tol, config.max_iter
    if start is None:
        # the uniform POVM's stack, valid by construction and new to this call
        elements = _uniform_elements(len(ens), ens.dim)
    else:
        check_match(ens, start)
        elements = start.elements
    gamma, p_corr = _gamma(weighted @ elements)
    holds = _verdict(gamma, weighted, tol)[0]
    if len(ens) == 2 and not holds:
        # one step to Helstrom's measurement, with no verdict check after it
        elements = _helstrom_elements(weighted[0] - weighted[1])
        record = IterationRecord(_gamma(weighted @ elements)[1], "helstrom")
        return _finish(ens, elements, [record], tol)
    if start is not None and not holds and _leaves_a_seen_element_empty(ens.priors, elements):
        uniform = _uniform_elements(len(ens), ens.dim)
        elements = (1.0 - EMPTY_START_MIX) * elements + EMPTY_START_MIX * uniform
        gamma, p_corr = _gamma(weighted @ elements)
    records: list[IterationRecord] = []
    fixed = _FixedPoint(elements.shape)
    while not holds and len(records) < budget:
        step = fixed.step(weighted, elements, p_corr)
        if step is None:
            break
        record, elements, products, gamma = step
        p_corr = record.p_corr
        records.append(record)
        holds = (
            _passes_trace_test(gamma, products, elements, tol)
            and _passes_cholesky_test(gamma, weighted, tol)
            and _verdict(gamma, weighted, tol)[0]
        )
    return _finish(ens, elements, records, tol)


def _finish(
    ens: Ensemble, elements: np.ndarray, records: list[IterationRecord], tol: float
) -> SolveTrace:
    """The trace of a solve that stops at ``elements``: validated once and
    certified once, at ``tol``."""
    povm = validate_povm(elements)
    cert = certify(ens, povm, tol)
    return SolveTrace(
        iterations=tuple(records),
        final_povm=povm,
        final_certificate=cert,
        converged=cert.is_optimal,
        iterations_used=len(records),
    )


def _helstrom_elements(delta: np.ndarray) -> np.ndarray:
    """Helstrom's measurement for Delta = p1 rho1 - p2 rho2 as a (2, d, d)
    stack, exactly Hermitian and not validated: outcome 0 projects onto the
    nonnegative eigenspace of Delta (zero eigenvalues included, which
    settles ties), outcome 1 onto the rest.

    Delta is a difference of two rows of the ensemble's exactly Hermitian
    stack of weighted states, so it is Hermitian by construction and is
    neither checked nor symmetrized again; ``eigh`` reads only its lower
    triangle.  The kept eigenvectors take ``fix_phase``'s convention, which
    fixes each column on its own, and the test suite pins both elements to
    the bits of the path through ``spectral_decompose``.  Both elements are
    written into one preallocated stack."""
    d = len(delta)
    values, vectors = checked_eigh(delta)
    vs = fix_phase(vectors[:, values >= 0.0])
    elements = np.empty((2, d, d), dtype=complex)
    _hermitian_part(vs @ vs.conj().T, out=elements[0])
    _hermitian_part(np.eye(d) - elements[0], out=elements[1])
    return elements


def helstrom_binary(
    p1: float, rho1: DensityMatrix, p2: float, rho2: DensityMatrix
) -> tuple[Povm, float]:
    """Closed-form optimal binary measurement and its success probability.

    Projects outcome 0 onto the nonnegative eigenspace of
    p1 rho1 - p2 rho2 (zero eigenvalues included, which settles ties), so
    P_corr = p2 + tr(Delta pi_1) = (1 + sum |eig(Delta)|) / 2.  A binary
    ``solve`` that steps returns this POVM bit for bit.
    """
    ens = Ensemble((p1, p2), (rho1, rho2))
    delta = ens.weighted(0) - ens.weighted(1)
    elements = _helstrom_elements(delta)
    success = float(ens.priors[1]) + float(np.trace(delta @ elements[0]).real)
    return validate_povm(elements), success


def brute_force(ens: Ensemble, budget: int = 16, seed: int = 0) -> tuple[Povm, float]:
    """Desk-scale multi-start run of ``solve``.

    Runs ``solve`` from the uniform POVM, the square-root measurement and
    ``budget`` random POVMs, and returns the best POVM found with its
    success probability.  It shares ``solve``'s fixed-point engine, so it
    checks that the engine's result does not depend on the start; it is not
    an independent oracle.  On a binary problem every
    start that does not already certify returns ``helstrom_binary``'s
    POVM, so there it checks nothing beyond the closed form.  Guard rails:
    dimension <= 4, at most 4 states, and ``budget`` an integer of at least 1.
    """
    if ens.dim > 4 or len(ens) > 4:
        raise ValueError(
            f"brute_force is limited to dim <= 4 and n <= 4, got dim={ens.dim}, n={len(ens)}"
        )
    _check_count("budget", budget)
    rng = np.random.default_rng(seed)

    starts: list[Povm] = [uniform_povm(len(ens), ens.dim)]
    try:
        starts.append(square_root_measurement(ens))
    except ValueError:
        pass
    for _ in range(budget):
        starts.append(random_povm(len(ens), ens.dim, rng))

    # modest iteration cap: the multi-start sweep, not the depth of one
    # run, does the work here, and stalled-but-high starts still rank
    # correctly
    config = SolverConfig(max_iter=600)
    best_povm: Povm | None = None
    best_p = -np.inf
    for povm0 in starts:
        trace = solve(ens, povm0, config)
        value = trace.final_certificate.p_corr
        if value > best_p:
            best_povm, best_p = trace.final_povm, value
    return best_povm, float(best_p)
