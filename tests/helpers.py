"""Shared construction helpers for the test suite."""

from __future__ import annotations

import numpy as np

import mindisc as md


# one invalid qubit state of each kind a state check names
BAD_STATES = {
    "non-finite": np.array([[np.nan, 0], [0, 0.5]]),
    "non-hermitian": np.array([[0.5, 0.3], [0.0, 0.5]]),
    "non-psd": np.diag([1.5, -0.5]),
    "trace": np.diag([0.6, 0.6]),
}


def padded_bad_states(dim: int) -> dict:
    """BAD_STATES padded with zeros to order ``dim``: each fails the check
    its qubit original fails, with the same message."""
    return {kind: np.pad(m, (0, dim - 2)) for kind, m in BAD_STATES.items()}


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_complex(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_instance(seed: int, dim: int, n: int) -> tuple[md.Ensemble, md.Povm]:
    """Seeded random ensemble plus an independent random POVM."""
    ens = md.random_mixed(dim, n, seed=seed)
    povm = md.random_povm(n, dim, np.random.default_rng(seed + 10_000_019))
    return ens, povm


def suboptimal_mode_instance(seed: int, dim: int = 2, n: int = 3, min_lam: float = 0.01):
    """Random instance whose most negative witness eigenvalue is at least min_lam.

    Returns (ensemble, povm, mode); scans successive seeds until one
    qualifies, so a fixed seed yields a fixed instance.
    """
    probe = seed
    while True:
        ens, povm = random_instance(probe, dim, n)
        mode = md.find_negative_mode(ens, povm)
        if mode is not None and -mode.eigenvalue >= min_lam:
            return ens, povm, mode
        probe += 1_000_003


def _perturbed_qubits(n: int, delta: float, theta: float, seed: int) -> md.Ensemble:
    """n equiprior kets (cos theta, e^{2 pi i m / n} sin theta) + delta (g + i g'):
    symmetric qubit ensembles nudged off their degenerate optima."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 2))
    g_imag = rng.standard_normal((n, 2))
    phases = np.exp(2j * np.pi * np.arange(n) / n)
    kets = np.stack([np.full(n, np.cos(theta)), phases * np.sin(theta)], axis=1)
    kets = kets + delta * (g + 1j * g_imag)
    return md.Ensemble(np.full(n, 1 / n), tuple(md.pure_state(k) for k in kets))


def _zero_prior_rank_two(seed: int) -> md.Ensemble:
    """Four random rank-2 states in d=6 under random priors, the first prior 0."""
    rng = np.random.default_rng(seed)
    priors = rng.random(4)
    priors[0] = 0.0
    states = []
    for _ in range(4):
        a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        states.append(md.validate_density(a @ a.conj().T / np.linalg.norm(a) ** 2))
    return md.Ensemble(priors / priors.sum(), tuple(states))


def count_calls(monkeypatch, module, name: str) -> list:
    """Shapes of the arrays passed first to ``module.<name>`` from now on."""
    calls = []
    real = getattr(module, name)

    def counted(m, *args):
        calls.append(np.shape(m))
        return real(m, *args)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_eigh_calls(monkeypatch, module) -> list:
    """Shapes of the matrices passed to ``module.checked_eigh`` from now on."""
    return count_calls(monkeypatch, module, "checked_eigh")


def _ill_conditioned_triple(seed: int) -> md.Ensemble:
    """Three equiprior rank-2 states in a common 3-dimensional subspace of
    d=4, each with a log-uniform weight in [1e-12, 1e-9] of its trace on the
    fourth direction, all turned by one seeded random unitary: the average
    state is full rank, with a condition number of 1e9 to 1e12."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    unitary = np.linalg.qr(g)[0]
    states = []
    for _ in range(3):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        weight = 10.0 ** rng.uniform(-12, -9)
        rho = np.zeros((4, 4), dtype=complex)
        rho[:3, :3] = a @ a.conj().T / np.linalg.norm(a) ** 2
        rho *= 1 - weight
        rho[3, 3] = weight
        states.append(md.validate_density(unitary @ rho @ unitary.conj().T))
    return md.Ensemble(np.full(3, 1 / 3), tuple(states))
