import numpy as np
import pytest

from cvbound.states import GaussianState


def brute_variance(cov, coeffs):
    """Independent quadratic-form oracle: explicit double loop."""
    total = 0.0
    for a in range(len(coeffs)):
        for b in range(len(coeffs)):
            total += coeffs[a] * coeffs[b] * cov[a, b]
    return total


def two_mode_symplectic_eigs(V):
    """Closed-form two-mode symplectic spectrum from the block invariants."""
    A, B, C = V[0:2, 0:2], V[2:4, 2:4], V[0:2, 2:4]
    delta = np.linalg.det(A) + np.linalg.det(B) + 2 * np.linalg.det(C)
    disc = np.sqrt(delta**2 - 4 * np.linalg.det(V))
    return np.sort(np.sqrt([(delta - disc) / 2, (delta + disc) / 2]))


def conjugated(state, S):
    """The state after the linear map S: mean -> S mean, cov -> S cov S^T."""
    return GaussianState(S @ state.mean, S @ state.cov @ S.T)


def with_noise(state, pattern, sigma):
    """The state mixed over Gaussian displacements along ``pattern``: cov gains sigma^2 p p^T."""
    return GaussianState(state.mean, state.cov + sigma**2 * np.outer(pattern, pattern))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
