import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def random_density(rng, dim):
    """Random full-rank density matrix via a Wishart-style construction."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def hermitize(rho):
    """Hermitian part (rho + rho+) / 2."""
    return 0.5 * (rho + rho.conj().T)


def partial_trace_ancilla(rho):
    """Reduce a 4x4 system (x) ancilla state to the 2x2 system state: the
    oracle for reading the system population off a joint state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 joint state, got shape {rho.shape}")
    return np.einsum("iaja->ij", rho.reshape(2, 2, 2, 2))
