
import numpy as np
import pytest

from mixrate.ensembles import DensityMatrix, Ensemble, Hamiltonian, HamiltonianSet
from mixrate.harness import RNGSpec


def rng(seed, stream=0):
    return RNGSpec(seed, stream).generator()


def random_hermitian(dim, g):
    G = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    return (G + G.conj().T) / 2


def random_density(dim, g):
    G = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    rho = G @ G.conj().T
    return DensityMatrix(rho / np.real(np.trace(rho)))


def random_unit_hamiltonian(dim, g):
    H = random_hermitian(dim, g)
    return Hamiltonian(H / np.max(np.abs(np.linalg.eigvalsh(H))))


def random_ensemble(dim, n, g):
    p = g.exponential(size=n)
    p /= p.sum()
    while np.any(p <= 1e-6):
        p = g.exponential(size=n)
        p /= p.sum()
    return Ensemble(p, [random_density(dim, g) for _ in range(n)])


def random_hamiltonian_set(dim, n, g):
    return HamiltonianSet([random_unit_hamiltonian(dim, g) for _ in range(n)])


@pytest.fixture
def qubit_pair_ensemble():
    """The worked binary qubit example: pure |0><0| paired with |+><+|."""
    r1 = np.diag([1.0, 0.0]).astype(complex)
    r2 = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    return Ensemble([0.5, 0.5], [DensityMatrix(r1), DensityMatrix(r2)])
