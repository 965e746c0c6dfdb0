
import numpy as np
import pytest

from mixrate import hermitian as hm
from mixrate.ensembles import DensityMatrix, Ensemble, Hamiltonian
from mixrate.harness import RNGSpec, _unit_spectra
from mixrate.sampling import _ginibre


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


def unit_hamiltonians(k, dim, g):
    """k unit-norm Hamiltonians (k, d, d) drawn as the search draws them: one
    call of Ginibre normals (real part, then imaginary part, per matrix), and
    H = (G + G†)/2 over its largest |eigenvalue|."""
    w, V, _ = _unit_spectra(_ginibre(g.standard_normal((k, 2, dim, dim))))
    return hm.hermitian_part(hm.reconstruct(w, V))


def random_ensemble(dim, n, g):
    p = g.exponential(size=n)
    p /= p.sum()
    while np.any(p <= 1e-6):
        p = g.exponential(size=n)
        p /= p.sum()
    return Ensemble(p, [random_density(dim, g) for _ in range(n)])


def rank_two_ensemble():
    """Two pure states at d = 4 with p = (0.3, 0.7): their expected state has
    rank 2, so the finite-difference oracle declines it (an eigenvalue 0)."""
    pure = []
    for v in ([1, 0, 0, 0], [1, 1j, 1, 0]):
        v = np.array(v, dtype=complex) / np.linalg.norm(v)
        pure.append(DensityMatrix(np.outer(v, v.conj())))
    return Ensemble([0.3, 0.7], pure)


def random_hamiltonian_set(dim, n, g):
    return tuple(random_unit_hamiltonian(dim, g) for _ in range(n))


@pytest.fixture
def qubit_pair_ensemble():
    """The worked binary qubit example: pure |0><0| paired with |+><+|."""
    r1 = np.diag([1.0, 0.0]).astype(complex)
    r2 = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    return Ensemble([0.5, 0.5], [DensityMatrix(r1), DensityMatrix(r2)])
