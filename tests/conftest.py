import numpy as np
import pytest

from mixrate import ensembles as ens
from mixrate import hermitian as hm
from mixrate import rates
from mixrate.harness import RNGSpec
from mixrate.sampling import _ginibre, _unit_spectra


def rng(seed, stream=0):
    return RNGSpec(seed, stream).generator()


def checked(p, states) -> ens._Batch:
    """The batch of one ensemble of listed probabilities p and states
    (matrices), made and checked by the parse builder as a file's are."""
    return ens._parsed(p, states)


def ensemble(p, states) -> ens.Ensemble:
    """checked(p, states) as the record the program gives out."""
    return ens._ensemble(checked(p, states), 0)


def batch(*Es: ens.Ensemble) -> ens._Batch:
    """The arrays of Ensemble records that share (n, d) as one batch, not
    checked again."""
    return ens._Batch(
        np.array([E.probabilities for E in Es]),
        np.array([[s.matrix for s in E.states] for E in Es]),
        np.array([[s.eigenvalues for s in E.states] for E in Es]),
    )


# The rates of an Ensemble record, read from the kernels: H is a Hamiltonian
# set, one matrix per member (n, d, d).


def mixing_rate(E, H) -> float:
    """i sum_x p_x Tr(H_x [rho_x, ln rho]), from every member's commutator."""
    b = batch(E)
    C = rates._commutators(b.rhos, rates._support_logs(b.p, b.rhos)[1])
    return float(rates._rate(b.p, np.asarray(H)[None], C)[0])


def max_mixing_rate(E) -> float:
    return float(rates._Spectra(batch(E)).max_rate[0])


def binary_max_rate(E) -> float:
    return float(rates._Spectra(batch(E)).binary_rate[0])


def optimal_hamiltonians(E) -> np.ndarray:
    """The maximizers H_x = I - 2 P_neg(i[rho_x, ln rho]) (n, d, d)."""
    sp = rates._Spectra(batch(E), vectors=True)
    return hm.hermitian_part(hm.reconstruct(*sp.maximizers()))[0]


def random_hermitian(dim, g):
    G = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    return (G + G.conj().T) / 2


def random_density(dim, g):
    G = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    rho = G @ G.conj().T
    return rho / np.real(np.trace(rho))


def random_unit_hamiltonian(dim, g):
    H = random_hermitian(dim, g)
    return H / np.max(np.abs(np.linalg.eigvalsh(H)))


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
    return ensemble(p, [random_density(dim, g) for _ in range(n)])


def rank_two_ensemble():
    """Two pure states at d = 4 with p = (0.3, 0.7): their expected state has
    rank 2, so the finite-difference oracle declines it (an eigenvalue 0)."""
    pure = []
    for v in ([1, 0, 0, 0], [1, 1j, 1, 0]):
        v = np.array(v, dtype=complex) / np.linalg.norm(v)
        pure.append(np.outer(v, v.conj()))
    return ensemble([0.3, 0.7], pure)


def random_hamiltonian_set(dim, n, g):
    return np.array([random_unit_hamiltonian(dim, g) for _ in range(n)])


@pytest.fixture
def qubit_pair_ensemble():
    """The worked binary qubit example: pure |0><0| paired with |+><+|."""
    r1 = np.diag([1.0, 0.0]).astype(complex)
    r2 = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    return ensemble([0.5, 0.5], [r1, r2])


def parse_ensemble(text) -> ens.Ensemble:
    """The ensemble of an ensemble file, as a record."""
    return ens._ensemble(ens._parse_ensemble(text)[0], 0)
