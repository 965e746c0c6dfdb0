import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from mixrate import hermitian as hm
from mixrate import rates
from mixrate.errors import DimMismatch, DomainError, NonHermitian

from conftest import random_hermitian, rng

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


class TestEigHermitian:
    def test_diagonal_input(self):
        w, V = hm.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1, 2, 3])
        # permutation eigenvectors, one unit entry per column
        assert np.allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]])

    def test_pauli_x_spectrum(self):
        w, _ = hm.eig_hermitian(PAULI_X)
        assert np.allclose(w, [-1, 1])

    def test_random_reconstruction_residual(self):
        g = rng(100)
        M = random_hermitian(8, g)
        w, V = hm.eig_hermitian(M)
        resid = hm.frobenius(M - hm.reconstruct(w, V))
        assert resid <= 1e-10 * max(1.0, hm.frobenius(M))

    def test_residuals_over_many_dims(self):
        g = rng(101)
        for _ in range(1000):
            dim = int(g.integers(2, 17))
            M = random_hermitian(dim, g)
            w, V = hm.eig_hermitian(M)
            scale = max(1.0, hm.frobenius(M))
            assert hm.frobenius(M - hm.reconstruct(w, V)) <= 1e-10 * scale
            assert hm.frobenius(V.conj().T @ V - np.eye(dim)) <= 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hm.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimMismatch):
            hm.eig_hermitian(np.zeros((2, 3)))


class TestEigHermitianStack:
    """eig_hermitian and eigvals_hermitian on a stack: each matrix gets the
    single-matrix result and checks, in one call."""

    def test_matches_each_matrix(self):
        g = rng(102)
        Ms = np.stack([random_hermitian(5, g) for _ in range(4)])
        W, Vs = hm.eig_hermitian(Ms)
        assert np.allclose(W, hm.eigvals_hermitian(Ms), atol=1e-12)
        for M, w, V in zip(Ms, W, Vs):
            assert np.allclose(w, hm.eig_hermitian(M).eigenvalues, atol=1e-12)
            assert hm.frobenius(M - hm.reconstruct(w, V)) <= 1e-10 * max(1.0, hm.frobenius(M))

    def test_rejects_one_bad_matrix(self):
        Ms = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        for f in (hm.eig_hermitian, hm.eigvals_hermitian):
            with pytest.raises(NonHermitian):
                f(Ms)
            with pytest.raises(DomainError):
                f(np.stack([np.eye(2), np.full((2, 2), np.nan)]))
            with pytest.raises(DimMismatch):
                f(np.zeros((2, 2, 3)))
            with pytest.raises(DimMismatch):
                f(np.zeros(3))

    def test_one_matrix_is_a_stack_of_one(self):
        # A single matrix takes the stacked path: bit-equal to a stack of one.
        M = random_hermitian(6, rng(103))
        for a, b in zip(hm.eig_hermitian(M), hm.eig_hermitian(M[None])):
            assert np.array_equal(a, b[0])
        assert np.array_equal(hm.eigvals_hermitian(M), hm.eigvals_hermitian(M[None])[0])
        assert np.array_equal(hm.require_hermitian(M), hm.require_hermitian(M[None])[0])


class TestMatrixFn:
    """The reference matrix function, which builds the unitaries of other tests."""

    def test_diagonal_log(self):
        out = reference.matrix_fn(np.diag([1.0, math.e ** 2]), np.log)
        assert np.allclose(out, np.diag([0.0, 2.0]), atol=1e-12)

    def test_identity_function(self):
        g = rng(102)
        M = random_hermitian(5, g)
        assert np.allclose(reference.matrix_fn(M, lambda w: w), M, atol=1e-12)

    def test_log_of_singular_matrix_rejected(self):
        with pytest.raises(DomainError):
            reference.matrix_fn(np.diag([0.0, 1.0]), np.log)

    def test_exp_log_round_trip(self):
        g = rng(103)
        for _ in range(20):
            M = random_hermitian(6, g)
            back = reference.matrix_fn(reference.matrix_fn(M, np.exp), np.log)
            assert hm.frobenius(back - M) <= 1e-8 * hm.frobenius(M)

    def test_complex_valued_f_builds_unitary(self):
        g = rng(104)
        U = reference.matrix_fn(random_hermitian(4, g), lambda w: np.exp(1j * w))
        assert np.allclose(U @ U.conj().T, np.eye(4), atol=1e-12)


class TestSupportLog:
    def test_full_rank_matches_matrix_fn(self):
        M = np.diag([0.5, 0.5])
        assert np.allclose(hm.support_log(M), np.diag([-math.log(2)] * 2))

    def test_kernel_mapped_to_zero(self):
        assert np.allclose(hm.support_log(np.diag([1.0, 0.0])), np.zeros((2, 2)))

    def test_kernel_isolated(self):
        out = hm.support_log(np.diag([math.e, 0.0, math.e]))
        assert np.allclose(out, np.diag([1.0, 0.0, 1.0]), atol=1e-12)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            hm.support_log(np.diag([1.0, -0.5]))

    def test_bad_rank_tol(self):
        with pytest.raises(TypeError):
            hm.support_log(np.eye(2), rank_tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12, -1.0])
    def test_rank_tol_must_be_positive_and_finite(self, tol):
        # A NaN tolerance once made every eigenvalue kernel: ln(I/2) came out
        # 0. The rank cut is now the constant RANK_TOL, and no call takes one.
        assert 0.0 < hm.RANK_TOL < math.inf
        with pytest.raises(TypeError):
            hm.support_log(np.eye(2) / 2, tol)
        with pytest.raises(TypeError):
            hm.log_on_support(hm.eig_hermitian(np.eye(2) / 2), tol)
        want = np.diag([-math.log(2)] * 2)
        assert np.allclose(hm.support_log(np.eye(2) / 2), want)

    def test_stack(self):
        Ms = np.stack([np.diag([0.5, 0.5]), np.diag([math.e, 0.0])])
        want = np.stack([np.diag([-math.log(2)] * 2), np.diag([1.0, 0.0])])
        assert np.allclose(hm.support_log(Ms), want, atol=1e-12)
        with pytest.raises(DomainError):
            hm.support_log(np.stack([np.eye(2), np.diag([1.0, -0.5])]))


class TestTraceNorm:
    def test_sum_of_absolute_eigenvalues(self):
        assert hm.trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_zero_matrix(self):
        assert hm.trace_norm(np.zeros((3, 3))) == 0.0

    def test_qubit_commutator_oracle(self, qubit_pair_ensemble):
        # Brute-force oracle: eigenvalues of the explicitly formed 2x2 matrix.
        E = qubit_pair_ensemble
        rho = 0.5 * E.states[0].matrix + 0.5 * E.states[1].matrix
        w, V = np.linalg.eigh(rho)
        ln_rho = (V * np.log(w)) @ V.conj().T
        A = 1j * (E.states[0].matrix @ ln_rho - ln_rho @ E.states[0].matrix)
        oracle = float(np.sum(np.abs(np.linalg.eigvalsh((A + A.conj().T) / 2))))
        assert oracle == pytest.approx(1.246450480280461, abs=1e-12)
        assert hm.trace_norm(A) == pytest.approx(oracle, abs=1e-12)

    def test_unitary_invariance(self):
        g = rng(105)
        for _ in range(20):
            M = random_hermitian(5, g)
            U = reference.matrix_fn(random_hermitian(5, g), lambda w: np.exp(1j * w))
            rotated = U @ M @ U.conj().T
            assert hm.trace_norm(rotated) == pytest.approx(hm.trace_norm(M), abs=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hm.trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack(self):
        out = hm.trace_norm(np.stack([np.diag([1.0, -1.0]), np.diag([0.5, 0.25])]))
        assert np.allclose(out, [2.0, 0.75], atol=1e-15)


class TestCommutator:
    """The one commutator kernel, `rates._commutators`: C = i[rho, L] for
    every member of a batch, Hermitian where rho and L are."""

    @staticmethod
    def commutator(A, B):
        return rates._commutators(np.asarray(A, dtype=complex)[None, None], B[None])[0, 0]

    def test_self_commutator_vanishes(self):
        M = random_hermitian(4, rng(106))
        assert np.allclose(self.commutator(M, M), 0)

    def test_diagonal_matrices_commute(self):
        assert np.allclose(self.commutator(np.diag([2.0, 5.0]), np.diag([1.0, 7.0])), 0)

    def test_pauli_algebra(self):
        # [X, Z] = -2i Y
        assert np.allclose(self.commutator(PAULI_X, PAULI_Z), 2 * PAULI_Y)

    def test_anti_hermitian_output(self):
        # [A, B] is anti-Hermitian, so i[A, B] is Hermitian.
        g = rng(107)
        C = self.commutator(random_hermitian(5, g), random_hermitian(5, g))
        assert np.allclose(C, C.conj().T)


class TestSpectralSignProjectors:
    """The reference sign projectors, which check the maximizers in test_rates."""

    def test_simple_split(self):
        P_pos, P_neg = reference.spectral_sign_projectors(np.diag([2.0, -3.0]))
        assert np.allclose(P_pos, np.diag([1.0, 0.0]))
        assert np.allclose(P_neg, np.diag([0.0, 1.0]))

    def test_zero_matrix_gives_zero_projectors(self):
        P_pos, P_neg = reference.spectral_sign_projectors(np.zeros((3, 3)))
        assert np.allclose(P_pos, 0) and np.allclose(P_neg, 0)

    def test_kernel_excluded(self):
        P_pos, P_neg = reference.spectral_sign_projectors(np.diag([1.0, 0.0, -1.0]), 1e-12)
        assert np.allclose(P_pos, np.diag([1.0, 0.0, 0.0]))
        assert np.allclose(P_neg, np.diag([0.0, 0.0, 1.0]))

    def test_projector_identities(self):
        g = rng(108)
        for _ in range(20):
            M = random_hermitian(6, g)
            P_pos, P_neg = reference.spectral_sign_projectors(M)
            for P in (P_pos, P_neg):
                assert hm.frobenius(P @ P - P) <= 1e-10
                assert hm.frobenius(P - P.conj().T) <= 1e-10
            assert hm.frobenius(P_pos @ P_neg) <= 1e-10
            # full rank with probability 1: the signed trace recovers the norm
            signed = float(np.real(np.trace(M @ (P_pos - P_neg))))
            assert signed == pytest.approx(hm.trace_norm(M), abs=1e-8)
            recon = P_pos @ M @ P_pos + P_neg @ M @ P_neg
            assert hm.frobenius(M - recon) <= 1e-8


class TestLogIntegral:
    def test_x_equal_one_is_zero(self):
        assert hm.log_integral_check(1.0, 1e6, 1000) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("x", [math.e, 0.5])
    def test_analytic_values(self, x):
        est = hm.log_integral_check(x, 1e6, 10 ** 6)
        assert est == pytest.approx(math.log(x), abs=1e-4)

    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0, 10.0])
    def test_monotone_in_cutoff(self, x):
        estimates = [hm.log_integral_check(x, c, 200_000) for c in (10.0, 1e2, 1e3, 1e4)]
        gaps = [abs(e - math.log(x)) for e in estimates]
        assert gaps == sorted(gaps, reverse=True)
        diffs = np.diff(estimates)
        assert np.all(diffs > 0) if x > 1 else np.all(diffs < 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hm.log_integral_check(0.0, 1e6, 100)
        with pytest.raises(DomainError):
            hm.log_integral_check(-2.0, 1e6, 100)
        with pytest.raises(DomainError):
            hm.log_integral_check(2.0, -1.0, 100)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_trace_norm_unitary_invariance_property(seed):
    g = np.random.default_rng(seed)
    M = random_hermitian(4, g)
    U = reference.matrix_fn(random_hermitian(4, g), lambda w: np.exp(1j * w))
    assert hm.trace_norm(U @ M @ U.conj().T) == pytest.approx(hm.trace_norm(M), abs=1e-8)
