import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from mixrate import ensembles as ens
from mixrate import hermitian as hm
from mixrate import rates
from mixrate.errors import InputError, MixRateError

from conftest import checked, random_hermitian, rng

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
        with pytest.raises(InputError):
            hm.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
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
            with pytest.raises(InputError):
                f(Ms)
            with pytest.raises(InputError):
                f(np.stack([np.eye(2), np.full((2, 2), np.nan)]))
            with pytest.raises(InputError):
                f(np.zeros((2, 2, 3)))
            with pytest.raises(InputError):
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
        with pytest.raises(InputError):
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
        with pytest.raises(InputError):
            hm.support_log(np.diag([1.0, -0.5]))

    def test_psd_policy_stricter_than_a_state(self, monkeypatch):
        # -5e-11 is above a state's -PSD_TOL but below -RANK_TOL·λ_max: the raw
        # matrix is refused before any rebuild on its eigenvectors, and the
        # parsed state of it, rebuilt with eigenvalues floored to [0, 1], passes.
        M = np.diag([1 + 5e-11, -5e-11])
        rebuilds = []

        def counted(eig, _f=hm.log_on_support):
            rebuilds.append(eig)
            return _f(eig)

        monkeypatch.setattr(hm, "log_on_support", counted)
        with pytest.raises(InputError, match=r"^matrix has a negative eigenvalue -5\.000e-11$"):
            hm.support_log(M)
        assert rebuilds == []
        assert np.allclose(hm.support_log(checked([1.0], [M]).rhos[0, 0]), 0.0, atol=1e-12)
        assert len(rebuilds) == 1

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
        with pytest.raises(InputError):
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
        with pytest.raises(InputError):
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
    """The test-side quadrature of ln x, which acceptance criterion 09 reads."""

    def test_x_equal_one_is_zero(self):
        assert reference.log_integral_check(1.0, 1e6, 1000) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("x", [math.e, 0.5])
    def test_analytic_values(self, x):
        est = reference.log_integral_check(x, 1e6, 10 ** 6)
        assert est == pytest.approx(math.log(x), abs=1e-4)

    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0, 10.0])
    def test_monotone_in_cutoff(self, x):
        estimates = [reference.log_integral_check(x, c, 200_000) for c in (10.0, 1e2, 1e3, 1e4)]
        gaps = [abs(e - math.log(x)) for e in estimates]
        assert gaps == sorted(gaps, reverse=True)
        diffs = np.diff(estimates)
        assert np.all(diffs > 0) if x > 1 else np.all(diffs < 0)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            reference.log_integral_check(0.0, 1e6, 100)
        with pytest.raises(InputError):
            reference.log_integral_check(-2.0, 1e6, 100)
        with pytest.raises(InputError):
            reference.log_integral_check(2.0, -1.0, 100)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_trace_norm_unitary_invariance_property(seed):
    g = np.random.default_rng(seed)
    M = random_hermitian(4, g)
    U = reference.matrix_fn(random_hermitian(4, g), lambda w: np.exp(1j * w))
    assert hm.trace_norm(U @ M @ U.conj().T) == pytest.approx(hm.trace_norm(M), abs=1e-8)


def _check_outcome(f, M):
    """What f(M) does: its output (shape, strides and bytes) or its exception
    (class and message), and the warnings it raises."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = f(M.copy())
            result = ("ok", out.shape, out.strides, out.tobytes())
        except MixRateError as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in seen]


class TestRequireHermitianMatchesReference:
    """`require_hermitian` settles most stacks from one bound on the whole
    stack's residual; it must decide, raise and return exactly as the
    per-matrix check of tests/reference.py, with no warning on any of these."""

    # Residual norms around each threshold a decision could turn on: the
    # residual pass's HERM_TOL/2, HERM_TOL/d (the bound d·max|D| would set),
    # the absolute HERM_TOL and the relative HERM_TOL·‖A‖_F.
    SIDES = [0.5, 1 - 1e-9, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9, 2.0]

    @staticmethod
    def _stack(g, shape, scale):
        X = scale * (g.standard_normal(shape) + 1j * g.standard_normal(shape))
        # Products of Hermitian matrices carry roundoff residuals, as the
        # pipeline's intermediates do.
        H = (X + X.conj().swapaxes(-1, -2)) / 2
        return H @ H / scale if shape[-1] else H

    def assert_matches(self, M):
        want, want_warnings = _check_outcome(reference.require_hermitian, M)
        got, got_warnings = _check_outcome(hm.require_hermitian, M)
        assert got == want
        assert got_warnings == want_warnings == []

    @settings(max_examples=1000, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 4, 8]),
        st.sampled_from([(), (0,), (1,), (5,), (2, 3)]),
        st.sampled_from([1e-6, 1.0, 30.0, 1e4]),
        st.sampled_from(["HERM_TOL/2", "HERM_TOL/d", "HERM_TOL", "HERM_TOL*|A|"]),
        st.sampled_from(SIDES),
    )
    def test_residual_either_side_of_each_threshold(self, seed, d, lead, scale, at, side):
        g = np.random.default_rng(seed)
        M = self._stack(g, lead + (d, d), scale)
        if M.size:
            # An anti-Hermitian K with ‖K − K†‖_F at the chosen threshold, on
            # one matrix of the stack.
            b = tuple(int(g.integers(n)) for n in lead)
            Y = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
            K = Y - Y.conj().T
            target = {
                "HERM_TOL/2": hm.HERM_TOL / 2,
                "HERM_TOL/d": hm.HERM_TOL / d,
                "HERM_TOL": hm.HERM_TOL,
                "HERM_TOL*|A|": hm.HERM_TOL * max(1.0, hm.frobenius(M[b])),
            }[at]
            M[b] += K * (side * target / hm.frobenius(2 * K))
        self.assert_matches(M)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["upper", "lower", "diagonal"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_entry(self, value, where, part):
        M = self._stack(rng(109), (3, 4, 4), 1.0)
        i, j = {"upper": (0, 2), "lower": (3, 1), "diagonal": (2, 2)}[where]
        getattr(M[1, i, j:j + 1], part)[:] = value
        self.assert_matches(M)
        with pytest.raises(InputError, match="non-finite"):
            hm.require_hermitian(M)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_signed_zeros(self, d):
        # -0.0 imaginary diagonals, and a pair of entries whose real parts are
        # both -0.0: the halving must keep the reference's signs of zero.
        M = self._stack(rng(110), (3, d, d), 1.0)
        for k in range(d):
            M[..., k, k] = M[..., k, k].real + -0.0j
        if d > 1:
            M[1, 0, d - 1], M[1, d - 1, 0] = complex(-0.0, 0.5), complex(-0.0, -0.5)
        self.assert_matches(M)

    @pytest.mark.parametrize(
        "shape", [(0, 4, 4), (2, 0, 3, 3), (3, 0, 0), (0, 0), (1, 1), (5, 1, 1), (3,), (2, 3)]
    )
    def test_edge_shapes(self, shape):
        M = np.full(shape, 0.25 + 0.0j)
        self.assert_matches(M)
        if len(shape) >= 2 and shape[-1] == 1:
            M[..., 0, 0] += 1e-9j  # a 1 x 1 residual 2 Im(a) above HERM_TOL
            self.assert_matches(M)

    def test_real_and_list_inputs(self):
        M = self._stack(rng(111), (4, 4), 1.0).real
        self.assert_matches(M)
        assert np.array_equal(hm.require_hermitian(M.tolist()), reference.require_hermitian(M))
        M[0, 1] += 1e-9
        self.assert_matches(M)


class TestHermitianPartMatchesReference:
    """hermitian_part forms (M + M†)/2 in one buffer; it must give the dtype,
    shape, strides and bytes of the three-array form of tests/reference.py,
    with NaN, ±inf and -0.0 entries too (which of two NaNs a sum keeps
    depends on the order of its operands, and on numpy's loop)."""

    SPECIAL = [math.nan, math.inf, -math.inf, -0.0]

    @settings(max_examples=1000, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 4, 8]),
        st.sampled_from([(), (0,), (1,), (5,), (2, 3)]),
        st.sampled_from(["complex128", "float64", "int64"]),
        st.integers(0, 6),
    )
    def test_matches_reference(self, seed, d, lead, dtype, n_special):
        g = np.random.default_rng(seed)
        shape = lead + (d, d)
        if dtype == "int64":
            # Below 2**52 in size, so that int64 and float64 sums are both exact.
            M = g.integers(-(2**40), 2**40, shape)
        else:
            M = g.standard_normal(shape).astype(dtype)
            if dtype == "complex128":
                M.imag = g.standard_normal(shape)
            for _ in range(n_special if M.size else 0):
                b = tuple(int(g.integers(n)) for n in lead)
                i, j = (int(k) for k in g.integers(d, size=2))
                part = "imag" if dtype == "complex128" and g.integers(2) else "real"
                value = self.SPECIAL[g.integers(len(self.SPECIAL))]
                # On one entry, or on a mirrored pair: NaN + NaN and -0.0 + -0.0.
                for k, l in {(i, j), (j, i)} if g.integers(2) else {(i, j)}:
                    getattr(M[b + (slice(k, k + 1), l)], part)[:] = value
        with np.errstate(invalid="ignore"):
            want = reference.hermitian_part(M)
            got = hm.hermitian_part(M.copy())
        assert (got.dtype, got.shape, got.strides, got.tobytes()) == (
            want.dtype, want.shape, want.strides, want.tobytes()
        )


def _values(a: np.ndarray) -> bytes:
    """The bytes of a's values in C order, whatever its memory layout."""
    return np.ascontiguousarray(a).tobytes()


class TestInteriorPath:
    """The interior path hands matrices built from checked inputs to LAPACK
    with no test. Those of BUILT are Hermitian bit for bit by construction:
    require_hermitian returns each byte for byte, and `_eigh` / `_eigvalsh`
    give eig_hermitian's bytes. The others (products) go through
    hermitian_part first, which is require_hermitian's own tail."""

    BUILT = ["mixture", "rebuilt mixture", "ginibre", "hamiltonian"]

    @staticmethod
    def _product(g, shape):
        X = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        H = (X + X.conj().swapaxes(-1, -2)) / 2
        return H @ H  # Hermitian up to the rounding of the product

    @classmethod
    def _built(cls, kind, g, lead, d):
        if kind.endswith("mixture"):  # sum_x p_x rho_x of checked states, as _support_logs has
            raw = cls._product(g, lead + (3, d, d))
            rhos = hm.require_hermitian(raw / np.trace(raw, axis1=-2, axis2=-1)[..., None, None])
            if kind == "rebuilt mixture":  # members rebuilt as the search's candidates are
                rhos = hm.hermitian_part(hm.reconstruct(*hm.eig_hermitian(rhos)))
            p = g.dirichlet(np.ones(3), size=lead)
            return ens._mixture(p, rhos)
        if kind == "ginibre":  # (G + G†)/2 of normals, as sampling._unit_spectra forms H
            z = g.standard_normal(lead + (2, d, d))
            G = z[..., 0, :, :] + 1j * z[..., 1, :, :]
            return (G + G.conj().swapaxes(-1, -2)) / 2
        # A parsed Hamiltonian's matrix, as rates._evaluate and sie diagonalize it
        raw = cls._product(g, lead + (d, d)).reshape(-1, d, d)
        return ens._members(hm.require_hermitian, raw).reshape(lead + (d, d))

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(BUILT),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 4, 8]),
        st.sampled_from([(), (0,), (1,), (5,), (2, 3)]),
    )
    def test_built_matrices_are_hermitian_bit_for_bit(self, kind, seed, d, lead):
        A = self._built(kind, np.random.default_rng(seed), lead, d)
        assert A.shape == lead + (d, d)
        assert _values(hm.require_hermitian(A)) == _values(A)
        w, V = hm._eigh(A)
        want_w, want_V = hm.eig_hermitian(A)
        assert _values(w) == _values(want_w)
        assert _values(V) == _values(want_V)
        assert _values(hm._eigvalsh(A)) == _values(hm.eigvals_hermitian(A))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 4, 8]),
        st.sampled_from([(), (0,), (1,), (5,), (2, 3)]),
    )
    def test_hermitian_part_is_require_hermitians_output(self, seed, d, lead):
        C = self._product(np.random.default_rng(seed), lead + (d, d))
        got, want = hm.hermitian_part(C), hm.require_hermitian(C)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 4, 8]),
        st.sampled_from([(), (0,), (1,), (5,), (2, 3)]),
    )
    def test_hermitian_part_is_c_ordered(self, seed, d, lead):
        # BLAS products read it, and may round differently on another layout.
        C = self._product(np.random.default_rng(seed), lead + (d, d))
        for M in (C, C.swapaxes(-1, -2)):
            assert hm.hermitian_part(M).flags.c_contiguous

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 4, 8]),
        st.sampled_from([(), (0,), (1,), (5,), (2, 3)]),
    )
    def test_lapack_reads_values_not_layout(self, seed, d, lead):
        # numpy copies a matrix into LAPACK by logical index: a C-ordered
        # stack and a transposed-layout copy of it give the same bytes, so
        # the interior callers may hand either.
        A = hm.hermitian_part(self._product(np.random.default_rng(seed), lead + (d, d)))
        T = np.ascontiguousarray(A.swapaxes(-1, -2)).swapaxes(-1, -2)
        assert np.array_equal(A, T) and (d == 1 or A.size == 0 or A.strides != T.strides)
        for got, want in zip(hm._eigh(T), hm._eigh(A)):
            assert got.tobytes() == want.tobytes()
        assert hm._eigvalsh(T).tobytes() == hm._eigvalsh(A).tobytes()
