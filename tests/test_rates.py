import math

import numpy as np
import pytest

import reference
from golden.make_golden import write_inputs
from mixrate import harness as hz
from mixrate import hermitian as hm
from mixrate import rates
from mixrate import sampling
from mixrate import ensembles as ens
from mixrate.ensembles import (
    _average_entropies,
    _mixture,
    binary_entropy,
    parse_hamiltonian_set,
    shannon_entropy,
)
from mixrate.errors import Fault, InputError
from mixrate.hermitian import RANK_TOL

from conftest import (
    batch,
    binary_max_rate,
    ensemble,
    max_mixing_rate,
    mixing_rate,
    optimal_hamiltonians,
    parse_ensemble,
    random_ensemble,
    random_hamiltonian_set,
    random_hermitian,
    random_unit_hamiltonian,
    rng,
)

PAULI_Y = np.array([[0, -1j], [1j, 0]])

# Frozen from the finite-difference oracle on the worked qubit example
# (Richardson-extrapolated central differences of the entropy curve).
QUBIT_PAIR_MIX_Y = 0.6232252401402306
QUBIT_PAIR_BINARY_MAX = 0.6232252401402305
QUBIT_PAIR_MAX = 1.246450480280461


def commuting_ensemble(dim=3):
    return ensemble([0.5, 0.5], [np.diag([0.5, 0.3, 0.2]), np.diag([0.2, 0.3, 0.5])])


class TestMixingRate:
    def test_equal_states_give_zero(self):
        rho = np.diag([0.6, 0.4])
        E = ensemble([0.3, 0.7], [rho, rho])
        H = random_hamiltonian_set(2, 2, rng(300))
        assert mixing_rate(E, H) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonal_states_give_zero(self):
        E = commuting_ensemble()
        H = random_hamiltonian_set(3, 2, rng(301))
        assert mixing_rate(E, H) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_pair_oracle_value(self, qubit_pair_ensemble):
        H = np.array([np.zeros((2, 2)), PAULI_Y])
        rate = mixing_rate(qubit_pair_ensemble, H)
        assert rate == pytest.approx(QUBIT_PAIR_MIX_Y, abs=1e-9)
        # independent oracle: Richardson fd of the entropy curve, no package code
        r1 = qubit_pair_ensemble.states[0].matrix
        r2 = qubit_pair_ensemble.states[1].matrix

        def entropy_at(t):
            U = math.cos(t) * np.eye(2) - 1j * math.sin(t) * PAULI_Y
            w = np.linalg.eigvalsh(0.5 * r1 + 0.5 * U @ r2 @ U.conj().T)
            w = w[w > 0]
            return float(-np.sum(w * np.log(w)))

        def central(h):
            return (entropy_at(h) - entropy_at(-h)) / (2 * h)

        oracle = (4 * central(5e-6) - central(1e-5)) / 3
        assert rate == pytest.approx(oracle, abs=1e-8)

    def test_dim_mismatch(self):
        # compute pairs a Hamiltonian set with the ensemble before any rate.
        H = random_hamiltonian_set(2, 2, rng(302))
        why = "^Hamiltonian dimension differs from ensemble dimension$"
        with pytest.raises(InputError, match=why):
            ens._paired(H, [0.5, 0.5], commuting_ensemble().dim)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(mixing_rate, id="mixing_rate"),
            pytest.param(
                lambda E, H: rates.rate_report(batch(E), H).mixing_rate_at_H, id="rate_report"
            ),
        ],
    )
    def test_one_hamiltonian_per_member(self, call):
        # The pairing refuses a set of another count before any rate, and
        # gives the rate one Hamiltonian per kept member.
        E, g = commuting_ensemble(), rng(303)
        with pytest.raises(InputError, match="^need one Hamiltonian per listed ensemble member$"):
            ens._paired(random_hamiltonian_set(3, 1, g), [0.5, 0.5], E.dim)
        H = random_hamiltonian_set(3, 3, g)
        kept = ens._paired(H, [0.5, 0.0, 0.5], E.dim)
        assert np.array_equal(kept, H[[0, 2]])
        assert call(E, kept) == pytest.approx(0.0, abs=1e-12)  # commuting members

    def test_imaginary_residue_is_a_typed_error(self):
        # i*L for Hermitian L not commuting with the states makes the rate
        # complex; the check raises an error that survives python -O.
        g = rng(1)
        E = random_ensemble(3, 2, g)
        H = random_hamiltonian_set(3, 2, g)
        L = random_hermitian(3, g)
        b = batch(E)
        with pytest.raises(Fault, match="imaginary residue"):
            rates._rate(b.p, H[None], rates._commutators(b.rhos, 1j * L[None]))

    def test_gauge_invariance_under_identity_shifts(self):
        g = rng(303)
        E = random_ensemble(4, 3, g)
        H = random_hamiltonian_set(4, 3, g)
        base = mixing_rate(E, H)
        shifted = np.array([h + float(g.uniform(-2, 2)) * np.eye(4) for h in H])
        assert mixing_rate(E, shifted) == pytest.approx(base, abs=1e-9)

    def test_linearity_in_hamiltonians(self):
        g = rng(304)
        E = random_ensemble(3, 2, g)
        H = random_hamiltonian_set(3, 2, g)
        scaled = 2.5 * H
        assert mixing_rate(E, scaled) == pytest.approx(
            2.5 * mixing_rate(E, H), abs=1e-9
        )

    def test_zero_sum_identity(self):
        g = rng(305)
        E = random_ensemble(4, 4, g)
        ln_rho = hm.support_log(reference.expected_state(E))
        acc = np.zeros((4, 4), dtype=complex)
        for p, s in zip(E.probabilities, E.states):
            acc += p * 1j * (s.matrix @ ln_rho - ln_rho @ s.matrix)
        assert hm.frobenius(acc) <= 1e-9

    def test_unitary_covariance(self):
        g = rng(306)
        E = random_ensemble(3, 3, g)
        H = random_hamiltonian_set(3, 3, g)
        U = reference.matrix_fn(random_hermitian(3, g), lambda w: np.exp(1j * w))
        E2 = ensemble(E.probabilities, [U @ s.matrix @ U.conj().T for s in E.states])
        H2 = U @ H @ U.conj().T
        assert mixing_rate(E2, H2) == pytest.approx(
            mixing_rate(E, H), abs=1e-8
        )
        assert max_mixing_rate(E2) == pytest.approx(
            max_mixing_rate(E), abs=1e-8
        )


class TestFiniteDifferenceOracle:
    def test_equal_states_zero(self):
        rho = np.diag([0.6, 0.4])
        E = ensemble([0.5, 0.5], [rho, rho])
        H = random_hamiltonian_set(2, 2, rng(307))
        assert reference.fd_mixing_rate(E, H, 1e-4) == pytest.approx(0.0, abs=1e-8)

    def test_identity_hamiltonians_zero(self):
        g = rng(308)
        E = random_ensemble(3, 2, g)
        H = np.array([np.eye(3)] * 2)
        assert reference.fd_mixing_rate(E, H, 1e-4) == pytest.approx(0.0, abs=1e-8)

    def test_agrees_with_analytic_rate(self):
        g = rng(309)
        for dim in (2, 3):
            for _ in range(25):
                E = random_ensemble(dim, int(g.integers(2, 5)), g)
                H = random_hamiltonian_set(dim, len(E), g)
                fd = reference.fd_mixing_rate(E, H, 1e-4)
                assert abs(fd - mixing_rate(E, H)) <= 1e-6

    def test_rejects_bad_step(self):
        E = commuting_ensemble()
        H = random_hamiltonian_set(3, 2, rng(310))
        with pytest.raises(InputError):
            reference.fd_mixing_rate(E, H, -1e-4)

    def test_rank_deficient_guard(self):
        pure = np.diag([1.0, 0.0])
        E = ensemble([0.5, 0.5], [pure, pure])
        H = random_hamiltonian_set(2, 2, rng(311))
        with pytest.raises(Fault):
            reference.fd_mixing_rate(E, H, 1e-4)


class TestOptimalHamiltonians:
    def test_commuting_ensemble_gives_identity(self):
        E = commuting_ensemble()
        for h in optimal_hamiltonians(E):
            assert np.allclose(h, np.eye(3), atol=1e-9)

    def test_achieves_the_maximum(self):
        g = rng(312)
        for _ in range(20):
            E = random_ensemble(int(g.integers(2, 6)), int(g.integers(2, 5)), g)
            H = optimal_hamiltonians(E)
            achieved = mixing_rate(E, H)
            assert abs(achieved) - max_mixing_rate(E) == pytest.approx(
                0.0, abs=1e-8
            )

    def test_involution_and_norm(self):
        g = rng(313)
        E = random_ensemble(4, 3, g)
        for h in optimal_hamiltonians(E):
            assert hm.frobenius(h @ h - np.eye(4)) <= 1e-9
            assert np.max(np.abs(np.linalg.eigvalsh(h))) <= 1.0 + 1e-12

    def test_matches_the_sign_projector_oracle(self):
        # H_x = I - 2 P_neg(i[rho_x, ln rho]), the projector from its own eigh.
        g = rng(323)
        for dim, n in ((2, 2), (3, 3), (5, 2)):
            E = random_ensemble(dim, n, g)
            ln_rho = reference.matrix_fn(reference.expected_state(E), np.log)
            for s, h in zip(E.states, optimal_hamiltonians(E)):
                C = 1j * (s.matrix @ ln_rho - ln_rho @ s.matrix)
                P_neg = reference.spectral_sign_projectors(C)[1]
                assert np.abs(h - (np.eye(dim) - 2 * P_neg)).max() <= 1e-9

    def test_no_random_set_beats_it(self):
        g = rng(314)
        E = random_ensemble(3, 3, g)
        mx = max_mixing_rate(E)
        for _ in range(100):
            H = random_hamiltonian_set(3, 3, g)
            assert abs(mixing_rate(E, H)) <= mx + 1e-8

    def test_binary_closed_form_consistency(self, qubit_pair_ensemble):
        H = optimal_hamiltonians(qubit_pair_ensemble)
        achieved = mixing_rate(qubit_pair_ensemble, H)
        assert achieved == pytest.approx(QUBIT_PAIR_MAX, abs=1e-9)


class TestClosedFormMaxima:
    def test_commuting_and_singleton_vanish(self):
        assert max_mixing_rate(commuting_ensemble()) == pytest.approx(
            0.0, abs=1e-12
        )
        E = ensemble([1.0], [np.diag([0.7, 0.3])])
        assert max_mixing_rate(E) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_pair_values(self, qubit_pair_ensemble):
        assert max_mixing_rate(qubit_pair_ensemble) == pytest.approx(
            QUBIT_PAIR_MAX, abs=1e-9
        )
        assert binary_max_rate(qubit_pair_ensemble) == pytest.approx(
            QUBIT_PAIR_BINARY_MAX, abs=1e-9
        )
        assert binary_max_rate(qubit_pair_ensemble) <= 2.0  # binary bound at p=1/2

    def test_binary_both_members_agree(self):
        g = rng(315)
        for _ in range(10):
            E = random_ensemble(3, 2, g)
            p = float(E.probabilities[0])
            ln_rho = hm.support_log(reference.expected_state(E))
            r0, r1 = E.states[0].matrix, E.states[1].matrix
            a = p * hm.trace_norm(hm.hermitian_part(1j * (r0 @ ln_rho - ln_rho @ r0)))
            b = (1 - p) * hm.trace_norm(hm.hermitian_part(1j * (r1 @ ln_rho - ln_rho @ r1)))
            assert a == pytest.approx(b, abs=1e-9)
            assert binary_max_rate(E) == pytest.approx(a, abs=1e-12)

    def test_general_is_twice_binary(self):
        # Exact in theory at n = 2, since sum_x p_x [rho_x, ln rho] = 0.
        g = rng(316)
        for _ in range(10):
            E = random_ensemble(4, 2, g)
            assert max_mixing_rate(E) == pytest.approx(
                2.0 * binary_max_rate(E), rel=1e-12, abs=0.0
            )

    def test_binary_rejects_other_sizes(self):
        # The binary rate is reported at n = 2 only.
        g = rng(317)
        assert rates.rate_report(batch(random_ensemble(2, 3, g))).binary_max_rate is None
        assert rates.rate_report(batch(random_ensemble(2, 2, g))).binary_max_rate is not None


def qubit_ensemble(n, g) -> ens.Ensemble:
    """n qubit states (I + r_x·σ)/2, each r_x of uniform direction and of
    length in [0.05, 0.95], with Dirichlet probabilities."""
    u = g.standard_normal((n, 3))
    r = u / np.linalg.norm(u, axis=1)[:, None] * g.uniform(0.05, 0.95, size=(n, 1))
    states = [(np.eye(2) + np.einsum("k,kij->ij", rx, reference.PAULI)) / 2 for rx in r]
    return ensemble(g.dirichlet(np.ones(n)), states)


class TestQubitClosedForms:
    def test_against_bloch_oracle(self):
        g = rng(324)
        for k in range(240):
            n = 2 + k % 3
            E = qubit_ensemble(n, g)
            H = np.array([random_unit_hamiltonian(2, g) for _ in range(n)])
            max_rate, binary, rate = reference.qubit_rates(E, H)
            assert max_mixing_rate(E) == pytest.approx(max_rate, rel=1e-12, abs=0.0)
            if n == 2:
                assert binary_max_rate(E) == pytest.approx(binary, rel=1e-12, abs=0.0)
            # |rate| <= max_rate at unit ||H_x||, and cancellation can bring the
            # rate itself near 0, so the error is taken relative to max_rate.
            assert abs(mixing_rate(E, H) - rate) <= 1e-12 * max_rate

    def test_maximizers_against_bloch_oracle(self):
        g = rng(325)
        for k in range(240):
            E = qubit_ensemble(2 + k % 3, g)
            got = optimal_hamiltonians(E)
            for h, want in zip(got, reference.qubit_maximizers(E), strict=True):
                assert np.abs(h - want).max() <= 1e-12

    def test_maximizer_is_identity_where_the_commutator_vanishes(self):
        # Diagonal members commute with rho: every r_x is parallel to r.
        E = ensemble([0.3, 0.7], [np.diag(w) for w in ([0.9, 0.1], [0.2, 0.8])])
        got = optimal_hamiltonians(E)
        for h, want in zip(got, reference.qubit_maximizers(E), strict=True):
            assert np.array_equal(want, np.eye(2))
            assert np.abs(h - want).max() <= 1e-12

    def test_entropy_trajectory_against_bloch_oracle(self):
        g = rng(326)
        times = rates.FD_TIMES + rates.STM_TIMES
        for k in range(200):
            n = 2 + k % 3
            E = qubit_ensemble(n, g)
            H = np.array([random_unit_hamiltonian(2, g) for _ in range(n)])
            (S,) = TestTrajectory.trajectory([E], [H], times)
            for t, s in zip(times, S):
                assert abs(s - reference.qubit_entropy_at(E, H, t)) <= 1e-12


class TestBounds:
    def test_binary_bound_values(self):
        assert rates.bound_theorem_binary(0.5) == 2.0
        assert rates.bound_theorem_binary(0.0) == 0.0
        assert rates.bound_theorem_binary(0.25) == pytest.approx(math.sqrt(3))

    def test_binary_bound_domain(self):
        for p in (-0.1, 1.5, math.nan, math.inf, [0.5, math.nan]):
            with pytest.raises(InputError, match=r"outside \[0, 1\]"):
                rates.bound_theorem_binary(p)

    def test_general_bound_binary_case(self):
        for p in (0.5, 0.6, 0.9):
            assert rates.bound_theorem_general([p, 1 - p]) == pytest.approx(
                rates.bound_theorem_binary(p)
            )

    def test_general_bound_uniform_three(self):
        assert rates.bound_theorem_general([1 / 3] * 3) == pytest.approx(16 / 3)

    def test_general_bound_singleton(self):
        assert rates.bound_theorem_general([1.0]) == 0.0

    def test_general_bound_bad_distribution(self):
        for p in ([0.5, 0.6], [math.nan, 0.5, 0.5], [math.inf, 0.5], [0.5, -math.inf]):
            with pytest.raises(InputError):
                rates.bound_theorem_general(p)

    def test_theorem_1_on_random_binary_ensembles(self):
        g = rng(318)
        for _ in range(50):
            dim = int(g.integers(2, 9))
            p = float(g.uniform(0.02, 0.98))
            states = [random_ensemble(dim, 1, g).states[0].matrix for _ in range(2)]
            E = ensemble([p, 1 - p], states)
            assert binary_max_rate(E) <= rates.bound_theorem_binary(p) + 1e-8

    def test_theorem_2_on_random_ensembles(self):
        g = rng(319)
        for _ in range(50):
            E = random_ensemble(int(g.integers(2, 7)), int(g.integers(2, 6)), g)
            bound = rates.bound_theorem_general(E.probabilities)
            assert max_mixing_rate(E) <= bound + 1e-8


class TestRuntimeInvariants:
    """The raise sites of invariants that no valid input reaches, matched by
    message, not by class."""

    def test_member_leaks_off_the_support_of_rho(self):
        # A zero-weight member diag(1 - eps, eps) outside the support |0><0|
        # of rho by eps: refused at eps = 1 and just past SUPPORT_LEAK_TOL.
        p = np.array([[1.0, 0.0]])
        for eps, leak in ((1.0, r"1\.000e\+00"), (2e-8, r"2\.000e-08")):
            rhos = np.array([[np.diag([1.0, 0.0]), np.diag([1.0 - eps, eps])]], dtype=complex)
            with pytest.raises(InputError, match=rf"^member 1 leaks {leak} outside the support of rho$"):
                rates._support_logs(p, rhos)
        rhos[0, 1] = np.diag([1.0 - 5e-9, 5e-9])  # within SUPPORT_LEAK_TOL
        rates._support_logs(p, rhos)

    def test_imaginary_rate_breaks_the_identity(self):
        # A non-Hermitian C whose trace Tr(I C) has the imaginary part 1e-6.
        p, H = np.ones((1, 1)), np.eye(2, dtype=complex)[None, None]
        C = np.diag([1.0 + 1e-6j, -1.0])[None, None]
        with pytest.raises(Fault, match=r"^rate has imaginary residue 1\.000e-06$"):
            rates._rate(p, H, C)
        C[..., 0, 0] = 1.0 + 1e-10j  # within IMAG_TOL
        assert rates._rate(p, H, C).tolist() == [0.0]


class TestTrajectory:
    TIMES = (0.0, 1e-4, -1e-4, 5e-5, -5e-5, 0.5, 1.0, 2.0)  # t = 0, the FD and STM times

    @staticmethod
    def trajectory(Es, Hs, ts):
        """rates._trajectory of a batch of ensembles, one Hamiltonian set each."""
        b = batch(*Es)
        return rates._trajectory(b.p, b.rhos, hm.eig_hermitian(np.array(Hs)), ts)

    @pytest.mark.parametrize("dim", [2, 4, 16])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_entropy_of_each_evolved_state(self, dim, n):
        g = rng(330 + dim + n)
        Es = [random_ensemble(dim, n, g) for _ in range(3)]
        Hs = [random_hamiltonian_set(dim, n, g) for _ in range(3)]
        S = self.trajectory(Es, Hs, self.TIMES)
        assert S.shape == (3, len(self.TIMES))
        for E, H, row in zip(Es, Hs, S):
            for t, s in zip(self.TIMES, row):
                assert abs(s - reference.entropy_at(E, H, t)) <= 1e-12

    @pytest.mark.parametrize("w", [(-0.5, 1.5), (0.5, 1.0)])  # not PSD; trace 1.5
    def test_rejects_a_member_that_is_no_state(self, w):
        bad = reference.state_with_spectrum(np.array(w), np.eye(2, dtype=complex))
        E = ens.Ensemble(np.array([1.0]), (bad,))
        H = random_unit_hamiltonian(2, rng(333))[None]
        with pytest.raises(Fault):
            self.trajectory([E], [H], self.TIMES)


class TestInvolutionTrajectory:
    """The closed form under Hamiltonians that square to I, which every
    verify, scan and search record evolves its maximizers with."""

    TIMES = rates.FD_TIMES + rates.STM_TIMES

    @staticmethod
    def maximizers(Es):
        """The batch of Es, its maximizers' spectra and their matrices."""
        b = batch(*Es)
        H = rates._Spectra(b, vectors=True).maximizers()
        return b, H, hm.hermitian_part(hm.reconstruct(*H))

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_spectral_route(self, dim, n):
        g = rng(340 + 10 * dim + n)
        b, H, M = self.maximizers([random_ensemble(dim, n, g) for _ in range(3)])
        closed = rates._involution_trajectory(b.p, b.rhos, _mixture(b.p, b.rhos), M, self.TIMES)
        spectral = rates._trajectory(b.p, b.rhos, H, self.TIMES)
        assert closed.shape == (3, len(self.TIMES))
        assert np.abs(closed - spectral).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_qubits_match_the_bloch_oracle(self, n):
        E = random_ensemble(2, n, rng(345 + n))
        b, _, M = self.maximizers([E])
        H = optimal_hamiltonians(E)
        S = rates._involution_trajectory(b.p, b.rhos, _mixture(b.p, b.rhos), M, self.TIMES)[0]
        for t, s in zip(self.TIMES, S):
            assert abs(s - reference.qubit_entropy_at(E, H, t)) <= 1e-12

    @pytest.mark.parametrize("w", [(-0.5, 1.5), (0.5, 1.0)])  # not PSD; trace 1.5
    def test_rejects_a_member_that_is_no_state(self, w):
        bad = reference.state_with_spectrum(np.array(w), np.eye(2, dtype=complex))
        b = batch(ens.Ensemble(np.array([1.0]), (bad,)))
        X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # X^2 = I
        with pytest.raises(Fault):
            rates._involution_trajectory(b.p, b.rhos, b.rhos[:, 0], X[None, None], self.TIMES)


class TestLapackDispatches:
    """Every eigendecomposition goes through `hermitian._lapack`; these record
    each call's routine and what it decomposed."""

    @staticmethod
    def record(monkeypatch) -> list:
        seen = []
        lapack = hm._lapack

        def recorded(f, A):
            seen.append((f.__name__, A))
            return lapack(f, A)

        monkeypatch.setattr(hm, "_lapack", recorded)
        return seen

    @staticmethod
    def calls(seen) -> list:
        return [(f, a.shape) for f, a in seen]

    def chunk(self, n: int, monkeypatch) -> list:
        """The dispatches of a 32-trial run_trials chunk at d = 4."""
        cfg = hz.ExperimentConfig(dim=4, n_states=n, seed=1)
        (ids,) = hz.trial_chunks(range(32), cfg.dim)
        seen = self.record(monkeypatch)
        records = hz.run_trials(cfg, ids)
        assert all(r.error is None for r in records)
        return self.calls(seen)

    def test_a_run_trials_chunk_makes_four(self, monkeypatch):
        # The member states' eigenvalues; the expected states' spectra, for
        # ln rho; the commutators' spectra, for the maximizers; and the
        # evolved states' eigenvalues at the 4 FD and 3 STM times.
        assert self.chunk(3, monkeypatch) == [
            ("eigvalsh", (32, 3, 4, 4)),
            ("eigh", (32, 4, 4)),
            ("eigh", (32, 3, 4, 4)),
            ("eigvalsh", (32, 7, 4, 4)),
        ]

    def test_a_binary_chunk_decomposes_one_commutator_per_trial(self, monkeypatch):
        # The same four, with C_0 alone decomposed: C_1 = -(p_0/p_1) C_0.
        assert self.chunk(2, monkeypatch) == [
            ("eigvalsh", (32, 2, 4, 4)),
            ("eigh", (32, 4, 4)),
            ("eigh", (32, 1, 4, 4)),
            ("eigvalsh", (32, 7, 4, 4)),
        ]

    @pytest.mark.parametrize("n, binary", [(2, True), (2, False), (3, False)])
    def test_a_search_block_decomposes_no_commutator(self, n, binary, monkeypatch):
        # --binary climbs the same objective, so its blocks decompose the same.
        cfg = hz.ExperimentConfig(dim=3, n_states=n, seed=5, binary=binary)
        g = hz.RNGSpec(5, 0).generator()
        cur = hz._batch([hz._trial_draw(cfg, g)])
        V = hm.eig_hermitian(cur.rhos[0]).eigenvectors
        seen = self.record(monkeypatch)
        # A window of 3 blocks of 6: its candidates' Hamiltonians, for their
        # unitaries, in one eigh when it is drawn.
        window = sampling._climb_window(18, 6, n, 3, g)
        assert self.calls(seen) == [("eigh", (18, n, 3, 3))]
        for draws in window:
            seen.clear()
            hz._climb_block(cur, np.log(cur.p[0]), V, 0.1, draws)
            # Then each block: the expected states' spectra, for ln rho, and
            # the commutators' eigenvalues only.
            assert self.calls(seen) == [
                ("eigh", (6, 3, 3)),
                ("eigvalsh", (6, 1 if n == 2 else n, 3, 3)),
            ]

    @pytest.mark.parametrize("dim, n", [(2, 2), (3, 3), (4, 2)])
    def test_the_maximizers_are_never_diagonalized(self, dim, n, monkeypatch):
        E = random_ensemble(dim, n, rng(350 + dim + n))
        H = optimal_hamiltonians(E)
        M = H[None]

        def diagonalized(seen):
            return any(a.shape == M.shape and np.allclose(a, M, atol=1e-12) for _, a in seen)

        seen = self.record(monkeypatch)
        rates.rate_report(batch(E))
        assert seen and not diagonalized(seen)
        seen.clear()
        rates.rate_report(batch(E), H)  # the same matrices, given: now diagonalized
        assert diagonalized(seen)

    def test_a_given_hamiltonian_set_costs_one_more(self, monkeypatch):
        g = rng(355)
        E, H = random_ensemble(3, 3, g), random_hamiltonian_set(3, 3, g)
        seen = self.record(monkeypatch)
        rates.rate_report(batch(E))
        at_maximizers = len(seen)
        seen.clear()
        rates.rate_report(batch(E), H)
        assert at_maximizers == 3  # rho, the commutators, rho(t) at the FD times
        assert len(seen) == at_maximizers + 1
        # Given Hamiltonians need no maximizer: the commutators' eigenvalues
        # suffice, and the Hamiltonians' spectra evolve rho(t).
        assert [f for f, _ in seen] == ["eigh", "eigvalsh", "eigh", "eigvalsh"]


class TestBinaryCommutator:
    """At n = 2, `_Spectra` forms and decomposes C_0 = i[rho_0, ln rho] alone
    and reads C_1 = -(p_0/p_1) C_0 from sum_x p_x C_x = i[rho, ln rho] = 0.
    Here C_1 = i[rho_1, ln rho] is formed and decomposed as at n >= 3."""

    REL = 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_matches_the_second_commutator(self, dim):
        g = rng(360 + dim)
        b = batch(*[random_ensemble(dim, 2, g) for _ in range(3)])
        sp = rates._Spectra(b, vectors=True)
        C = rates._commutators(b.rhos, sp.ln_rho)  # (3, 2, d, d): both members
        w, V = hm.eig_hermitian(C)
        norms = np.abs(w).sum(axis=-1)
        direct = (b.p * norms).sum(axis=-1)
        assert np.abs(sp.max_rate - direct).max() <= self.REL * direct.max()
        assert np.abs(sp.binary_rate - b.p[:, 0] * norms[:, 0]).max() <= self.REL * direct.max()
        # The maximizers, each of operator norm 1, and the rate at them.
        tol = RANK_TOL * np.maximum(1.0, np.linalg.norm(w, axis=-1, keepdims=True))
        H = hm.reconstruct(np.where(w < -tol, -1.0, 1.0), V)
        M = hm.reconstruct(*sp.maximizers())
        assert np.abs(M - H).max() <= self.REL
        assert np.abs(sp.rate(M) - rates._rate(b.p, H, C)).max() <= self.REL * direct.max()


class TestStmCheck:
    def test_singleton_at_t_zero(self):
        E = ensemble([1.0], [np.diag([0.7, 0.3])])
        H = np.zeros((1, 2, 2))
        (pt,) = reference.stm_check(E, H, [0.0])
        assert pt.ok
        assert pt.entropy == pytest.approx(pt.lower, abs=1e-12)
        assert pt.upper == pytest.approx(pt.lower, abs=1e-12)  # S(X) = 0

    def test_shared_hamiltonian_keeps_entropy_constant(self):
        g = rng(320)
        E = random_ensemble(3, 2, g)
        h = random_unit_hamiltonian(3, g)
        H = np.array([h, h])
        pts = reference.stm_check(E, H, [0.0, 0.7, 2.1])
        assert all(p.ok for p in pts)
        assert pts[1].entropy == pytest.approx(pts[0].entropy, abs=1e-9)
        assert pts[2].entropy == pytest.approx(pts[0].entropy, abs=1e-9)

    def test_random_binary_sweep(self):
        g = rng(321)
        E = random_ensemble(2, 2, g)
        H = random_hamiltonian_set(2, 2, g)
        ts = [0.1 * k for k in range(1, 31)]
        assert all(p.ok for p in reference.stm_check(E, H, ts))

    def test_sandwich_edges(self):
        # No state leaves the sandwich (a theorem), so the entropies are
        # planted. The slack is rates.CHECK_SLACK, written out so that a
        # wider one fails: 0.5 of it past an edge is accepted, 2 of it refused.
        E = commuting_ensemble()
        b = batch(E)
        shannon = np.array([shannon_entropy(E.probabilities)])
        lower = _average_entropies(b.p, b.w)[0]
        upper = lower + shannon[0]
        slack = 1e-9
        S = [
            lower - 2 * slack, lower - 0.5 * slack, lower + 0.5 * slack,
            upper - 0.5 * slack, upper + 0.5 * slack, upper + 2 * slack,
            lower + 1.5 * shannon[0],  # inside an upper bound of avg + 2 S(p)
        ]
        want = [False, True, True, True, True, False, False]
        assert rates._stm_sandwich(b, shannon, np.array([S]))[0].tolist() == want


class TestAkGap:
    """The test-side oracle of the commutator/entropy functional, which
    acceptance criterion 08 reads."""

    def test_scalars_commute(self):
        C, rhs = reference.ak_gap(np.array([[2.0]]), np.array([[3.0]]))
        assert hm.trace_norm(C) == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(5 * math.log(5) - 2 * math.log(2) - 3 * math.log(3))
        assert rhs >= 0

    def test_commuting_matrices(self):
        C, _ = reference.ak_gap(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert hm.trace_norm(C) == pytest.approx(0.0, abs=1e-12)

    def test_matches_binary_rate_and_entropy(self, qubit_pair_ensemble):
        E = qubit_pair_ensemble
        C, rhs = reference.ak_gap(0.5 * E.states[0].matrix, 0.5 * E.states[1].matrix)
        assert hm.trace_norm(C) == pytest.approx(binary_max_rate(E), abs=1e-9)
        assert rhs == pytest.approx(binary_entropy(0.5), abs=1e-9)

    def test_unequal_dimensions_rejected(self):
        with pytest.raises(InputError, match="A and B must have equal dimensions"):
            reference.ak_gap(np.eye(2) / 2, np.eye(3) / 3)

    def test_rank_deficient_rejected(self):
        A = np.diag([1.0, 0.0])
        B = np.diag([1.0, 0.0])
        with pytest.raises(InputError):
            reference.ak_gap(A, B)


class TestRateReport:
    def test_report_fields_and_serialization(self, qubit_pair_ensemble):
        rep = rates.rate_report(batch(qubit_pair_ensemble))
        assert rep.max_rate == pytest.approx(QUBIT_PAIR_MAX, abs=1e-9)
        assert rep.binary_max_rate == pytest.approx(QUBIT_PAIR_BINARY_MAX, abs=1e-9)
        assert rep.bound_thm == pytest.approx(2.0)
        assert rep.bound_conjecture == pytest.approx(math.log(2))
        assert rep.fd_residual <= 1e-6
        assert rep.ratio_thm == pytest.approx(QUBIT_PAIR_BINARY_MAX / 2.0, abs=1e-9)
        import json

        obj = json.loads(rep.to_json())
        assert set(obj) == {
            "mixing_rate_at_H",
            "max_rate",
            "binary_max_rate",
            "bound_thm",
            "bound_conjecture",
            "fd_residual",
            "ratio_thm",
            "ratio_conjecture",
        }

    def test_conjecture_ratio_recorded_not_asserted(self):
        g = rng(322)
        E = random_ensemble(3, 3, g)
        rep = rates.rate_report(batch(E))
        assert rep.ratio_conjecture is not None
        assert math.isfinite(rep.ratio_conjecture)


class TestExtendedPrecision:
    """The closed forms and the rate at given H against a 40-digit mpmath
    evaluation of the same formulas on the same float data (reference.py),
    to 1e-12 relative."""

    REL = 1e-12

    def check(self, E, H):
        max_rate, binary, rate = reference.mp_rates(E, H)
        assert max_mixing_rate(E) == pytest.approx(max_rate, rel=self.REL, abs=0.0)
        assert mixing_rate(E, H) == pytest.approx(rate, rel=self.REL, abs=0.0)
        if len(E) == 2:
            assert binary_max_rate(E) == pytest.approx(binary, rel=self.REL, abs=0.0)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_ensembles(self, dim, n):
        g = rng(340 + 10 * dim + n)
        for _ in range(2):
            self.check(random_ensemble(dim, n, g), random_hamiltonian_set(dim, n, g))

    @pytest.mark.parametrize("dim", [3, 4])
    def test_trajectories(self, dim):
        # S(rho(t)) at the FD and STM times under the maximizers (the closed
        # form of _involution_trajectory) and under given Hamiltonians (the
        # spectral _trajectory), each against the 40-digit evolution of the
        # same float matrices: 4 ensembles, 76 eighe calls in all.
        g = rng(370 + dim)
        times = rates.FD_TIMES + rates.STM_TIMES
        for n in (2, 3):
            E, H = random_ensemble(dim, n, g), random_hamiltonian_set(dim, n, g)
            b, M = batch(E), optimal_hamiltonians(E)
            closed = rates._involution_trajectory(b.p, b.rhos, _mixture(b.p, b.rhos), M[None], times)
            spectral = rates._trajectory(b.p, b.rhos, hm.eig_hermitian(H[None]), times)
            for got, at in ((closed[0], M), (spectral[0], H)):
                want = reference.mp_entropies(E, at, times)
                assert got == pytest.approx(want, rel=self.REL, abs=0.0)

    def test_golden_compute_inputs(self, tmp_path):
        files = write_inputs(str(tmp_path))
        for n in (2, 3):
            with open(files[f"ens_n{n}"], "rb") as fh:
                E = parse_ensemble(fh.read())
            with open(files[f"hams_n{n}"], "rb") as fh:
                H = parse_hamiltonian_set(fh.read())
            self.check(E, H)
