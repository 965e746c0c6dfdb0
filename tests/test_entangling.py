import json
import math
import re

import numpy as np
import pytest

import reference
from golden.make_golden import write_inputs
from mixrate import entangling as en
from mixrate import hermitian as hm
from mixrate.ensembles import _entropy_from_eigenvalues, matrix_to_json
from mixrate.errors import Fault, InputError

from conftest import rng

BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def _entropy(M):
    return _entropy_from_eigenvalues(np.linalg.eigvalsh(M))


def random_pure(dims, g):
    n = int(np.prod(dims))
    v = g.standard_normal(n) + 1j * g.standard_normal(n)
    return en.PureState(v / np.linalg.norm(v), dims)


def entangling_rate(psi, H):
    """The entangling rate of psi under H, from the kernel sie reads."""
    d_a, _, d_B, _ = psi.dims
    return en._entangling_rate(*en._reduced(psi), en.lift_to_aAB(H, d_a), d_B)


def mu_state(psi):
    """The complementary state mu of the reduction's batch for psi."""
    return en._mu(*en._reduced(psi), psi.dims).rhos[0, 0]


def pure_state_file(v, dims) -> str:
    amplitudes = [[z.real, z.imag] for z in np.asarray(v, dtype=complex).tolist()]
    return json.dumps({"dims": list(dims), "amplitudes": amplitudes})


def random_interaction(dA, dB, g):
    d = dA * dB
    G = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    H = (G + G.conj().T) / 2
    H /= np.max(np.abs(np.linalg.eigvalsh(H)))
    return en.BipartiteOperator(H, (dA, dB))


class TestPureState:
    """The checks of parse_pure_state."""

    def test_norm_enforced(self):
        with pytest.raises(InputError, match=r"^invariant violated: state norm 1\.414"):
            en.parse_pure_state(pure_state_file([1.0, 1.0], (1, 2, 1, 1)))

    def test_norm_tolerance(self):
        # NORM_TOL: a norm 0.5 of it past 1 is accepted and renormalized, 2 of it refused.
        psi = en.parse_pure_state(pure_state_file([1.0 + 0.5e-10, 0.0], (1, 2, 1, 1)))
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(InputError, match="differs from 1"):
            en.parse_pure_state(pure_state_file([1.0 + 2e-10, 0.0], (1, 2, 1, 1)))

    def test_length_must_match_dims(self):
        with pytest.raises(InputError, match="amplitude length 3 != product of dims 4"):
            en.parse_pure_state(pure_state_file([1.0, 0, 0], (1, 2, 2, 1)))

    @pytest.mark.filterwarnings("error")
    def test_nan_amplitude_rejected(self):
        with pytest.raises(InputError, match="amplitude 0 is not finite"):
            en.parse_pure_state(pure_state_file([math.nan, 1.0], (1, 2, 1, 1)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [complex(0.0, math.inf), complex(-math.inf, 0.0)])
    def test_infinite_amplitude_rejected(self, z):
        with pytest.raises(InputError, match="amplitude 1 is not finite"):
            en.parse_pure_state(pure_state_file([0.6, z, 0.8, 0.0], (1, 2, 2, 1)))


class TestBipartiteOperator:
    @pytest.mark.parametrize("dims", [(-2, -2), (-1, -4), (-4, -1)])  # products of 4
    def test_factor_dims_below_one_rejected(self, dims):
        text = json.dumps({"dims": list(dims), "hamiltonian": matrix_to_json(np.eye(4))})
        why = f"^need two factor dimensions >= 1, got {re.escape(str(dims))}$"
        with pytest.raises(InputError, match=why):
            en.parse_bipartite_operator(text)


class TestPartialTrace:
    """`_reduced` reshapes the amplitudes; the einsum partial trace of the
    projector |Psi><Psi| is the oracle."""

    @staticmethod
    def reduced(psi):
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        rho_aAB, rho_aA = en._reduced(psi)
        assert np.allclose(rho_aAB, reference.partial_trace(rho, psi.dims, (0, 1, 2)), atol=1e-15)
        assert np.allclose(rho_aA, reference.partial_trace(rho, psi.dims, (0, 1)), atol=1e-15)
        return rho_aAB, rho_aA

    def test_product_state(self):
        a, b = np.array([0.6, 0.8j]), np.array([1.0, 1.0]) / math.sqrt(2)
        _, rho_aA = self.reduced(en.PureState(np.kron(a, b), (1, 2, 2, 1)))
        assert np.allclose(rho_aA, np.outer(a, a.conj()), atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        _, rho_aA = self.reduced(en.PureState(BELL, (1, 2, 2, 1)))
        assert np.allclose(rho_aA, np.eye(2) / 2, atol=1e-12)

    def test_keep_all_is_identity(self):
        # One row block per amplitude: the reduction keeps the projector.
        v = random_pure((2, 3, 1, 1), rng(400)).amplitudes
        assert np.allclose(en._gram(v, v.size), np.outer(v, v.conj()), atol=1e-15)

    @pytest.mark.parametrize("dims", [(2, 2, 3, 2), (1, 4, 2, 3), (3, 2, 2, 1)])
    def test_random_states(self, dims):
        g = rng(402)
        for _ in range(5):
            self.reduced(random_pure(dims, g))

    def test_trace_and_psd_preserved(self):
        for red in self.reduced(random_pure((2, 2, 3, 2), rng(401))):
            assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(red)[0] >= -1e-12


class TestEntanglementEntropy:
    def test_product_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        assert reference.entanglement_entropy(en.PureState(v, (1, 2, 2, 1))) == 0.0

    def test_bell_state(self):
        psi = en.PureState(BELL, (1, 2, 2, 1))
        assert reference.entanglement_entropy(psi) == pytest.approx(math.log(2))

    def test_maximally_entangled_qutrits(self):
        v = np.zeros(9, dtype=complex)
        v[[0, 4, 8]] = 1 / math.sqrt(3)
        psi = en.PureState(v, (1, 3, 3, 1))
        assert reference.entanglement_entropy(psi) == pytest.approx(math.log(3))

    def test_purity_symmetry(self):
        g = rng(402)
        for _ in range(20):
            psi = random_pure((2, 3, 2, 2), g)
            rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
            s_alice = _entropy(reference.partial_trace(rho, psi.dims, (0, 1)))
            s_bob = _entropy(reference.partial_trace(rho, psi.dims, (2, 3)))
            assert s_alice == pytest.approx(s_bob, abs=1e-9)


class TestEntanglingRate:
    def test_identity_hamiltonian_gives_zero(self):
        g = rng(403)
        psi = random_pure((2, 2, 2, 2), g)
        H = en.BipartiteOperator(np.eye(4), (2, 2))
        assert entangling_rate(psi, H) == pytest.approx(0.0, abs=1e-12)

    def test_product_state_gives_zero(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        psi = en.PureState(v, (1, 2, 2, 1))
        H = random_interaction(2, 2, rng(404))
        assert entangling_rate(psi, H) == pytest.approx(0.0, abs=1e-12)

    def test_bell_swap_oracle(self):
        # Frozen via the fd oracle: the Bell state sits at an entropy
        # stationary point of this exchange coupling, so the rate is 0.
        psi = en.PureState(BELL, (1, 2, 2, 1))
        Hs = np.zeros((4, 4))
        Hs[1, 2] = Hs[2, 1] = 1.0
        H = en.BipartiteOperator(Hs, (2, 2))
        rate = entangling_rate(psi, H)
        assert rate == pytest.approx(0.0, abs=1e-9)
        assert rate == pytest.approx(
            reference.fd_entangling_rate_richardson(psi, H, 1e-5), abs=1e-8
        )

    def test_agrees_with_fd_on_full_schmidt_rank_states(self):
        g = rng(405)
        for dims in [(1, 2, 2, 1), (2, 2, 2, 2), (2, 3, 3, 2), (2, 4, 4, 2)]:
            for _ in range(5):
                psi = random_pure(dims, g)
                H = random_interaction(dims[1], dims[2], g)
                analytic = entangling_rate(psi, H)
                assert abs(analytic - reference.fd_entangling_rate(psi, H, 1e-4)) <= 1e-6

    def test_fd_second_order_convergence(self):
        g = rng(406)
        psi = random_pure((2, 2, 2, 2), g)
        H = random_interaction(2, 2, g)
        exact = entangling_rate(psi, H)
        e1 = abs(reference.fd_entangling_rate(psi, H, 1e-2) - exact)
        e2 = abs(reference.fd_entangling_rate(psi, H, 5e-3) - exact)
        assert e2 <= e1 / 3.0  # ~1/4 for an O(h^2) scheme

    def test_log_forms_equivalent(self):
        g = rng(407)
        psi = random_pure((2, 3, 2, 2), g)
        H = random_interaction(3, 2, g)
        d_a, d_A, d_B, _ = psi.dims
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        rho_aAB = reference.partial_trace(rho, psi.dims, (0, 1, 2))
        rho_aA = reference.partial_trace(rho, psi.dims, (0, 1))
        L = hm.support_log(np.kron(rho_aA, np.eye(d_B) / d_B))
        H_lift = np.kron(np.eye(d_a), H.matrix)
        alt = 1j * np.trace(H_lift @ (rho_aAB @ L - L @ rho_aAB))
        assert entangling_rate(psi, H) == pytest.approx(float(alt.real), abs=1e-9)

    def test_dim_mismatch(self):
        psi = random_pure((2, 2, 2, 2), rng(408))
        wrong = random_interaction(2, 3, rng(409))
        for call in (en.sie_to_sim, lambda psi, H: en.ste_check(psi, H, [1.0])):
            with pytest.raises(InputError, match=r"^Hamiltonian factors \(2, 3\) != state factors"):
                call(psi, wrong)


class TestBravyiMu:
    def test_bell_state_closed_form(self):
        psi = en.PureState(BELL, (1, 2, 2, 1))
        mu = mu_state(psi)
        expect = (np.eye(4) - np.outer(BELL, BELL.conj())) / 3.0
        assert np.abs(mu - expect).max() <= 1e-12

    def test_product_state_formula(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        psi = en.PureState(v, (1, 2, 2, 1))
        mu = mu_state(psi)
        rho_aA = np.diag([1.0, 0.0])
        rho_aAB = np.outer(v, v.conj())
        expect = (np.kron(rho_aA, np.eye(2) / 2) - 0.25 * rho_aAB) / 0.75
        assert np.abs(mu - expect).max() <= 1e-12
        assert np.linalg.eigvalsh(mu)[0] >= -1e-12

    def test_reconstruction_identity(self):
        g = rng(410)
        psi = random_pure((2, 3, 2, 2), g)
        mu = mu_state(psi)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        rho_aAB = reference.partial_trace(rho, psi.dims, (0, 1, 2))
        rho_aA = reference.partial_trace(rho, psi.dims, (0, 1))
        recon = (1 - 0.25) * mu + 0.25 * rho_aAB
        assert hm.frobenius(recon - np.kron(rho_aA, np.eye(2) / 2)) <= 1e-10

    def test_validates_on_many_random_states(self):
        g = rng(411)
        for _ in range(200):
            d_B = int(g.integers(2, 4))
            d_A = int(g.integers(d_B, 5))
            psi = random_pure((2, d_A, d_B, 2), g)
            mu = mu_state(psi)  # the reduction's state check is the assertion
            assert mu.shape == (2 * d_A * d_B,) * 2

    def test_mismatched_reduced_states_are_not_a_state(self):
        # rho_aA is |0><0| on A, but rho_aAB lives on A's |1>: no pure state
        # has these reduced states, and their mu has the eigenvalue -1/3.
        rho_aA = np.diag([1.0, 0.0]).astype(complex)
        rho_aAB = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
        with pytest.raises(Fault, match=r"^mu is not a state: not PSD \(min eigenvalue -3\.333e-01\)$"):
            en._mu(rho_aAB, rho_aA, (1, 2, 2, 1))

    def test_dimension_order_enforced(self):
        g = rng(412)
        with pytest.raises(InputError):
            mu_state(random_pure((1, 2, 3, 1), g))
        with pytest.raises(InputError):
            mu_state(random_pure((1, 2, 1, 2), g))


class TestSieToSim:
    def test_identity_hamiltonian(self):
        psi = random_pure((2, 2, 2, 2), rng(413))
        H = en.BipartiteOperator(np.eye(4), (2, 2))
        residual, gamma = en.sie_to_sim(psi, H)
        # I commutes with everything: Gamma = 0, so the rate under (0, H_lift),
        # within residual of d_B^-2 Gamma, is 0 too.
        assert gamma == pytest.approx(0.0, abs=1e-10)
        assert residual <= 1e-10

    def test_bell_swap_case(self):
        psi = en.PureState(BELL, (1, 2, 2, 1))
        Hs = np.zeros((4, 4))
        Hs[1, 2] = Hs[2, 1] = 1.0
        H = en.BipartiteOperator(Hs, (2, 2))
        residual, _ = en.sie_to_sim(psi, H)
        assert residual <= 1e-8

    def test_identity_residual_over_random_samples(self):
        g = rng(414)
        for k in range(100):
            d_B = int(g.integers(2, 4))
            d_A = int(g.integers(d_B, 5))
            psi = random_pure((2, d_A, d_B, 2), g)
            H = random_interaction(d_A, d_B, g)
            residual, _ = en.sie_to_sim(psi, H)
            assert residual <= 1e-8
            assert list(en._mu(*en._reduced(psi), psi.dims).p[0]) == pytest.approx(
                [1 - d_B ** -2, d_B ** -2]
            )

    def test_reduced_states_formed_once(self, monkeypatch):
        # mu, the ensemble and the entangling rate all read one pair
        # (rho_aAB, rho_aA).
        calls = [0]

        def counted(*args, _f=en._reduced, **kwargs):
            calls[0] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(en, "_reduced", counted)
        psi = random_pure((2, 4, 2, 2), rng(415))
        residual, gamma = en.sie_to_sim(psi, random_interaction(4, 2, rng(416)))
        assert calls[0] == 1
        assert residual <= 1e-8 and math.isfinite(gamma)


class TestExtendedPrecision:
    """sie's entangling rate at the golden corpus' inputs against a 40-digit
    mpmath evaluation of the same formula on the same float data
    (reference.mp_entangling_rate), to 1e-12 relative, and its reduction
    residual against its exact value, 0."""

    REL = 1e-12
    # ln(rho_aA ⊗ I/d_B) = ln rho_aA ⊗ I - ln d_B I, and the identity term
    # commutes with rho_aAB, so lambda = d_B^-2 Gamma exactly: the residual is
    # the rounding of two float rates of size below 1, measured at 5.0e-16
    # (1422) and 1.7e-16 (2322). The bound leaves 20x room; sie's own check
    # is 1e-8.
    RESIDUAL = 1e-14

    @pytest.mark.parametrize("tag", ["1422", "2322"])
    def test_golden_sie_inputs(self, tmp_path, tag):
        files = write_inputs(str(tmp_path))
        with open(files[f"state_{tag}"], "rb") as fh:
            psi = en.parse_pure_state(fh.read())
        with open(files[f"op_{tag}"], "rb") as fh:
            H = en.parse_bipartite_operator(fh.read())
        residual, gamma = en.sie_to_sim(psi, H)
        want = reference.mp_entangling_rate(psi, H)
        assert gamma == pytest.approx(want, rel=self.REL, abs=0.0)
        assert residual <= self.RESIDUAL


class TestSteCheck:
    def test_identity_hamiltonian_keeps_entanglement(self):
        psi = random_pure((2, 2, 2, 2), rng(415))
        H = en.BipartiteOperator(np.eye(4), (2, 2))
        pts = en.ste_check(psi, H, [0.0, 1.0, 2.5])
        e0 = reference.entanglement_entropy(psi)
        for pt in pts:
            assert pt.ok
            assert pt.entanglement == pytest.approx(e0, abs=1e-9)

    def test_product_state_stays_below_bound(self):
        v = np.zeros(16, dtype=complex)
        v[0] = 1.0
        psi = en.PureState(v, (2, 2, 2, 2))
        H = random_interaction(2, 2, rng(416))
        pts = en.ste_check(psi, H, [0.5 * k for k in range(11)])
        assert all(pt.ok for pt in pts)

    def test_random_states_and_hamiltonians(self):
        g = rng(417)
        for _ in range(10):
            psi = random_pure((2, 3, 2, 2), g)
            H = random_interaction(3, 2, g)
            pts = en.ste_check(psi, H, [0.5 * k for k in range(11)])
            assert all(pt.ok for pt in pts)


    def test_matches_the_entanglement_of_each_evolved_state(self):
        g = rng(419)
        for dims in ((2, 3, 2, 2), (1, 4, 2, 2), (2, 2, 2, 1)):
            psi = random_pure(dims, g)
            H = random_interaction(dims[1], dims[2], g)
            pts = en.ste_check(psi, H, [0.5 * k for k in range(11)])
            bound = reference.entanglement_entropy(psi) + 2.0 * math.log(min(dims[1], dims[2]))
            for pt in pts:
                e_t = reference.entanglement_entropy(reference.evolve_pure(psi, H, pt.t))
                assert abs(pt.entanglement - e_t) <= 1e-12
                assert abs(pt.bound - bound) <= 1e-12

    def test_slack_at_the_bound(self, monkeypatch):
        # No state breaks the bound (a theorem), so the trajectory is planted.
        # The slack is rates.CHECK_SLACK, written out so that a wider one fails.
        psi = en.PureState(BELL, (1, 2, 2, 1))
        H = en.BipartiteOperator(np.eye(4), (2, 2))
        bound = 0.25 + 2.0 * math.log(2)
        planted = np.array([0.25, bound + 0.5e-9, bound + 2e-9])
        monkeypatch.setattr(en, "_entanglement_trajectory", lambda psi, H, ts: planted)
        pts = en.ste_check(psi, H, [1.0, 2.0])
        assert [pt.bound for pt in pts] == [bound, bound]
        assert [pt.ok for pt in pts] == [True, False]


class TestFdGuards:
    def test_ill_conditioned_reduced_state_rejected(self):
        # near-product state with one Schmidt weight at ~1e-10
        eps = 1e-5
        v = np.array([math.sqrt(1 - eps ** 2), 0, 0, eps], dtype=complex)
        psi = en.PureState(v, (1, 2, 2, 1))
        H = random_interaction(2, 2, rng(418))
        with pytest.raises(reference.IllConditioned):
            reference.fd_entangling_rate(psi, H, 1e-4)

    def test_richardson_error_order(self):
        psi = random_pure((2, 2, 2, 2), rng(422))
        wrong = random_interaction(3, 2, rng(423))
        with pytest.raises(InputError):
            reference.fd_entangling_rate_richardson(psi, wrong, 0.0)
        with pytest.raises(InputError):
            reference.fd_entangling_rate_richardson(psi, wrong, 1e-4)


class TestJsonRoundTrip:
    def test_pure_state_round_trip(self):
        psi = random_pure((2, 2, 3, 2), rng(419))
        amplitudes = [[z.real, z.imag] for z in psi.amplitudes.tolist()]
        back = en.parse_pure_state(json.dumps({"dims": list(psi.dims), "amplitudes": amplitudes}))
        assert back.dims == psi.dims
        assert np.abs(back.amplitudes - psi.amplitudes).max() <= 1e-12

    def test_operator_round_trip(self):
        H = random_interaction(2, 3, rng(420))
        text = json.dumps({"dims": list(H.dims), "hamiltonian": matrix_to_json(H.matrix)})
        back = en.parse_bipartite_operator(text)
        assert back.dims == H.dims
        assert np.abs(back.matrix - H.matrix).max() <= 1e-12

    def test_malformed(self):
        with pytest.raises(InputError):
            en.parse_pure_state(b'{"dims": [1,2,2,1]}')
        with pytest.raises(InputError):
            en.parse_bipartite_operator(b'{"dims": [2,2], "hamiltonian": [1,2]}')
