"""Metamorphic properties of the rates: transformations of the input that
leave the reported values unchanged in exact arithmetic.

Each property runs on seeded samples (hypothesis draws the seed, d and n)
and on the ensembles and Hamiltonian sets of the golden corpus. The
tolerances are relative to max(1, |value|); the largest deviations seen on
300 seeded samples are noted with each, so every bound has at least three
orders of magnitude of headroom over float64 rounding.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden.make_golden import write_inputs
from mixrate import rates
from mixrate.ensembles import Ensemble, parse_hamiltonian_set
from mixrate.harness import ExperimentConfig, RNGSpec, sample_ensemble

from conftest import (
    batch,
    binary_max_rate,
    ensemble,
    max_mixing_rate,
    mixing_rate,
    optimal_hamiltonians,
    parse_ensemble,
    random_hermitian,
    rng,
    unit_hamiltonians,
)

# Every value of a RateReport but fd_residual, which is rounding-level noise.
FIELDS = (
    "mixing_rate_at_H",
    "max_rate",
    "binary_max_rate",
    "bound_thm",
    "bound_conjecture",
    "ratio_thm",
    "ratio_conjecture",
)
REPORT_TOL = 1e-10  # unitary, permutation: seen 1.6e-14, 8.4e-14
RATE_TOL = 1e-12  # common shift of H (per unit of max|K_ij|), split, n = 2: seen 1.3e-15
SQUARE_TOL = 1e-12  # max |(H_x^2 - I)_ij| of the maximizers: seen 2.9e-15

CASES = st.tuples(
    st.integers(min_value=0, max_value=10**6),  # seed
    st.integers(min_value=2, max_value=4),  # d
    st.integers(min_value=2, max_value=4),  # n
)


def _sampled(case):
    """A seeded ensemble, a unit-norm Hamiltonian set for it, and a generator
    for the transformation's own draws."""
    seed, d, n = case
    E = sample_ensemble(ExperimentConfig(dim=d, n_states=n, seed=seed), RNGSpec(seed, 0))
    H = unit_hamiltonians(n, d, rng(seed, 1))
    return E, H, rng(seed, 2)


def _golden():
    """The golden corpus's (ensemble, Hamiltonian set) pairs at n = 2 and 3."""
    with tempfile.TemporaryDirectory() as tmp:
        files = write_inputs(tmp)
        pairs = []
        for n in (2, 3):
            with open(files[f"ens_n{n}"], "rb") as fe, open(files[f"hams_n{n}"], "rb") as fh:
                pairs.append((parse_ensemble(fe.read()), parse_hamiltonian_set(fh.read())))
    return pairs


def _close(got, want, tol):
    return abs(got - want) <= tol * max(1.0, abs(want))


def _assert_same_report(got, want):
    for f in FIELDS:
        a, b = getattr(got, f), getattr(want, f)
        assert (a is None) == (b is None), f
        if b is not None:
            assert _close(a, b, REPORT_TOL), (f, a, b)


# --- the properties ---------------------------------------------------------


def common_unitary(E, H, g):
    """rho_x -> U rho_x U† for one unitary U: max_rate, the bounds and the
    ratios are unchanged (and the rate at the maximizers with them)."""
    d = E.dim
    U, _ = np.linalg.qr(g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)))
    EU = ensemble(E.probabilities, [U @ s.matrix @ U.conj().T for s in E.states])
    _assert_same_report(rates.rate_report(batch(EU)), rates.rate_report(batch(E)))


def common_shift(E, H, g):
    """H_x -> H_x + K for one Hermitian K: the rate is unchanged, since
    sum_x p_x [rho_x, ln rho] = [rho, ln rho] = 0."""
    K = random_hermitian(E.dim, g)
    HK = H + K
    want = mixing_rate(E, H)
    got = mixing_rate(E, HK)
    assert abs(got - want) <= RATE_TOL * max(1.0, abs(want)) * (1.0 + np.abs(K).max())


def permutation(E, H, g):
    """Permuting the members (with their Hamiltonians) changes no reported
    value; at n = 2 the binary rate is the same from either member."""
    perm = g.permutation(len(E))
    EP = Ensemble(E.probabilities[perm], tuple(E.states[i] for i in perm))
    HP = H[perm]
    _assert_same_report(rates.rate_report(batch(EP)), rates.rate_report(batch(E)))
    _assert_same_report(rates.rate_report(batch(EP), HP), rates.rate_report(batch(E), H))


def split_member(E, H, g):
    """Splitting member x into two copies at p_x / 2 keeps max_rate."""
    x = int(g.integers(len(E)))
    p = list(E.probabilities)
    p[x] /= 2
    ES = Ensemble(np.array(p + [p[x]]), (*E.states, E.states[x]))
    assert _close(max_mixing_rate(ES), max_mixing_rate(E), RATE_TOL)


def twice_binary(E, H, g):
    """At n = 2, max_rate = 2 x the binary rate; larger ensembles are cut to
    their first two members, renormalized."""
    p = E.probabilities[:2]
    E2 = Ensemble(p / p.sum(), E.states[:2])
    assert _close(max_mixing_rate(E2), 2.0 * binary_max_rate(E2), RATE_TOL)


def maximizers_square_to_one(E, H, g):
    """The maximizers H_x = I - 2 P_neg satisfy H_x^2 = I."""
    for h in optimal_hamiltonians(E):
        assert np.abs(h @ h - np.eye(E.dim)).max() <= SQUARE_TOL


PROPERTIES = [
    common_unitary,
    common_shift,
    permutation,
    split_member,
    twice_binary,
    maximizers_square_to_one,
]


@pytest.mark.parametrize("prop", PROPERTIES, ids=lambda f: f.__name__)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(CASES)
def test_seeded(prop, case):
    prop(*_sampled(case))


@pytest.mark.parametrize("prop", PROPERTIES, ids=lambda f: f.__name__)
def test_golden_inputs(prop):
    for k, (E, H) in enumerate(_golden()):
        prop(E, H, rng(900, k))
