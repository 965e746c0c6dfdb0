"""Mixing rates, their closed-form maxima, and the bound evaluators.

The mixing rate of an ensemble under a set of Hamiltonians is the time
derivative at t = 0 of the entropy of the evolving expected state,

    rate(E, H) = d/dt S(rho(t))|_0 = i * sum_x p(x) Tr(H_x [rho_x, ln rho]),

with rho the expected state and ln taken on its support. Maximizing each
term independently over -I <= H_x <= I gives the exact closed form

    max_rate(E) = sum_x p(x) * ||[rho_x, ln rho]||_1,

achieved by H_x = I - 2 P_neg where P_neg projects onto the negative
eigenspace of i[rho_x, ln rho]. A central finite difference of the entropy
serves as the independent oracle for the analytic derivative.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import hermitian as hm
from .ensembles import (
    Ensemble,
    Hamiltonian,
    HamiltonianSet,
    _entropy_from_eigenvalues,
    _require_matching,
    _state_eigenvalues,
    _xlnx,
    average_entropy,
    binary_entropy,
    expected_state,
    shannon_entropy,
)
from .errors import (
    BadDistribution,
    DegenerateState,
    DimMismatch,
    DomainError,
    IdentityViolation,
    NotBinary,
    RankDeficient,
)
from .hermitian import DEFAULT_RANK_TOL

DEFAULT_FD_STEP = 1e-4
IMAG_TOL = 1e-9
SUPPORT_LEAK_TOL = 1e-8
STM_TIMES = (0.5, 1.0, 2.0)  # the times at which a trial checks the STM sandwich
CHECK_SLACK = 1e-9  # slack of the STM and STE bound checks


def _log_expected(E: Ensemble, rank_tol: float):
    """(ln rho on its support, rho); raises if a member leaks off the support."""
    rho = expected_state(E)
    ln_rho, supp = hm.log_on_support(rho.spectrum, rank_tol)
    Vk = rho.spectrum.eigenvectors[:, ~supp]
    for i, s in enumerate(E.states):
        leak = float(np.real(np.trace(Vk.conj().T @ s.matrix @ Vk)))
        if leak > SUPPORT_LEAK_TOL:
            raise DegenerateState(f"member {i} leaks {leak:.3e} outside the support of rho")
    return ln_rho, rho


class _Spectra:
    """The one spectral pass that every maximal-rate quantity reads: ln rho,
    the eigendecompositions of the stacked C_x = i[rho_x, ln rho] (one LAPACK
    dispatch), and the rates sum_x p_x ||C_x||_1 and p_0 ||C_0||_1."""

    def __init__(self, E: Ensemble, rank_tol: float):
        self.E, self.rank_tol = E, rank_tol
        self.ln_rho, self.rho = _log_expected(E, rank_tol)
        rhos, L = np.stack([s.matrix for s in E.states]), self.ln_rho
        self.eigs = hm.eig_hermitian_stack(1j * (rhos @ L - L @ rhos))
        norms = [float(n) for n in np.sum(np.abs(self.eigs.eigenvalues), axis=-1)]
        self.max_rate = sum(float(p) * n for p, n in zip(E.probabilities, norms))
        self.binary_rate = float(E.probabilities[0]) * norms[0]

    def hamiltonians(self) -> HamiltonianSet:
        hams = []
        for w, V in zip(*self.eigs):
            tol = self.rank_tol * max(1.0, float(np.linalg.norm(w)))  # ||C_x||_F
            s = np.where(w < -tol, -1.0, 1.0)  # I - 2 P_neg, ascending like w
            hams.append(Hamiltonian.from_spectrum(s, V, normalized=True))
        return HamiltonianSet(hams)


def mixing_rate(
    E: Ensemble,
    H: HamiltonianSet,
    rank_tol: float = DEFAULT_RANK_TOL,
    _ln_rho: Optional[np.ndarray] = None,
) -> float:
    """Analytic entropy derivative i * sum_x p(x) Tr(H_x [rho_x, ln rho]).

    `_ln_rho` lets a caller that evaluates many Hamiltonian sets against one
    ensemble reuse the support logarithm of the expected state.
    """
    _require_matching(E, H)
    ln_rho = _log_expected(E, rank_tol)[0] if _ln_rho is None else _ln_rho
    total = 0j
    for p, s, h in zip(E.probabilities, E.states, H.hams):
        total += p * np.trace(h.matrix @ hm.commutator(s.matrix, ln_rho))
    val = 1j * total
    if abs(val.imag) > IMAG_TOL:
        raise IdentityViolation(f"mixing rate has imaginary residue {val.imag:.3e}")
    return float(val.real)


def _fd_probe(h: float, rho, rank_tol: float) -> None:
    """Refuse a finite difference at step h around the expected state rho."""
    if h <= 0:
        raise DomainError("finite-difference step must be positive")
    w_min = float(rho.spectrum.eigenvalues[0])
    if w_min < 1e3 * rank_tol:
        raise RankDeficient(
            f"expected state eigenvalue {w_min:.3e} too small for finite differences"
        )


def _fd_times(h: float) -> tuple[float, ...]:
    """The times at which the Richardson oracle of step h reads S(rho(t))."""
    return (h, -h, h / 2.0, -h / 2.0)


def _central(S, h: float) -> float:
    """[S(h) - S(-h)] / 2h from the entropies S at (h, -h)."""
    return float((S[0] - S[1]) / (2.0 * h))


def _richardson(S, h: float) -> float:
    """Richardson extrapolation (4 D(h/2) - D(h)) / 3 of the central
    differences D from the entropies S at _fd_times(h): error O(h^4) where
    D's is O(h^2)."""
    return (4.0 * _central(S[2:], h / 2.0) - _central(S, h)) / 3.0


def _trajectory(E: Ensemble, H: HamiltonianSet, ts: Sequence[float]) -> np.ndarray:
    """S(rho(t)) at each t of ts, rho(t) = sum_x p_x e^{-iH_x t} rho_x e^{iH_x t}.

    Each member is rotated once into the eigenbasis of its H_x, where the
    evolution to every t is an outer product of phases e^{-i t w}. Every
    rho(t) then gets the checks a DensityMatrix gets (finite, Hermitian, PSD,
    unit trace), and all of them one stacked eigvalsh.
    """
    _require_matching(E, H)
    ts = np.asarray(ts, dtype=float)
    rho_t = np.zeros((ts.size, E.dim, E.dim), dtype=complex)
    for p, s, h in zip(E.probabilities, E.states, H.hams):
        w, V = h.spectrum
        R = V.conj().T @ s.matrix @ V
        phase = np.exp(-1j * np.outer(ts, w))
        rho_t += p * (V @ (phase[:, :, None] * R * phase.conj()[:, None, :]) @ V.conj().T)
    w = _state_eigenvalues(hm.eigvals_hermitian_stack(rho_t))
    return _entropy_from_eigenvalues(w, E.dim)


def fd_mixing_rate(
    E: Ensemble,
    H: HamiltonianSet,
    h: float = DEFAULT_FD_STEP,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> float:
    """Central finite difference [S(rho(h)) - S(rho(-h))] / 2h."""
    _fd_probe(h, expected_state(E), rank_tol)
    return _central(_trajectory(E, H, (h, -h)), h)


def fd_mixing_rate_richardson(
    E: Ensemble,
    H: HamiltonianSet,
    h: float = DEFAULT_FD_STEP,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> float:
    """Richardson-extrapolated central difference (oracle mode), error O(h^4)."""
    _fd_probe(h, expected_state(E), rank_tol)
    return _richardson(_trajectory(E, H, _fd_times(h)), h)


def optimal_hamiltonians(E: Ensemble, rank_tol: float = DEFAULT_RANK_TOL) -> HamiltonianSet:
    """The maximizing Hamiltonians H_x = I - 2 P_neg(i[rho_x, ln rho]).

    Each H_x is a difference of complementary projectors (plus identity on
    the kernel of the commutator), so H_x^2 = I and ||H_x|| = 1, and
    mixing_rate(E, result) = +max_mixing_rate(E).
    """
    return _Spectra(E, rank_tol).hamiltonians()


def max_mixing_rate(E: Ensemble, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Closed-form maximum sum_x p(x) ||[rho_x, ln rho]||_1 over -I <= H_x <= I."""
    return _Spectra(E, rank_tol).max_rate


def binary_max_rate(E: Ensemble, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Two-member closed form p * ||[rho_1, ln rho]||_1 (only rho_2 evolves)."""
    if len(E) != 2:
        raise NotBinary(f"binary rate needs exactly 2 members, got {len(E)}")
    return _Spectra(E, rank_tol).binary_rate


def bound_theorem_binary(p: float) -> float:
    """Dimension-independent binary bound 4 sqrt(p (1-p))."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability {p!r} outside [0, 1]")
    return 4.0 * math.sqrt(p * (1.0 - p))


def bound_theorem_general(probs: Sequence[float]) -> float:
    """General bound 4 * sum_{x != x0} sum_{y != x} sqrt(p_x p_y).

    x0 is the index of the largest probability; ties break to the lowest
    index (the bound value is tie-invariant).
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0 or np.any(p <= 0) or abs(float(np.sum(p)) - 1.0) > 1e-10:
        raise BadDistribution("probabilities must be positive and sum to 1")
    x0 = int(np.argmax(p))
    sqrt_p = np.sqrt(p)
    total = 0.0
    for x in range(p.size):
        if x == x0:
            continue
        total += sqrt_p[x] * (np.sum(sqrt_p) - sqrt_p[x])
    return 4.0 * float(total)


@dataclass(frozen=True)
class StmPoint:
    """One time slice of the total-mixing sandwich check."""

    t: float
    entropy: float
    lower: float
    upper: float
    ok: bool


def stm_check(E: Ensemble, H: HamiltonianSet, ts: Sequence[float]) -> list[StmPoint]:
    """Check avg_entropy(E) <= S(rho(t)) <= avg_entropy(E) + S(X) at each t."""
    return _stm_points(E, ts, _trajectory(E, H, ts))


def _stm_points(E: Ensemble, ts: Sequence[float], S) -> list[StmPoint]:
    """stm_check's points from the entropies S of rho(t) at ts."""
    lower = average_entropy(E)
    upper = lower + shannon_entropy(E.probabilities)
    ok = (lower - CHECK_SLACK <= S) & (S <= upper + CHECK_SLACK)
    return [StmPoint(float(t), float(s), lower, upper, bool(k)) for t, s, k in zip(ts, S, ok)]


def ak_gap(A, B, rank_tol: float = DEFAULT_RANK_TOL) -> tuple[float, float]:
    """The two sides of the commutator/entropy functional for f = ln.

    Returns (||[B, ln(A+B)]||_1, F(a+b) - F(a) - F(b)) for PSD A, B with
    a = Tr A, b = Tr B and F(x) = x ln x - x; the difference of F values
    reduces to (a+b) ln(a+b) - a ln a - b ln b (0 ln 0 := 0).
    """
    A = hm.require_hermitian(A)
    B = hm.require_hermitian(B)
    if A.shape != B.shape:
        raise DimMismatch("A and B must have equal dimensions")
    eig = hm.eig_hermitian(A + B)
    w = eig.eigenvalues
    if w[0] <= rank_tol * max(float(w[-1]), 0.0):
        raise DomainError("A + B is rank-deficient beyond tolerance")
    ln_C = hm.log_on_support(eig, rank_tol)[0]
    lhs = hm.trace_norm(hm.hermitian_part(1j * hm.commutator(B, ln_C)))
    alpha = float(np.real(np.trace(A)))
    beta = float(np.real(np.trace(B)))
    t = _xlnx([alpha + beta, alpha, beta])
    return lhs, float(t[0] - t[1] - t[2])


@dataclass(frozen=True)
class RateReport:
    """Rates, bounds and diagnostics for one ensemble/Hamiltonian pair."""

    mixing_rate_at_H: float
    max_rate: float
    binary_max_rate: Optional[float]
    bound_thm: float
    bound_conjecture: float
    fd_residual: Optional[float]
    ratio_thm: Optional[float]
    ratio_conjecture: Optional[float]

    def to_json(self) -> bytes:
        return json.dumps(asdict(self)).encode("utf-8")


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den > 0 else None


def _evaluate(
    E: Ensemble, H: Optional[HamiltonianSet], rank_tol: float, policy: str
) -> tuple[RateReport, bool]:
    """E's report from one spectral pass, and whether STM holds at STM_TIMES
    ("compute" checks no times).

    H defaults to the maximizers. If the FD oracle refuses E, "compute"
    reports fd_residual None and the other policies raise. Ratios are
    max_rate over the general bound and over S(p), except at n = 2:
      "compute": binary / 4 sqrt(p(1-p)) and binary / S(p);
      "verify":  max_rate / general bound (twice "compute") and binary / S(p);
      "binary":  bound_thm 4 sqrt(p(1-p)), binary / bound_thm and binary / h(p).
    """
    sp = _Spectra(E, rank_tol)
    if H is None:
        H = sp.hamiltonians()
    mx = sp.max_rate
    shannon = shannon_entropy(E.probabilities)
    bound = bound_theorem_general(E.probabilities)
    binary = sp.binary_rate if len(E) == 2 else None
    ratio_thm = _ratio(mx, bound)
    ratio_conj = _ratio(mx if binary is None else binary, shannon)
    if binary is not None:
        p0 = float(E.probabilities[0])
        if policy == "compute":
            ratio_thm = _ratio(binary, bound_theorem_binary(p0))
        elif policy == "binary":
            bound = bound_theorem_binary(p0)
            ratio_thm = _ratio(binary, bound)
            ratio_conj = _ratio(binary, binary_entropy(p0))
    rate = mixing_rate(E, H, _ln_rho=sp.ln_rho)
    fd_residual, stm_ok = None, True
    try:
        _fd_probe(DEFAULT_FD_STEP, sp.rho, rank_tol)
    except RankDeficient:
        if policy != "compute":
            raise
    else:
        fd_times = _fd_times(DEFAULT_FD_STEP)
        stm_times = () if policy == "compute" else STM_TIMES
        S = _trajectory(E, H, fd_times + stm_times)
        fd_residual = abs(rate - _richardson(S, DEFAULT_FD_STEP))
        stm_ok = all(pt.ok for pt in _stm_points(E, stm_times, S[len(fd_times):]))
    report = RateReport(
        mixing_rate_at_H=rate,
        max_rate=mx,
        binary_max_rate=binary,
        bound_thm=bound,
        bound_conjecture=shannon,
        fd_residual=fd_residual,
        ratio_thm=ratio_thm,
        ratio_conjecture=ratio_conj,
    )
    return report, stm_ok


def rate_report(
    E: Ensemble, H: Optional[HamiltonianSet] = None, rank_tol: float = DEFAULT_RANK_TOL
) -> RateReport:
    """Evaluate all rates and bounds for E; H defaults to the maximizers."""
    return _evaluate(E, H, rank_tol, "compute")[0]
