"""Mixing rates, their closed-form maxima, and the bound evaluators.

The mixing rate of an ensemble under a set of Hamiltonians is the time
derivative at t = 0 of the entropy of the evolving expected state,

    rate(E, H) = d/dt S(rho(t))|_0 = i * sum_x p(x) Tr(H_x [rho_x, ln rho]),

with rho the expected state and ln taken on its support. Maximizing each
term independently over -I <= H_x <= I gives the exact closed form

    max_rate(E) = sum_x p(x) * ||[rho_x, ln rho]||_1,

achieved by H_x = I - 2 P_neg where P_neg projects onto the negative
eigenspace of i[rho_x, ln rho]. A Richardson-extrapolated central difference
of the entropy cross-checks the analytic derivative on every evaluation.

The maximizers square to I, so e^{-iH_x t} = cos t I - i sin t H_x, and the
expected state they evolve is one combination of three matrices at every t
(`_involution_trajectory`). Only a given Hamiltonian set is diagonalized,
for the spectral `_trajectory`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import hermitian as hm
from .ensembles import (
    Ensemble,
    Hamiltonian,
    _average_entropies,
    _Batch,
    _entropy_from_eigenvalues,
    _mixture,
    _positive_distribution,
    _shannon,
    _stack,
    _state_eigenvalues,
    _state_spectra,
    _unit_interval,
    _xlnx,
)
from .errors import (
    DegenerateState,
    DimMismatch,
    DomainError,
    IdentityViolation,
    NotBinary,
    RankDeficient,
)
from .hermitian import RANK_TOL

DEFAULT_FD_STEP = 1e-4
IMAG_TOL = 1e-9
SUPPORT_LEAK_TOL = 1e-8
STM_TIMES = (0.5, 1.0, 2.0)  # the times at which a trial checks the STM sandwich
CHECK_SLACK = 1e-9  # slack of the STM and STE bound checks


def _support_logs(p: np.ndarray, rhos: np.ndarray):
    """(rho, ln rho on the support, both (B, d, d), and the spectrum of rho)
    of the expected state rho = sum_x p_x rho_x of each ensemble of a batch,
    all validated in one stacked call; raises if a member leaks off the
    support of its rho."""
    rho = _mixture(p, rhos)
    w, V = _state_spectra(rho)
    ln_rho, supp = hm.log_on_support(hm.EigenDecomposition(w, V))
    if not supp.all():
        Vk = V * ~supp[:, None, :]  # the kernel's eigenvectors; support columns zeroed
        leak = np.einsum("bik,bxij,bjk->bx", Vk.conj(), rhos, Vk).real
        if (leak > SUPPORT_LEAK_TOL).any():
            b, x = np.argwhere(leak > SUPPORT_LEAK_TOL)[0]
            raise DegenerateState(
                f"member {x} leaks {leak[b, x]:.3e} outside the support of rho"
            )
    return rho, ln_rho, hm.EigenDecomposition(w, V)


def _commutators(rhos: np.ndarray, ln_rho: np.ndarray) -> np.ndarray:
    """C_x = i[rho_x, ln rho] for every member of a batch: (B, n, d, d)."""
    L = ln_rho[:, None]
    return 1j * (rhos @ L - L @ rhos)


def _rate(p: np.ndarray, H: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sum_x p_x Tr(H_x C_x) for each ensemble of a batch; a rate whose
    imaginary part exceeds IMAG_TOL breaks the identity and raises."""
    val = np.einsum("bx,bxij,bxji->b", p, H, C)
    bad = np.abs(val.imag) > IMAG_TOL
    if bad.any():
        raise IdentityViolation(f"rate has imaginary residue {val.imag[bad][0]:.3e}")
    return val.real


class _Spectra:
    """The one spectral pass over a batch of ensembles (a `_Batch`: sampled
    trials, Ensembles, or the search's candidates) that every maximal-rate
    quantity reads: rho and ln rho, the commutators C_x = i[rho_x, ln rho]
    and their eigenvalues (one stacked LAPACK dispatch for all of them), and
    the rates (B,) sum_x p_x ||C_x||_1 and p_0 ||C_0||_1. Their eigenvectors
    are taken only if `vectors`, for `maximizers`.

    At n = 2, sum_x p_x C_x = i[rho, ln rho] = 0 makes C_1 = -(p_0/p_1) C_0,
    so only C_0 is formed and decomposed: ||C_1||_1 = (p_0/p_1) ||C_0||_1,
    and the maximum rate is twice the binary one.
    """

    def __init__(self, b: _Batch, vectors: bool = False):
        self.p = b.p
        self.binary = b.p.shape[1] == 2
        self.mix, self.ln_rho, self.rho = _support_logs(b.p, b.rhos)
        self.C = _commutators(b.rhos[:, :1] if self.binary else b.rhos, self.ln_rho)
        if vectors:
            self.eigs = hm.eig_hermitian(self.C)
            w = self.eigs.eigenvalues
        else:
            w = hm.eigvals_hermitian(self.C)
        norms = np.sum(np.abs(w), axis=-1)
        self.binary_rate = self.p[:, 0] * norms[:, 0]
        self.max_rate = 2.0 * self.binary_rate if self.binary else np.sum(self.p * norms, axis=-1)

    def rate(self, M: np.ndarray) -> np.ndarray:
        """sum_x p_x Tr(M_x C_x) (B,) for one Hamiltonian set M (B, n, d, d)
        per ensemble; at n = 2, p_0 Tr((M_0 - M_1) C_0)."""
        if self.binary:
            return _rate(self.p[:, :1], M[:, :1] - M[:, 1:], self.C)
        return _rate(self.p, M, self.C)

    def maximizers(self) -> hm.EigenDecomposition:
        """The spectra of the maximizers I - 2 P_neg of C_x: signs (B, n, d)
        on C_x's eigenvectors, in the order of C_x's eigenvalues. At n = 2,
        C_1's eigenvalues are -(p_0/p_1) times C_0's, on C_0's eigenvectors:
        H_1 = -H_0 off the kernel of C_0."""
        w, V = self.eigs
        if self.binary:
            w = np.concatenate([w, -(self.p[:, :1] / self.p[:, 1:])[..., None] * w], axis=1)
            V = np.broadcast_to(V, w.shape + w.shape[-1:])
        tol = RANK_TOL * np.maximum(1.0, np.linalg.norm(w, axis=-1, keepdims=True))
        return hm.EigenDecomposition(np.where(w < -tol, -1.0, 1.0), V)  # tol: ||C_x||_F scale


def _matrices(E: Ensemble, H: Sequence[Hamiltonian]) -> np.ndarray:
    """The matrices (1, n, d, d) of a Hamiltonian set for E, as a batch of one:
    one Hamiltonian per member, each of E's dimension, or DimMismatch."""
    if len(H) != len(E):
        raise DimMismatch("need one Hamiltonian per ensemble member")
    if any(h.dim != E.dim for h in H):
        raise DimMismatch("Hamiltonian dimension differs from ensemble dimension")
    return np.array([h.matrix for h in H])[None]


def mixing_rate(E: Ensemble, H: Sequence[Hamiltonian]) -> float:
    """Analytic entropy derivative i * sum_x p(x) Tr(H_x [rho_x, ln rho])."""
    M = _matrices(E, H)
    b = _stack([E])
    return float(_rate(b.p, M, _commutators(b.rhos, _support_logs(b.p, b.rhos)[1]))[0])


def _fd_probe(rho_w: np.ndarray, strict: bool) -> np.ndarray:
    """Which expected states, given by their ascending eigenvalues (B, d),
    refuse a finite difference: those whose smallest eigenvalue is below
    1e3 RANK_TOL. If strict, a refusal raises RankDeficient."""
    refused = rho_w[:, 0] < 1e3 * RANK_TOL
    if strict and refused.any():
        raise RankDeficient(
            f"expected state eigenvalue {float(rho_w[refused][0, 0]):.3e} "
            "too small for finite differences"
        )
    return refused


def _fd_times(h: float) -> tuple[float, ...]:
    """The times at which the Richardson oracle of step h reads S(rho(t))."""
    return (h, -h, h / 2.0, -h / 2.0)


def _central(S, h: float):
    """[S(h) - S(-h)] / 2h from the entropies S at (h, -h), or from the rows
    S[0], S[1] of a batch."""
    return (S[0] - S[1]) / (2.0 * h)


def _richardson(S, h: float):
    """Richardson extrapolation (4 D(h/2) - D(h)) / 3 of the central
    differences D from the entropies S at _fd_times(h): error O(h^4) where
    D's is O(h^2)."""
    return (4.0 * _central(S[2:], h / 2.0) - _central(S, h)) / 3.0


def _trajectory(
    p: np.ndarray, rhos: np.ndarray, H: hm.EigenDecomposition, ts: Sequence[float]
) -> np.ndarray:
    """S(rho(t)) (B, T) for each ensemble of a batch and each t of ts,
    rho(t) = sum_x p_x e^{-iH_x t} rho_x e^{iH_x t}, from p (B, n), the members
    rho_x (B, n, d, d) and the spectra H = (w (B, n, d), V (B, n, d, d)) of
    arbitrary Hermitian Hamiltonians.

    Each member is rotated once into the eigenbasis of its H_x, where the
    evolution to every t is an outer product of phases e^{-i t w}.
    """
    ts = np.asarray(ts, dtype=float)
    w, V = H
    B, n, d = w.shape
    rho_t = np.zeros((B, ts.size, d, d), dtype=complex)
    for x in range(n):
        Vx = V[:, x, None]  # (B, 1, d, d), broadcast over the times
        Vxh = Vx.conj().swapaxes(-1, -2)
        R = Vxh @ rhos[:, x, None] @ Vx
        phase = np.exp(-1j * (ts[:, None] * w[:, x, None, :]))  # (B, T, d)
        # One expression, so that no (B, T, d, d) temporary outlives its use.
        rho_t += p[:, x, None, None, None] * (
            Vx @ (phase[..., :, None] * R * phase.conj()[..., None, :]) @ Vxh
        )
    return _entropies(rho_t)


def _involution_terms(
    p: np.ndarray, rhos: np.ndarray, rho: np.ndarray, M: np.ndarray
) -> np.ndarray:
    """rho, sum_x p_x H_x rho_x H_x and i sum_x p_x [rho_x, H_x] (B, 3, d, d)
    of a batch with expected states rho, from two products per member:
    H_x rho_x, whose adjoint is rho_x H_x, and (H_x rho_x) H_x. A function of
    its own so that its temporaries are freed before the stacked eigvalsh."""
    A = M @ rhos
    S = _mixture(p, A)
    return np.stack([rho, _mixture(p, A @ M), 1j * (S.conj().swapaxes(-1, -2) - S)], axis=1)


def _involution_trajectory(
    p: np.ndarray, rhos: np.ndarray, rho: np.ndarray, M: np.ndarray, ts: Sequence[float]
) -> np.ndarray:
    """S(rho(t)) (B, T) as `_trajectory` gives it, for Hamiltonians that
    square to I (the maximizers), given by their matrices M (B, n, d, d), and
    the expected states rho (B, d, d) at t = 0.
    H_x^2 = I makes e^{-iH_x t} = cos t I - i sin t H_x, so

        rho(t) = cos^2 t rho + sin^2 t sum_x p_x H_x rho_x H_x
                 + sin t cos t i sum_x p_x [rho_x, H_x],

    and all T times are one (T, 3) x (3, d^2) product per ensemble.
    """
    ts = np.asarray(ts, dtype=float)
    c, s = np.cos(ts), np.sin(ts)
    # Complex, not a real product on a float view: the real BLAS kernel
    # raised the peak RSS of verify --dim 4 by 0.3 MB.
    coef = np.stack([c * c, s * s, s * c], axis=-1).astype(complex)  # (T, 3)
    terms = _involution_terms(p, rhos, rho, M)
    B, _, d, _ = terms.shape
    return _entropies((coef @ terms.reshape(B, 3, d * d)).reshape(B, ts.size, d, d))


def _entropies(rho_t: np.ndarray) -> np.ndarray:
    """S of each evolved state of a stack (B, T, d, d). Every rho(t) gets the
    checks a DensityMatrix gets (finite, Hermitian, PSD, unit trace), and all
    B T of them one stacked eigvalsh."""
    w_t = _state_eigenvalues(hm.eigvals_hermitian(rho_t))
    return _entropy_from_eigenvalues(w_t, rho_t.shape[-1])


def optimal_hamiltonians(E: Ensemble) -> tuple[Hamiltonian, ...]:
    """The maximizing Hamiltonians H_x = I - 2 P_neg(i[rho_x, ln rho]).

    Each H_x is a difference of complementary projectors (plus identity on
    the kernel of the commutator), so H_x^2 = I and ||H_x|| = 1, and
    mixing_rate(E, result) = +max_mixing_rate(E).
    """
    M = hm.hermitian_part(hm.reconstruct(*_Spectra(_stack([E]), vectors=True).maximizers()))[0]
    return tuple(Hamiltonian(H) for H in M)


def max_mixing_rate(E: Ensemble) -> float:
    """Closed-form maximum sum_x p(x) ||[rho_x, ln rho]||_1 over -I <= H_x <= I."""
    return float(_Spectra(_stack([E])).max_rate[0])


def binary_max_rate(E: Ensemble) -> float:
    """Two-member closed form p * ||[rho_1, ln rho]||_1 (only rho_2 evolves)."""
    if len(E) != 2:
        raise NotBinary(f"binary rate needs exactly 2 members, got {len(E)}")
    return float(_Spectra(_stack([E])).binary_rate[0])


def bound_theorem_binary(p):
    """Dimension-independent binary bound 4 sqrt(p (1-p)); for an array of p,
    the array of bounds."""
    q = _unit_interval(p)
    b = 4.0 * np.sqrt(q * (1.0 - q))
    return float(b) if b.ndim == 0 else b


def bound_theorem_general(probs):
    """General bound 4 * sum_{x != x0} sum_{y != x} sqrt(p_x p_y); for a stack
    (..., n) of distributions, the array of their bounds.

    x0 is the index of the largest probability; ties break to the lowest
    index (the bound value is tie-invariant).
    """
    p = _positive_distribution(probs)
    sqrt_p = np.sqrt(p)
    terms = sqrt_p * (sqrt_p.sum(axis=-1, keepdims=True) - sqrt_p)
    x0 = np.arange(p.shape[-1]) == p.argmax(axis=-1)[..., None]
    total = 4.0 * np.where(x0, 0.0, terms).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def _stm_sandwich(p: np.ndarray, w: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Whether each entropy S (B, T) of rho(t) lies in the STM sandwich
    [avg, avg + S(p)] of its ensemble, given by probabilities p (B, n) and
    the members' eigenvalues w (B, n, d)."""
    lower = _average_entropies(p, w)
    upper = lower + _shannon(p)
    return (lower[:, None] - CHECK_SLACK <= S) & (S <= upper[:, None] + CHECK_SLACK)


def ak_gap(A, B) -> tuple[float, float]:
    """The two sides of the commutator/entropy functional for f = ln.

    Returns (||[B, ln(A+B)]||_1, F(a+b) - F(a) - F(b)) for PSD A, B with
    a = Tr A, b = Tr B and F(x) = x ln x - x; the difference of F values
    reduces to (a+b) ln(a+b) - a ln a - b ln b (0 ln 0 := 0).
    """
    A = hm.require_hermitian(A)
    B = hm.require_hermitian(B)
    if A.shape != B.shape:
        raise DimMismatch("A and B must have equal dimensions")
    ln_C, supp = hm.log_on_support(hm.eig_hermitian(A + B))
    if not supp.all():
        raise DomainError("A + B is rank-deficient beyond tolerance")
    lhs = hm.trace_norm(hm.hermitian_part(_commutators(B[None, None], ln_C[None])[0, 0]))
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


def _ratios(num: np.ndarray, den: np.ndarray) -> list[Optional[float]]:
    return [a / b if b > 0 else None for a, b in zip(num.tolist(), den.tolist())]


def _evaluate(b: _Batch, M: Optional[np.ndarray], policy: str) -> tuple[list, ...]:
    """The columns of a batch of ensembles from one spectral pass, a list
    (B,) each: the rate at M, then max_rate, binary_max_rate, bound_thm,
    shannon, ratio_thm, ratio_conj, fd_residual and whether STM holds at
    STM_TIMES ("compute" checks no times), as `harness.TrialRecord` orders them.

    M, the matrices (B, n, d, d) of one Hamiltonian set per ensemble (as
    `_matrices` gives them), defaults to the maximizers. The FD and STM times
    evolve under the maximizers in closed form (`_involution_trajectory`);
    only a given M is diagonalized, for the spectral `_trajectory`. If the FD
    oracle refuses an ensemble, "compute" reports its fd_residual None and the
    other policies raise. Ratios are max_rate over the general bound and over S(p),
    except at n = 2:
      "compute": binary / 4 sqrt(p(1-p)) and binary / S(p);
      "verify":  max_rate / general bound (twice "compute") and binary / S(p);
      "binary":  bound_thm 4 sqrt(p(1-p)), binary / bound_thm and binary / h(p).
    """
    involutions = M is None
    sp = _Spectra(b, vectors=involutions)
    p, B = b.p, len(b.p)
    if involutions:
        M = hm.hermitian_part(hm.reconstruct(*sp.maximizers()))
    rate = sp.rate(M)
    mx = sp.max_rate
    shannon = _shannon(p)
    bound = bound_theorem_general(p)
    binary = sp.binary_rate if p.shape[1] == 2 else None
    ratio_thm = _ratios(mx, bound)
    ratio_conj = _ratios(mx if binary is None else binary, shannon)
    if binary is not None:
        p0 = p[:, 0]
        if policy == "compute":
            ratio_thm = _ratios(binary, bound_theorem_binary(p0))
        elif policy == "binary":
            bound = bound_theorem_binary(p0)
            ratio_thm = _ratios(binary, bound)
            ratio_conj = _ratios(binary, _shannon(np.stack([p0, 1.0 - p0], axis=-1)))
    # Only "compute" survives a refusal, and it evaluates a batch of one: so
    # the finite difference runs on the whole batch or on none of it.
    fd_residual, stm_ok = [None] * B, [True] * B
    if not _fd_probe(sp.rho.eigenvalues, strict=policy != "compute").any():
        fd_times = _fd_times(DEFAULT_FD_STEP)
        stm_times = () if policy == "compute" else STM_TIMES
        ts = fd_times + stm_times
        if involutions:
            S = _involution_trajectory(p, b.rhos, sp.mix, M, ts)
        else:
            S = _trajectory(p, b.rhos, hm.eig_hermitian(M), ts)
        fd_residual = np.abs(rate - _richardson(S.T, DEFAULT_FD_STEP)).tolist()
        stm_ok = _stm_sandwich(p, b.w, S[:, len(fd_times):]).all(axis=-1).tolist()
    binaries = [None] * B if binary is None else binary.tolist()
    return (
        rate.tolist(), mx.tolist(), binaries, bound.tolist(), shannon.tolist(),
        ratio_thm, ratio_conj, fd_residual, stm_ok,
    )


def rate_report(E: Ensemble, H: Optional[Sequence[Hamiltonian]] = None) -> RateReport:
    """Evaluate all rates and bounds for E; H defaults to the maximizers."""
    M = None if H is None else _matrices(E, H)
    columns = _evaluate(_stack([E]), M, "compute")
    rate, mx, binary, bound, shannon, ratio_thm, ratio_conj, fd, _ = (c[0] for c in columns)
    return RateReport(rate, mx, binary, bound, shannon, fd, ratio_thm, ratio_conj)
