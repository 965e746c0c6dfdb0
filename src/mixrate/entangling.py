"""Bipartite states with local ancillas, entangling rates, and the reduction
from entangling rates to binary mixing rates.

The scene is a pure state on four factors a ⊗ A ⊗ B ⊗ b (ancilla, Alice,
Bob, ancilla) with row-major index composition. An interaction Hamiltonian
acts on A ⊗ B only; the entangling rate is the time derivative at t = 0 of
the entanglement entropy S(rho_aA) along Psi(t) = (I_a ⊗ e^{-iHt} ⊗ I_b) Psi.

The reduction builds the two-member ensemble {(1 - 1/d_B^2, mu),
(1/d_B^2, rho_aAB)} whose expected state is rho_aA ⊗ I_B/d_B, so that the
binary mixing rate under the lifted Hamiltonian equals d_B^{-2} times the
entangling rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hermitian as hm
from .ensembles import (
    DensityMatrix,
    Hamiltonian,
    _Batch,
    _ensemble,
    _from_pairs,
    _json_dim,
    _json_numbers,
    _load_json,
    _state_eigenvalues,
    matrix_from_json,
)
from .errors import Fault, InputError
from .rates import CHECK_SLACK, _commutators, _entropies, _rate, _support_logs

NORM_TOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """A unit vector on a ⊗ A ⊗ B ⊗ b with recorded factor dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, int, int, int]

    def __init__(self, amplitudes, dims):
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in dims)
        if len(dims) != 4 or any(d < 1 for d in dims):
            raise InputError(f"need four factor dimensions >= 1, got {dims}")
        if v.size != math.prod(dims):
            raise InputError(f"amplitude length {v.size} != product of dims {math.prod(dims)}")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise InputError(f"invariant violated: amplitude {bad[0]} is not finite")
        v = _unit_rows(v[None], InputError)[0]
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)
        object.__setattr__(self, "dims", dims)


def _unit_rows(psi: np.ndarray, kind=Fault) -> np.ndarray:
    """The rows of psi (..., N) renormalized; a row whose norm is not within
    NORM_TOL of 1 raises kind (InputError for a state given from outside),
    and so does a NaN norm (it fails the <= test)."""
    norms = np.linalg.norm(psi, axis=-1)
    off = ~(np.abs(norms - 1.0) <= NORM_TOL)
    if np.any(off):
        raise kind(f"invariant violated: state norm {float(norms[off][0])!r} differs from 1")
    return psi / norms[..., None]


@dataclass(frozen=True, init=False)
class BipartiteOperator(Hamiltonian):
    """Hermitian operator on A ⊗ B."""

    dims: tuple[int, int] = (1, 1)

    def __init__(self, matrix, dims):
        super().__init__(matrix)
        dims = tuple(int(d) for d in dims)
        if len(dims) != 2 or any(d < 1 for d in dims):
            raise InputError(f"need two factor dimensions >= 1, got {dims}")
        if self.dim != dims[0] * dims[1]:
            raise InputError(f"matrix of dim {self.dim} does not factor as {dims}")
        object.__setattr__(self, "dims", dims)


def _gram(psi: np.ndarray, rows: int) -> np.ndarray:
    """M M† for M the rows x (N / rows) reshape of each state psi (..., N):
    the reduced state on the leading factors, whose dimensions multiply to rows."""
    M = psi.reshape(psi.shape[:-1] + (rows, -1))
    return M @ M.conj().swapaxes(-1, -2)


def _reduced(psi: PureState) -> tuple[np.ndarray, np.ndarray]:
    """The reduced states (rho_aAB, rho_aA) of psi, on its first three and two factors."""
    return tuple(_gram(psi.amplitudes, math.prod(psi.dims[:k])) for k in (3, 2))


def _entanglement_trajectory(
    psi: PureState, H: BipartiteOperator, ts: Sequence[float]
) -> np.ndarray:
    """E(Psi(t)) = S(rho_aA(t)) at each t of ts, Psi(t) = (I_a ⊗ e^{-iHt} ⊗ I_b) Psi.

    Psi is rotated once into the eigenbasis of H, where the evolution to every
    t is a phase per eigenvalue. Each Psi(t) gets PureState's norm check and
    renormalization; rho_aA(t) is `_gram` of Psi(t), and all of them take the
    rates' state-entropy route, `_entropies`: one stacked eigvalsh, and each
    spectrum a state's PSD and trace checks.
    """
    _check_interaction(psi, H)
    d_a, d_A, d_B, d_b = psi.dims
    w, V = hm._eigh(H.matrix)
    ts = np.asarray(ts, dtype=float)
    X = V.conj().T @ psi.amplitudes.reshape(d_a, d_A * d_B, d_b)
    Psi = (V @ (np.exp(-1j * np.outer(ts, w))[:, None, :, None] * X)).reshape(ts.size, -1)
    return _entropies(_gram(_unit_rows(Psi), d_a * d_A))


def _check_interaction(psi: PureState, H: BipartiteOperator) -> None:
    if H.dims != psi.dims[1:3]:
        raise InputError(f"Hamiltonian factors {H.dims} != state factors {psi.dims[1:3]}")


def lift_to_aAB(H: BipartiteOperator, d_a: int) -> np.ndarray:
    """Embed H_AB on a ⊗ A ⊗ B as I_a ⊗ H_AB."""
    return np.kron(np.eye(d_a), H.matrix)


def entangling_rate(psi: PureState, H: BipartiteOperator) -> float:
    """Analytic derivative i Tr(H_lift [rho_aAB, ln(rho_aA) ⊗ I_B])."""
    _check_interaction(psi, H)
    d_a, _, d_B, _ = psi.dims
    return _entangling_rate(*_reduced(psi), lift_to_aAB(H, d_a), d_B)


def _entangling_rate(rho_aAB, rho_aA, H_lift: np.ndarray, d_B: int) -> float:
    """entangling_rate from the reduced states and H_lift = I_a ⊗ H_AB: the rate
    of the one-member ensemble rho_aAB with ln(rho_aA) ⊗ I_B for ln rho. ln(rho_aA)
    comes from `_support_logs`, with rho_aA a one-member batch: a spectrum that
    fails a state's PSD or trace check raises a Fault."""
    ln_rho = _support_logs(np.ones((1, 1)), hm.hermitian_part(rho_aA)[None, None])[1]
    L = np.kron(ln_rho[0], np.eye(d_B))
    C = _commutators(rho_aAB[None, None], L[None])
    return float(_rate(np.ones((1, 1)), H_lift[None, None], C)[0])


def bravyi_mu(psi: PureState) -> DensityMatrix:
    """The complementary state mu with
    rho_aA ⊗ I_B/d_B = (1 - d_B^{-2}) mu + d_B^{-2} rho_aAB.

    Requires 2 <= d_B <= d_A. mu is guaranteed to exist as a state, so a
    failed state check signals numerical corruption (a Fault).
    """
    return _ensemble(_mu(*_reduced(psi), psi.dims), 0).states[0]


def _mu(rho_aAB, rho_aA, dims) -> _Batch:
    """The reduction's ensemble {(1 - d_B^{-2}, mu), (d_B^{-2}, rho_aAB)}, a batch of one,
    from the reduced states of a state with factor dims; a failed state check is a Fault."""
    d_a, d_A, d_B, _ = dims
    if d_B == 1:
        raise InputError("reduction degenerates at dim(B) = 1")
    if d_B > d_A:
        raise InputError(f"requires dim(B) <= dim(A), got B={d_B}, A={d_A}")
    weight = 1.0 - d_B ** -2
    target = np.kron(rho_aA, np.eye(d_B) / d_B)
    mu = (target - d_B ** -2 * rho_aAB) / weight
    residual = hm.frobenius(weight * mu + d_B ** -2 * rho_aAB - target)
    if residual > 1e-10:
        raise Fault(f"reconstruction identity failed by {residual:.3e}")
    rhos = hm.hermitian_part(np.stack([mu, rho_aAB]))
    w = hm._eigvalsh(rhos)  # outside the try: a LAPACK failure keeps its own message
    for name, row in zip(("mu", "rho_aAB"), w):
        try:
            row[:] = _state_eigenvalues(row)
        except Fault as exc:
            raise Fault(f"{name} is not a state: {exc}") from exc
    return _Batch(np.array([[weight, d_B ** -2]]), rhos[None], w[None])


def sie_to_sim(psi: PureState, H: BipartiteOperator) -> tuple[float, float]:
    """Entangling-to-mixing reduction: the residual |binary mixing rate -
    d_B^{-2} * entangling rate| of `_mu`'s ensemble under the Hamiltonians
    (0, I_a ⊗ H_AB), whose rate is rho_aAB's term alone, and the entangling rate.
    """
    _check_interaction(psi, H)
    d_a, _, d_B, _ = psi.dims
    rho_aAB, rho_aA = _reduced(psi)
    b = _mu(rho_aAB, rho_aA, psi.dims)
    H_lift = lift_to_aAB(H, d_a)
    C = _commutators(b.rhos[:, 1:], _support_logs(b.p, b.rhos)[1])
    lam = float(_rate(b.p[:, 1:], H_lift[None, None], C)[0])
    gam = _entangling_rate(rho_aAB, rho_aA, H_lift, d_B)
    return abs(lam - d_B ** -2 * gam), gam


@dataclass(frozen=True)
class StePoint:
    """One time slice of the small-total-entangling check."""

    t: float
    entanglement: float
    bound: float
    ok: bool


def ste_check(psi: PureState, H: BipartiteOperator, ts: Sequence[float]) -> list[StePoint]:
    """Check E(Psi(t)) <= E(Psi(0)) + 2 ln min(d_A, d_B) at each t."""
    ts = [float(t) for t in ts]
    e = _entanglement_trajectory(psi, H, [0.0] + ts)  # E(0) from the t = 0 slice
    bound = float(e[0]) + 2.0 * math.log(min(psi.dims[1], psi.dims[2]))
    return [
        StePoint(t, float(e_t), bound, bool(e_t <= bound + CHECK_SLACK))
        for t, e_t in zip(ts, e[1:])
    ]


# --- JSON wire format -------------------------------------------------------
#
# PureState:         {"dims": [da, dA, dB, db], "amplitudes": [[re, im], ...]}
# BipartiteOperator: {"dims": [dA, dB], "hamiltonian": M} with M a d x d
#                    row-major array of [re, im] pairs, d = dA * dB.


def parse_pure_state(text) -> PureState:
    obj = _load_json(text)
    try:
        dims = [_json_dim(d) for d in obj["dims"]]
        raw = obj["amplitudes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"pure-state JSON missing or malformed field: {exc}") from exc
    raw = _json_numbers(raw, "amplitudes")
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise InputError("amplitudes must be a list of [re, im] pairs")
    return PureState(_from_pairs(raw), dims)


def parse_bipartite_operator(text) -> BipartiteOperator:
    obj = _load_json(text)
    try:
        dA, dB = (_json_dim(d) for d in obj["dims"])
        raw = obj["hamiltonian"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"operator JSON missing or malformed field: {exc}") from exc
    M = matrix_from_json(raw, dA * dB, "hamiltonian")
    return BipartiteOperator(M, (dA, dB))
