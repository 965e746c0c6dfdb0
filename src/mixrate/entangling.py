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
from typing import NamedTuple, Sequence

import numpy as np

from . import hermitian as hm
from .ensembles import (
    _Batch,
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


class PureState(NamedTuple):
    """A unit vector on a ⊗ A ⊗ B ⊗ b with its factor dimensions, as
    `parse_pure_state` checks it. A record; it checks nothing."""

    amplitudes: np.ndarray
    dims: tuple[int, int, int, int]


def _unit_rows(psi: np.ndarray, kind=Fault) -> np.ndarray:
    """The rows of psi (..., N) renormalized; a row whose norm is not within
    NORM_TOL of 1 raises kind (InputError for a state given from outside),
    and so does a NaN norm (it fails the <= test)."""
    norms = np.linalg.norm(psi, axis=-1)
    off = ~(np.abs(norms - 1.0) <= NORM_TOL)
    if np.any(off):
        raise kind(f"invariant violated: state norm {float(norms[off][0])!r} differs from 1")
    return psi / norms[..., None]


class BipartiteOperator(NamedTuple):
    """A Hermitian operator on A ⊗ B with its factor dimensions, as
    `parse_bipartite_operator` checks it. A record; it checks nothing."""

    matrix: np.ndarray
    dims: tuple[int, int]


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
    t is a phase per eigenvalue. Each Psi(t) gets the norm check and the
    renormalization of `parse_pure_state`; rho_aA(t) is `_gram` of Psi(t),
    and all of them take the rates' state-entropy route, `_entropies`: one
    stacked eigvalsh, and each spectrum a state's PSD and trace checks.
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


def _entangling_rate(rho_aAB, rho_aA, H_lift: np.ndarray, d_B: int) -> float:
    """The entangling rate i Tr(H_lift [rho_aAB, ln(rho_aA) ⊗ I_B]) from the
    reduced states and H_lift = I_a ⊗ H_AB: the rate of the one-member
    ensemble rho_aAB with ln(rho_aA) ⊗ I_B for ln rho. ln(rho_aA)
    comes from `_support_logs`, with rho_aA a one-member batch: a spectrum that
    fails a state's PSD or trace check, or a leak off its support, raises a
    Fault."""
    ln_rho = _support_logs(np.ones((1, 1)), hm.hermitian_part(rho_aA)[None, None], Fault)[1]
    L = np.kron(ln_rho[0], np.eye(d_B))
    C = _commutators(rho_aAB[None, None], L[None])
    return float(_rate(np.ones((1, 1)), H_lift[None, None], C)[0])


def _mu(rho_aAB, rho_aA, dims) -> _Batch:
    """The reduction's ensemble {(1 - d_B^{-2}, mu), (d_B^{-2}, rho_aAB)}, a batch of one,
    from the reduced states of a state with factor dims, for the complementary state
    mu with rho_aA ⊗ I_B/d_B = (1 - d_B^{-2}) mu + d_B^{-2} rho_aAB. Requires
    2 <= d_B <= d_A. mu exists as a state, so a failed state check is a Fault."""
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
    C = _commutators(b.rhos[:, 1:], _support_logs(b.p, b.rhos, Fault)[1])
    lam = float(_rate(b.p[:, 1:], H_lift[None, None], C)[0])
    gam = _entangling_rate(rho_aAB, rho_aA, H_lift, d_B)
    return abs(lam - d_B ** -2 * gam), gam


class StePoint(NamedTuple):
    """One time slice of the small-total-entangling check."""

    t: float
    entanglement: float
    bound: float
    ok: bool


def ste_check(psi: PureState, H: BipartiteOperator, ts: Sequence[float]) -> list[StePoint]:
    """Check E(Psi(t)) <= E(Psi(0)) + 2 ln min(d_A, d_B) at each t; E(0) is
    the t = 0 slice of one trajectory, which holds t = 0 once."""
    ts = [float(t) for t in ts]
    grid = ts if 0.0 in ts else [0.0] + ts
    e = _entanglement_trajectory(psi, H, grid)
    bound = float(e[grid.index(0.0)]) + 2.0 * math.log(min(psi.dims[1], psi.dims[2]))
    return [
        StePoint(t, float(e_t), bound, bool(e_t <= bound + CHECK_SLACK))
        for t, e_t in zip(ts, e[len(grid) - len(ts) :])
    ]


# --- JSON wire format -------------------------------------------------------
#
# PureState:         {"dims": [da, dA, dB, db], "amplitudes": [[re, im], ...]}
# BipartiteOperator: {"dims": [dA, dB], "hamiltonian": M} with M a d x d
#                    row-major array of [re, im] pairs, d = dA * dB.


def parse_pure_state(text) -> PureState:
    """The pure state of the schema, checked: four factor dimensions >= 1
    whose product is the amplitude count, finite amplitudes, and a norm
    within NORM_TOL of 1, to which it is renormalized."""
    obj = _load_json(text)
    try:
        dims = [_json_dim(d) for d in obj["dims"]]
        raw = obj["amplitudes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"pure-state JSON missing or malformed field: {exc}") from exc
    raw = _json_numbers(raw, "amplitudes")
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise InputError("amplitudes must be a list of [re, im] pairs")
    v, dims = _from_pairs(raw), tuple(dims)
    if len(dims) != 4 or any(d < 1 for d in dims):
        raise InputError(f"need four factor dimensions >= 1, got {dims}")
    if v.size != math.prod(dims):
        raise InputError(f"amplitude length {v.size} != product of dims {math.prod(dims)}")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise InputError(f"invariant violated: amplitude {bad[0]} is not finite")
    return PureState(_unit_rows(v[None], InputError)[0], dims)


def parse_bipartite_operator(text) -> BipartiteOperator:
    """The operator of the schema, checked Hermitian, on two factors of
    dimension >= 1 (no operator-norm requirement)."""
    obj = _load_json(text)
    try:
        dA, dB = (_json_dim(d) for d in obj["dims"])
        raw = obj["hamiltonian"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"operator JSON missing or malformed field: {exc}") from exc
    M = hm.require_hermitian(matrix_from_json(raw, dA * dB, "hamiltonian"))
    if dA < 1 or dB < 1:
        raise InputError(f"need two factor dimensions >= 1, got {(dA, dB)}")
    return BipartiteOperator(M, (dA, dB))
