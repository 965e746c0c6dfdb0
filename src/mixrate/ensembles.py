"""Validated quantum states, Hamiltonians, ensembles, entropies and evolution.

An ensemble pairs probabilities p(x) with density matrices rho_x of one
shared dimension. The expected state is the convex combination
rho = sum_x p(x) rho_x, and each member may evolve under its own Hamiltonian,
rho(t) = sum_x p(x) exp(-i H_x t) rho_x exp(i H_x t).

All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import hermitian as hm
from .errors import (
    BadDistribution,
    DimMismatch,
    DomainError,
    InvariantViolation,
    NonHermitian,
    ParseError,
)

PSD_TOL = 1e-10
TRACE_TOL = 1e-10
PROB_TOL = 1e-10


def _frozen(w: np.ndarray, V: np.ndarray):
    """(V diag(w) V†, w, V) for a spectrum or a stack of them (..., d),
    (..., d, d), all three read-only."""
    matrix = hm.hermitian_part(hm.reconstruct(w, V))
    for a in (matrix, w, V):
        a.setflags(write=False)
    return matrix, w, V


def _assign(obj, matrix: np.ndarray, w: np.ndarray, V: np.ndarray):
    object.__setattr__(obj, "matrix", matrix)
    object.__setattr__(obj, "spectrum", hm.EigenDecomposition(w, V))
    return obj


def _set_spectrum(obj, w: np.ndarray, V: np.ndarray):
    """Give a frozen value the spectrum (w, V) it is known to have: its matrix
    becomes V diag(w) V†, all three arrays read-only, and nothing is checked.
    The one way to build a state or Hamiltonian without validating it."""
    return _assign(obj, *_frozen(w, V))


def _state_eigenvalues(w: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues w (..., d) of states, each row checked
    (min >= -PSD_TOL, |sum - 1| <= TRACE_TOL), floored at 0 and renormalized."""
    # ndarray methods: this runs once per validated stack, where the module
    # functions' dispatch cost more than the arithmetic at small d.
    if (w[..., 0] < -PSD_TOL).any():
        raise InvariantViolation(f"not PSD (min eigenvalue {w[..., 0].min():.3e})")
    tr = w.sum(axis=-1)
    off = abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise InvariantViolation(f"trace {float(tr[off].flat[0])!r} differs from 1")
    w = w.clip(0.0, None)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def _state_spectra(raw) -> hm.EigenDecomposition:
    """Validate every matrix of a stack (..., d, d) as a state in one LAPACK
    dispatch: finite entries, Hermiticity residual, eigendecomposition, then
    PSD and unit trace (_state_eigenvalues). Returns the states' spectra."""
    w, V = hm.eig_hermitian_stack(raw)
    return hm.EigenDecomposition(_state_eigenvalues(w), V)


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: Hermitian, positive semi-definite, unit trace.

    Validation symmetrizes the input, floors eigenvalues in [-1e-10, 0) at
    zero and renormalizes the trace when within tolerance; anything further
    off is rejected. The eigendecomposition (w, V) that validation computed
    is kept as `spectrum`, and `matrix` is V diag(w) V†.
    """

    matrix: np.ndarray
    spectrum: hm.EigenDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=complex)
        if A.ndim != 2:
            raise DimMismatch(f"expected a square matrix, got shape {A.shape}")
        _assign(self, *(a[0] for a in _frozen(*_state_spectra(A[None]))))

    @classmethod
    def stack(cls, raw) -> list["DensityMatrix"]:
        """The states of a stack (k, d, d) of matrices, validated as
        DensityMatrix validates one but in one stacked call; each state holds
        slices of the one stacked reconstruction."""
        return [_assign(object.__new__(cls), *a) for a in zip(*_frozen(*_state_spectra(raw)))]

    def conjugated(self, U: np.ndarray) -> "DensityMatrix":
        """U ρ U† for a unitary U, with spectrum (w, U V); not validated again,
        since unitary conjugation keeps the eigenvalues of a state."""
        w, V = self.spectrum
        return _set_spectrum(object.__new__(DensityMatrix), w, U @ V)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Hamiltonian:
    """A Hermitian observable; `normalized` asserts operator norm <= 1.

    Its spectrum is computed once, on first use, and kept.
    """

    matrix: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        A = hm.require_hermitian(self.matrix)
        A.setflags(write=False)
        object.__setattr__(self, "matrix", A)
        if self.normalized and A.size:
            norm = float(np.max(np.abs(self.spectrum.eigenvalues)))
            if norm > 1.0 + 1e-10:
                raise InvariantViolation(f"operator norm {norm!r} exceeds 1")

    @classmethod
    def from_spectrum(cls, w, V, normalized: bool = False) -> "Hamiltonian":
        """V diag(w) V† for real w and a unitary V, keeping (w, V) as its spectrum;
        not validated, and `normalized` is trusted to hold for w."""
        H = _set_spectrum(object.__new__(cls), w, V)
        object.__setattr__(H, "normalized", normalized)
        return H

    @cached_property
    def spectrum(self) -> hm.EigenDecomposition:
        return hm.eig_hermitian(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_distribution(p: np.ndarray) -> None:
    """An Ensemble's checks on probabilities p (..., n): none negative, and
    every row summing to 1 within PROB_TOL."""
    if (p < 0).any():
        raise BadDistribution("negative probability")
    total = p.sum(axis=-1, keepdims=True)
    off = abs(total - 1.0) > PROB_TOL
    if off.any():
        raise BadDistribution(f"probabilities sum to {float(total[off][0])!r}")


@dataclass(frozen=True)
class Ensemble:
    """Probabilities p(x) paired with states rho_x on one Hilbert space.

    Zero-probability members are stripped at construction; the remaining
    probabilities must be positive and sum to 1 within 1e-10.
    """

    probabilities: np.ndarray
    states: tuple[DensityMatrix, ...]

    def __init__(self, probabilities, states):
        p = np.asarray(probabilities, dtype=float)
        states = tuple(states)
        if p.ndim != 1 or p.size != len(states):
            raise DimMismatch("probabilities and states must have equal length")
        _require_distribution(p)
        keep = p > 0
        p, states = p[keep], tuple(s for s, k in zip(states, keep) if k)
        if not states:
            raise BadDistribution("ensemble has no members with positive probability")
        dim = states[0].dim
        if any(s.dim != dim for s in states):
            raise DimMismatch("all ensemble states must share one dimension")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


@dataclass(frozen=True)
class HamiltonianSet:
    """One Hamiltonian per ensemble member, all of one dimension."""

    hams: tuple[Hamiltonian, ...] = field(default_factory=tuple)

    def __init__(self, hams):
        hams = tuple(hams)
        if hams and any(h.dim != hams[0].dim for h in hams):
            raise DimMismatch("all Hamiltonians must share one dimension")
        object.__setattr__(self, "hams", hams)

    def __len__(self) -> int:
        return len(self.hams)


def _require_matching(E: Ensemble, H: HamiltonianSet) -> None:
    if len(H) != len(E):
        raise DimMismatch("need one Hamiltonian per ensemble member")
    if any(h.dim != E.dim for h in H.hams):
        raise DimMismatch("Hamiltonian dimension differs from ensemble dimension")


def _mixture(p: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """sum_x p_x rho_x, unvalidated, for probabilities p (..., n) and matrices
    rhos (..., n, d, d): one mixture per leading index."""
    acc = np.zeros(rhos.shape[:-3] + rhos.shape[-2:], dtype=complex)
    for x in range(p.shape[-1]):
        acc += p[..., x, None, None] * rhos[..., x, :, :]
    return acc


def expected_state(E: Ensemble) -> DensityMatrix:
    """The expected density operator rho = sum_x p(x) rho_x."""
    return DensityMatrix(_mixture(E.probabilities, np.stack([s.matrix for s in E.states])))


def _xlnx(v) -> np.ndarray:
    """Elementwise v ln v for v >= 0, 0 ln 0 := 0: the one kernel of every
    entropy here, so equal inputs give bit-equal entropies."""
    v = np.asarray(v, dtype=float)
    return v * np.log(np.where(v > 0, v, 1.0))


def _entropy_from_eigenvalues(w: np.ndarray, dim: int):
    """-sum w ln w of a state's eigenvalues, clamped to [0, ln dim]; for a
    stack (..., d) of spectra, the array of their entropies."""
    s = np.clip(-np.sum(_xlnx(np.clip(np.real(w), 0.0, 1.0)), axis=-1), 0.0, math.log(dim))
    return float(s) if s.ndim == 0 else s


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr(rho ln rho) in nats, with 0 ln 0 := 0."""
    return _entropy_from_eigenvalues(rho.spectrum.eigenvalues, rho.dim)


def _shannon(p: np.ndarray) -> np.ndarray:
    """-sum p ln p over the last axis, unchecked."""
    return -np.sum(_xlnx(p), axis=-1)


def shannon_entropy(probs):
    """-sum p ln p of a probability vector (nats); for a stack (..., n) of
    them, the array of their entropies."""
    p = np.asarray(probs, dtype=float)
    if p.ndim < 1 or (p <= 0).any() or (abs(p.sum(axis=-1) - 1.0) > PROB_TOL).any():
        raise BadDistribution("probabilities must be positive and sum to 1")
    h = _shannon(p)
    return float(h) if h.ndim == 0 else h


def binary_entropy(p):
    """-p ln p - (1-p) ln(1-p), with the endpoint convention S(0) = S(1) = 0;
    for an array of p, the array of entropies."""
    q = np.asarray(p, dtype=float)
    if not ((0.0 <= q) & (q <= 1.0)).all():
        raise DomainError(f"binary entropy undefined at p={p!r}")
    h = np.where((0.0 < q) & (q < 1.0), _shannon(np.stack([q, 1.0 - q], axis=-1)), 0.0)
    return float(h) if h.ndim == 0 else h


def _average_entropies(Es: Sequence[Ensemble]) -> np.ndarray:
    """average_entropy of each ensemble of a batch sharing (n, d), from the
    members' kept spectra."""
    w = np.stack([s.spectrum.eigenvalues for E in Es for s in E.states])
    p = np.stack([E.probabilities for E in Es])
    return np.sum(p * _entropy_from_eigenvalues(w.reshape(p.shape + (-1,)), Es[0].dim), axis=-1)


def average_entropy(E: Ensemble) -> float:
    """sum_x p(x) S(rho_x) — the ensemble's average member entropy."""
    return float(_average_entropies([E])[0])


def unitary_at(H: Hamiltonian, t: float) -> np.ndarray:
    """exp(-i H t), computed exactly through the kept spectrum of H."""
    w, V = H.spectrum
    return hm.reconstruct(np.exp(-1j * t * w), V)


def evolve(E: Ensemble, H: HamiltonianSet, t: float) -> Ensemble:
    """Conjugate each member by its own unitary exp(-i H_x t)."""
    _require_matching(E, H)
    states = [s.conjugated(unitary_at(h, t)) for s, h in zip(E.states, H.hams)]
    return Ensemble(E.probabilities, states)


# --- JSON wire format -------------------------------------------------------
#
# Ensemble:        {"dim": d, "probabilities": [p1, ...], "states": [M1, ...]}
# Hamiltonian set: {"dim": d, "hamiltonians": [H1, ...]}
# where each matrix is a d x d row-major array of [re, im] pairs.


def matrix_to_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def matrix_from_json(obj, dim: int, what: str) -> np.ndarray:
    try:
        A = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: not a numeric array") from exc
    if A.shape != (dim, dim, 2):
        raise ParseError(f"{what}: expected shape ({dim}, {dim}, 2), got {A.shape}")
    return A[..., 0] + 1j * A[..., 1]


def _load_json(text) -> dict:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    return obj


def _parse_members(raw, dim: int, what: str, build) -> list:
    """build(M) for each raw matrix M; a failed validation names the member."""
    out = []
    for i, entry in enumerate(raw):
        try:
            out.append(build(matrix_from_json(entry, dim, f"{what} {i}")))
        except (InvariantViolation, NonHermitian) as exc:
            raise InvariantViolation(getattr(exc, "which", str(exc)), index=i) from exc
    return out


def parse_ensemble(text) -> Ensemble:
    """Parse the ensemble JSON schema; reports the offending member on failure."""
    obj = _load_json(text)
    try:
        dim = int(obj["dim"])
        probs = [float(p) for p in obj["probabilities"]]
        raw_states = list(obj["states"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"ensemble JSON missing or malformed field: {exc}") from exc
    if len(probs) != len(raw_states):
        raise ParseError("probabilities and states have different lengths")
    states = _parse_members(raw_states, dim, "state", DensityMatrix)
    try:
        return Ensemble(probs, states)
    except (BadDistribution, DimMismatch) as exc:
        raise InvariantViolation(str(exc)) from exc


def serialize_ensemble(E: Ensemble) -> bytes:
    obj = {
        "dim": E.dim,
        "probabilities": [float(p) for p in E.probabilities],
        "states": [matrix_to_json(s.matrix) for s in E.states],
    }
    return json.dumps(obj).encode("utf-8")


def parse_hamiltonian_set(text) -> HamiltonianSet:
    """Parse the Hamiltonian-set JSON schema (no operator-norm requirement)."""
    obj = _load_json(text)
    try:
        dim = int(obj["dim"])
        raw = list(obj["hamiltonians"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"hamiltonian JSON missing or malformed field: {exc}") from exc
    hams = _parse_members(raw, dim, "hamiltonian", Hamiltonian)
    return HamiltonianSet(hams)


def serialize_hamiltonian_set(H: HamiltonianSet) -> bytes:
    if not H.hams:
        raise DimMismatch("cannot serialize an empty Hamiltonian set")
    obj = {
        "dim": H.hams[0].dim,
        "hamiltonians": [matrix_to_json(h.matrix) for h in H.hams],
    }
    return json.dumps(obj).encode("utf-8")
