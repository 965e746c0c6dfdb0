"""Validated quantum states, Hamiltonians, ensembles and entropies.

An ensemble pairs probabilities p(x) with density matrices rho_x of one
shared dimension. The expected state is the convex combination
rho = sum_x p(x) rho_x.

The objects are the boundary: parsing, serialization and the public
functions take and return them. Inside, sampling, evaluation and search
pass B ensembles that share (n, d) as one `_Batch` of arrays, built from
validated draws (`_sampled`) or from objects (`_stack`), and turned back
into an object only where one leaves the program (`_ensemble`).

All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

import itertools
import json
import math
import reprlib
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
# The largest finite matrix entry or amplitude part a JSON file may hold: the
# squares of 10^8 of them still sum to a finite float, so no norm, sum or
# difference of entries overflows.
MAX_ENTRY = 1e150


def _assign(obj, matrix: np.ndarray, w: np.ndarray):
    """obj holding the state `matrix` and its eigenvalues w, both made read-only."""
    for a in (matrix, w):
        a.setflags(write=False)
    object.__setattr__(obj, "matrix", matrix)
    object.__setattr__(obj, "eigenvalues", w)
    return obj


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
    w, V = hm.eig_hermitian(raw)
    return hm.EigenDecomposition(_state_eigenvalues(w), V)


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: Hermitian, positive semi-definite, unit trace.

    Validation symmetrizes the input, floors eigenvalues in [-1e-10, 0) at
    zero and renormalizes the trace when within tolerance; anything further
    off is rejected. The eigenvalues w that validation computed are kept as
    `eigenvalues`, and `matrix` is V diag(w) V† on the eigenvectors V it
    found. A sampled state (`_ensemble`) holds its batch's arrays instead:
    the sampled matrix, symmetrized, and its eigenvalues.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=complex)
        if A.ndim != 2:
            raise DimMismatch(f"expected a square matrix, got shape {A.shape}")
        w, V = _state_spectra(A[None])
        _assign(self, hm.hermitian_part(hm.reconstruct(w, V))[0], w[0])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Hamiltonian:
    """A Hermitian observable, of any operator norm: its validated matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        if np.ndim(self.matrix) != 2:
            raise DimMismatch(f"expected a square matrix, got shape {np.shape(self.matrix)}")
        A = hm.require_hermitian(self.matrix)
        A.setflags(write=False)
        object.__setattr__(self, "matrix", A)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_distribution(p: np.ndarray) -> None:
    """An Ensemble's checks on probabilities p (..., n): none negative or NaN
    (p >= 0 holds, which NaN fails), and every row summing to 1 within PROB_TOL."""
    if not (p >= 0).all():
        raise BadDistribution("negative or NaN probability")
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


def _mixture(p: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """sum_x p_x rho_x, unvalidated, for probabilities p (..., n) and matrices
    rhos (..., n, d, d): one mixture per leading index."""
    acc = np.zeros(rhos.shape[:-3] + rhos.shape[-2:], dtype=complex)
    for x in range(p.shape[-1]):
        acc += p[..., x, None, None] * rhos[..., x, :, :]
    return acc


def _xlnx(v) -> np.ndarray:
    """Elementwise v ln v for v >= 0, 0 ln 0 := 0: the one kernel of every
    entropy here, so equal inputs give bit-equal entropies."""
    v = np.asarray(v, dtype=float)
    return v * np.log(np.where(v > 0, v, 1.0))


def _shannon(p: np.ndarray) -> np.ndarray:
    """-sum p ln p over the last axis, unchecked; 0 - (...) so that an entropy
    of 0 is +0.0, not -0.0."""
    return 0.0 - np.sum(_xlnx(p), axis=-1)


def _entropy_from_eigenvalues(w: np.ndarray, dim: int):
    """-sum w ln w of a state's eigenvalues, clamped to [0, ln dim]; for a
    stack (..., d) of spectra, the array of their entropies."""
    s = np.clip(_shannon(np.clip(np.real(w), 0.0, 1.0)), 0.0, math.log(dim))
    return float(s) if s.ndim == 0 else s


def _positive_distribution(probs) -> np.ndarray:
    """probs as floats (..., n), every row positive (not NaN) and summing to 1 within PROB_TOL."""
    p = np.asarray(probs, dtype=float)
    if p.ndim < 1 or not ((p > 0).all() and (abs(p.sum(axis=-1) - 1.0) <= PROB_TOL).all()):
        raise BadDistribution("probabilities must be positive and sum to 1")
    return p


def _unit_interval(p) -> np.ndarray:
    """p, a probability or an array of them, as floats in [0, 1]; NaN is not."""
    q = np.asarray(p, dtype=float)
    if not ((0.0 <= q) & (q <= 1.0)).all():
        raise DomainError(f"probability {p!r} outside [0, 1]")
    return q


def shannon_entropy(probs):
    """-sum p ln p of a probability vector (nats); for a stack (..., n) of
    them, the array of their entropies."""
    h = _shannon(_positive_distribution(probs))
    return float(h) if h.ndim == 0 else h


def binary_entropy(p):
    """-p ln p - (1-p) ln(1-p), with the endpoint convention S(0) = S(1) = 0;
    for an array of p, the array of entropies."""
    q = _unit_interval(p)
    h = np.where((0.0 < q) & (q < 1.0), _shannon(np.stack([q, 1.0 - q], axis=-1)), 0.0)
    return float(h) if h.ndim == 0 else h


def _average_entropies(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_x p_x S(rho_x) of each ensemble of a batch, from the probabilities
    p (B, n) and the members' eigenvalues w (B, n, d)."""
    return np.sum(p * _entropy_from_eigenvalues(w, w.shape[-1]), axis=-1)


# --- Batches of ensembles ---------------------------------------------------


class _Batch(NamedTuple):
    """B ensembles that share (n, d), as arrays: probabilities p (B, n), the
    members rho_x (B, n, d, d) and their eigenvalues w (B, n, d). What an
    Ensemble holds, without the objects."""

    p: np.ndarray
    rhos: np.ndarray
    w: np.ndarray

    def one(self, i: int) -> "_Batch":
        """Ensemble i as a batch of one, of views into this batch."""
        return _Batch(*(a[i : i + 1] for a in self))


def _sampled(p: np.ndarray, raw: np.ndarray) -> _Batch:
    """The batch of sampled probabilities p (B, n) and raw states
    (B, n, d, d), with an Ensemble's checks made once for all of them: the
    distributions, and every state given `_state_spectra`'s checks from one
    stacked eigvalsh. The members are the raw states, symmetrized: nothing
    reads their eigenvectors."""
    _require_distribution(p)
    rhos, w = hm.symmetrized_eigvals(raw)
    return _Batch(p, rhos, _state_eigenvalues(w))


def _stack(Es: Sequence[Ensemble]) -> _Batch:
    """The batch of Ensembles that share (n, d), from their kept arrays."""
    n, d = len(Es[0]), Es[0].dim
    if any(len(E) != n or E.dim != d for E in Es):
        raise DimMismatch("ensembles of one batch must share (n, d)")
    states = [s for E in Es for s in E.states]
    shape = (len(Es), n, d)
    # np.array, not np.stack: several times faster on a few small arrays.
    return _Batch(
        np.array([E.probabilities for E in Es]),
        np.array([s.matrix for s in states]).reshape(shape + (d,)),
        np.array([s.eigenvalues for s in states]).reshape(shape),
    )


def _ensemble(b: _Batch, i: int) -> Ensemble:
    """Ensemble i of a batch, its states holding the batch's own arrays: the
    states are not validated again."""
    states = [
        _assign(object.__new__(DensityMatrix), *a) for a in zip(b.rhos[i], b.w[i])
    ]
    return Ensemble(b.p[i], states)


# --- JSON wire format -------------------------------------------------------
#
# Ensemble:        {"dim": d, "probabilities": [p1, ...], "states": [M1, ...]}
# Hamiltonian set: {"dim": d, "hamiltonians": [H1, ...]}
# where each matrix is a d x d row-major array of [re, im] pairs and each
# probability, real part and imaginary part a JSON number. Hamiltonian x
# pairs with listed state x.


def matrix_to_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _from_pairs(A: np.ndarray) -> np.ndarray:
    """The complex numbers of the [re, im] pairs along the last axis of A,
    reinterpreted, not computed: re + 1j * im would make an infinite part
    a NaN, with a RuntimeWarning."""
    return np.ascontiguousarray(A).view(complex)[..., 0]


def _json_numbers(obj, what: str) -> np.ndarray:
    """obj, nested JSON arrays of numbers, as a float array; an entry that is
    a bool, a string or null is refused, as is a ragged array, an integer
    too large for a float or a finite entry above MAX_ENTRY in magnitude."""
    try:
        A = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: not a numeric array") from exc
    entries = [obj]
    for _ in range(A.ndim):
        entries = itertools.chain.from_iterable(entries)
    if not set(map(type, entries)) <= {int, float}:
        raise ParseError(f"{what}: entries must be JSON numbers")
    # Only a finite largest entry is refused here; inf and NaN are refused by name later.
    if MAX_ENTRY < np.abs(A).max(initial=0.0) < math.inf:
        raise ParseError(f"{what}: an entry above {MAX_ENTRY:g} in magnitude")
    return A


def matrix_from_json(obj, dim: int, what: str) -> np.ndarray:
    A = _json_numbers(obj, what)
    if A.shape != (dim, dim, 2):
        raise ParseError(f"{what}: expected shape ({dim}, {dim}, 2), got {A.shape}")
    return _from_pairs(A)


def _load_json(text) -> dict:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("malformed JSON: nested too deeply") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    return obj


def _echo(v) -> str:
    """v for a message: an array or object as [...] or {...}, a long string or int cut short."""
    return {list: "[...]", dict: "{...}"}.get(type(v)) or reprlib.repr(v)


def _json_dim(v) -> int:
    """A dimension read from JSON: a JSON integer, |v| <= sys.maxsize; not a float, bool or str."""
    if type(v) is not int:
        raise ParseError(f"dimension {_echo(v)} is not an integer")
    if abs(v) > sys.maxsize:
        raise ParseError(f"dimension {_echo(v)} out of range")
    return v


def _json_probability(v) -> float:
    """A probability read from JSON: a JSON number; a bool, string or null is
    refused, and so is a number above 1, before a sum of such can overflow."""
    if type(v) not in (int, float):
        raise ParseError(f"probability {_echo(v)} is not a number")
    p = float(v)
    if p > 1.0:
        raise ParseError(f"probability {_echo(v)} above 1")
    return p


def _parse_members(raw, dim: int, what: str, build) -> list:
    """build(M) for each raw matrix M; a failed validation names the member."""
    out = []
    for i, entry in enumerate(raw):
        try:
            out.append(build(matrix_from_json(entry, dim, f"{what} {i}")))
        except (InvariantViolation, NonHermitian, DomainError) as exc:
            raise InvariantViolation(getattr(exc, "which", str(exc)), index=i) from exc
    return out


def _parse_ensemble(text) -> tuple[Ensemble, list[float]]:
    """parse_ensemble's Ensemble, and the listed probabilities, zeros included."""
    obj = _load_json(text)
    try:
        dim = _json_dim(obj["dim"])
        probs = [_json_probability(p) for p in obj["probabilities"]]
        raw_states = list(obj["states"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"ensemble JSON missing or malformed field: {exc}") from exc
    if len(probs) != len(raw_states):
        raise ParseError("probabilities and states have different lengths")
    states = _parse_members(raw_states, dim, "state", DensityMatrix)
    try:
        return Ensemble(probs, states), probs
    except (BadDistribution, DimMismatch) as exc:
        raise InvariantViolation(str(exc)) from exc


def parse_ensemble(text) -> Ensemble:
    """Parse the ensemble JSON schema; reports the offending member on failure."""
    return _parse_ensemble(text)[0]


def serialize_ensemble(E: Ensemble) -> bytes:
    obj = {
        "dim": E.dim,
        "probabilities": [float(p) for p in E.probabilities],
        "states": [matrix_to_json(s.matrix) for s in E.states],
    }
    return json.dumps(obj).encode("utf-8")


def parse_hamiltonian_set(text) -> tuple[Hamiltonian, ...]:
    """Parse the Hamiltonian-set JSON schema (no operator-norm requirement)."""
    obj = _load_json(text)
    try:
        dim = _json_dim(obj["dim"])
        raw = list(obj["hamiltonians"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"hamiltonian JSON missing or malformed field: {exc}") from exc
    return tuple(_parse_members(raw, dim, "hamiltonian", Hamiltonian))


def _paired(H: Sequence[Hamiltonian], listed: Sequence[float]) -> tuple[Hamiltonian, ...]:
    """The Hamiltonians of the members an Ensemble keeps, H paired by position
    with the listed probabilities: each zero-probability member's goes with it."""
    if len(H) != len(listed):
        raise DimMismatch("need one Hamiltonian per listed ensemble member")
    return tuple(h for h, p in zip(H, listed) if p > 0)
