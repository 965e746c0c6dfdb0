"""Ensembles of quantum states, their entropies, and the checked inputs.

An ensemble pairs probabilities p(x) with density matrices rho_x of one
shared dimension. The expected state is the convex combination
rho = sum_x p(x) rho_x.

Everything inside passes B ensembles that share (n, d) as one `_Batch` of
arrays. The boundary builds and checks it: a parsed file (`_parsed`) or
sampled draws (`_sampled`). `Ensemble` and `DensityMatrix` are plain
records, made only where an ensemble leaves the program (`_ensemble`).

Every function here is pure.
"""

from __future__ import annotations

import itertools
import math
import reprlib
import sys
from typing import NamedTuple, Sequence

import numpy as np

from . import hermitian as hm
from .errors import Fault, InputError

PSD_TOL = 1e-10
TRACE_TOL = 1e-10
PROB_TOL = 1e-10
# The largest finite matrix entry or amplitude part a JSON file may hold: the
# squares of 10^8 of them still sum to a finite float, so no norm, sum or
# difference of entries overflows.
MAX_ENTRY = 1e150


def _state_eigenvalues(w: np.ndarray, kind=Fault) -> np.ndarray:
    """The ascending eigenvalues w (..., d) of states, each row checked
    (min >= -PSD_TOL, |sum - 1| <= TRACE_TOL), floored at 0 and renormalized;
    a failed check raises kind: InputError for states given from outside."""
    # ndarray methods: this runs once per validated stack, where the module
    # functions' dispatch cost more than the arithmetic at small d. `not >=`
    # and `not <=`, so that a NaN eigenvalue (eigvalsh may return one) fails.
    if not (w[..., 0] >= -PSD_TOL).all():
        raise kind(f"not PSD (min eigenvalue {w[..., 0].min():.3e})")
    tr = w.sum(axis=-1)
    off = ~(abs(tr - 1.0) <= TRACE_TOL)
    if off.any():
        raise kind(f"trace {float(tr[off].flat[0])!r} differs from 1")
    w = w.clip(0.0, None)
    w /= w.sum(axis=-1, keepdims=True)
    return w


class DensityMatrix(NamedTuple):
    """A state as the program gives it out (`_ensemble`): its matrix and the
    eigenvalues its check kept. A record; it checks nothing."""

    matrix: np.ndarray
    eigenvalues: np.ndarray


def _require_distribution(p: np.ndarray, kind=Fault) -> None:
    """The checks on probabilities p (..., n): none negative or NaN
    (p >= 0 holds, which NaN fails), and every row summing to 1 within
    PROB_TOL; a failed check raises kind: InputError for probabilities given
    from outside."""
    if not (p >= 0).all():
        raise kind("invariant violated: negative or NaN probability")
    total = p.sum(axis=-1, keepdims=True)
    off = abs(total - 1.0) > PROB_TOL
    if off.any():
        raise kind(f"invariant violated: probabilities sum to {float(total[off][0])!r}")


class Ensemble(NamedTuple):
    """Probabilities p(x) and states rho_x, as `_ensemble` gives an ensemble
    out: a record (it checks nothing) whose len counts states, not fields."""

    probabilities: np.ndarray
    states: tuple[DensityMatrix, ...]

    def __len__(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].matrix.shape[0]


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


def _entropy_from_eigenvalues(w: np.ndarray):
    """-sum w ln w of a state's eigenvalues (d,), clamped to [0, ln d]; for a
    stack (..., d) of spectra, the array of their entropies."""
    s = np.clip(_shannon(np.clip(np.real(w), 0.0, 1.0)), 0.0, math.log(w.shape[-1]))
    return float(s) if s.ndim == 0 else s


def _positive_distribution(probs) -> np.ndarray:
    """probs as floats (..., n), every row positive (not NaN) and summing to 1 within PROB_TOL."""
    p = np.asarray(probs, dtype=float)
    if p.ndim < 1 or not ((p > 0).all() and (abs(p.sum(axis=-1) - 1.0) <= PROB_TOL).all()):
        raise InputError("probabilities must be positive and sum to 1")
    return p


def _unit_interval(p) -> np.ndarray:
    """p, a probability or an array of them, as floats in [0, 1]; NaN is not."""
    q = np.asarray(p, dtype=float)
    if not ((0.0 <= q) & (q <= 1.0)).all():
        raise InputError(f"probability {p!r} outside [0, 1]")
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
    return np.sum(p * _entropy_from_eigenvalues(w), axis=-1)


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
    (B, n, d, d), checked once for all of them: the distributions, and
    every state Hermitian with a state's spectrum, from one stacked
    eigvalsh. The members are the raw states, symmetrized: nothing reads
    their eigenvectors."""
    _require_distribution(p)
    rhos = hm.require_hermitian(raw)
    return _Batch(p, rhos, _state_eigenvalues(hm._eigvalsh(rhos)))


def _state_spectra(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States A (n, d, d) given from outside, checked: Hermitian, and each
    spectrum a state's (InputError). Returns each state rebuilt as
    V diag(w) V† on the eigenvectors V of its check, and its eigenvalues w,
    floored."""
    w, V = hm.eig_hermitian(A)
    w = _state_eigenvalues(w, InputError)
    return hm.hermitian_part(hm.reconstruct(w, V)), w


def _members(check, A: np.ndarray):
    """check(A) of the members A (n, d, d) of an input file, in one pass; if
    it refuses them, the refusal of the first member it refuses alone, named."""
    try:
        return check(A)
    except InputError:
        for i in range(len(A)):
            try:
                check(A[i : i + 1])
            except InputError as exc:
                raise InputError(f"invariant violated: {exc} (member {i})") from exc
        raise


def _parsed(probs, states) -> _Batch:
    """The batch of one ensemble given from outside, from its listed
    probabilities (n,) and states (n, d, d), with every check made once:
    the distribution, then each state Hermitian with a state's spectrum (a
    refused state named by its member). Members of probability 0 are
    dropped, and each kept state is V diag(w) V† from its floored w."""
    p = np.array(probs, dtype=float)
    _require_distribution(p, InputError)
    rhos, w = _members(_state_spectra, np.asarray(states, dtype=complex))
    keep = p > 0
    return _Batch(p[None, keep], rhos[None, keep], w[None, keep])


def _ensemble(b: _Batch, i: int) -> Ensemble:
    """Ensemble i of a batch, as read-only views of the batch's own arrays."""
    p, rhos, w = (a[i] for a in b)
    for a in (p, rhos, w):
        a.setflags(write=False)
    return Ensemble(p, tuple(map(DensityMatrix, rhos, w)))


# --- JSON wire format -------------------------------------------------------
#
# Ensemble:        {"dim": d, "probabilities": [p1, ...], "states": [M1, ...]}
# Hamiltonian set: {"dim": d, "hamiltonians": [H1, ...]}
# where each matrix is a d x d row-major array of [re, im] pairs and each
# probability, real part and imaginary part a JSON number. Hamiltonian x
# pairs with listed state x.


def matrix_to_json(M: np.ndarray) -> list:
    """M as rows of [re, im] pairs: its complex entries' two floats each,
    reinterpreted as `_from_pairs` reads them back, in one conversion."""
    A = np.ascontiguousarray(M, dtype=complex)
    return A.view(float).reshape(A.shape + (2,)).tolist()


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
        raise InputError(f"{what}: not a numeric array") from exc
    entries = [obj]
    for _ in range(A.ndim):
        entries = itertools.chain.from_iterable(entries)
    if not set(map(type, entries)) <= {int, float}:
        raise InputError(f"{what}: entries must be JSON numbers")
    # Only a finite largest entry is refused here; inf and NaN are refused by name later.
    if MAX_ENTRY < np.abs(A).max(initial=0.0) < math.inf:
        raise InputError(f"{what}: an entry above {MAX_ENTRY:g} in magnitude")
    return A


def matrix_from_json(obj, dim: int, what: str) -> np.ndarray:
    A = _json_numbers(obj, what)
    if A.shape != (dim, dim, 2):
        raise InputError(f"{what}: expected shape ({dim}, {dim}, 2), got {A.shape}")
    return _from_pairs(A)


def _load_json(text) -> dict:
    import json

    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("malformed JSON: nested too deeply") from exc
    if not isinstance(obj, dict):
        raise InputError("top-level JSON value must be an object")
    return obj


def _echo(v) -> str:
    """v for a message: an array or object as [...] or {...}, a long string or int cut short."""
    return {list: "[...]", dict: "{...}"}.get(type(v)) or reprlib.repr(v)


def _json_dim(v) -> int:
    """A dimension read from JSON: a JSON integer, |v| <= sys.maxsize; not a float, bool or str."""
    if type(v) is not int:
        raise InputError(f"dimension {_echo(v)} is not an integer")
    if abs(v) > sys.maxsize:
        raise InputError(f"dimension {_echo(v)} out of range")
    return v


def _json_probability(v) -> float:
    """A probability read from JSON: a JSON number; a bool, string or null is
    refused, and so is a number above 1, before a sum of such can overflow."""
    if type(v) not in (int, float):
        raise InputError(f"probability {_echo(v)} is not a number")
    p = float(v)
    if p > 1.0:
        raise InputError(f"probability {_echo(v)} above 1")
    return p


def _parse_ensemble(text) -> tuple[_Batch, list[float]]:
    """The ensemble JSON schema's ensemble as a checked batch of one
    (`_parsed`), and its listed probabilities, zeros included."""
    obj = _load_json(text)
    try:
        dim = _json_dim(obj["dim"])
        probs = [_json_probability(p) for p in obj["probabilities"]]
        raw_states = list(obj["states"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"ensemble JSON missing or malformed field: {exc}") from exc
    if len(probs) != len(raw_states):
        raise InputError("probabilities and states have different lengths")
    states = [matrix_from_json(M, dim, f"state {i}") for i, M in enumerate(raw_states)]
    return _parsed(probs, states), probs


def serialize_ensemble(E: Ensemble) -> bytes:
    import json

    obj = {
        "dim": E.dim,
        "probabilities": [float(p) for p in E.probabilities],
        "states": [matrix_to_json(s.matrix) for s in E.states],
    }
    return json.dumps(obj).encode("utf-8")


def parse_hamiltonian_set(text) -> np.ndarray:
    """Parse the Hamiltonian-set JSON schema into its matrices (n, d, d),
    each checked Hermitian (no operator-norm requirement)."""
    obj = _load_json(text)
    try:
        dim = _json_dim(obj["dim"])
        raw = list(obj["hamiltonians"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"hamiltonian JSON missing or malformed field: {exc}") from exc
    H = [matrix_from_json(M, dim, f"hamiltonian {i}") for i, M in enumerate(raw)]
    return _members(hm.require_hermitian, np.array(H, dtype=complex)) if H else np.zeros((0, 0, 0))


def _paired(H: np.ndarray, listed: Sequence[float], dim: int) -> np.ndarray:
    """The Hamiltonians H (m, d, d) of the members an ensemble of dimension
    dim keeps: one of dimension dim per listed member, paired by position
    with its listed probability, so that each zero-probability member's goes
    with it."""
    if len(H) != len(listed):
        raise InputError("need one Hamiltonian per listed ensemble member")
    if H.shape[-1] != dim:
        raise InputError("Hamiltonian dimension differs from ensemble dimension")
    return H[np.array(listed) > 0]
