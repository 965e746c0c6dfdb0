"""Reference implementations that the program is checked against.

The oracles restate the paper's formulas and the evolution they
differentiate in plain numpy (or, for the `mp_` functions, in 40-digit
mpmath), one matrix at a time, and share no kernel with mixrate; they read
an Ensemble, a Hamiltonian set (a tuple of Hamiltonians) or a PureState
only for its data:

    rho(t)       = sum_x p_x e^{-i H_x t} rho_x e^{i H_x t}
    max_rate(E)  = sum_x p_x ||[rho_x, ln rho]||_1
    rate(E, H)   = i sum_x p_x Tr(H_x [rho_x, ln rho])
    Psi(t)       = (I_a ⊗ e^{-iHt} ⊗ I_b) Psi,  E(Psi) = S(rho_aA)
    Tr_K M       = the partial trace over the factors K of a tensor product

with ln taken on the support of rho. The finite differences of S(rho(t))
and E(Psi(t)) refuse, with a typed MixRateError, what a finite difference
cannot resolve.

`search_ratio` is the hill-climb as it ran before candidates were evaluated
in blocks: one candidate per iteration, each built as `Ensemble` and
`DensityMatrix` objects and evaluated through the public rate functions.
`mixrate.harness.search_ratio` must return the same record, field for field,
for every configuration, including the errors; so it draws each candidate
through the program's `_climb_draws` as a block of one, and its unitaries
(`unitary_at`) and conjugations (`conjugated`) keep the program's kernels and
operation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from mixrate import harness as hz
from mixrate import hermitian as hm
from mixrate.ensembles import (
    DensityMatrix,
    Ensemble,
    _assign,
    _frozen,
    _stack,
    binary_entropy,
    shannon_entropy,
)
from mixrate.entangling import PureState
from mixrate.errors import BoundViolation, DimMismatch, DomainError, MixRateError, RankDeficient
from mixrate.rates import binary_max_rate, max_mixing_rate

RANK_TOL = 1e-12
FD_STEP = 1e-4
STM_SLACK = 1e-9
MP_DIGITS = 40


# --- Linear algebra and entropies -------------------------------------------


def matrix_fn(M: np.ndarray, f) -> np.ndarray:
    """V diag(f(w)) V† for Hermitian M = V diag(w) V†, f elementwise and
    possibly complex (w ↦ e^{iw} gives a unitary)."""
    w, V = np.linalg.eigh(M)
    with np.errstate(divide="ignore", invalid="ignore"):
        fw = np.asarray(f(w))
    if not np.all(np.isfinite(fw)):
        raise DomainError("f undefined (non-finite) at some eigenvalue")
    return (V * fw) @ V.conj().T


def spectral_sign_projectors(M: np.ndarray, zero_tol: float = RANK_TOL):
    """(P_pos, P_neg), the projectors onto the eigenspaces of M with
    eigenvalues above zero_tol and below -zero_tol."""
    w, V = np.linalg.eigh(M)
    Vp, Vn = V[:, w > zero_tol], V[:, w < -zero_tol]
    return Vp @ Vp.conj().T, Vn @ Vn.conj().T


def entropy(M: np.ndarray) -> float:
    """-Tr M ln M of a state M, with 0 ln 0 := 0."""
    w = np.linalg.eigvalsh(M)
    w = w[w > 0]
    return float(-np.sum(w * np.log(w)))


def shannon(p) -> float:
    return float(-sum(x * math.log(x) for x in p if x > 0))


def partial_trace(M: np.ndarray, dims, keep) -> np.ndarray:
    """The trace of M over every factor not in keep, for the factor
    dimensions dims in row-major order: one einsum over M as a tensor."""
    n = len(dims)
    keep = sorted(keep)
    # Row index i is axis i; a traced factor's column shares its row's axis,
    # a kept factor's column gets its own axis n + i.
    col = [n + i if i in keep else i for i in range(n)]
    d = math.prod(dims[i] for i in keep)
    T = np.asarray(M).reshape(list(dims) * 2)
    return np.einsum(T, list(range(n)) + col, keep + [n + i for i in keep]).reshape(d, d)


# --- Ensembles and their evolution ------------------------------------------


def expected_state(E: Ensemble) -> np.ndarray:
    """rho = sum_x p_x rho_x."""
    return sum(p * s.matrix for p, s in zip(E.probabilities, E.states))


def unitary(H: np.ndarray, t: float) -> np.ndarray:
    """e^{-i H t}."""
    return matrix_fn(H, lambda w: np.exp(-1j * t * w))


def evolve(E: Ensemble, H, t: float) -> list[np.ndarray]:
    """The members U_x rho_x U_x†, U_x = e^{-i H_x t}, of E evolved under the
    set H."""
    if len(H) != len(E.states):
        raise DimMismatch("need one Hamiltonian per ensemble member")
    out = []
    for s, h in zip(E.states, H):
        U = unitary(h.matrix, t)
        out.append(U @ s.matrix @ U.conj().T)
    return out


def entropy_at(E: Ensemble, H, t: float) -> float:
    """S(rho(t)) of E under H."""
    return entropy(sum(p * r for p, r in zip(E.probabilities, evolve(E, H, t))))


def fd_mixing_rate(E: Ensemble, H, h: float = FD_STEP, rank_tol: float = RANK_TOL) -> float:
    """[S(rho(h)) - S(rho(-h))] / 2h. Refuses an expected state whose
    smallest eigenvalue is below 1e3 rank_tol (RankDeficient)."""
    if h <= 0:
        raise DomainError("finite-difference step must be positive")
    w0 = float(np.linalg.eigvalsh(expected_state(E))[0])
    if w0 < 1e3 * rank_tol:
        raise RankDeficient(f"expected state eigenvalue {w0:.3e} too small for finite differences")
    return (entropy_at(E, H, h) - entropy_at(E, H, -h)) / (2.0 * h)


@dataclass(frozen=True)
class StmPoint:
    """One time slice of the total-mixing sandwich check."""

    t: float
    entropy: float
    lower: float
    upper: float
    ok: bool


def stm_check(E: Ensemble, H, ts) -> list[StmPoint]:
    """avg <= S(rho(t)) <= avg + S(p) at each t, avg = sum_x p_x S(rho_x)."""
    lower = sum(p * entropy(s.matrix) for p, s in zip(E.probabilities, E.states))
    upper = lower + shannon(E.probabilities)
    points = []
    for t in ts:
        S = entropy_at(E, H, t)
        ok = lower - STM_SLACK <= S <= upper + STM_SLACK
        points.append(StmPoint(float(t), S, lower, upper, ok))
    return points


# --- Pure states on a ⊗ A ⊗ B ⊗ b --------------------------------------------


class IllConditioned(MixRateError):
    """Reduced state has a nonzero eigenvalue too small for a stable derivative."""


def reduced_aA(psi: PureState) -> np.ndarray:
    """rho_aA = Tr_Bb |Psi><Psi|."""
    d_a, d_A, d_B, d_b = psi.dims
    M = psi.amplitudes.reshape(d_a * d_A, d_B * d_b)
    return M @ M.conj().T


def entanglement_entropy(psi: PureState) -> float:
    """S(rho_aA), the entanglement across the aA | Bb cut."""
    return entropy(reduced_aA(psi))


def _check_interaction(psi: PureState, H) -> None:
    if tuple(H.dims) != (psi.dims[1], psi.dims[2]):
        raise DimMismatch(f"Hamiltonian factors {H.dims} do not match state {psi.dims}")


def evolve_pure(psi: PureState, H, t: float) -> PureState:
    """(I_a ⊗ e^{-iHt} ⊗ I_b) Psi."""
    _check_interaction(psi, H)
    d_a, _, _, d_b = psi.dims
    U = np.kron(np.kron(np.eye(d_a), unitary(H.matrix, t)), np.eye(d_b))
    return PureState(U @ psi.amplitudes, psi.dims)


def _fd_entangling_probe(psi: PureState, H, h: float, rank_tol: float) -> None:
    """Refuse a step h <= 0, an operator on other factors, and a reduced
    state whose smallest nonzero eigenvalue is below 1e3 rank_tol."""
    if h <= 0:
        raise DomainError("finite-difference step must be positive")
    _check_interaction(psi, H)
    w = np.linalg.eigvalsh(reduced_aA(psi))
    nonzero = w[w > rank_tol * max(float(w[-1]), 0.0)]
    if nonzero.size and float(nonzero[0]) < 1e3 * rank_tol:
        raise IllConditioned(f"smallest nonzero eigenvalue {float(nonzero[0]):.3e} of rho_aA")


def _central_entangling(psi: PureState, H, h: float) -> float:
    e = [entanglement_entropy(evolve_pure(psi, H, t)) for t in (h, -h)]
    return (e[0] - e[1]) / (2.0 * h)


def fd_entangling_rate(psi: PureState, H, h: float = FD_STEP, rank_tol: float = RANK_TOL) -> float:
    """[E(Psi(h)) - E(Psi(-h))] / 2h."""
    _fd_entangling_probe(psi, H, h, rank_tol)
    return _central_entangling(psi, H, h)


def fd_entangling_rate_richardson(
    psi: PureState, H, h: float = FD_STEP, rank_tol: float = RANK_TOL
) -> float:
    """(4 D(h/2) - D(h)) / 3 of the central differences D: error O(h^4)."""
    _fd_entangling_probe(psi, H, h, rank_tol)
    return (4.0 * _central_entangling(psi, H, h / 2.0) - _central_entangling(psi, H, h)) / 3.0


# --- 40-digit rates -----------------------------------------------------------


def _mp_matrix(M: np.ndarray):
    return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in M])


def mp_rates(E: Ensemble, H=None) -> tuple[float, float, float | None]:
    """(sum_x p_x ||C_x||_1, p_0 ||C_0||_1, sum_x p_x Tr(H_x C_x) or None
    without H), C_x = i[rho_x, ln rho], from E's float data computed in
    MP_DIGITS digits, ln on the support (eigenvalues above RANK_TOL times the
    largest)."""
    with mpmath.workdps(MP_DIGITS):
        p = [mpmath.mpf(float(x)) for x in E.probabilities]
        R = [_mp_matrix(s.matrix) for s in E.states]
        rho = R[0] * p[0]
        for px, Rx in zip(p[1:], R[1:]):
            rho += Rx * px
        w, Q = mpmath.eighe(rho)
        d = rho.rows
        top = max(w)
        D = mpmath.zeros(d, d)
        for k in range(d):
            if w[k] > RANK_TOL * top:
                D[k, k] = mpmath.log(w[k])
        L = Q * D * Q.transpose_conj()
        C = [(Rx * L - L * Rx) * mpmath.mpc(0, 1) for Rx in R]
        norms = [sum(abs(v) for v in mpmath.eighe(Cx, eigvals_only=True)) for Cx in C]
        max_rate = sum(px * nx for px, nx in zip(p, norms))
        rate = None
        if H is not None:
            rate = 0
            for px, h, Cx in zip(p, H, C):
                T = _mp_matrix(h.matrix) * Cx
                rate += px * mpmath.re(sum(T[k, k] for k in range(d)))
            rate = float(rate)
        return float(max_rate), float(p[0] * norms[0]), rate


# --- Qubit closed forms -------------------------------------------------------
#
# At d = 2, rho_x = (I + r_x·σ)/2 and H_x = a_x I + h_x·σ. For r = sum_x p_x r_x
# with R = |r| in (0, 1) and r̂ = r/R, ln rho = ½ ln((1 - R²)/4) I + artanh(R) r̂·σ,
# so [rho_x, ln rho] = i artanh(R) (r_x × r̂)·σ, whose trace norm is
# 2 artanh(R) |r_x × r̂|, and Tr((h·σ)(c·σ)) = 2 h·c.

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def bloch(M: np.ndarray) -> np.ndarray:
    """The real Pauli coordinates Tr(M σ_k), k = x, y, z, of a 2 x 2 Hermitian
    M: r for (I + r·σ)/2 and 2h for a I + h·σ."""
    return np.einsum("ij,kji->k", M, PAULI).real


def qubit_rates(E: Ensemble, H=None) -> tuple[float, float, float | None]:
    """mp_rates at d = 2 from Bloch vectors:
        max_rate = 2 artanh(R) sum_x p_x |r_x × r̂|,
        binary   = its x = 0 term,
        rate     = -2 artanh(R) sum_x p_x h_x·(r_x × r̂), or None without H."""
    p = E.probabilities
    r_x = np.array([bloch(s.matrix) for s in E.states])
    r = p @ r_x
    R = float(np.linalg.norm(r))
    a = math.atanh(R)
    c = np.cross(r_x, r / R)
    terms = 2.0 * a * p * np.linalg.norm(c, axis=1)
    rate = None
    if H is not None:
        h_x = np.array([bloch(h.matrix) / 2.0 for h in H])
        rate = float(-2.0 * a * np.sum(p * np.sum(h_x * c, axis=1)))
    return float(np.sum(terms)), float(terms[0]), rate


def qubit_record(E: Ensemble, policy: str) -> dict:
    """The floats a record of E reports under a ratio policy ("compute",
    "verify" or "binary"), keyed as a CSV row names them: qubit_rates, the
    bounds 4 sqrt(p(1-p)) and 4 sum_{x != x0} sum_{y != x} sqrt(p_x p_y), and
    S(p). binary_max_rate is None unless n = 2."""
    p = [float(x) for x in E.probabilities]
    n = len(p)
    max_rate, binary, _ = qubit_rates(E)
    x0 = p.index(max(p))
    general = 4.0 * sum(
        math.sqrt(p[x] * p[y]) for x in range(n) if x != x0 for y in range(n) if y != x
    )
    S = shannon(p)
    rec = {
        "max_rate": max_rate, "binary_max_rate": None, "bound_thm": general, "shannon": S,
        "ratio_thm": max_rate / general, "ratio_conj": max_rate / S,
    }
    if n == 2:
        pair = 4.0 * math.sqrt(p[0] * (1.0 - p[0]))
        rec.update(binary_max_rate=binary, ratio_conj=binary / S)
        if policy == "compute":
            rec["ratio_thm"] = binary / pair
        elif policy == "binary":
            h = shannon([p[0], 1.0 - p[0]])
            rec.update(bound_thm=pair, ratio_thm=binary / pair, ratio_conj=binary / h)
    return rec


def mismatches(got: dict, want: dict, rel: float) -> list[str]:
    """The keys of want whose value in got is off by more than rel relative
    (a None wanted must be None), each with both values."""
    out = []
    for key, v in want.items():
        g = got[key]
        same = g is None if v is None else g is not None and abs(g - v) <= rel * abs(v)
        if not same:
            out.append(f"{key}: {g!r} vs {v!r}")
    return out


def qubit_maximizers(E: Ensemble) -> list[np.ndarray]:
    """The maximizers H_x = -u_x·σ, u_x the unit vector along r_x × r̂; I
    where r_x ∥ r, since then [rho_x, ln rho] = 0."""
    r_x = np.array([bloch(s.matrix) for s in E.states])
    r = E.probabilities @ r_x
    out = []
    for c in np.cross(r_x, r / np.linalg.norm(r)):
        norm = np.linalg.norm(c)
        out.append(np.eye(2) if norm == 0.0 else -np.einsum("k,kij->ij", c / norm, PAULI))
    return out


def rotate(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """v rotated right-handedly about the unit vector axis (Rodrigues)."""
    c, s = math.cos(angle), math.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * (axis @ v) * (1.0 - c)


def qubit_entropy_at(E: Ensemble, H, t: float) -> float:
    """entropy_at at d = 2 from Bloch vectors: e^{-i H_x t} with
    H_x = a_x I + h_x·σ rotates r_x about h_x by the angle 2|h_x|t, and
    S(rho(t)) = h2((1 + |r(t)|)/2) for r(t) = sum_x p_x r_x(t)."""
    r = np.zeros(3)
    for p, s, h in zip(E.probabilities, E.states, H):
        h_x = bloch(h.matrix) / 2.0
        norm = float(np.linalg.norm(h_x))
        r_x = bloch(s.matrix)
        r += p * (rotate(r_x, h_x / norm, 2.0 * norm * t) if norm > 0 else r_x)
    R = float(np.linalg.norm(r))
    return shannon([(1.0 + R) / 2.0, (1.0 - R) / 2.0])


# --- Sampling and trials ------------------------------------------------------


def sample_density(dim: int, rng) -> DensityMatrix:
    """A Hilbert-Schmidt-random state G G† / Tr(G G†), G Ginibre (real part,
    then imaginary part): the draws the program's samplers make."""
    g = rng.generator() if isinstance(rng, hz.RNGSpec) else rng
    G = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    rho = G @ G.conj().T
    return DensityMatrix(rho / np.real(np.trace(rho)))


def run_trial(cfg, trial_id: int):
    """The record of one trial, evaluated as a chunk of one."""
    return hz.run_trials(cfg, [trial_id])[0]


# --- The serial hill-climb ----------------------------------------------------


def unitary_at(w, V, t):
    """exp(-i H t) of H = V diag(w) V†, as the block climb builds it."""
    return hm.reconstruct(np.exp(-1j * t * w), V)


def state_with_spectrum(w, V) -> DensityMatrix:
    """V diag(w) V† as a DensityMatrix that holds (w, V), not validated."""
    return _assign(object.__new__(DensityMatrix), *_frozen(w, V))


def conjugated(rho: DensityMatrix, U: np.ndarray) -> DensityMatrix:
    """U rho U† with spectrum (w, U V), not validated again."""
    w, V = rho.spectrum
    return state_with_spectrum(w, U @ V)


def _perturb(E, eps, g):
    """The members conjugated by exp(i eps H) for fresh unit-norm H, and the
    n probability noises, drawn as a block of one candidate draws them."""
    w, V, noise = hz._climb_draws(1, len(E), E.dim, g)
    U = [unitary_at(wx, Vx, -eps) for wx, Vx in zip(w[0], V[0])]
    return [conjugated(s, Ux) for s, Ux in zip(E.states, U)], noise[0]


def _perturb_probs(p, eps, noise):
    q = np.log(p) + eps * noise
    q = np.exp(q - np.max(q))
    q /= np.sum(q)
    q = np.clip(q, hz.PROB_FLOOR, None)
    return q / np.sum(q)


def _objective(E, binary):
    if binary:
        return binary_max_rate(E) / binary_entropy(float(E.probabilities[0]))
    return max_mixing_rate(E) / shannon_entropy(E.probabilities)


def search_ratio(cfg):
    """The serial hill-climb: draw one candidate (n Hamiltonians, then n
    probability noises), check the general bound on it, keep it if it
    improves the objective, shrink the step after 20 rejections in a row, and
    restart from a fresh sample when the step falls below 1e-6."""
    if cfg.n_states < 2:
        raise DomainError(f"search needs n_states >= 2, got {cfg.n_states}")
    if cfg.binary and cfg.n_states != 2:
        raise DomainError("binary search requires n_states = 2")
    g = hz.RNGSpec(cfg.seed, 0).generator()
    best_E, best_obj = None, -math.inf
    iters = 0
    try:
        while iters < cfg.search_max_iters:
            cur = hz._ensemble(hz._batch([hz._trial_draw(cfg, g)]), 0)
            cur_obj = _objective(cur, cfg.binary)
            eps, rejects = hz.SEARCH_STEP, 0
            while iters < cfg.search_max_iters and eps >= 1e-6:
                iters += 1
                states, noise = _perturb(cur, eps, g)
                cand = Ensemble(_perturb_probs(cur.probabilities, eps, noise), states)
                bound = hz.bound_theorem_general(cand.probabilities)
                mx = max_mixing_rate(cand)
                if mx > bound + hz.THEOREM_SLACK:
                    raise BoundViolation(f"max rate {mx!r} exceeds the general bound {bound!r}")
                obj = _objective(cand, cfg.binary)
                if obj > cur_obj:
                    cur, cur_obj, rejects = cand, obj, 0
                else:
                    rejects += 1
                    if rejects >= 20:
                        eps *= hz.SEARCH_SHRINK
                        rejects = 0
            if cur_obj > best_obj:
                best_E, best_obj = cur, cur_obj
    except BoundViolation as exc:
        (rec,) = hz.evaluate_batch(_stack([cand]), cfg, [0])
        rec.error = f"{type(exc).__name__}: {exc}"
    else:
        (rec,) = hz.evaluate_batch(_stack([best_E]), cfg, [0])
    rec.iterations = iters
    return rec
