"""Reference implementations that the program is checked against.

The oracles restate the paper's formulas and the evolution they
differentiate in plain numpy (or, for the `mp_` functions, in 40-digit
mpmath), one matrix at a time, and share no kernel with mixrate; they read
an Ensemble record, a Hamiltonian set (one matrix per member) or a
PureState record only for its data:

    rho(t)       = sum_x p_x e^{-i H_x t} rho_x e^{i H_x t}
    max_rate(E)  = sum_x p_x ||[rho_x, ln rho]||_1
    rate(E, H)   = i sum_x p_x Tr(H_x [rho_x, ln rho])
    Psi(t)       = (I_a ⊗ e^{-iHt} ⊗ I_b) Psi,  E(Psi) = S(rho_aA)
    Tr_K M       = the partial trace over the factors K of a tensor product

with ln taken on the support of rho. The finite differences of S(rho(t))
and E(Psi(t)) refuse, with a typed Fault, what a finite difference
cannot resolve.

Two oracles check the paper's proof rather than the lab: `ak_gap`, the
commutator/entropy functional for f = ln, and `log_integral_check`, the
integral representation of ln x that the proof differentiates.

`require_hermitian` is the Hermiticity check as it ran before its residual
pass, `hermitian_part` the symmetrizer as it ran before it took one buffer,
`matrix_to_json` the wire form as it was built before one array
conversion, and `search` the ratio search as it ran before its draws were
made a window of blocks at a time and before `--binary` climbed the general
objective (it still climbs binary rate / h(p) there): the program's must
take the same decisions and return the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from mixrate import harness as hz
from mixrate import hermitian as hm
from mixrate import sampling
from mixrate.ensembles import DensityMatrix, Ensemble, _Batch, _require_distribution, _shannon
from mixrate.entangling import PureState
from mixrate.errors import BoundViolation, Fault, InputError
from mixrate.rates import _Spectra

HERM_TOL = 1e-10
RANK_TOL = 1e-12
FD_STEP = 1e-4
STM_SLACK = 1e-9
MP_DIGITS = 40


# --- Linear algebra and entropies -------------------------------------------


def require_hermitian(M) -> np.ndarray:
    """The Hermiticity check as it ran before one residual pass settled the
    common case: ‖M − M†‖_F ≤ HERM_TOL·max(1, ‖M‖_F) tested matrix by matrix
    on every call. `mixrate.hermitian.require_hermitian` must accept and
    refuse the same inputs, with the same exceptions and messages, and return
    the same bits."""
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise InputError(f"expected square matrices, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InputError("matrix has non-finite entries")
    B = A.swapaxes(-1, -2).conj()
    B -= A
    dev = _frobenius_stack(B)
    if (dev > HERM_TOL).any() and (dev > HERM_TOL * np.maximum(1.0, _frobenius_stack(A))).any():
        raise InputError(f"Hermiticity residual {dev.max():.3e} exceeds tolerance")
    np.conjugate(A.swapaxes(-1, -2), out=B)
    B += A
    B /= 2
    return B


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M†)/2 with a new array for each step, the conjugate, the sum and
    the quotient: `mixrate.hermitian.hermitian_part` must give the same
    dtype, shape, strides and bytes."""
    return (M + M.conj().swapaxes(-1, -2)) / 2


def _frobenius_stack(A: np.ndarray) -> np.ndarray:
    sq = np.einsum("...ij,...ij->...", A.real, A.real)
    return np.sqrt(sq + np.einsum("...ij,...ij->...", A.imag, A.imag))


def matrix_fn(M: np.ndarray, f) -> np.ndarray:
    """V diag(f(w)) V† for Hermitian M = V diag(w) V†, f elementwise and
    possibly complex (w ↦ e^{iw} gives a unitary)."""
    w, V = np.linalg.eigh(M)
    with np.errstate(divide="ignore", invalid="ignore"):
        fw = np.asarray(f(w))
    if not np.all(np.isfinite(fw)):
        raise InputError("f undefined (non-finite) at some eigenvalue")
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


def matrix_to_json(M) -> list:
    """M as rows of [re, im] pairs, one entry at a time: the floats, signs of
    zero included, that `mixrate.ensembles.matrix_to_json` must give."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


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
        raise InputError("need one Hamiltonian per ensemble member")
    out = []
    for s, h in zip(E.states, H):
        U = unitary(h, t)
        out.append(U @ s.matrix @ U.conj().T)
    return out


def entropy_at(E: Ensemble, H, t: float) -> float:
    """S(rho(t)) of E under H."""
    return entropy(sum(p * r for p, r in zip(E.probabilities, evolve(E, H, t))))


def fd_mixing_rate(E: Ensemble, H, h: float = FD_STEP, rank_tol: float = RANK_TOL) -> float:
    """[S(rho(h)) - S(rho(-h))] / 2h. Refuses an expected state whose
    smallest eigenvalue is below 1e3 rank_tol (a Fault)."""
    if h <= 0:
        raise InputError("finite-difference step must be positive")
    w0 = float(np.linalg.eigvalsh(expected_state(E))[0])
    if w0 < 1e3 * rank_tol:
        raise Fault(f"expected state eigenvalue {w0:.3e} too small for finite differences")
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


class IllConditioned(Fault):
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
        raise InputError(f"Hamiltonian factors {H.dims} do not match state {psi.dims}")


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
        raise InputError("finite-difference step must be positive")
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
                T = _mp_matrix(h) * Cx
                rate += px * mpmath.re(sum(T[k, k] for k in range(d)))
            rate = float(rate)
        return float(max_rate), float(p[0] * norms[0]), rate


def mp_entropies(E: Ensemble, H, ts) -> list[float]:
    """S(rho(t)) at each t of ts, rho(t) = sum_x p_x e^{-i H_x t} rho_x e^{i H_x t},
    from E's float data and the float matrices H (one per member) computed in
    MP_DIGITS digits: e^{-i H_x t} from the 40-digit spectrum of H_x, 0 ln 0 := 0.
    Costs one eighe per member and one per t."""
    with mpmath.workdps(MP_DIGITS):
        p = [mpmath.mpf(float(x)) for x in E.probabilities]
        R = [_mp_matrix(s.matrix) for s in E.states]
        spectra = [mpmath.eighe(_mp_matrix(h)) for h in H]
        d = R[0].rows
        out = []
        for t in ts:
            t = mpmath.mpf(float(t))
            rho = mpmath.zeros(d, d)
            for px, Rx, (w, Q) in zip(p, R, spectra):
                U = Q * mpmath.diag([mpmath.expj(-t * v) for v in w]) * Q.transpose_conj()
                rho += (U * Rx * U.transpose_conj()) * px
            w = mpmath.eighe(rho, eigvals_only=True)
            out.append(float(-sum(v * mpmath.log(v) for v in w if v > 0)))
        return out


def mp_entangling_rate(psi: PureState, H) -> float:
    """Gamma = i Tr(H_lift [rho_aAB, ln rho_aA ⊗ I_B]), H_lift = I_a ⊗ H_AB,
    from psi's float amplitudes and the float matrix of the operator H
    computed in MP_DIGITS digits: rho_aAB and rho_aA the Gram matrices of
    psi's reshapes, ln on the support of rho_aA (eigenvalues above RANK_TOL
    times the largest). Costs one eighe."""
    d_a, d_A, d_B, _ = psi.dims
    amplitudes = np.asarray(psi.amplitudes)
    with mpmath.workdps(MP_DIGITS):

        def gram(rows: int):
            M = _mp_matrix(amplitudes.reshape(rows, -1))
            return M * M.transpose_conj()

        rho_aAB, rho_aA = gram(d_a * d_A * d_B), gram(d_a * d_A)
        w, Q = mpmath.eighe(rho_aA)
        top = max(w)
        D = mpmath.diag([mpmath.log(v) if v > RANK_TOL * top else 0 for v in w])
        L = Q * D * Q.transpose_conj()
        N, h = rho_aAB.rows, d_A * d_B
        # ln rho_aA ⊗ I_B and I_a ⊗ H_AB, entry by entry.
        L_B, H_lift = mpmath.zeros(N, N), mpmath.zeros(N, N)
        for i in range(N):
            for j in range(N):
                if i % d_B == j % d_B:
                    L_B[i, j] = L[i // d_B, j // d_B]
                if i // h == j // h:
                    H_lift[i, j] = mpmath.mpc(complex(H.matrix[i % h, j % h]))
        C = (rho_aAB * L_B - L_B * rho_aAB) * mpmath.mpc(0, 1)
        T = H_lift * C
        return float(mpmath.re(sum(T[k, k] for k in range(N))))


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
        h_x = np.array([bloch(h) / 2.0 for h in H])
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
        h_x = bloch(h) / 2.0
        norm = float(np.linalg.norm(h_x))
        r_x = bloch(s.matrix)
        r += p * (rotate(r_x, h_x / norm, 2.0 * norm * t) if norm > 0 else r_x)
    R = float(np.linalg.norm(r))
    return shannon([(1.0 + R) / 2.0, (1.0 - R) / 2.0])


# --- Sampling and trials ------------------------------------------------------


def sample_density(dim: int, rng) -> np.ndarray:
    """A Hilbert-Schmidt-random state G G† / Tr(G G†), G Ginibre (real part,
    then imaginary part): the draws the program's samplers make."""
    g = rng.generator() if isinstance(rng, hz.RNGSpec) else rng
    G = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    rho = G @ G.conj().T
    return rho / np.real(np.trace(rho))


def run_trial(cfg, trial_id: int):
    """The record of one trial, evaluated as a chunk of one."""
    return hz.run_trials(cfg, [trial_id])[0]


# --- The ratio search, a block at a time ---------------------------------------


def climb_draws(k: int, n: int, dim: int, g):
    """The draws of one block of k candidates, in one flat call (per
    candidate: n Ginibre matrices, real part then imaginary part, then n
    probability noises): the spectra of their unit-norm Hamiltonians and the
    noises (k, n). A zero-norm H raises when the block is drawn."""
    m = 2 * n * dim * dim
    z = g.standard_normal(k * (m + n)).reshape(k, m + n)
    w, V, norms = sampling._unit_spectra(sampling._ginibre(z[:, :m].reshape(k, n, 2, dim, dim)))
    if not norms.all():
        raise Fault("a zero-norm Hamiltonian in a block of candidates")
    return w, V, z[:, m:]


def climb_objectives(sp: _Spectra, binary: bool) -> np.ndarray:
    """The ratios a climb compares: binary rate / h(p_0) if binary, else
    max_rate / S(p)."""
    if binary:
        p0 = sp.p[:, 0]
        return sp.binary_rate / _shannon(np.stack([p0, 1.0 - p0], axis=-1))
    return sp.max_rate / _shannon(sp.p)


def climb_block(cur: _Batch, V: np.ndarray, eps: float, k: int, g, binary: bool):
    """k candidates drawn from g and perturbed from the climb point cur
    (members' eigenvectors V) at step eps: the batch, their eigenvectors,
    max rates, general bounds and objectives."""
    p, w = cur.p[0], cur.w[0]
    hw, hV, noise = climb_draws(k, *w.shape, g)
    Vc = hm.reconstruct(np.exp(1j * eps * hw), hV) @ V
    q = np.log(p) + eps * noise
    q = np.exp(q - q.max(axis=-1, keepdims=True))
    q /= q.sum(axis=-1, keepdims=True)
    q = np.clip(q, hz.PROB_FLOOR, None)
    q /= q.sum(axis=-1, keepdims=True)
    _require_distribution(q)
    wc = np.full(Vc.shape[:-1], w)
    cand = _Batch(q, hm.hermitian_part(hm.reconstruct(wc, Vc)), wc)
    sp = _Spectra(cand)
    return cand, Vc, sp.max_rate, hz._general_bound(q), climb_objectives(sp, binary)


def search(cfg):
    """harness._search's record and reported batch, each block's draws made
    from stream 0 when the block runs, and restart k's start ensemble from
    stream k (restart 0's from stream 0, before any block's draws)."""
    g = hz.RNGSpec(cfg.seed, 0).generator()
    best, best_obj = None, -math.inf
    iters, error, restart = 0, None, 0
    try:
        while iters < cfg.search_max_iters:
            start = g if restart == 0 else hz.RNGSpec(cfg.seed, restart).generator()
            cur = hz._batch([hz._trial_draw(cfg, start)])
            restart += 1
            V = hm._eigh(cur.rhos[0]).eigenvectors
            cur_obj = climb_objectives(_Spectra(cur), cfg.binary)[0]
            eps, rejects = hz.SEARCH_STEP, 0
            while iters < cfg.search_max_iters and eps >= 1e-6:
                k = min(hz.SEARCH_BLOCK, cfg.search_max_iters - iters)
                cand, Vc, mx, bound, obj = climb_block(cur, V, eps, k, g, cfg.binary)
                over = mx > bound + hz.THEOREM_SLACK
                if over.any():
                    i = int(over.argmax())
                    iters += i + 1
                    best = cand.one(i)
                    raise BoundViolation(
                        f"max rate {float(mx[i])!r} exceeds the general bound {float(bound[i])!r}"
                    )
                iters += k
                j = int(obj.argmax())
                if obj[j] > cur_obj:
                    cur, V, cur_obj, rejects = cand.one(j), Vc[j], obj[j], 0
                else:
                    rejects += k
                    if rejects >= 20:
                        eps *= hz.SEARCH_SHRINK
                        rejects = 0
            if cur_obj > best_obj:
                best, best_obj = cur, cur_obj
    except BoundViolation as exc:
        error = f"{type(exc).__name__}: {exc}"
    (rec,) = hz.evaluate_batch(best, cfg, [0])
    if error is not None:
        rec = rec._replace(error=error)
    return rec._replace(iterations=iters), best


# --- States built from a spectrum ---------------------------------------------


def state_with_spectrum(w, V) -> DensityMatrix:
    """V diag(w) V† as a DensityMatrix record that holds w, not checked."""
    return DensityMatrix(hm.hermitian_part(hm.reconstruct(w, V)), w)


# --- The proof's identities -----------------------------------------------------


def ak_gap(A, B) -> tuple[np.ndarray, float]:
    """The two sides of the commutator/entropy functional for f = ln, for PSD
    A, B with A + B of full rank: the commutator i[B, ln(A+B)], symmetrized,
    whose trace norm is the left side, and F(a+b) - F(a) - F(b) for a = Tr A,
    b = Tr B and F(x) = x ln x - x, which reduces to
    (a+b) ln(a+b) - a ln a - b ln b (0 ln 0 := 0)."""
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise InputError("A and B must have equal dimensions")
    w, V = np.linalg.eigh(A + B)
    if w[0] <= RANK_TOL * w[-1]:
        raise InputError("A + B is rank-deficient beyond tolerance")
    L = (V * np.log(w)) @ V.conj().T
    C = 1j * (B @ L - L @ B)
    a, b = float(np.trace(A).real), float(np.trace(B).real)
    xlnx = [v * math.log(v) if v > 0 else 0.0 for v in (a + b, a, b)]
    return hermitian_part(C), xlnx[0] - xlnx[1] - xlnx[2]


def log_integral_check(x: float, upper_cutoff: float, n_points: int) -> float:
    """Quadrature estimate of ∫₀^cutoff (1/(1+t) − 1/(x+t)) dt.

    The integral converges to ln x as cutoff → ∞. The half-line is mapped to
    (0, 1) via t = u/(1−u) and integrated by the composite midpoint rule, so
    the truncation at `upper_cutoff` is the only systematic error for large
    `n_points`.
    """
    if x <= 0:
        raise InputError("log integral requires x > 0")
    if upper_cutoff <= 0 or n_points < 1:
        raise InputError("cutoff and n_points must be positive")
    u_max = upper_cutoff / (1.0 + upper_cutoff)
    h = u_max / n_points
    u = (np.arange(n_points) + 0.5) * h
    t = u / (1.0 - u)
    g = (1.0 / (1.0 + t) - 1.0 / (x + t)) / (1.0 - u) ** 2
    return float(np.sum(g) * h)
