"""Seeded sampling, trial execution, parameter scans, ratio search, reports.

Every random draw flows through an (seed, stream) pair: the stream index is
the trial id, so trials are reproducible in isolation and embarrassingly
parallel without any RNG coordination. Identical (seed, stream) pairs give
identical samples on any run of one build.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from . import hermitian as hm
from .ensembles import (
    Ensemble,
    _Batch,
    _ensemble,
    _require_distribution,
    _sampled,
    binary_entropy,
    shannon_entropy,
)
from .errors import BoundViolation, DomainError, MixRateError
from .rates import _evaluate, _Spectra, bound_theorem_general

PROB_FLOOR = 1e-6
# _sample_probs redraws until every p_x > PROB_FLOOR. A flat Dirichlet draw
# passes with probability (1 - n PROB_FLOOR)^(n - 1), about exp(-n^2 1e-6):
# 0.37 at n = 1000, but exp(-25) at n = 5000, where sampling never ends.
MAX_STATES = 1000
# The most trials one command runs, and the most points of a scan's p grid;
# checked before anything is allocated for them.
MAX_TRIALS = 10**6
CONJECTURE_SLACK = 1e-6
THEOREM_SLACK = 1e-8
SEARCH_STEP = 0.1  # the search's first perturbation size after each restart
SEARCH_SHRINK = 0.5  # step factor after 20 rejected candidates in a row
# Candidates per stacked pass of the search. Binary, d = 4, median ms per
# iteration by block size: 1: 0.59, 2: 0.34, 4: 0.23, 6: 0.23, 8: 0.19,
# 12: 0.22, 16: 0.23 (20 - rejections caps a block anyway).
SEARCH_BLOCK = 8
# A chunk of trials holds max(1, CHUNK_ENTRIES // d^2) of them: 128 at d = 4,
# 1 at d = 64. A chunk's stacked evaluation has a fixed cost whatever its
# size (d = 4, n = 3, x86-64, one BLAS thread: 383 us for 1 trial, 1662 us
# for 32, 5852 us for 128), so verify at d = 4 ran 17% more trials per second
# than with 32-trial chunks. No chunk holds more matrix entries than one
# d = 64 trial (tracemalloc peak at n = 3: 1.41 MB at d = 4, 2.37 MB at d = 64).
CHUNK_ENTRIES = 2048


@dataclass(frozen=True)
class RNGSpec:
    """Seed plus per-trial stream index; fully determines a random stream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for sampling and search.

    Nothing reads `mode`; it is validated and kept only because callers
    outside the package still pass it (the benchmark's search workload
    passes mode="search")."""

    dim: int = 2
    n_states: int = 2
    n_trials: int = 1
    seed: int = 0
    mode: str = "verify"
    search_max_iters: int = 1000
    binary: bool = False

    def __post_init__(self):
        if not 2 <= self.dim <= 64:
            raise DomainError(f"dim {self.dim} outside supported range [2, 64]")
        if self.n_states < 1 or self.n_trials < 1:
            raise DomainError("n_states and n_trials must be >= 1")
        if self.seed < 0:
            raise DomainError(f"seed {self.seed} must be >= 0")
        if self.n_states > MAX_STATES:
            raise DomainError(f"n_states {self.n_states} above the limit of {MAX_STATES}")
        if self.n_trials > MAX_TRIALS:
            raise DomainError(f"n_trials {self.n_trials} above the limit of {MAX_TRIALS}")
        if self.search_max_iters < 1:
            raise DomainError(f"search_max_iters {self.search_max_iters} must be >= 1")
        if self.mode not in {"verify", "scan", "search", "sie"}:
            raise DomainError(f"unknown mode {self.mode!r}")


@dataclass
class TrialRecord:
    """Outcome of one sampled trial."""

    trial_id: int
    seed: int
    dim: int
    n_states: int
    probabilities: tuple[float, ...]
    max_rate: float = 0.0
    binary_max_rate: Optional[float] = None
    bound_thm: float = 0.0
    shannon: float = 0.0
    ratio_thm: Optional[float] = None
    ratio_conj: Optional[float] = None
    fd_residual: float = 0.0
    stm_ok: bool = True
    error: Optional[str] = None
    iterations: Optional[int] = None


def _ginibre(z: np.ndarray) -> np.ndarray:
    """Ginibre matrices (..., d, d) from standard normals z (..., 2, d, d) in
    the order they are drawn: each matrix's real part, then its imaginary part."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _batch(draws) -> _Batch:
    """The validated batch of trial draws, each a pair of probabilities (n,)
    and the normals (n, 2, d, d) of n Ginibre matrices G: the Hilbert-Schmidt
    states G G† / Tr(G G†) of all of them formed in one stacked product and
    one trace-divide, then checked together (`_sampled`)."""
    p, z = (np.array(a) for a in zip(*draws))
    G = _ginibre(z)
    rho = G @ G.conj().swapaxes(-1, -2)
    return _sampled(p, rho / np.real(np.trace(rho, axis1=-2, axis2=-1))[..., None, None])


def _unit_spectra(G: np.ndarray):
    """The spectra (w / ||H||, V) of H = (G + G†)/2 for a stack of Ginibre
    matrices G (..., d, d), in one stacked eigh, and the norms ||H|| (...);
    a zero norm leaves its w unscaled."""
    w, V = hm.eig_hermitian((G + G.conj().swapaxes(-1, -2)) / 2)
    norms = np.max(np.abs(w), axis=-1)
    return w / np.where(norms > 0.0, norms, 1.0)[..., None], V, norms


def _sample_probs(n: int, g: np.random.Generator) -> np.ndarray:
    # Flat Dirichlet via normalized exponentials; resample until clear of the floor.
    while True:
        e = g.exponential(size=n)
        p = e / np.sum(e)
        if np.all(p > PROB_FLOOR):
            return p


def _trial_draw(cfg: ExperimentConfig, g: np.random.Generator, p: Optional[float] = None):
    """A trial's draw: cfg.n_states probabilities, drawn unless a scan fixes
    them at (p, 1 - p), then the normals of one Ginibre matrix per member."""
    probs = _sample_probs(cfg.n_states, g) if p is None else [p, 1.0 - p]
    return probs, g.standard_normal((len(probs), 2, cfg.dim, cfg.dim))


def sample_ensemble(cfg: ExperimentConfig, rng: RNGSpec, p: Optional[float] = None) -> Ensemble:
    """cfg.n_states Hilbert-Schmidt states with flat-Dirichlet probabilities,
    or two with the probabilities (p, 1 - p)."""
    return _ensemble(_batch([_trial_draw(cfg, rng.generator(), p)]), 0)


def chunk_size(dim: int) -> int:
    """The trials of one chunk at dimension dim: max(1, CHUNK_ENTRIES // dim^2)."""
    return max(1, CHUNK_ENTRIES // dim**2)


def trial_chunks(ids: Sequence[int], dim: int) -> Iterator[Sequence[int]]:
    """ids split lazily into consecutive slices of chunk_size(dim) trials,
    the unit of stacked evaluation and of pool dispatch."""
    size = chunk_size(dim)
    return (ids[k : k + size] for k in range(0, len(ids), size))


def evaluate_batch(
    b: _Batch, cfg: ExperimentConfig, trial_ids: Sequence[int]
) -> list[TrialRecord]:
    """Rates, bounds, ratios, fd residual and the STM check of a chunk of
    ensembles, evaluated together under the "binary" ratio policy if
    cfg.binary, else "verify". If the chunk raises, each ensemble is
    evaluated again alone, so an error lands on its own record."""
    n, dim = b.w.shape[-2:]
    heads = [(i, cfg.seed, dim, n, tuple(p)) for i, p in zip(trial_ids, b.p.tolist())]
    try:
        _, *columns = _evaluate(b, None, "binary" if cfg.binary else "verify")
    except MixRateError as exc:
        if len(trial_ids) > 1:
            return [evaluate_batch(b.one(k), cfg, [i])[0] for k, i in enumerate(trial_ids)]
        return [TrialRecord(*heads[0], error=f"{type(exc).__name__}: {exc}")]
    return [TrialRecord(*head, *row) for head, row in zip(heads, zip(*columns))]


def trial_ensemble(cfg: ExperimentConfig, trial_id: int, p: Optional[float] = None) -> Ensemble:
    """Regenerate the exact ensemble a trial saw (for offender serialization);
    a scan trial at p gives its p."""
    return sample_ensemble(cfg, RNGSpec(cfg.seed, trial_id), p)


def run_trials(
    cfg: ExperimentConfig, trial_ids: Sequence[int], ps: Optional[Sequence[float]] = None
) -> list[TrialRecord]:
    """Sample the ensemble of each trial from (cfg.seed, trial id), with its
    probabilities fixed at (p, 1 - p) for the matching p of a scan's ps, and
    evaluate them as one chunk."""
    ps = [None] * len(trial_ids) if ps is None else ps
    gens = (RNGSpec(cfg.seed, i).generator() for i in trial_ids)
    # The draws stay unnamed, so that their normals are freed before the evaluation.
    b = _batch([_trial_draw(cfg, g, p) for g, p in zip(gens, ps)])
    return evaluate_batch(b, cfg, trial_ids)


def scan_jobs(p_grid: Sequence[float], cfg: ExperimentConfig) -> Iterator[tuple]:
    """A scan's run_trials arguments, chunk by chunk, made lazily once the
    grid is checked: cfg.n_trials trials at each p of p_grid in turn, trial
    i at p_grid[i // cfg.n_trials], under a binary copy of cfg."""
    if len(p_grid) * cfg.n_trials > MAX_TRIALS:
        raise DomainError(
            f"{len(p_grid)} grid points x {cfg.n_trials} trials above the limit of {MAX_TRIALS}"
        )
    grid = [float(p) for p in p_grid]
    for p in grid:
        if not 0.0 < p < 1.0:
            raise DomainError(f"p-grid values must lie in (0, 1), got {p!r}")
    binary = replace(cfg, binary=True)  # a scan is binary, whatever cfg says
    chunks = trial_chunks(range(len(grid) * cfg.n_trials), cfg.dim)
    return ((binary, c, [grid[i // cfg.n_trials] for i in c]) for c in chunks)


def scan_binary(p_grid: Sequence[float], cfg: ExperimentConfig) -> list[TrialRecord]:
    """Binary ensembles at each fixed p; records the binary bound and ratios.
    Trials are evaluated in trial_chunks across the grid."""
    return [r for job in scan_jobs(p_grid, cfg) for r in run_trials(*job)]


def _climb_draws(k: int, n: int, dim: int, g: np.random.Generator):
    """The draws of k candidates, in one flat call and in the serial order
    (per candidate: n Ginibre matrices, real part then imaginary part, then
    n probability noises): the spectra (k, n, d), (k, n, d, d) of their
    unit-norm Hamiltonians and the noises (k, n). A zero-norm H raises."""
    m = 2 * n * dim * dim
    z = g.standard_normal(k * (m + n)).reshape(k, m + n)
    w, V, norms = _unit_spectra(_ginibre(z[:, :m].reshape(k, n, 2, dim, dim)))
    if not norms.all():
        raise DomainError("a zero-norm Hamiltonian in a block of candidates")
    return w, V, z[:, m:]


def _climb_block(
    cur: _Batch, V: np.ndarray, eps: float, k: int, g: np.random.Generator, binary: bool
):
    """k candidates perturbed from the climb point `cur`, a batch of one
    whose members have the eigenvectors V (n, d, d), at step eps, and their
    one stacked spectral pass: each member conjugated by exp(i eps H) for a
    fresh unit-norm H (its eigenvalues kept), the log-probabilities nudged by
    eps times a normal. Returns the candidates as a batch of k, their
    members' eigenvectors (k, n, d, d), and their max rates, general bounds
    and objectives (k,)."""
    p, w = cur.p[0], cur.w[0]
    n, dim = w.shape
    hw, hV, noise = _climb_draws(k, n, dim, g)
    # exp(-i H t) at t = -eps, in the operation order of the serial
    # reference climb (tests/reference.py), which the climb matches bit for bit.
    t = -eps
    Vc = hm.reconstruct(np.exp(-1j * t * hw), hV) @ V
    q = np.log(p) + eps * noise
    q = np.exp(q - q.max(axis=-1, keepdims=True))
    q /= q.sum(axis=-1, keepdims=True)
    q = np.clip(q, PROB_FLOOR, None)
    q /= q.sum(axis=-1, keepdims=True)
    _require_distribution(q)
    wc = np.broadcast_to(w, Vc.shape[:-1])
    cand = _Batch(q, hm.hermitian_part(hm.reconstruct(wc, Vc)), wc)
    sp = _Spectra(cand)
    # broadcast_to: a bound given as one number holds for every candidate.
    bound = np.broadcast_to(bound_theorem_general(q), (k,))
    return cand, Vc, sp.max_rate, bound, _objectives(sp, binary)


def _objectives(sp: _Spectra, binary: bool) -> np.ndarray:
    """The rate/entropy ratios (B,) the search climbs."""
    if binary:
        return sp.binary_rate / binary_entropy(sp.p[:, 0])
    return sp.max_rate / shannon_entropy(sp.p)


def search_ratio(cfg: ExperimentConfig) -> TrialRecord:
    """Hill-climb the rate/entropy ratio by conjugating states and nudging
    probabilities; restarts from a fresh sample when the step collapses.

    Candidates are proposed in blocks of up to SEARCH_BLOCK, all perturbed
    from the current point at one step and evaluated in one stacked pass;
    the climb takes the first improving one and rewinds the generator to
    just after its draws. Every draw, decision and result is the one the
    serial climb (one candidate at a time) makes. A block that raises is run
    again one candidate at a time, so an error surfaces only where the
    serial climb meets it.

    The general rate bound is checked on every candidate the climb reaches,
    and a violation ends the search with that candidate's record, its error
    set. The conjectured bound itself is only recorded, never checked.
    """
    _check_search(cfg)
    return _search(cfg)[0]


def _check_search(cfg: ExperimentConfig) -> None:
    """Refuse a config the search cannot run, before any draw."""
    if cfg.n_states < 2:
        raise DomainError(f"search needs n_states >= 2, got {cfg.n_states}")
    if cfg.binary and cfg.n_states != 2:
        raise DomainError("binary search requires n_states = 2")


def _search(cfg: ExperimentConfig) -> tuple[TrialRecord, _Batch]:
    """search_ratio's record, and the ensemble it reports on as a batch of
    one: the best climb point, or the candidate that violated the bound.
    cfg must pass _check_search."""
    g = RNGSpec(cfg.seed, 0).generator()
    draws = cfg.n_states * (2 * cfg.dim**2 + 1)  # normals per candidate
    best, best_obj = None, -math.inf
    iters, error = 0, None
    try:
        while iters < cfg.search_max_iters:
            cur = _batch([_trial_draw(cfg, g)])
            V = hm.eig_hermitian(cur.rhos[0]).eigenvectors  # the bases the climb turns
            cur_obj = _objectives(_Spectra(cur), cfg.binary)[0]
            eps, rejects, retry = SEARCH_STEP, 0, False
            while iters < cfg.search_max_iters and eps >= 1e-6:
                k = 1 if retry else min(SEARCH_BLOCK, 20 - rejects, cfg.search_max_iters - iters)
                saved = g.bit_generator.state
                try:
                    cand, Vc, mx, bound, obj = _climb_block(cur, V, eps, k, g, cfg.binary)
                except MixRateError:
                    if k == 1:
                        raise
                    g.bit_generator.state, retry = saved, True
                    continue
                retry = False
                better = obj > cur_obj
                j = int(better.argmax()) if better.any() else k - 1
                over = mx[: j + 1] > bound[: j + 1] + THEOREM_SLACK
                if over.any():
                    i = int(over.argmax())
                    iters += i + 1
                    best = cand.one(i)  # the record reports the violating candidate
                    raise BoundViolation(
                        f"max rate {float(mx[i])!r} exceeds the general bound {float(bound[i])!r}"
                    )
                iters += j + 1
                if better[j]:
                    cur, V, cur_obj, rejects = cand.one(j), Vc[j], obj[j], 0
                    if j < k - 1:  # redraw what candidates 0..j drew
                        g.bit_generator.state = saved
                        g.standard_normal((j + 1) * draws)
                else:
                    rejects += k
                    if rejects >= 20:
                        eps *= SEARCH_SHRINK
                        rejects = 0
            if cur_obj > best_obj:
                best, best_obj = cur, cur_obj
    except BoundViolation as exc:
        error = f"{type(exc).__name__}: {exc}"
    (rec,) = evaluate_batch(best, cfg, [0])
    if error is not None:
        rec.error = error
    rec.iterations = iters
    return rec, best


CSV_HEADER = (
    "trial_id,seed,dim,n_states,probs,max_rate,binary_max_rate,bound_thm,"
    "shannon,ratio_thm,ratio_conj,fd_residual,stm_ok"
)


def _csv_cell(v) -> str:
    # str of a float is its repr: the shortest string that reads back exactly.
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ";".join(map(str, v))
    return str(v)


def records_to_csv(records: Sequence[TrialRecord], header: bool = True) -> str:
    """CSV_HEADER unless header is false, then one line per record: a cell
    for each of its leading fields, in order, one per CSV_HEADER column."""
    names = [f.name for f in fields(TrialRecord)][: CSV_HEADER.count(",") + 1]
    lines = [CSV_HEADER] if header else []
    lines.extend(",".join(_csv_cell(getattr(r, k)) for k in names) for r in records)
    return "".join(line + "\n" for line in lines)


def records_to_json(records: Sequence[TrialRecord]) -> str:
    return json.dumps([asdict(r) for r in records], indent=2)

