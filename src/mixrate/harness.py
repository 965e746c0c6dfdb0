"""Seeded sampling, trial execution, parameter scans, ratio search, reports.

Every random draw flows through an (seed, stream) pair: the stream index is
the trial id, so trials are reproducible in isolation and embarrassingly
parallel without any RNG coordination. Identical (seed, stream) pairs give
identical samples on any run of one build. A chunk of trials draws its
samples straight into arrays of the whole chunk, from streams that
`sampling` seeds in one pass once the chunk holds sampling.SEEDED_CHUNK
trials.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import hermitian as hm
from .ensembles import Ensemble, _Batch, _ensemble, _require_distribution, _shannon, _xlnx
from .errors import BoundViolation, Fault, InputError, MixRateError
from .rates import _evaluate, _general_bound, _Spectra
from .sampling import _climb_window, _states, streams

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
SEARCH_SHRINK = 0.5  # step factor once 20 candidates in a row are rejected
# Candidates per step of the search, drawn and evaluated in one stacked pass.
# Binary, d = 4, seeds 1-8, 1000 iterations (shared 2-core x86-64, one BLAS
# thread), median ms per iteration by block size: 1: 0.24, 4: 0.077, 8: 0.050,
# 16: 0.036. A larger block climbs less per iteration (median best ratio after
# 200 iterations: 0.508, 0.496, 0.468, 0.426) but more per second: 8 reaches
# 0.509 in 400 iterations (20 ms), 1 reaches 0.471 in 100 (24 ms).
SEARCH_BLOCK = 8
# A chunk of trials holds max(1, CHUNK_ENTRIES // d^2) of them: 128 at d = 4,
# 1 at d = 64. A chunk's sampling and stacked evaluation have a fixed cost
# whatever its size (run_trials at d = 4, n = 3, shared 2-core x86-64, one
# BLAS thread, best of 100: 528 us for 1 trial, 2420 us for 32, 8248 us for
# 128), so a trial costs 17% less in a chunk of 128 than in one of 32. No
# chunk holds more matrix entries than one d = 64 trial (tracemalloc peak at
# n = 3: 1.39 MB at d = 4, 2.37 MB at d = 64).
CHUNK_ENTRIES = 2048


class RNGSpec(NamedTuple):
    """Seed plus per-trial stream index; fully determines a random stream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream))


class ExperimentConfig(
    namedtuple(
        "ExperimentConfig",
        "dim n_states n_trials seed mode search_max_iters binary",
        defaults=(2, 2, 1, 0, "verify", 1000, False),
    )
):
    """Knobs for sampling and search, checked on construction (an unpickled
    config too); `_replace` and `_make` skip the checks.

    Nothing reads `mode`; it is validated and kept only because callers
    outside the package still pass it (the benchmark's search workload
    passes mode="search")."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 2 <= self.dim <= 64:
            raise InputError(f"dim {self.dim} outside supported range [2, 64]")
        if self.n_states < 1 or self.n_trials < 1:
            raise InputError("n_states and n_trials must be >= 1")
        if self.seed < 0:
            raise InputError(f"seed {self.seed} must be >= 0")
        if self.n_states > MAX_STATES:
            raise InputError(f"n_states {self.n_states} above the limit of {MAX_STATES}")
        if self.n_trials > MAX_TRIALS:
            raise InputError(f"n_trials {self.n_trials} above the limit of {MAX_TRIALS}")
        if self.search_max_iters < 1:
            raise InputError(f"search_max_iters {self.search_max_iters} must be >= 1")
        if self.mode not in {"verify", "scan", "search", "sie"}:
            raise InputError(f"unknown mode {self.mode!r}")
        return self


class TrialRecord(NamedTuple):
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


def _batch(draws) -> _Batch:
    """The validated batch of trial draws, each a pair of probabilities (n,)
    and the normals (n, 2, d, d) of n Ginibre matrices (see sampling._states)."""
    return _states(*(np.array(a) for a in zip(*draws)))


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


def _chunk_states(
    cfg: ExperimentConfig, trial_ids: Sequence[int], ps: Optional[Sequence[float]]
) -> _Batch:
    """The batch of a chunk's trials, each drawn from its (cfg.seed, trial id)
    stream as _trial_draw draws it alone, into arrays of the whole chunk: its
    exponentials, unless a scan fixes its probabilities at (p, 1 - p), then
    its normals. A trial whose probabilities fail the floor is drawn again
    through _trial_draw from a fresh generator of its stream. The normals
    and Ginibre matrices are freed on return, before the chunk is evaluated."""
    n = cfg.n_states if ps is None else 2
    p = np.empty((len(trial_ids), n)) if ps is None else np.array([[q, 1.0 - q] for q in ps])
    z = np.empty((len(trial_ids), n, 2, cfg.dim, cfg.dim))
    for k, g in enumerate(streams(cfg.seed, trial_ids)):
        if ps is None:
            g.standard_exponential(out=p[k])
        g.standard_normal(out=z[k])
    if ps is None:
        p /= p.sum(axis=1, keepdims=True)
        for k in np.flatnonzero(~np.all(p > PROB_FLOOR, axis=1)):
            p[k], z[k] = _trial_draw(cfg, RNGSpec(cfg.seed, trial_ids[k]).generator())
    return _states(p, z)


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
    return evaluate_batch(_chunk_states(cfg, trial_ids, ps), cfg, trial_ids)


def scan_jobs(p_grid: Sequence[float], cfg: ExperimentConfig) -> Iterator[tuple]:
    """A scan's run_trials arguments, chunk by chunk, made lazily once the
    grid is checked: cfg.n_trials trials at each p of p_grid in turn, trial
    i at p_grid[i // cfg.n_trials], under a binary copy of cfg."""
    if len(p_grid) * cfg.n_trials > MAX_TRIALS:
        raise InputError(
            f"{len(p_grid)} grid points x {cfg.n_trials} trials above the limit of {MAX_TRIALS}"
        )
    grid = [float(p) for p in p_grid]
    for p in grid:
        if not 0.0 < p < 1.0:
            raise InputError(f"p-grid values must lie in (0, 1), got {p!r}")
    binary = cfg._replace(binary=True)  # a scan is binary, whatever cfg says
    chunks = trial_chunks(range(len(grid) * cfg.n_trials), cfg.dim)
    return ((binary, c, [grid[i // cfg.n_trials] for i in c]) for c in chunks)


def scan_binary(p_grid: Sequence[float], cfg: ExperimentConfig) -> list[TrialRecord]:
    """Binary ensembles at each fixed p; records the binary bound and ratios.
    Trials are evaluated in trial_chunks across the grid."""
    return [r for job in scan_jobs(p_grid, cfg) for r in run_trials(*job)]


def _climb_block(
    cur: _Batch, logp: np.ndarray, V: np.ndarray, eps: float, draws, binary: bool
):
    """The candidates of one block of draws (`sampling._climb_window`),
    perturbed from the climb point `cur`, a batch of one whose members have
    the eigenvectors V (n, d, d) and whose probabilities have the logarithms
    logp (n,), at step eps, and their one stacked spectral pass: each member
    conjugated by exp(i eps H) for its candidate's unit-norm H (its
    eigenvalues kept), the log-probabilities nudged by eps times a normal.
    Returns the candidates as a batch of k, their members' eigenvectors
    (k, n, d, d), and their max rates, general bounds and objectives (k,)."""
    hw, hV, noise = draws
    Vc = hm.reconstruct(np.exp(1j * eps * hw), hV) @ V  # exp(i eps H) V
    q = logp + eps * noise
    q = np.exp(q - q.max(axis=-1, keepdims=True))
    q /= q.sum(axis=-1, keepdims=True)
    q = np.maximum(q, PROB_FLOOR)
    q /= q.sum(axis=-1, keepdims=True)
    _require_distribution(q)
    wc = np.full(Vc.shape[:-1], cur.w[0])  # a copy: np.broadcast_to's view costs more
    cand = _Batch(q, hm.hermitian_part(hm.reconstruct(wc, Vc)), wc)
    sp = _Spectra(cand)
    return cand, Vc, sp.max_rate, _general_bound(q), _objectives(sp, binary)


def _objectives(sp: _Spectra, binary: bool) -> np.ndarray:
    """The rate/entropy ratios (B,) the search climbs, of checked probabilities."""
    if binary:
        p0 = sp.p[:, 0]
        return sp.binary_rate / (0.0 - (_xlnx(p0) + _xlnx(1.0 - p0)))  # h(p0), as _shannon
    return sp.max_rate / _shannon(sp.p)


def _blocks_to_end(eps: float, rejects: int) -> int:
    """The fewest blocks a climb at step eps, with rejects candidates in a
    row rejected, runs before its step falls below 1e-6: every block
    rejected, each shrink after ceil((20 - rejects) / SEARCH_BLOCK) of
    them, and rejects 0 after it. An accepted move only delays the end."""
    blocks = 0
    while eps >= 1e-6:
        blocks += -(-(20 - rejects) // SEARCH_BLOCK)
        eps, rejects = eps * SEARCH_SHRINK, 0
    return blocks


def search_ratio(cfg: ExperimentConfig) -> TrialRecord:
    """Hill-climb the rate/entropy ratio by conjugating states and nudging
    probabilities; restarts from a fresh sample when the step collapses.

    The climb moves a block at a time: each step takes SEARCH_BLOCK
    candidates (fewer only when cfg.search_max_iters runs out), all
    perturbed from the current point at one step, evaluates them in one
    stacked pass, and moves to the best of them if it beats the current
    point; otherwise the block's candidates count as rejections, and the
    step shrinks once 20 or more in a row are rejected. Every evaluated
    candidate counts as an iteration. A fault in a block ends the search.
    The blocks' draws are made a window at a time, bit for bit as block by
    block: as many whole blocks as the climb surely runs (_blocks_to_end),
    --iters leaves, and CHUNK_ENTRIES matrix entries hold.

    The general rate bound is checked on every evaluated candidate, and a
    violation ends the search with the record of the block's first
    violator, its error set; the iterations count up to and including it.
    The conjectured bound itself is only recorded, never checked.
    """
    _check_search(cfg)
    return _search(cfg)[0]


def _check_search(cfg: ExperimentConfig) -> None:
    """Refuse a config the search cannot run, before any draw."""
    if cfg.n_states < 2:
        raise InputError(f"search needs n_states >= 2, got {cfg.n_states}")
    if cfg.binary and cfg.n_states != 2:
        raise InputError("binary search requires n_states = 2")


def _search(cfg: ExperimentConfig) -> tuple[TrialRecord, _Batch]:
    """search_ratio's record, and the ensemble it reports on as a batch of
    one: the best climb point, or the candidate that violated the bound.
    cfg must pass _check_search."""
    g = RNGSpec(cfg.seed, 0).generator()
    n, dim, iters_max = cfg.n_states, cfg.dim, cfg.search_max_iters
    cap = max(1, CHUNK_ENTRIES // (SEARCH_BLOCK * n * dim * dim))  # a window's blocks
    best, best_obj = None, -math.inf
    iters, error = 0, None
    try:
        while iters < iters_max:
            cur = _batch([_trial_draw(cfg, g)])
            V = hm._eigh(cur.rhos[0]).eigenvectors  # the bases the climb turns
            logp, cur_obj = np.log(cur.p[0]), _objectives(_Spectra(cur), cfg.binary)[0]
            eps, rejects, window = SEARCH_STEP, 0, iter(())
            while iters < iters_max and eps >= 1e-6:
                draws = next(window, None)
                if draws is None:  # a window ends before the climb can: no restart inside
                    left = iters_max - iters
                    blocks = min(_blocks_to_end(eps, rejects), -(-left // SEARCH_BLOCK), cap)
                    size = min(blocks * SEARCH_BLOCK, left)
                    window = _climb_window(size, SEARCH_BLOCK, n, dim, g)
                    draws = next(window)
                k = len(draws[2])
                cand, Vc, mx, bound, obj = _climb_block(cur, logp, V, eps, draws, cfg.binary)
                over = mx > bound + THEOREM_SLACK
                if over.any():
                    i = int(over.argmax())
                    iters += i + 1
                    best = cand.one(i)  # the record reports the violating candidate
                    raise BoundViolation(
                        f"max rate {float(mx[i])!r} exceeds the general bound {float(bound[i])!r}"
                    )
                iters += k
                j = int(obj.argmax())
                if obj[j] > cur_obj:
                    cur, V, cur_obj, rejects = cand.one(j), Vc[j], obj[j], 0
                    logp = np.log(cur.p[0])
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
    return rec._replace(error=error or rec.error, iterations=iters), best


CSV_HEADER = (
    "trial_id,seed,dim,n_states,probs,max_rate,binary_max_rate,bound_thm,"
    "shannon,ratio_thm,ratio_conj,fd_residual,stm_ok"
)


def _cell(v) -> str:
    """A CSV cell: "" for None, else str (a float's repr, which reads back exactly)."""
    return "" if v is None else str(v)


def _csv_row(r: TrialRecord) -> str:
    """A record's CSV line, one cell per CSV_HEADER column."""
    return (
        f"{r.trial_id},{r.seed},{r.dim},{r.n_states},{';'.join(map(str, r.probabilities))},"
        f"{r.max_rate},{_cell(r.binary_max_rate)},{r.bound_thm},{r.shannon},"
        f"{_cell(r.ratio_thm)},{_cell(r.ratio_conj)},{_cell(r.fd_residual)},"
        f"{'true' if r.stm_ok else 'false'}\n"
    )


def records_to_csv(records: Sequence[TrialRecord], header: bool = True) -> str:
    """CSV_HEADER unless header is false, then one line per record."""
    return (CSV_HEADER + "\n" if header else "") + "".join(map(_csv_row, records))


def records_to_json(records: Sequence[TrialRecord]) -> str:
    import json

    return json.dumps([r._asdict() for r in records], indent=2)

