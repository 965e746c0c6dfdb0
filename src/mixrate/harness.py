"""Seeded sampling, trial execution, parameter scans, ratio search, reports.

Every random draw flows through an (seed, stream) pair: the stream index is
the trial id, so trials are reproducible in isolation and embarrassingly
parallel without any RNG coordination. Identical (seed, stream) pairs give
identical samples on any run of one build.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import hermitian as hm
from .ensembles import (
    DensityMatrix,
    Ensemble,
    Hamiltonian,
    HamiltonianSet,
    binary_entropy,
    shannon_entropy,
    unitary_at,
)
from .errors import BoundViolation, DomainError, MixRateError
from .rates import (
    DEFAULT_RANK_TOL,
    _evaluate,
    _Spectra,
    bound_theorem_general,
)

PROB_FLOOR = 1e-6
CONJECTURE_SLACK = 1e-6
THEOREM_SLACK = 1e-8
SEARCH_STEP = 0.1  # the search's first perturbation size after each restart
SEARCH_SHRINK = 0.5  # step factor after 20 rejected candidates in a row


@dataclass(frozen=True)
class RNGSpec:
    """Seed plus per-trial stream index; fully determines a random stream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream))


def _gen(rng: Union[RNGSpec, np.random.Generator]) -> np.random.Generator:
    return rng.generator() if isinstance(rng, RNGSpec) else rng


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for sampling and search."""

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
    elapsed: float = 0.0
    error: Optional[str] = None
    iterations: Optional[int] = None


def sample_density(dim: int, rng: Union[RNGSpec, np.random.Generator]) -> DensityMatrix:
    """Hilbert-Schmidt-random state G G† / Tr(G G†) with Ginibre G."""
    g = _gen(rng)
    G = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    rho = G @ G.conj().T
    return DensityMatrix(rho / np.real(np.trace(rho)))


def sample_hamiltonian(dim: int, rng: Union[RNGSpec, np.random.Generator]) -> Hamiltonian:
    """Symmetrized Ginibre matrix rescaled to operator norm exactly 1."""
    g = _gen(rng)
    while True:  # norm 0 has measure zero, but keep the contract ||H|| = 1
        G = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
        w, V = hm.eig_hermitian((G + G.conj().T) / 2)
        norm = float(np.max(np.abs(w)))
        if norm > 0.0:
            return Hamiltonian.from_spectrum(w / norm, V, normalized=True)


def sample_hamiltonian_set(
    n: int, dim: int, rng: Union[RNGSpec, np.random.Generator]
) -> HamiltonianSet:
    g = _gen(rng)
    return HamiltonianSet([sample_hamiltonian(dim, g) for _ in range(n)])


def _sample_probs(n: int, g: np.random.Generator) -> np.ndarray:
    # Flat Dirichlet via normalized exponentials; resample until clear of the floor.
    while True:
        e = g.exponential(size=n)
        p = e / np.sum(e)
        if np.all(p > PROB_FLOOR):
            return p


def sample_ensemble(
    cfg: ExperimentConfig, rng: Union[RNGSpec, np.random.Generator]
) -> Ensemble:
    """cfg.n_states Hilbert-Schmidt states with flat-Dirichlet probabilities."""
    g = _gen(rng)
    p = _sample_probs(cfg.n_states, g)
    states = [sample_density(cfg.dim, g) for _ in range(cfg.n_states)]
    return Ensemble(p, states)


def evaluate_ensemble(
    E: Ensemble,
    cfg: ExperimentConfig,
    trial_id: int,
    binary_bounds: bool = False,
) -> TrialRecord:
    """Compute rates, bounds, ratios, fd residual and the STM check for E."""
    t0 = time.perf_counter()
    rec = TrialRecord(
        trial_id=trial_id,
        seed=cfg.seed,
        dim=E.dim,
        n_states=len(E),
        probabilities=tuple(float(p) for p in E.probabilities),
    )
    policy = "binary" if binary_bounds else "verify"
    try:
        r, rec.stm_ok = _evaluate(E, None, DEFAULT_RANK_TOL, policy)
        rec.max_rate, rec.binary_max_rate = r.max_rate, r.binary_max_rate
        rec.bound_thm, rec.shannon, rec.fd_residual = r.bound_thm, r.bound_conjecture, r.fd_residual
        rec.ratio_thm, rec.ratio_conj = r.ratio_thm, r.ratio_conjecture
    except MixRateError as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    rec.elapsed = time.perf_counter() - t0
    return rec


def trial_ensemble(cfg: ExperimentConfig, trial_id: int) -> Ensemble:
    """Regenerate the exact ensemble a trial saw (for offender serialization)."""
    return sample_ensemble(cfg, RNGSpec(cfg.seed, trial_id))


def run_trial(cfg: ExperimentConfig, trial_id: int) -> TrialRecord:
    """Sample an ensemble from (cfg.seed, trial_id) and evaluate it."""
    return evaluate_ensemble(trial_ensemble(cfg, trial_id), cfg, trial_id)


def scan_binary_ensemble(cfg: ExperimentConfig, trial_id: int, p: float) -> Ensemble:
    """The binary ensemble {(p, rho_1), (1 - p, rho_2)} of one scan trial."""
    g = RNGSpec(cfg.seed, trial_id).generator()
    return Ensemble([p, 1.0 - p], [sample_density(cfg.dim, g) for _ in range(2)])


def scan_binary(
    p_grid: Sequence[float], cfg: ExperimentConfig
) -> list[TrialRecord]:
    """Binary ensembles at each fixed p; records the binary bound and ratios."""
    records = []
    for pi, p in enumerate(p_grid):
        p = float(p)
        if not 0.0 < p < 1.0:
            raise DomainError(f"p-grid values must lie in (0, 1), got {p!r}")
        for j in range(cfg.n_trials):
            trial_id = pi * cfg.n_trials + j
            E = scan_binary_ensemble(cfg, trial_id, p)
            records.append(evaluate_ensemble(E, cfg, trial_id, binary_bounds=True))
    return records


def _perturb_states(E: Ensemble, eps: float, g: np.random.Generator) -> list[DensityMatrix]:
    """Conjugate each member by exp(i eps G) for a fresh unit-norm G."""
    return [s.conjugated(unitary_at(sample_hamiltonian(E.dim, g), -eps)) for s in E.states]


def _perturb_probs(p: np.ndarray, eps: float, g: np.random.Generator) -> np.ndarray:
    q = np.log(p) + eps * g.standard_normal(p.size)
    q = np.exp(q - np.max(q))
    q /= np.sum(q)
    q = np.clip(q, PROB_FLOOR, None)
    return q / np.sum(q)


def _search_objective(sp: _Spectra, cfg: ExperimentConfig) -> float:
    p = sp.E.probabilities
    if cfg.binary:
        return sp.binary_rate / binary_entropy(float(p[0]))
    return sp.max_rate / shannon_entropy(p)


def search_ratio(cfg: ExperimentConfig) -> TrialRecord:
    """Hill-climb the rate/entropy ratio by conjugating states and nudging
    probabilities; restarts from a fresh sample when the step collapses.

    The general rate bound is checked on every candidate, and a violation
    ends the search with that candidate's record, its error set. The
    conjectured bound itself is only recorded, never checked.
    """
    if cfg.binary and cfg.n_states != 2:
        raise DomainError("binary search requires n_states = 2")
    g = RNGSpec(cfg.seed, 0).generator()
    best_E: Optional[Ensemble] = None
    best_obj = -math.inf
    iters = 0
    try:
        while iters < cfg.search_max_iters:
            cur = sample_ensemble(cfg, g)
            cur_obj = _search_objective(_Spectra(cur, DEFAULT_RANK_TOL), cfg)
            eps = SEARCH_STEP
            rejects = 0
            while iters < cfg.search_max_iters and eps >= 1e-6:
                iters += 1
                states = _perturb_states(cur, eps, g)
                cand = Ensemble(_perturb_probs(cur.probabilities, eps, g), states)
                sp = _Spectra(cand, DEFAULT_RANK_TOL)
                bound = bound_theorem_general(cand.probabilities)
                if sp.max_rate > bound + THEOREM_SLACK:
                    raise BoundViolation(
                        f"max rate {sp.max_rate!r} exceeds the general bound {bound!r}"
                    )
                obj = _search_objective(sp, cfg)
                if obj > cur_obj:
                    cur, cur_obj, rejects = cand, obj, 0
                else:
                    rejects += 1
                    if rejects >= 20:
                        eps *= SEARCH_SHRINK
                        rejects = 0
            if cur_obj > best_obj:
                best_E, best_obj = cur, cur_obj
    except BoundViolation as exc:
        rec = evaluate_ensemble(cand, cfg, trial_id=0, binary_bounds=cfg.binary)
        rec.error = f"{type(exc).__name__}: {exc}"
    else:
        rec = evaluate_ensemble(best_E, cfg, trial_id=0, binary_bounds=cfg.binary)
    rec.iterations = iters
    return rec


CSV_HEADER = (
    "trial_id,seed,dim,n_states,probs,max_rate,binary_max_rate,bound_thm,"
    "shannon,ratio_thm,ratio_conj,fd_residual,stm_ok,elapsed"
)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ";".join(repr(float(p)) for p in v)
    return str(v)


def record_to_csv_row(rec: TrialRecord) -> str:
    """One CSV line, a cell per CSV_HEADER column ("probs" is `probabilities`)."""
    names = ("probabilities" if c == "probs" else c for c in CSV_HEADER.split(","))
    return ",".join(_csv_cell(getattr(rec, n)) for n in names)


def records_to_csv(records: Sequence[TrialRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(record_to_csv_row(r) for r in records)
    return "\n".join(lines) + "\n"


def records_to_json(records: Sequence[TrialRecord]) -> str:
    return json.dumps([asdict(r) for r in records], indent=2)

