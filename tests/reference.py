"""Plain reference implementations that the program is checked against.

`search_ratio` is the hill-climb as it ran before candidates were evaluated
in blocks: one candidate per iteration, each built as `Ensemble` and
`DensityMatrix` objects and evaluated through the public rate functions.
`mixrate.harness.search_ratio` must return the same record, field for field
(timing aside), for every configuration, including the errors.
"""

from __future__ import annotations

import math

import numpy as np

from mixrate import harness as hz
from mixrate.ensembles import Ensemble, binary_entropy, shannon_entropy, unitary_at
from mixrate.errors import BoundViolation, DomainError
from mixrate.rates import binary_max_rate, max_mixing_rate


def _perturb_states(E, eps, g):
    """Conjugate each member by exp(i eps H) for a fresh unit-norm H."""
    H = hz.sample_hamiltonian_set(len(E), E.dim, g)
    return [s.conjugated(unitary_at(h, -eps)) for s, h in zip(E.states, H.hams)]


def _perturb_probs(p, eps, g):
    q = np.log(p) + eps * g.standard_normal(p.size)
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
            cur = hz.sample_ensemble(cfg, g)
            cur_obj = _objective(cur, cfg.binary)
            eps, rejects = hz.SEARCH_STEP, 0
            while iters < cfg.search_max_iters and eps >= 1e-6:
                iters += 1
                states = _perturb_states(cur, eps, g)
                cand = Ensemble(_perturb_probs(cur.probabilities, eps, g), states)
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
        (rec,) = hz.evaluate_ensembles([cand], cfg, [0], binary_bounds=cfg.binary)
        rec.error = f"{type(exc).__name__}: {exc}"
    else:
        (rec,) = hz.evaluate_ensembles([best_E], cfg, [0], binary_bounds=cfg.binary)
    rec.iterations = iters
    return rec
