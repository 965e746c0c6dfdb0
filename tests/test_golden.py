"""Seeded command outputs must match the committed golden corpus.

Tolerances (also stated in CHANGES.md):
  rates, bounds, ratios, entropies     |got - want| <= 1e-12 * max(1, |want|)
  fd_residual, reduction_residual      |got - want| <= 1e-9
  exit codes, ids, probabilities,
  stm_ok, iterations and every other
  non-float value                      exact
"""

import json
import math

import pytest

from golden.make_golden import CASES, CORPUS, run_cases
from mixrate.harness import ExperimentConfig, trial_ensemble
from reference import mismatches, qubit_record

REL_TOL = 1e-12
RESIDUAL_TOL = 1e-9
RESIDUALS = {"fd_residual", "reduction_residual"}
EXACT = {"probs", "probabilities", "trial_id", "seed", "dim", "n_states", "iterations"}


def _compare(got, want, key, path, errors):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            errors.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
            return
        for k in want:
            _compare(got[k], want[k], k, f"{path}.{k}", errors)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{path}: {got!r} != {want!r}")
            return
        if key in EXACT:
            if got != want:
                errors.append(f"{path}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, key, f"{path}[{i}]", errors)
    elif isinstance(want, float) and key not in EXACT:
        tol = RESIDUAL_TOL if key in RESIDUALS else REL_TOL * max(1.0, abs(want))
        if not (isinstance(got, float) and math.isfinite(got) and abs(got - want) <= tol):
            errors.append(f"{path}: {got!r} vs {want!r} (tol {tol:.1e})")
    elif type(got) is not type(want) or got != want:
        errors.append(f"{path}: {got!r} != {want!r}")


@pytest.fixture(scope="module")
def outputs():
    return run_cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_corpus(case, outputs):
    want = json.loads(CORPUS.read_text(encoding="utf-8"))[case]
    errors = []
    _compare(outputs[case], want, case, case, errors)
    assert not errors, "\n".join(errors[:20])


def test_verify_d2_n2_rows_match_the_qubit_closed_forms():
    # The corpus itself, against the Bloch-vector closed forms (no LAPACK):
    # each row's ensemble is regenerated from its (seed, trial id).
    argv = CASES["verify_d2_n2"]
    cfg = ExperimentConfig(dim=2, n_states=2, seed=int(argv[argv.index("--seed") + 1]))
    rows = json.loads(CORPUS.read_text(encoding="utf-8"))["verify_d2_n2"]["output"]
    assert len(rows) == 12
    for row in rows:
        want = qubit_record(trial_ensemble(cfg, row["trial_id"]), "verify")
        assert mismatches(row, want, REL_TOL) == []
