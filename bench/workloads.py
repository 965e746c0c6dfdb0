"""The benchmark's workloads: their inputs, their `mixrate` command lines, and
the checks applied to every output.

A workload is run as batches. A batch is a list of `Call`s, each one
`mixrate.cli.main(argv)` invocation plus the number of items it completes
and a check that turns its exit code and output into an `Outcome`. Batch k
always gets the same inputs for a given seed, so a fixed number of batches
gives exactly repeatable counts, and no two batches share inputs. Batch
WARM_BATCH is the untimed warm-up; measured batches start after it.

Why these four workloads is written up in README.md next to this file.
"""

from __future__ import annotations

import csv
import glob
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

THEOREM_SLACK = 1e-8
CONJECTURE_SLACK = 1e-6
FD_TOL = 1e-6
REF_TOL = 1e-9
SIE_TOL = 1e-8
STE_POINTS = 11  # `mixrate sie` checks t = 0, 0.5, ..., 5
OK_EXITS = (0, 3)
WARM_BATCH = 0


@dataclass
class Outcome:
    failed: int = 0
    conjecture_events: int = 0
    ref_err_max: float = 0.0
    ref_samples: int = 0
    fd_residual_max: float = 0.0
    best_ratios: list = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.failed += other.failed
        self.conjecture_events += other.conjecture_events
        self.ref_err_max = max(self.ref_err_max, other.ref_err_max)
        self.ref_samples += other.ref_samples
        self.fd_residual_max = max(self.fd_residual_max, other.fd_residual_max)
        self.best_ratios += other.best_ratios

    def reference(self, err: float) -> None:
        self.ref_samples += 1
        self.ref_err_max = max(self.ref_err_max, err)
        if not err <= REF_TOL:
            self.failed += 1


@dataclass
class Call:
    argv: list
    items: int
    check: Callable[[int, str], Outcome]  # (exit code, captured stdout) -> Outcome


def batch_seed(seed: int, k: int) -> int:
    return seed * 100_003 + k


def _num(cell: str):
    return float(cell) if cell != "" else None


class Verify:
    """`mixrate verify` at one (dim, states, workers); an item is one trial."""

    def __init__(self, seed, workdir, dim, states, workers, trials, trace_batches):
        self.seed, self.workdir = seed, workdir
        self.dim, self.states, self.workers, self.trials = dim, states, workers, trials
        self.trace_batches = trace_batches
        self.ref_per_batch = 2

    def batch(self, k: int, workers: int) -> list[Call]:
        bseed = batch_seed(self.seed, k)
        out = os.path.join(self.workdir, "verify.csv")
        argv = [
            "verify", "--dim", str(self.dim), "--states", str(self.states),
            "--trials", str(self.trials), "--seed", str(bseed),
            "--workers", str(workers), "--out", out,
        ]
        return [Call(argv, self.trials, lambda code, _: self._check(bseed, out, code))]

    def _check(self, bseed: int, out: str, code: int) -> Outcome:
        o = Outcome()
        # verify drops one offender file per conjecture event into its cwd.
        offenders = glob.glob(os.path.join(self.workdir, "conjecture_offender_trial*.json"))
        for path in offenders:
            os.unlink(path)
        o.conjecture_events = len(offenders)
        if code not in OK_EXITS or not os.path.exists(out):
            o.failed = self.trials
            return o
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))  # by header name, never by position
        os.unlink(out)
        events = 0
        for row in rows:
            ratio_thm, ratio_conj = _num(row["ratio_thm"]), _num(row["ratio_conj"])
            fd = float(row["fd_residual"])
            o.fd_residual_max = max(o.fd_residual_max, fd)
            if ratio_conj is not None and ratio_conj > 1.0 + CONJECTURE_SLACK:
                events += 1
            if (
                (ratio_thm is not None and ratio_thm > 1.0 + THEOREM_SLACK)
                or not fd <= FD_TOL
                or row["stm_ok"] != "true"
            ):
                o.failed += 1
        consistent = events == len(offenders) and (code == 3) == (events > 0)
        if len(rows) != self.trials or not consistent:
            o.failed = self.trials
            return o
        self._reference(o, bseed, {int(r["trial_id"]): r for r in rows})
        return o

    def _reference(self, o: Outcome, bseed: int, by_id: dict) -> None:
        from mixrate.harness import ExperimentConfig, trial_ensemble

        cfg = ExperimentConfig(
            dim=self.dim, n_states=self.states, n_trials=self.trials, seed=bseed
        )
        for tid in random.Random(bseed).sample(range(self.trials), self.ref_per_batch):
            row = by_id.get(tid)
            E = trial_ensemble(cfg, tid)
            probs = [float(p) for p in row["probs"].split(";")] if row else []
            if probs != [float(p) for p in E.probabilities]:
                o.reference(float("inf"))  # the report does not describe this trial
                continue
            terms = ref.max_rate_terms(E.probabilities, [s.matrix for s in E.states])
            err = ref.abs_err(float(row["max_rate"]), sum(terms))
            if self.states == 2:
                err = max(err, ref.abs_err(float(row["binary_max_rate"]), terms[0]))
            o.reference(err)


class SearchBinary:
    """`mixrate search --binary`; an item is one hill-climb iteration."""

    workers = 1

    def __init__(self, seed, workdir, iters, trace_batches):
        self.seed, self.workdir, self.iters = seed, workdir, iters
        self.trace_batches = trace_batches

    def batch(self, k: int, workers: int) -> list[Call]:
        bseed = batch_seed(self.seed, k)
        out = os.path.join(self.workdir, "search.json")
        argv = [
            "search", "--dim", "4", "--states", "2", "--binary",
            "--iters", str(self.iters), "--seed", str(bseed), "--out", out,
        ]
        return [Call(argv, self.iters, lambda code, _: self._check(bseed, out, code))]

    def _check(self, bseed: int, out: str, code: int) -> Outcome:
        o = Outcome()
        if code not in OK_EXITS or not os.path.exists(out):
            o.failed = self.iters
            return o
        with open(out, encoding="utf-8") as fh:
            (rec,) = json.load(fh)
        os.unlink(out)
        event = rec["ratio_conj"] > 1.0 + CONJECTURE_SLACK
        o.conjecture_events = int(event)
        o.fd_residual_max = rec["fd_residual"]
        o.best_ratios.append(rec["ratio_conj"])
        if (
            rec["error"] is not None
            or rec["iterations"] != self.iters
            or rec["ratio_thm"] > 1.0 + THEOREM_SLACK
            or not rec["fd_residual"] <= FD_TOL
            or not rec["stm_ok"]
            or (code == 3) != event
        ):
            o.failed = self.iters
            return o
        # The best ensemble is not in the report; check the ratios it implies,
        # and that the rate of a binary ensemble is half its max_rate.
        p0, rate = rec["probabilities"][0], rec["binary_max_rate"]
        err = max(
            ref.abs_err(rec["bound_thm"], ref.binary_bound(p0)),
            ref.abs_err(rec["ratio_thm"], rate / ref.binary_bound(p0)),
            ref.abs_err(rec["ratio_conj"], rate / ref.binary_entropy(p0)),
            ref.abs_err(2.0 * rate, rec["max_rate"]),
        )
        # The climb only keeps improvements, so the best ratio is at least that
        # of the seeded start ensemble, whose rate the reference recomputes.
        # This bounds the reported rate from below; the theorem guard above
        # bounds it from above.
        o.reference(max(err, self._start_ratio(bseed) - rec["ratio_conj"]))
        o.failed *= self.iters  # a wrong result fails every iteration behind it
        return o

    def _start_ratio(self, bseed: int) -> float:
        from mixrate.harness import ExperimentConfig, RNGSpec, sample_ensemble

        cfg = ExperimentConfig(
            dim=4, n_states=2, seed=bseed, mode="search",
            search_max_iters=self.iters, binary=True,
        )
        E = sample_ensemble(cfg, RNGSpec(bseed, 0))  # the climb's first draw
        p0 = float(E.probabilities[0])
        terms = ref.max_rate_terms(E.probabilities, [s.matrix for s in E.states])
        return terms[0] / ref.binary_entropy(p0)


def _matrix_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _ginibre(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _density(rng, d: int) -> np.ndarray:
    G = _ginibre(rng, d)
    rho = G @ G.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _hamiltonian(rng, d: int) -> np.ndarray:
    G = _ginibre(rng, d)
    H = (G + G.conj().T) / 2
    return H / np.max(np.abs(np.linalg.eigvalsh(H)))


class ComputeSie:
    """`mixrate compute` and `mixrate sie` on generated files; an item is one
    file pair. Each batch writes its own seeded files before it is timed, so
    the program sees only files and a timed run reads no file twice."""

    workers = 1
    ENSEMBLE_DIMS = (2, 4, 8, 16)
    ENSEMBLE_SIZES = (2, 3)
    PARTY_DIMS = ((2, 2, 2, 2), (2, 4, 2, 2), (2, 4, 4, 2), (1, 4, 2, 2))
    COPIES = 2  # of each shape per batch

    def __init__(self, seed, workdir, trace_batches):
        self.seed, self.workdir = seed, workdir
        self.trace_batches = trace_batches
        self.inputs = os.path.join(workdir, "inputs")

    def batch(self, k: int, workers: int) -> list[Call]:
        shutil.rmtree(self.inputs, ignore_errors=True)  # the previous batch's files
        os.makedirs(self.inputs)
        rng = np.random.default_rng((self.seed, k))
        calls = []
        for c in range(self.COPIES):
            for d in self.ENSEMBLE_DIMS:
                for n in self.ENSEMBLE_SIZES:
                    calls.append(self._compute_call(rng, f"c{c}d{d}n{n}", d, n))
            for dims in self.PARTY_DIMS:
                calls.append(self._sie_call(rng, f"c{c}s{''.join(map(str, dims))}", dims))
        return calls

    def _write(self, name: str, obj) -> str:
        path = os.path.join(self.inputs, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _compute_call(self, rng, tag: str, d: int, n: int) -> Call:
        p = 0.05 + rng.exponential(size=n)
        p = p / np.sum(p)
        states = [_density(rng, d) for _ in range(n)]
        hams = [_hamiltonian(rng, d) for _ in range(n)]
        ens = self._write(f"{tag}_ensemble.json", {
            "dim": d,
            "probabilities": [float(x) for x in p],
            "states": [_matrix_json(s) for s in states],
        })
        hm = self._write(f"{tag}_hams.json", {
            "dim": d, "hamiltonians": [_matrix_json(h) for h in hams],
        })
        terms = ref.max_rate_terms(p, states)
        want = {
            "max_rate": sum(terms),
            "binary_max_rate": terms[0] if n == 2 else None,
            "mixing_rate_at_H": ref.mixing_rate(p, states, hams),
        }
        out = os.path.join(self.workdir, f"{tag}_report.json")
        argv = ["compute", "--ensemble", ens, "--hamiltonians", hm, "--out", out]
        return Call(argv, 1, lambda code, _: self._check_compute(out, code, want))

    def _check_compute(self, out: str, code: int, want: dict) -> Outcome:
        o = Outcome()
        if code != 0 or not os.path.exists(out):
            o.failed = 1
            return o
        with open(out, encoding="utf-8") as fh:
            rep = json.load(fh)
        os.unlink(out)
        fd = rep["fd_residual"]
        if rep["ratio_conjecture"] is not None and rep["ratio_conjecture"] > 1.0 + CONJECTURE_SLACK:
            o.conjecture_events = 1
        if fd is None or not fd <= FD_TOL or not rep["ratio_thm"] <= 1.0 + THEOREM_SLACK:
            o.failed = 1
            return o
        o.fd_residual_max = fd
        if (want["binary_max_rate"] is None) != (rep["binary_max_rate"] is None):
            o.reference(float("inf"))
        else:
            o.reference(max(ref.abs_err(rep[k], v) for k, v in want.items() if v is not None))
        return o

    def _sie_call(self, rng, tag: str, dims) -> Call:
        v = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
        v = v / np.linalg.norm(v)
        H = _hamiltonian(rng, dims[1] * dims[2])
        st = self._write(f"{tag}_state.json", {
            "dims": list(dims), "amplitudes": [[float(z.real), float(z.imag)] for z in v],
        })
        op = self._write(f"{tag}_op.json", {"dims": [dims[1], dims[2]], "hamiltonian": _matrix_json(H)})
        want = ref.entangling_rate(v, dims, H)
        return Call(["sie", "--state", st, "--ham", op], 1,
                    lambda code, text: self._check_sie(code, text, want))

    def _check_sie(self, code: int, text: str, want: float) -> Outcome:
        o = Outcome()
        values, oks = {}, []
        for line in text.splitlines():
            if line.startswith("t="):
                oks.append(line.rsplit("ok=", 1)[-1] == "True")
            elif "=" in line:
                key, val = line.split("=", 1)
                values[key] = val.split()[0]
        try:
            residual = float(values["reduction_residual"])
            gamma = float(values["entangling_rate"])
        except (KeyError, ValueError):
            o.failed = 1
            return o
        if code != 0 or not residual <= SIE_TOL or len(oks) != STE_POINTS or not all(oks):
            o.failed = 1
            return o
        o.reference(ref.abs_err(gamma, want))
        return o


def make(name: str, seed: int, workdir: str):
    """The workload called `name`. `trace_batches` is the traced run's batch
    count per 10 s of --seconds, sized so that a traced run takes about
    --seconds on a 2-core x86-64 machine. Invocation sizes follow README.md."""
    if name == "verify-small":
        return Verify(seed, workdir, dim=4, states=3, workers=1, trials=100, trace_batches=5)
    if name == "verify-large":
        return Verify(seed, workdir, dim=64, states=2, workers=2, trials=32, trace_batches=2)
    if name == "search-binary":
        return SearchBinary(seed, workdir, iters=1000, trace_batches=3)
    if name == "compute-sie":
        return ComputeSie(seed, workdir, trace_batches=12)
    raise KeyError(name)
