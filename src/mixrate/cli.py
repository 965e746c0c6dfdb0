"""Command-line interface.

Subcommands:
  compute  rates/bounds for an ensemble file (optionally with Hamiltonians)
  verify   seeded random trials with theorem guards, in at most
           min(--workers, chunks of trials, usable CPUs) processes
  scan     binary-ensemble sweep over a p grid with a point in (0, 1)
  search   hill-climb the rate/entropy ratio
  sie      entangling-to-mixing reduction for a pure state + Hamiltonian

Exit codes: 0 success, 1 usage or I/O error, 2 invariant/theorem-test
failure, 3 conjecture-ratio-exceeded event (the offending ensemble is
serialized into the working directory, conjecture_offender_*.json). On exit
2, verify, scan and search print one stderr line per failed record:
"trial <id>: " and the error, or the ratio_thm, fd_residual or STM failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import ensembles as ens
from . import entangling as ent
from . import harness as hz
from .errors import MixRateError
from .rates import rate_report

# After the package on purpose: loading multiprocessing before numpy and the
# package left a process 0.8 MB larger after import (CPython 3.11, x86-64 Linux).
from concurrent.futures import ProcessPoolExecutor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_CONJECTURE = 3


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _guard_trip(r: hz.TrialRecord) -> Optional[str]:
    """Why record r fails a theorem guard, or None if it passes them all."""
    if r.error is not None:
        return r.error
    if r.ratio_thm is not None and r.ratio_thm > 1.0 + hz.THEOREM_SLACK:
        return f"ratio_thm {r.ratio_thm!r} exceeds 1"
    if r.fd_residual > 1e-6:
        return f"fd_residual {r.fd_residual!r} exceeds 1e-6"
    return None if r.stm_ok else "entropy outside the STM bounds"


def guard_status(records: Sequence[hz.TrialRecord]) -> int:
    """Map a record batch to an exit code, saying on stderr why each failed
    record fails: theorem guards beat everything; a conjecture ratio above 1
    is a reportable event, not a failure."""
    status = EXIT_OK
    for r in records:
        trip = _guard_trip(r)
        if trip is not None:
            print(f"trial {r.trial_id}: {trip}", file=sys.stderr)
            status = EXIT_INVARIANT
        elif r.ratio_conj is not None and r.ratio_conj > 1.0 + hz.CONJECTURE_SLACK:
            status = status or EXIT_CONJECTURE
    return status


def _flag_conjecture_offenders(records, ensemble_of, path_of) -> None:
    """Serialize ensemble_of(r) to the file path_of(r) for every record r
    whose conjecture ratio exceeds 1 + CONJECTURE_SLACK."""
    for r in records:
        if r.ratio_conj is not None and r.ratio_conj > 1.0 + hz.CONJECTURE_SLACK:
            path = path_of(r)
            with open(path, "wb") as fh:
                fh.write(ens.serialize_ensemble(ensemble_of(r)))
            print(
                f"conjecture ratio {r.ratio_conj!r} > 1 at trial {r.trial_id}; "
                f"ensemble written to {path}",
                file=sys.stderr,
            )


def cmd_compute(args) -> int:
    text = _read(args.ensemble)
    if args.hamiltonians:
        E, listed = ens._parse_ensemble(text)
        H = ens._paired(ens.parse_hamiltonian_set(_read(args.hamiltonians)), listed)
    else:
        E, H = ens.parse_ensemble(text), None
    report = rate_report(E, H)
    _emit(report.to_json().decode("utf-8") + "\n", args.out)
    return EXIT_OK


def _openblas() -> Optional[ctypes.CDLL]:
    """The OpenBLAS that numpy's wheel bundles (in numpy.libs), or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            pass
    return None


def _pin_blas() -> None:
    """Pool worker initializer: one BLAS thread per worker, so that workers do
    not oversubscribe the cores; the parent keeps its threads. A no-op where
    numpy's OpenBLAS or its thread setter is missing."""
    setter = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def cmd_verify(args) -> int:
    cfg = hz.ExperimentConfig(
        dim=args.dim, n_states=args.states, n_trials=args.trials, seed=args.seed
    )
    if args.workers < 1:
        raise MixRateError(f"workers must be >= 1, got {args.workers}")
    # Chunks depend on (n_trials, dim) only, not on the worker count. The pool
    # forks all its workers up front, so it gets no more than chunks or CPUs.
    chunks = hz.trial_chunks(range(cfg.n_trials), cfg.dim)
    n_workers = min(args.workers, len(chunks), _cpus())
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers, initializer=_pin_blas) as pool:
            parts = list(pool.map(hz.run_trials, [cfg] * len(chunks), chunks))
    else:
        parts = [hz.run_trials(cfg, c) for c in chunks]
    records = [r for part in parts for r in part]
    _emit(hz.records_to_csv(records), args.out)
    status = guard_status(records)
    if status == EXIT_CONJECTURE:
        _flag_conjecture_offenders(
            records,
            lambda r: hz.trial_ensemble(cfg, r.trial_id),
            lambda r: f"conjecture_offender_trial{r.trial_id}.json",
        )
    return status


def _parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise MixRateError(f"bad p-grid {spec!r}, expected lo:hi:step") from exc
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or lo > hi:
        raise MixRateError(f"bad p-grid {spec!r}")
    span = (hi - lo) / step + 1e-9  # the last point may fall short of hi, never past it
    if not span < hz.MAX_TRIALS:  # also an infinite span, which floor refuses
        raise MixRateError(f"bad p-grid {spec!r}: more than {hz.MAX_TRIALS} points")
    n = math.floor(span)
    # Filter the rounded points: those are the values the scan runs.
    grid = [p for p in (round(lo + k * step, 12) for k in range(n + 1)) if 0.0 < p < 1.0]
    if not grid:
        raise MixRateError(f"bad p-grid {spec!r}: no point in (0, 1)")
    return grid


def cmd_scan(args) -> int:
    cfg = hz.ExperimentConfig(dim=args.dim, n_states=2, n_trials=args.trials, seed=args.seed)
    grid = _parse_grid(args.p_grid)
    records = hz.scan_binary(grid, cfg)
    _emit(hz.records_to_csv(records), args.out)
    # Per-p maxima of the monitored ratios.
    for pi, p in enumerate(grid):
        batch = records[pi * cfg.n_trials : (pi + 1) * cfg.n_trials]
        worst = max((r.ratio_conj or 0.0) for r in batch)
        print(f"p={p!r} max ratio_conj={worst!r}", file=sys.stderr)
    status = guard_status(records)
    if status == EXIT_CONJECTURE:
        _flag_conjecture_offenders(
            records,
            lambda r: hz.trial_ensemble(cfg, r.trial_id, r.probabilities[0]),
            lambda r: f"conjecture_offender_scan_trial{r.trial_id}.json",
        )
    return status


def cmd_search(args) -> int:
    cfg = hz.ExperimentConfig(
        dim=args.dim,
        n_states=args.states,
        seed=args.seed,
        search_max_iters=args.iters,
        binary=args.binary,
    )
    rec, reported = hz._search(cfg)
    _emit(hz.records_to_json([rec]) + "\n", args.out)
    status = guard_status([rec])
    if status == EXIT_CONJECTURE:
        _flag_conjecture_offenders(
            [rec],
            lambda r: ens._ensemble(reported, 0),
            lambda r: "conjecture_offender_search.json",
        )
    return status


def cmd_sie(args) -> int:
    psi = ent.parse_pure_state(_read(args.state))
    H = ent.parse_bipartite_operator(_read(args.ham))
    _, _, residual, gamma = ent.sie_to_sim(psi, H)
    d_B = psi.dims[2]
    points = ent.ste_check(psi, H, [0.5 * k for k in range(11)])
    print(f"entangling_rate={gamma!r}")
    print(f"binary_mixing_rate={d_B ** -2 * gamma!r} (expected via reduction)")
    print(f"reduction_residual={residual!r}")
    for pt in points:
        print(f"t={pt.t:.2f} entanglement={pt.entanglement!r} bound={pt.bound!r} ok={pt.ok}")
    ok = residual <= 1e-8 and all(pt.ok for pt in points)
    return EXIT_OK if ok else EXIT_INVARIANT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process: callers must not mutate it. Each subcommand's
    `fn` default is bound to its `cmd_*` function at that first build."""
    ap = argparse.ArgumentParser(prog="mixrate", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="rates and bounds for an ensemble file")
    c.add_argument("--ensemble", required=True)
    c.add_argument("--hamiltonians")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_compute)

    v = sub.add_parser("verify", help="seeded random trials with theorem guards")
    v.add_argument("--dim", type=int, required=True)
    v.add_argument("--states", type=int, required=True)
    v.add_argument("--trials", type=int, required=True)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--workers", type=int, default=1)
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("scan", help="binary sweep over a p grid")
    s.add_argument("--p-grid", required=True, help="lo:hi:step, e.g. 0.01:0.99:0.01")
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_scan)

    r = sub.add_parser("search", help="hill-climb the rate/entropy ratio")
    r.add_argument("--dim", type=int, required=True)
    r.add_argument("--states", type=int, default=2)
    r.add_argument("--iters", type=int, required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--binary", action="store_true")
    r.add_argument("--out")
    r.set_defaults(fn=cmd_search)

    e = sub.add_parser("sie", help="entangling-to-mixing reduction check")
    e.add_argument("--state", required=True)
    e.add_argument("--ham", required=True)
    e.set_defaults(fn=cmd_sie)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (MixRateError, OSError, ValueError) as exc:
        print(f"mixrate: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
