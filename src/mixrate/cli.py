"""Command-line interface.

Subcommands:
  compute  rates/bounds for an ensemble file (optionally with Hamiltonians)
  verify   seeded random trials with theorem guards, in at most
           min(--workers, chunks of trials, usable CPUs) processes
  scan     binary-ensemble sweep over a p grid with a point in (0, 1)
  search   hill-climb the rate/entropy ratio (--states >= 2; 2 with --binary)
  sie      entangling-to-mixing reduction for a pure state + Hamiltonian

All but sie write a report to --out or stdout. verify, scan and search
create --out after their argument checks, before any trial: a run those
checks refuse (exit 1) leaves no --out file. compute creates it once its
report is made, so --out may name an input, left as it was on an error.

Exit codes, the same in every command: 0 success; 1 input refused (a usage
error, a malformed or invalid input file, an I/O error); 2 fault (a
computed value failed a check, LAPACK failed, or a theorem bound broke);
3 conjecture-ratio-exceeded event (the offending ensemble is serialized
into the working directory, conjecture_offender_*.json). Exits 1 and 2
print one stderr line "mixrate: error: " and the error, except where
verify, scan and search exit 2 on their records: one line per failed
record, "trial <id>: " and the error, or the ratio_thm, fd_residual or STM
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import math
import os
import sys
from collections import deque
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import ensembles as ens
from . import harness as hz
from .errors import Fault, InputError
from .rates import rate_report

# Imported where first used, not here: the process pool (concurrent.futures,
# which pulls in multiprocessing) in _pool, and `entangling` in cmd_sie. Only
# a pooled verify and sie run them, and at import they cost every command
# about 25 ms of start-up (CPython 3.11, x86-64 Linux).

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_CONJECTURE = 3


def _output(out: Optional[str]):
    """The file out, created now, or stdout, as a context manager."""
    return open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)


def _guard_trip(r: hz.TrialRecord) -> Optional[str]:
    """Why record r fails a theorem guard, or None if it passes them all."""
    if r.error is not None:
        return r.error
    # `not x <= bound`, so that a NaN fails the guard.
    if r.ratio_thm is not None and not r.ratio_thm <= 1.0 + hz.THEOREM_SLACK:
        return f"ratio_thm {r.ratio_thm!r} exceeds 1"
    if not r.fd_residual <= 1e-6:
        return f"fd_residual {r.fd_residual!r} exceeds 1e-6"
    return None if r.stm_ok else "entropy outside the STM bounds"


def _conjecture_event(r: hz.TrialRecord) -> bool:
    return r.ratio_conj is not None and r.ratio_conj > 1.0 + hz.CONJECTURE_SLACK


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
        elif _conjecture_event(r):
            status = status or EXIT_CONJECTURE
    return status


def _flag_conjecture_offenders(records, ensemble_of, path_of) -> None:
    """Serialize ensemble_of(r) to the file path_of(r) for every record r
    whose conjecture ratio exceeds 1 + CONJECTURE_SLACK."""
    for r in records:
        if _conjecture_event(r):
            path = path_of(r)
            with open(path, "wb") as fh:
                fh.write(ens.serialize_ensemble(ensemble_of(r)))
            print(
                f"conjecture ratio {r.ratio_conj!r} > 1 at trial {r.trial_id}; "
                f"ensemble written to {path}",
                file=sys.stderr,
            )


def _conclude(records, ensemble_of, path_of) -> int:
    """guard_status(records), after _flag_conjecture_offenders on exit 3."""
    status = guard_status(records)
    if status == EXIT_CONJECTURE:
        _flag_conjecture_offenders(records, ensemble_of, path_of)
    return status


def cmd_compute(args) -> int:
    # The report is made before --out is created, so an ensemble that parses
    # but whose report fails leaves --out, which may name an input, as it was.
    E, listed = ens._parse_ensemble(Path(args.ensemble).read_bytes())
    H = None
    if args.hamiltonians:
        H = ens._paired(ens.parse_hamiltonian_set(Path(args.hamiltonians).read_bytes()), listed)
    text = rate_report(E, H).to_json().decode("utf-8") + "\n"
    with _output(args.out) as fh:
        fh.write(text)
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


def _pool(n_workers: int):
    """A process pool of n_workers workers, each with one BLAS thread (_pin_blas)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=n_workers, initializer=_pin_blas)


def _chunk_records(jobs, n_workers: int):
    """The records of hz.run_trials(*job) for each job, in job order: run in
    this process, or in a pool of n_workers processes that holds at most two
    chunks per worker in flight (Executor.map would submit every chunk at once)."""
    if n_workers == 1:
        for job in jobs:
            yield hz.run_trials(*job)
        return
    with _pool(n_workers) as pool:
        pending = deque()
        for job in jobs:
            pending.append(pool.submit(hz.run_trials, *job))
            if len(pending) == 2 * n_workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _report(jobs, n_workers: int, fh):
    """Write the CSV of the trials of jobs (see _chunk_records) to fh: each
    chunk's rows as the chunk completes, in trial order, after which the
    chunk's records are yielded."""
    fh.write(hz.CSV_HEADER + "\n")
    for records in _chunk_records(jobs, n_workers):
        fh.write(hz.records_to_csv(records, header=False))
        fh.flush()
        yield records


def _kept(records) -> list[hz.TrialRecord]:
    """The records _conclude acts on: the failed ones and the conjecture events."""
    return [r for r in records if _guard_trip(r) is not None or _conjecture_event(r)]


def cmd_verify(args) -> int:
    cfg = hz.ExperimentConfig(
        dim=args.dim, n_states=args.states, n_trials=args.trials, seed=args.seed
    )
    if args.workers < 1:
        raise InputError(f"workers must be >= 1, got {args.workers}")
    # Chunks depend on (n_trials, dim) only, not on the worker count. The pool
    # forks all its workers up front, so it gets no more than chunks or CPUs.
    n_chunks = len(range(0, cfg.n_trials, hz.chunk_size(cfg.dim)))
    n_workers = min(args.workers, n_chunks, _cpus())
    jobs = ((cfg, c) for c in hz.trial_chunks(range(cfg.n_trials), cfg.dim))
    with _output(args.out) as fh:
        kept = [r for records in _report(jobs, n_workers, fh) for r in _kept(records)]
    return _conclude(
        kept,
        lambda r: hz.trial_ensemble(cfg, r.trial_id),
        lambda r: f"conjecture_offender_trial{r.trial_id}.json",
    )


def _parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise InputError(f"bad p-grid {spec!r}, expected lo:hi:step") from exc
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or lo > hi:
        raise InputError(f"bad p-grid {spec!r}")
    span = (hi - lo) / step + 1e-9  # the last point may fall short of hi, never past it
    if not span < hz.MAX_TRIALS:  # also an infinite span, which floor refuses
        raise InputError(f"bad p-grid {spec!r}: more than {hz.MAX_TRIALS} points")
    n = math.floor(span)
    # Filter the rounded points: those are the values the scan runs.
    grid = [p for p in (round(lo + k * step, 12) for k in range(n + 1)) if 0.0 < p < 1.0]
    if not grid:
        raise InputError(f"bad p-grid {spec!r}: no point in (0, 1)")
    return grid


def cmd_scan(args) -> int:
    cfg = hz.ExperimentConfig(dim=args.dim, n_states=2, n_trials=args.trials, seed=args.seed)
    grid = _parse_grid(args.p_grid)
    jobs = hz.scan_jobs(grid, cfg)
    worst = {}  # grid index -> the max ratio_conj so far
    kept = []
    with _output(args.out) as fh:
        for records in _report(jobs, 1, fh):
            for r in records:
                pi, v = r.trial_id // cfg.n_trials, r.ratio_conj or 0.0
                worst[pi] = max(worst.get(pi, v), v)
            kept += _kept(records)
    # Per-p maxima of the monitored ratios.
    for p, w in zip(grid, worst.values()):
        print(f"p={p!r} max ratio_conj={w!r}", file=sys.stderr)
    return _conclude(
        kept,
        lambda r: hz.trial_ensemble(cfg, r.trial_id, r.probabilities[0]),
        lambda r: f"conjecture_offender_scan_trial{r.trial_id}.json",
    )


def cmd_search(args) -> int:
    cfg = hz.ExperimentConfig(
        dim=args.dim,
        n_states=args.states,
        seed=args.seed,
        search_max_iters=args.iters,
        binary=args.binary,
    )
    hz._check_search(cfg)  # before --out is created, as _search does not check cfg
    with _output(args.out) as fh:
        rec, reported = hz._search(cfg)
        fh.write(hz.records_to_json([rec]) + "\n")
    return _conclude(
        [rec], lambda r: ens._ensemble(reported, 0), lambda r: "conjecture_offender_search.json"
    )


def cmd_sie(args) -> int:
    from . import entangling as ent

    psi = ent.parse_pure_state(Path(args.state).read_bytes())
    H = ent.parse_bipartite_operator(Path(args.ham).read_bytes())
    residual, gamma = ent.sie_to_sim(psi, H)
    d_B = psi.dims[2]
    points = ent.ste_check(psi, H, [0.5 * k for k in range(11)])
    print(f"entangling_rate={gamma!r}")
    print(f"binary_mixing_rate={d_B ** -2 * gamma!r} (expected via reduction)")
    print(f"reduction_residual={residual!r}")
    for pt in points:
        print(f"t={pt.t:.2f} entanglement={pt.entanglement!r} bound={pt.bound!r} ok={pt.ok}")
    # `not <=`, so that a NaN residual fails.
    trips = [f"reduction_residual {residual!r} exceeds 1e-8"] if not residual <= 1e-8 else []
    over = [pt.t for pt in points if not pt.ok]
    if over:
        trips.append(f"entanglement above the STE bound at t={over[0]:.2f} ({len(over)} times)")
    if trips:
        raise Fault("; ".join(trips))  # after the report, which stays on stdout
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process: callers must not mutate it. Each subcommand's
    `fn` default is bound to its `cmd_*` function at that first build."""
    ap = argparse.ArgumentParser(
        prog="mixrate", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="rates and bounds for an ensemble file")
    c.add_argument("--ensemble", required=True)
    c.add_argument("--hamiltonians")
    c.set_defaults(fn=cmd_compute)

    v = sub.add_parser("verify", help="seeded random trials with theorem guards")
    v.add_argument("--dim", type=int, required=True)
    v.add_argument("--states", type=int, required=True)
    v.add_argument("--trials", type=int, required=True)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--workers", type=int, default=1)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("scan", help="binary sweep over a p grid")
    s.add_argument("--p-grid", required=True, help="lo:hi:step, e.g. 0.01:0.99:0.01")
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.set_defaults(fn=cmd_scan)

    r = sub.add_parser("search", help="hill-climb the rate/entropy ratio")
    r.add_argument("--dim", type=int, required=True)
    r.add_argument("--states", type=int, default=2)
    r.add_argument("--iters", type=int, required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--binary", action="store_true")
    r.set_defaults(fn=cmd_search)
    for writer in (c, v, s, r):  # the commands that write a report (_output)
        writer.add_argument("--out")

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
    except (InputError, Fault, OSError, ValueError) as exc:
        print(f"mixrate: error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT if isinstance(exc, Fault) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
