"""One workload process: runs batches of `mixrate.cli.main` and prints one
JSON object as its last stdout line.

Started by run.py with one BLAS thread, PYTHONPATH pointing at the
checkout's `src/`, and its own scratch directory as cwd.

--trace 0: batches run until --seconds have passed; every batch is timed
           and checked, and its items/s reported.
--trace 1: a fixed number of batches (so counts repeat exactly), each run
           untraced and traced; the traced pass uses one worker, since
           spans inside pool processes are not collected.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import calibrate
import workloads
from tracer import LAYERS, Tracer

MIN_BATCHES = 3
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_calls(cli, calls):
    """Run one batch; returns its wall seconds and (exit code, stdout, stderr) per call."""
    outs = []
    t0 = perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call.argv)
        outs.append((code, out.getvalue(), err.getvalue()))
    return perf_counter() - t0, outs


def check_calls(calls, outs) -> workloads.Outcome:
    total = workloads.Outcome()
    for call, (code, out, err) in zip(calls, outs):
        o = call.check(code, out)
        if o.failed:
            print(f"failed: mixrate {' '.join(call.argv)} -> exit {code}\n{err}", file=sys.stderr)
        total.add(o)
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed(cli, wl, seconds: float) -> dict:
    """Items/s of every batch, unscaled and scaled to reference speed by the
    calibration kernel timed just before and after the batch."""
    rates, wall_rates, attempted, total = [], [], 0, workloads.Outcome()
    cal = calibrate.Calibrator(wl.workers)
    try:
        deadline = perf_counter() + seconds
        k = workloads.WARM_BATCH + 1
        while len(rates) < MIN_BATCHES or perf_counter() < deadline:
            calls = wl.batch(k, wl.workers)
            before = cal.kernel_s()
            dt, outs = run_calls(cli, calls)
            speed = (before + cal.kernel_s()) / 2 / calibrate.KERNEL_REF_S
            items = sum(c.items for c in calls)
            wall_rates.append(items / dt)
            rates.append(items / dt * speed)
            attempted += items
            total.add(check_calls(calls, outs))
            k += 1
        rss = peak_rss_mb()  # before the calibration helpers are reaped
    finally:
        cal.close()
    return {
        "attempted": attempted,
        "failed": total.failed,
        "reference_samples": total.ref_samples,
        "rates": rates,
        "wall_rates": wall_rates,
        "peak_rss_mb": rss,
    }


def traced(cli, wl, seconds: float) -> dict:
    """Each batch runs untraced at the workload's worker count, untraced at
    one worker if that differs, and traced at one worker, one right after
    the other, so that all three passes see the same machine speed."""
    n_batches = max(1, round(wl.trace_batches * seconds / 10))
    passes = {"untraced": wl.workers, "untraced_w1": 1, "traced": 1}
    if wl.workers == 1:
        del passes["untraced_w1"]
    tr = Tracer()
    wall = dict.fromkeys(passes, 0.0)
    outcome = {name: workloads.Outcome() for name in passes}
    attempted = items = 0
    for k in range(workloads.WARM_BATCH + 1, workloads.WARM_BATCH + 1 + n_batches):
        for name, workers in passes.items():
            calls = wl.batch(k, workers)
            if name == "traced":
                tr.install()
            try:
                dt, outs = run_calls(cli, calls)
            finally:
                if name == "traced":
                    tr.uninstall()
            wall[name] += dt
            outcome[name].add(check_calls(calls, outs))
            attempted += sum(c.items for c in calls)
            if name == "traced":
                items += sum(c.items for c in calls)
    untraced_w1 = wall.get("untraced_w1", wall["untraced"])
    o = outcome["traced"]
    metrics = layer_metrics(tr, o, items, wall["traced"], untraced_w1, wall["untraced"], wl.workers)
    return {
        "attempted": attempted,
        "failed": sum(x.failed for x in outcome.values()),
        "reference_samples": o.ref_samples,
        "metrics": metrics,
    }


def layer_metrics(tr, o, items, traced_wall, untraced_w1, untraced_wall, workers) -> dict:
    ms = 1000.0 / items  # seconds over the traced pass -> ms per item
    overhead = traced_wall / untraced_w1
    s, c = tr.bucket_s, tr.calls
    trials = np.asarray(tr.durations["trial"]) * 1000.0
    p50, p99 = np.percentile(trials, [50, 99]) if trials.size else (0.0, 0.0)
    m = {
        "hermitian.eig_calls_per_item": c["eig"] / items,
        "hermitian.eig_ms_per_item": s["eig"] * ms,
        "hermitian.eig_share": s["eig"] / traced_wall,
        "ensembles.validations_per_item": c["validate"] / items,
        "ensembles.expected_state_calls_per_item": c["expected_state"] / items,
        "ensembles.validate_ms_per_item": s["validate"] * ms,
        "ensembles.evolve_ms_per_item": s["evolve"] * ms,
        "ensembles.entropy_ms_per_item": s["entropy"] * ms,
        "ensembles.parse_ms_per_item": s["parse"] * ms,
        "rates.max_rate_ms_per_item": s["max_rate"] * ms,
        "rates.fd_oracle_ms_per_item": s["fd_oracle"] * ms,
        "rates.stm_ms_per_item": s["stm"] * ms,
        "rates.mixing_rate_ms_per_item": s["mixing_rate"] * ms,
        "rates.rate_report_ms_per_item": s["rate_report"] * ms,
        "entangling.sie_ms_per_item": s["sie"] * ms,
        "entangling.rate_ms_per_item": s["ent_rate"] * ms,
        "entangling.ste_ms_per_item": s["ste"] * ms,
        "entangling.partial_trace_calls_per_item": c["partial_trace"] / items,
        "harness.sample_ms_per_item": s["sample"] * ms,
        "harness.trial_ms_p50": float(p50),
        "harness.trial_ms_p99": float(p99),
        "harness.trial_samples": int(trials.size),
        "harness.report_ms": s["report"] * ms,
        "harness.conjecture_events": o.conjecture_events,
        "harness.search_best_ratio": statistics.fmean(o.best_ratios) if o.best_ratios else 0.0,
        # Traced trial time, with the tracing cost taken out, per worker-second.
        "cli.parallel_efficiency": s["trial"] / overhead / (workers * untraced_wall),
        "trace.overhead_frac": overhead - 1.0,
        "trace.wall_ms_per_item": traced_wall * ms,
        "trace.accounted_frac": sum(tr.self_s.values()) / traced_wall,
        "check.max_rate_abs_err": o.ref_err_max,
        "check.fd_residual_max": o.fd_residual_max,
        "check.failed_frac": o.failed / items,
        "check.reference_samples": o.ref_samples,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_item"] = tr.self_s[layer] * ms
    return m


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    import mixrate
    from mixrate import cli

    src = os.path.realpath(args.src)
    if os.path.dirname(os.path.dirname(os.path.realpath(mixrate.__file__))) != src:
        print(f"mixrate imported from {mixrate.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed, os.getcwd())
    warm = wl.batch(workloads.WARM_BATCH, wl.workers)  # let lazy set-up and caches settle
    check_calls(warm, run_calls(cli, warm)[1])
    result = (traced if args.trace else timed)(cli, wl, args.seconds)
    result["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": {v: os.environ.get(v) for v in PIN_VARS},
        "workers": wl.workers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
