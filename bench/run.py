"""mixrate benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify-small --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the
environment (cores, BLAS and its thread setting, numpy and Python
versions, seed). With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 its per-layer ones, each as
{"value": v, "unit": u}. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11
# Speed also differs a few percent from one process to the next, so an
# untraced run splits its time over this many workload processes.
TIMED_PROCESSES = 2
CHILD_TIMEOUT_S = 150
# One BLAS thread per process, so workers never oversubscribe the cores.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mixrate.cli; "
    "print(time.perf_counter() - t)"
)
# Import time swings +-20% between runs on small shared machines. Each probe
# is paired with this cold start, which runs no code of the program, and is
# scaled to the speed at which it takes IMPORT_REF_S (see calibrate.py).
IMPORT_REFERENCE = (
    "import time; t = time.perf_counter(); "
    "import numpy, json, argparse, dataclasses, concurrent.futures; "
    "print(time.perf_counter() - t)"
)
IMPORT_REF_S = 0.08


def workload_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("MIXRATE_WORKERS", None)  # it would override --workers
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def setup_seconds(env: dict, cwd: Path) -> tuple[float, float]:
    """Median time for a fresh interpreter to import mixrate.cli (bytecode
    warm), scaled to reference machine speed, and the unscaled median."""

    def probe(code: str) -> float:
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=cwd,
            capture_output=True, text=True, check=True, timeout=60,
        )
        return float(out.stdout)

    probe(IMPORT_PROBE)
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t = probe(IMPORT_PROBE)
        wall.append(t)
        scaled.append(t * IMPORT_REF_S / probe(IMPORT_REFERENCE))
    return statistics.median(scaled), statistics.median(wall)


def run_worker(args, seconds: float, env: dict, cwd: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace), "--src", str(SRC),
    ]
    # Own session, so the worker and its pool processes can be stopped together.
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def timed(args, env: dict, cwd: Path) -> dict:
    """End-to-end metrics from TIMED_PROCESSES workload processes in turn,
    then the set-up probes."""
    parts = [run_worker(args, args.seconds / TIMED_PROCESSES, env, cwd)
             for _ in range(TIMED_PROCESSES)]
    rates = [r for p in parts for r in p["rates"]]
    wall_rates = [r for p in parts for r in p["wall_rates"]]
    setup, wall_setup = setup_seconds(env, cwd)
    return {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "reference_samples": sum(p["reference_samples"] for p in parts),
        "metrics": {
            "items_per_s": statistics.median(rates),
            "setup_s": setup,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        },
        "env": dict(parts[0]["env"], batches=len(rates),
                    wall_items_per_s=statistics.median(wall_rates), wall_setup_s=wall_setup),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "mixrate" / "cli.py").is_file():
        print(f"no mixrate sources under {SRC}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = workload_env()
    cwd = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    cwd.mkdir(parents=True)
    try:
        if args.trace:
            res = run_worker(args, args.seconds, env, cwd)
        else:
            res = timed(args, env, cwd)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    produced, names = set(res["metrics"]), {m["name"] for m in wanted}
    if produced != names:
        print(f"metrics do not match BENCHMARK.json: {sorted(produced ^ names)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    env_line = dict(res["env"], seed=args.seed, workload=args.workload,
                    cores=os.cpu_count(), usable_cores=len(os.sched_getaffinity(0)))
    print(json.dumps({"env": env_line}))
    print(json.dumps({
        "correct": res["failed"] == 0 and res["reference_samples"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
