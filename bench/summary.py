"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/summary.py --seeds 1 2 3 4 5 6 7 8 9 10 --out first.json
    python3 bench/summary.py --seeds 11 12 13 14 15 --against first.json
    python3 bench/summary.py --seeds 1 --trace 0 1      # every metric, with units

Every workload of BENCHMARK.json runs for its run_seconds. For each
workload and metric it prints the median, the quartiles, and the spread
(q3 - q1) / median. For end-to-end metrics it also prints the bound from
BENCHMARK.json and whether the spread stays below a third of it, and, with
--against, how far the median moved against an earlier set of runs in the
worse direction, as a share of that set's median. Runs are sequential, so
they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(now: float, before: float, better: str) -> float:
    change = (now - before) / before
    return -change if better == "higher" else change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    ap.add_argument("--out", help="write the raw values here as JSON")
    ap.add_argument("--against", help="raw values of an earlier summary to compare medians with")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before = json.loads(Path(args.against).read_text()) if args.against else {}

    raw, ok = {}, True
    for w in workloads:
        for trace in args.trace:
            values, failed, attempted = {}, 0, 0
            for seed in args.seeds:
                res = run_once(spec["command"], w, seed, seconds, trace)
                ok &= res["correct"]
                failed += res["failed"]
                attempted += res["attempted"]
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print(f"\n{w} (trace {trace}): {len(args.seeds)} runs, "
                  f"failed {failed} of {attempted} items")
            for name, vals in values.items():
                raw.setdefault(w, {})[name] = vals
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                line = (f"  {name:42s} {med:12.6g} {meta[name]['unit']:8s} "
                        f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}")
                if "bound" in meta[name]:
                    bound = meta[name]["bound"]
                    steady = spread < bound / 3
                    ok &= steady
                    line += f" bound {bound} {'steady' if steady else 'NOT STEADY'}"
                    if name in before.get(w, {}):
                        then = statistics.median(before[w][name])
                        worse = worse_by(med, then, meta[name]["better"])
                        ok &= worse <= bound
                        line += f" worse-by {worse:+.4f} {'ok' if worse <= bound else 'REGRESSED'}"
                print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    print("\nall runs correct and steady" if ok else "\nSOME CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
