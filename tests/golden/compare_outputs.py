"""Run the golden commands and a few longer ones on two checkouts and compare
everything each run leaves behind.

    python tests/golden/compare_outputs.py --parent DIR --change DIR

Each DIR is a checkout of this repository; its `src/` is the PYTHONPATH of
its runs. Every argv of make_golden.CASES and of LONG runs as
`python -m mixrate.cli ARGV` with OPENBLAS_NUM_THREADS=1, reading the inputs
that make_golden.write_inputs writes, in a fresh empty working directory (the
same path for both checkouts, emptied between their runs). The exit code,
stdout, stderr and the sha256 of every file left in the working directory
must agree. Prints one line per argv and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from make_golden import CASES, write_inputs

# Runs long enough to cross chunk and pool boundaries: the first exits 3 and
# leaves 10 offender files. At 1000 states 22 of the 40 trials redraw their
# probabilities below the floor; the next run's seed spans three 32-bit words;
# the next sends chunks of one d = 64 trial through the pool; the next is the
# only search above d = 4. The last two read files, as CASES do: the spectral
# trajectory under given Hamiltonians at d = 16, and sie at dims (2, 4, 4, 2).
LONG = [
    "verify --dim 4 --states 3 --trials 2000 --seed 1",
    "verify --dim 4 --states 3 --trials 500 --seed 9 --workers 2",
    "verify --dim 64 --states 2 --trials 8 --seed 1 --workers 2",
    "verify --dim 16 --states 2 --trials 40 --seed 42",
    "scan --p-grid 0.01:0.99:0.07 --dim 4 --trials 20 --seed 3",
    "search --dim 4 --states 2 --binary --iters 1000 --seed 7",
    "search --dim 2 --states 3 --iters 500 --seed 2",
    "verify --dim 2 --states 1000 --trials 40 --seed 5",
    "verify --dim 4 --states 3 --trials 300 --seed 18446744073709551619",
    "verify --dim 64 --states 2 --trials 6 --seed 11 --workers 2",
    "search --dim 8 --states 3 --iters 2000 --seed 3",
    "compute --ensemble {ens_n3_d16} --hamiltonians {hams_n3_d16}",
    "sie --state {state_2442} --ham {op_2442}",
]


def run(checkout: Path, argv: list, cwd: Path) -> dict:
    """One run of argv on checkout in the empty directory cwd: its exit code,
    stdout, stderr and the sha256 of each file it left, by relative path."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "mixrate.cli", *argv], cwd=cwd, env=env, capture_output=True
    )
    files = {
        p.relative_to(cwd).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(cwd.rglob("*"))
        if p.is_file()
    }
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": files}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two checkouts' command outputs.")
    ap.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--change", type=Path, required=True, help="checkout under test")
    args = ap.parse_args(argv)
    checkouts = [args.parent.resolve(), args.change.resolve()]
    for c in checkouts:
        if not (c / "src" / "mixrate" / "cli.py").is_file():
            print(f"no mixrate sources under {c}", file=sys.stderr)
            return 2
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp, "inputs")
        inputs.mkdir()
        files = write_inputs(str(inputs))
        jobs = [(name, [a.format(**files) for a in case]) for name, case in CASES.items()]
        jobs += [(cmd, [a.format(**files) for a in cmd.split()]) for cmd in LONG]
        cwd = Path(tmp, "run")
        for label, job in jobs:
            results = []
            for checkout in checkouts:
                shutil.rmtree(cwd, ignore_errors=True)
                cwd.mkdir()
                results.append(run(checkout, job, cwd))
            parent, change = results
            diff = [k for k in parent if parent[k] != change[k]]
            differ += bool(diff)
            state = f"DIFF {','.join(diff)}" if diff else "same"
            print(f"{state}: exit {parent['exit']}, {len(parent['files'])} files: {label}")
    print(f"{len(jobs)} argvs, {differ} with differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
