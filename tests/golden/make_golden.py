"""The golden corpus: seeded outputs of every mixrate command, timing stripped.

    PYTHONPATH=src python tests/golden/make_golden.py [--only CASE ...]

runs each case of CASES through `mixrate.cli.main` in a scratch directory
and writes tests/golden/corpus.json. With --only, it runs just the named
cases and rewrites just their entries; every other entry stays byte for
byte as it was. tests/test_golden.py runs the same cases and compares them
with the corpus. The seeds and inputs are fixed: regenerate an entry only
for an intended change of results, and record that change.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).with_name("corpus.json")
INPUT_SEED = 20261018

CASES = {
    "verify_d4_n3": ["verify", "--dim", "4", "--states", "3", "--trials", "12", "--seed", "101"],
    "verify_d2_n2": ["verify", "--dim", "2", "--states", "2", "--trials", "12", "--seed", "102"],
    "scan": ["scan", "--p-grid", "0.1:0.9:0.2", "--dim", "3", "--trials", "3", "--seed", "103"],
    "search_binary": [
        "search", "--dim", "3", "--states", "2", "--iters", "200", "--seed", "104", "--binary",
    ],
    "search_n3": ["search", "--dim", "3", "--states", "3", "--iters", "200", "--seed", "105"],
    # Long climbs: the first restarts 5 times (it starts from trials 0 to 5),
    # the second runs 1000 iterations at n = 3.
    "search_binary_restarts": [
        "search", "--dim", "2", "--states", "2", "--iters", "4000", "--seed", "1", "--binary",
    ],
    "search_n3_long": ["search", "--dim", "3", "--states", "3", "--iters", "1000", "--seed", "7"],
    "compute_n2": ["compute", "--ensemble", "{ens_n2}"],
    "compute_n2_hams": ["compute", "--ensemble", "{ens_n2}", "--hamiltonians", "{hams_n2}"],
    "compute_n3": ["compute", "--ensemble", "{ens_n3}"],
    "compute_n3_hams": ["compute", "--ensemble", "{ens_n3}", "--hamiltonians", "{hams_n3}"],
    "sie_2322": ["sie", "--state", "{state_2322}", "--ham", "{op_2322}"],
    "sie_1422": ["sie", "--state", "{state_1422}", "--ham", "{op_1422}"],
}


def _matrix(M) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _ginibre(g, d: int) -> np.ndarray:
    return g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))


def _hermitian(g, d: int) -> np.ndarray:
    G = _ginibre(g, d)
    H = (G + G.conj().T) / 2
    return H / np.max(np.abs(np.linalg.eigvalsh(H)))


def write_inputs(directory: str) -> dict:
    """Seeded ensemble, Hamiltonian, pure-state and operator files, built with
    plain numpy; returns the placeholder -> path map used by CASES."""
    g = np.random.default_rng(INPUT_SEED)
    files = {}

    def put(name, obj):
        files[name] = os.path.join(directory, f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    def ensemble(tag, n, d):
        p = 0.1 + g.exponential(size=n)
        p = p / np.sum(p)
        states = []
        for _ in range(n):
            G = _ginibre(g, d)
            rho = G @ G.conj().T
            states.append(rho / np.trace(rho).real)
        put(f"ens_{tag}", {"dim": d, "probabilities": [float(x) for x in p],
                           "states": [_matrix(s) for s in states]})
        hams = [_matrix(_hermitian(g, d)) for _ in range(n)]
        put(f"hams_{tag}", {"dim": d, "hamiltonians": hams})

    def pure(dims):
        tag = "".join(map(str, dims))
        v = g.standard_normal(int(np.prod(dims))) + 1j * g.standard_normal(int(np.prod(dims)))
        v = v / np.linalg.norm(v)
        put(f"state_{tag}", {"dims": list(dims),
                             "amplitudes": [[float(z.real), float(z.imag)] for z in v]})
        put(f"op_{tag}", {"dims": [dims[1], dims[2]],
                          "hamiltonian": _matrix(_hermitian(g, dims[1] * dims[2]))})

    ensemble("n2", 2, 3)
    ensemble("n3", 3, 4)
    pure((2, 3, 2, 2))
    pure((1, 4, 2, 2))
    # The inputs of compare_outputs' LONG runs, drawn after the golden ones,
    # which keep their bytes.
    ensemble("n3_d16", 3, 16)
    pure((2, 4, 4, 2))
    return files


def _cell(key: str, text: str):
    if key == "probs":
        return [float(p) for p in text.split(";")]
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_csv(text: str) -> list:
    rows = csv.DictReader(io.StringIO(text))
    return [{k: _cell(k, v) for k, v in row.items()} for row in rows]


def _parse_sie(text: str) -> dict:
    out = {"points": []}
    for line in text.splitlines():
        if line.startswith("t="):
            pt = dict(kv.split("=", 1) for kv in line.split())
            out["points"].append({
                "t": pt["t"],
                "entanglement": float(pt["entanglement"]),
                "bound": float(pt["bound"]),
                "ok": pt["ok"] == "True",
            })
        else:
            key, val = line.split("=", 1)
            out[key] = float(val.split()[0])
    return out


def _parse(command: str, stdout: str):
    if command in ("verify", "scan"):
        return _parse_csv(stdout)
    if command == "search":
        (rec,) = json.loads(stdout)
        return rec
    if command == "compute":
        return json.loads(stdout)
    return _parse_sie(stdout)


def run_cases(names=None) -> dict:
    """Run the named cases (default: every case) in a fresh scratch
    directory; name -> {exit, output}."""
    from mixrate import cli

    cwd = os.getcwd()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        files = write_inputs(tmp)
        os.chdir(tmp)  # verify and scan drop offender files into the cwd
        try:
            for name in CASES if names is None else names:
                argv = [a.format(**files) for a in CASES[name]]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                out[name] = {"exit": code, "output": _parse(argv[0], stdout.getvalue())}
        finally:
            os.chdir(cwd)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Write the golden corpus.")
    ap.add_argument("--only", nargs="+", choices=sorted(CASES), metavar="CASE",
                    help="rewrite only these entries and keep the others as they are")
    args = ap.parse_args(argv)
    corpus = json.loads(CORPUS.read_text(encoding="utf-8")) if args.only else {}
    corpus.update(run_cases(args.only))
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
