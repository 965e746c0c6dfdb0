"""Mutation sweep: does the test suite catch each planted one-line fault?

Each mutant replaces one exact text, found once, in one file of the package:
most widen a tolerance or a slack, two break a formula, five drop a state
check, two break the search's windowed draws and one widens an argument
check of the config. For each mutant the checkout is copied to a temporary directory, the
mutant is applied to the copy (the working tree is never written), and
`pytest -x -q` runs there. An
unmutated copy runs first, since a suite that already fails would "kill"
every mutant. One line per mutant says killed, with the first failing test,
or survived. The exit status is 1 if any mutant survived.

    python tests/mutants.py

Cost: one suite run per mutant at most (a survivor runs all of it), plus
the unmutated run: about 5-10 minutes on a 2-core x86-64 machine.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
LEFT_OUT = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work", ".bench_build"
)
SUITE_TIMEOUT_S = 900
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


class Mutant(NamedTuple):
    path: str  # relative to the root of the checkout
    old: str  # occurs exactly once in path
    new: str
    reason: str


MUTANTS = [
    Mutant(
        "src/mixrate/rates.py", "CHECK_SLACK = 1e-9", "CHECK_SLACK = 1e-3",
        "STM and STE bound checks accept entropies 1e-3 past the bound",
    ),
    Mutant(
        "src/mixrate/rates.py", "upper = lower + shannon", "upper = lower + 2.0 * shannon",
        "STM upper bound avg + S(p) doubled to avg + 2 S(p)",
    ),
    Mutant(
        "src/mixrate/rates.py", "SUPPORT_LEAK_TOL = 1e-8", "SUPPORT_LEAK_TOL = 1e-2",
        "a member may leak 1e-2 off the support of rho",
    ),
    Mutant(
        "src/mixrate/ensembles.py", "PSD_TOL = 1e-10", "PSD_TOL = 1e-4",
        "states with eigenvalues down to -1e-4 accepted",
    ),
    Mutant(
        "src/mixrate/ensembles.py", "TRACE_TOL = 1e-10", "TRACE_TOL = 1e-4",
        "states with trace 1 +- 1e-4 accepted",
    ),
    Mutant(
        "src/mixrate/harness.py", "CONJECTURE_SLACK = 1e-6", "CONJECTURE_SLACK = 1e-3",
        "conjecture ratios up to 1 + 1e-3 are no event",
    ),
    Mutant(
        "src/mixrate/rates.py", "IMAG_TOL = 1e-9", "IMAG_TOL = 1e9",
        "rates with any imaginary part accepted",
    ),
    Mutant(
        "src/mixrate/harness.py", "THEOREM_SLACK = 1e-8", "THEOREM_SLACK = 1e-2",
        "theorem ratios up to 1 + 1e-2 pass the guard",
    ),
    Mutant(
        "src/mixrate/cli.py", "if not r.fd_residual <= 1e-6:", "if not r.fd_residual <= 1e-2:",
        "FD residuals up to 1e-2 pass the guard",
    ),
    Mutant(
        "src/mixrate/hermitian.py", "HERM_TOL = 1e-10", "HERM_TOL = 1e-4",
        "matrices 1e-4 from Hermitian accepted",
    ),
    Mutant(
        "src/mixrate/rates.py", "tol = RANK_TOL * np.maximum(", "tol = 1e-3 * np.maximum(",
        "maximizers take the sign +1 on eigenvalues of C_x down to -1e-3",
    ),
    Mutant(
        "src/mixrate/rates.py",
        "return (4.0 * ((S[2] - S[3]) / (2.0 * (h / 2.0))) - (S[0] - S[1]) / (2.0 * h)) / 3.0",
        "return (S[0] - S[1]) / (2.0 * h)",
        "FD oracle: one central difference in place of Richardson extrapolation",
    ),
    Mutant(
        "src/mixrate/rates.py", "w = _state_eigenvalues(w)", "w = w",
        "support logarithms (ln rho, and sie's ln rho_aA) skip the state check of their spectrum",
    ),
    Mutant(
        "src/mixrate/rates.py",
        "w_t = _state_eigenvalues(hm._eigvalsh(hm.hermitian_part(rho_t)))",
        "w_t = hm._eigvalsh(hm.hermitian_part(rho_t))",
        "state entropies (rho(t), and sie's rho_aA(t) envelope) skip the state check",
    ),
    Mutant(
        "src/mixrate/entangling.py", "row[:] = _state_eigenvalues(row)", "pass",
        "the reduction's computed states mu and rho_aAB skip the state check",
    ),
    Mutant(
        "src/mixrate/ensembles.py", "w = _state_eigenvalues(w, InputError)", "w = w",
        "a parsed ensemble's states skip the state check of their spectra",
    ),
    Mutant(
        "src/mixrate/entangling.py",
        "return PureState(_unit_rows(v[None], InputError)[0], dims)",
        "return PureState(v, dims)",
        "a parsed pure state skips the norm check and the renormalization",
    ),
    Mutant(
        "src/mixrate/harness.py",
        "min(_blocks_to_end(eps, rejects), ",
        "min(_blocks_to_end(eps, rejects) + 1, ",
        "a search window holds one block more than the climb surely runs, so it can span a restart",
    ),
    Mutant(
        "src/mixrate/sampling.py",
        "if not norms[s : s + block].all():",
        "if not norms.all():",
        "a zero-norm H anywhere in a search window raises as the window is drawn, at its first block",
    ),
    Mutant(
        "src/mixrate/harness.py", "if not 2 <= self.dim <= 64:", "if not 1 <= self.dim <= 64:",
        "ExperimentConfig accepts dim 1",
    ),
]


def first_failure(root: Path) -> Optional[str]:
    """The first failing test of `pytest -x` run on the checkout at root, or
    None if the suite passes."""
    extra = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + extra if extra else ""))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        run = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=SUITE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return f"(no result in {SUITE_TIMEOUT_S} s)"
    if run.returncode == 0:
        return None
    hit = FAILED.search(run.stdout)
    return hit.group(1) if hit else f"(pytest exit {run.returncode})"


def copy_with(m: Optional[Mutant], dest: Path) -> Path:
    """A copy of the checkout under dest, with mutant m applied if given."""
    root = dest / "checkout"
    shutil.copytree(ROOT, root, ignore=LEFT_OUT)
    if m is not None:
        target = root / m.path
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(m.old, m.new), encoding="utf-8")
    return root


def main() -> int:
    for m in MUTANTS:
        found = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if found != 1:
            print(f"{m.path}: {m.old!r} occurs {found} times, not once", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        failure = first_failure(copy_with(None, Path(tmp)))
    if failure is not None:
        print(f"the unmutated suite fails: {failure}", file=sys.stderr)
        return 2
    survivors = 0
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            failure = first_failure(copy_with(m, Path(tmp)))
        where = f"{Path(m.path).name}: {m.reason}"
        if failure is None:
            survivors += 1
            print(f"survived  {where}", flush=True)
        else:
            print(f"killed    {where}\n          by {failure}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
