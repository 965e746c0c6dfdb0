"""Static checks of the package source.

Runtime invariants raise typed MixRateErrors, so `src/mixrate` holds no
`assert` statement (asserts vanish under `python -O`). Every
eigendecomposition goes through `hermitian._lapack`, the one place that
types LAPACK errors and the one point that counts them: numpy's `eigh` and
`eigvalsh` appear only as the routine handed to `_lapack`. No public
function, method or constructor takes a parameter named with a leading
underscore: a private back door on the public API.
"""

import ast
from pathlib import Path

import mixrate

SRC = Path(mixrate.__file__).parent
EIG = {"eigh", "eigvalsh"}
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    # The routines handed to _lapack(f, A): the only allowed references.
    handed = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_lapack"
        and node.args
    }
    out = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Assert):
            out.append(f"{where}: assert statement")
        elif isinstance(node, ast.Attribute) and node.attr in EIG and id(node) not in handed:
            out.append(f"{where}: {node.attr} outside hermitian._lapack")
        elif isinstance(node, ast.Name) and node.id in EIG and id(node) not in handed:
            out.append(f"{where}: {node.id} outside hermitian._lapack")
        elif isinstance(node, ast.ImportFrom) and EIG & {a.name for a in node.names}:
            out.append(f"{where}: imports {sorted(EIG & {a.name for a in node.names})}")
    if path.name != "hermitian.py" and handed:
        out.append(f"{path.name}: calls _lapack outside hermitian")
    return out


def test_no_asserts_and_one_lapack_entry():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [v for f in files for v in _violations(f)]
    assert found == []


def test_scan_finds_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "def f(A):\n"
        "    assert A.ndim == 2\n"
        "    g = np.linalg.eigvalsh\n"
        "    return np.linalg.eigh(A), g(A), _lapack(np.linalg.eigh, A)\n"
    )
    kinds = [v.split(": ", 1)[1] for v in _violations(bad)]
    assert kinds == [
        "imports ['eigh']",
        "assert statement",
        "eigvalsh outside hermitian._lapack",
        "eigh outside hermitian._lapack",
        "calls _lapack outside hermitian",
    ]


def _private_parameters(path: Path) -> list[str]:
    """The parameters named _x of the public functions, public methods and
    constructors of public classes in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = [(f.name, f) for f in tree.body if isinstance(f, FUNCS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            defs += [(f"{cls.name}.{f.name}", f) for f in cls.body if isinstance(f, FUNCS)]
    out = []
    for name, f in defs:
        short = name.rsplit(".", 1)[-1]
        if short.startswith("_") and short != "__init__":
            continue
        a = f.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]
        out += [f"{path.name}:{f.lineno}: {name}({v.arg})" for v in params if v.arg.startswith("_")]
    return out


def test_no_private_parameters_on_the_public_api():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [v for f in files for v in _private_parameters(f)] == []


def test_parameter_scan_finds_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def rate(E, H, _ln_rho=None): pass\n"
        "def _helper(_x): pass\n"
        "class Batch:\n"
        "    def __init__(self, *, _fast=False): pass\n"
        "    def evaluate(self, **_opts): pass\n"
        "    def _step(self, _k): pass\n"
        "class _Hidden:\n"
        "    def run(self, _k): pass\n"
    )
    found = [v.split(": ", 1)[1] for v in _private_parameters(bad)]
    assert found == ["rate(_ln_rho)", "Batch.__init__(_fast)", "Batch.evaluate(_opts)"]
