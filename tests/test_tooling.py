"""Static checks of the package source.

Runtime invariants raise typed errors, so `src/mixrate` holds no `assert`
statement (asserts vanish under `python -O`). Every raise names one of the
two kinds of `errors.py`, `InputError` or `Fault`, or a subclass of one, or
a parameter that defaults to one of them: the kind is what the command line
maps to an exit code. Every
eigendecomposition goes through `hermitian._lapack`, the one place that
types LAPACK errors and the one point that counts them: numpy's `eigh` and
`eigvalsh` appear only as the routine handed to `_lapack`. A full
eigendecomposition (`hermitian.eig_hermitian`, or `hermitian._eigh` on the
interior path) is taken only at the call sites of EIGH_SITES, each of which
reads the eigenvectors; everywhere else the eigenvalues suffice. The checked
entries of `hermitian` are called only at the boundary, by the functions of
CHECK_SITES: where matrices are parsed or sampled, and in public functions.
The validating constructors (`DensityMatrix`, `Hamiltonian`, `Ensemble`,
`PureState`, `BipartiteOperator`) are called, or passed to a call, only by
the functions of CONSTRUCT_SITES: parsing, the way back from a batch to an
`Ensemble`, and one public function; matrices built inside stay arrays.
One function forms (M + M†)/2: `hermitian.hermitian_part`. Each spectral
job has one route (ROUTES): only `hermitian.support_log` and
`rates._support_logs` take a support logarithm from a spectrum, and only
`rates._entropies` and `ensembles._average_entropies` turn spectra into
entropies. No public function, method or constructor takes a parameter
named with a leading underscore: a private back door on the public API.
Every public top-level name of a module is reached: referenced by the
package itself, by an acceptance criterion or by the benchmark, not only
exported. The package root exports nothing but `__version__`: each name
has one import path, its module. Every backticked `module.name` in
README.md resolves. Only `sampling.streams` sets a generator's state
(`bit_generator.state`): every other draw reads its stream forward, never
rewound.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import mixrate

SRC = Path(mixrate.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
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


def _kinds() -> set[str]:
    """InputError, Fault and the classes of errors.py below them."""
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    kinds = {"InputError", "Fault"}
    for node in tree.body:  # a base class is defined before its subclasses
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) in kinds for b in node.bases):
            kinds.add(node.name)
    return kinds


def _unkinded_raises(path: Path, kinds: set[str]) -> list[str]:
    """The raises of one module whose exception is neither a class of kinds
    nor a parameter of an enclosing function that defaults to one; a bare
    re-raise passes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []

    def name(e) -> str:
        return getattr(e, "id", None) or getattr(e, "attr", None)

    def visit(node, allowed: set[str]) -> None:
        if isinstance(node, FUNCS):
            a = node.args
            pos = a.posonlyargs + a.args
            pairs = [*zip(pos[len(pos) - len(a.defaults):], a.defaults), *zip(a.kwonlyargs, a.kw_defaults)]
            allowed = allowed | {p.arg for p, d in pairs if d is not None and name(d) in kinds}
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if name(exc) not in allowed:
                out.append(f"{path.name}:{node.lineno}: raise {ast.unparse(exc)}")
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(tree, kinds)
    return out


def test_every_raise_names_a_kind():
    files = sorted(SRC.glob("*.py"))
    assert files and _kinds() >= {"InputError", "Fault", "BoundViolation"}
    assert [v for f in files for v in _unkinded_raises(f, _kinds())] == []


def test_raise_scan_finds_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import errors\n"
        "from .errors import BoundViolation, Fault, InputError, MixRateError\n"
        "def check(x, kind=Fault, *, other=ValueError):\n"
        "    if x:\n"
        "        raise kind('x')\n"
        "    if not x:\n"
        "        raise other('x')\n"
        "    raise errors.InputError('x')\n"
        "def parse(x):\n"
        "    try:\n"
        "        return int(x)\n"
        "    except ValueError:\n"
        "        raise\n"
        "    raise MixRateError(f'bad {x}')\n"
        "def climb(kind=errors.InputError):\n"
        "    def step():\n"
        "        raise kind\n"
        "    raise RuntimeError\n"
        "raise BoundViolation('x')\n"
        "raise kind('x')\n"
    )
    found = [v.split(": ", 1)[1] for v in _unkinded_raises(bad, _kinds())]
    assert found == ["raise other", "raise MixRateError", "raise RuntimeError", "raise kind"]


# Where a full eigendecomposition is taken (eig_hermitian, or _eigh on the
# interior path), as module.function, and what reads the eigenvectors there.
EIGH = {"eig_hermitian", "_eigh"}
EIGH_SITES = {
    "hermitian.eig_hermitian": "the checked entry, which returns them",
    "hermitian.support_log": "ln M, rebuilt on M's eigenvectors",
    "ensembles.DensityMatrix.__post_init__": "a parsed state's rebuild on its eigenvectors",
    "rates._support_logs": "ln rho, rebuilt on rho's eigenvectors",
    "rates._Spectra.__init__": "the maximizers I - 2 P_neg of the commutators",
    "rates._evaluate": "the spectral trajectory, in a given Hamiltonian's eigenbasis",
    "harness._unit_spectra": "the search's unitaries exp(i eps H)",
    "harness._search": "the restart's eigenbases, which the climb turns",
    "entangling._entanglement_trajectory": "Psi(t), evolved in H's eigenbasis",
}

# The checked entries of hermitian (finite entries and Hermiticity residual),
# and the only functions that call them, with what makes each a boundary.
# Matrices built inside from checked inputs take _eigh, _eigvalsh and
# hermitian_part instead.
CHECKED = {"require_hermitian", "eig_hermitian", "eigvals_hermitian"}
CHECK_SITES = {
    "hermitian.eig_hermitian": "public API",
    "hermitian.eigvals_hermitian": "public API",
    "hermitian.support_log": "public API",
    "hermitian.trace_norm": "public API",
    "ensembles.DensityMatrix.__post_init__": "parse: a state file's matrices, or a caller's",
    "ensembles.Hamiltonian.__post_init__": "parse: a Hamiltonian file's matrices, or a caller's",
    "ensembles._sampled": "sample: the Hilbert-Schmidt states of Ginibre draws",
}


# The validating constructors, and the only functions that call one or pass
# one to a call, with what makes each a boundary. An annotation or a base
# class names the type without building one, and does not count.
CONSTRUCTORS = {"DensityMatrix", "Hamiltonian", "Ensemble", "PureState", "BipartiteOperator"}
CONSTRUCT_SITES = {
    "ensembles._parse_ensemble": "parse: an ensemble file's states and probabilities",
    "ensembles.parse_hamiltonian_set": "parse: a Hamiltonian file's matrices",
    "ensembles._ensemble": "out: a batch entry as an Ensemble, its arrays not checked again",
    "entangling.parse_pure_state": "parse: a pure-state file",
    "entangling.parse_bipartite_operator": "parse: an interaction-operator file",
    "rates.optimal_hamiltonians": "public API: the maximizers, returned as Hamiltonians",
}


def _named(names: set[str]):
    """Whether a node references one of names; an import of one counts as a
    reference (`from .hermitian import eig_hermitian as f`)."""
    return lambda node: (
        (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.alias) and node.name in names)
    )


def _symmetrizer(node) -> bool:
    """Whether a node is (X + X†)/2, in either order of the sum, with X†
    spelled as X.conj().swapaxes(-1, -2) or one of its equivalents."""
    if not (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Add)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
    ):
        return False
    a, b = ast.unparse(node.left.left), ast.unparse(node.left.right)
    adjoints = (
        "{}.conj().swapaxes(-1, -2)", "{}.swapaxes(-1, -2).conj()",
        "np.conjugate({}.swapaxes(-1, -2))", "{}.conj().T", "{}.T.conj()",
    )
    return any(b == f.format(a) or a == f.format(b) for f in adjoints)


def _sites(path: Path, hit) -> set[str]:
    """module.function (module.Class.method) of every node of one module for
    which hit(node) holds; a def is not a reference to its own name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sites = set()

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, *FUNCS)):
                visit(child, f"{where}.{child.name}")
                continue
            if hit(child):
                sites.add(where)
            visit(child, where)

    visit(tree, path.stem)
    return sites


def _constructs(node) -> bool:
    """Whether a node is a call of a validating constructor, or a call that
    passes one as an argument (`_parse_members(raw, d, "state", DensityMatrix)`)."""
    named = _named(CONSTRUCTORS)
    return isinstance(node, ast.Call) and any(
        named(n) for n in (node.func, *node.args, *(k.value for k in node.keywords))
    )


def test_eigh_only_where_eigenvectors_are_read():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert set().union(*(_sites(f, _named(EIGH)) for f in files)) == set(EIGH_SITES)


def test_checks_only_at_the_boundary():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert set().union(*(_sites(f, _named(CHECKED)) for f in files)) == set(CHECK_SITES)


def test_constructors_only_at_the_boundary():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert set().union(*(_sites(f, _constructs) for f in files)) == set(CONSTRUCT_SITES)


def test_one_symmetrizer():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert set().union(*(_sites(f, _symmetrizer) for f in files)) <= {"hermitian.hermitian_part"}


# One route per spectral job: each kernel, and the only functions that call
# it. A module that holds one of them may also import the kernel at its top.
ROUTES = {
    "log_on_support": {"hermitian.support_log", "rates._support_logs"},
    "_entropy_from_eigenvalues": {"rates._entropies", "ensembles._average_entropies"},
}


def _off_route(files: list[Path]) -> list[str]:
    """The sites of files that reference a kernel of ROUTES outside its route."""
    out = []
    for kernel, callers in ROUTES.items():
        allowed = callers | {c.split(".")[0] for c in callers}
        sites = set().union(*(_sites(f, _named({kernel})) for f in files))
        out += [f"{site}: {kernel}" for site in sorted(sites - allowed)]
    return out


def test_one_route_per_spectral_job():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert _off_route(files) == []


def test_route_scan_finds_what_it_forbids(tmp_path):
    rates_twin, entangling_twin = tmp_path / "rates.py", tmp_path / "entangling.py"
    rates_twin.write_text(
        "from . import hermitian as hm\n"
        "from .ensembles import _entropy_from_eigenvalues\n"
        "def _support_logs(p, rhos):\n"
        "    return hm.log_on_support(hm._eigh(rhos))\n"
        "def _entropies(rho_t):\n"
        "    return _entropy_from_eigenvalues(hm._eigvalsh(rho_t))\n"
        "def ak_gap(A, B):\n"
        "    return hm.log_on_support(hm.eig_hermitian(A + B))\n"
    )
    entangling_twin.write_text(
        "from . import hermitian as hm\n"
        "from .ensembles import _entropy_from_eigenvalues\n"
        "def _entanglement_trajectory(rho_aA):\n"
        "    return _entropy_from_eigenvalues(hm._eigvalsh(rho_aA))\n"
        "class Rate:\n"
        "    def log(self, rho):\n"
        "        return hm.log_on_support(hm._eigh(rho))[0]\n"
    )
    assert _off_route([rates_twin, entangling_twin]) == [
        "entangling.Rate.log: log_on_support",
        "rates.ak_gap: log_on_support",
        "entangling: _entropy_from_eigenvalues",
        "entangling._entanglement_trajectory: _entropy_from_eigenvalues",
    ]


def test_eigh_scan_finds_what_it_forbids(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "from . import hermitian as hm\n"
        "from .hermitian import eig_hermitian\n"
        "def spectrum(A):\n"
        "    return hm.eig_hermitian(A).eigenvalues\n"
        "class Pass:\n"
        "    def run(self, A):\n"
        "        f = eig_hermitian\n"
        "        return hm.eigvals_hermitian(A), f(A)\n"
        "def interior(A):\n"
        "    return hm._eigh(A), hm._eigvalsh(A)\n"
        "def eig_hermitian(M): pass\n"
    )
    assert _sites(bad, _named(EIGH)) == {"mod", "mod.spectrum", "mod.Pass.run", "mod.interior"}


def test_check_scan_finds_what_it_forbids(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "from . import hermitian as hm\n"
        "from .hermitian import require_hermitian as rh\n"
        "def rebuild(A):\n"
        "    return hm.require_hermitian(A)\n"
        "class Pass:\n"
        "    def run(self, A):\n"
        "        return hm.eigvals_hermitian(A), hm._eigvalsh(hm.hermitian_part(A))\n"
        "def interior(A):\n"
        "    return hm._eigh(A)\n"
        "def norm(A):\n"
        "    return rh(A)\n"
    )
    assert _sites(bad, _named(CHECKED)) == {"mod", "mod.rebuild", "mod.Pass.run"}


def test_construct_scan_finds_what_it_forbids(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import numpy as np\n"
        "from . import ensembles as ens\n"
        "from .ensembles import DensityMatrix, Ensemble\n"
        "ZERO = ens.Hamiltonian(np.zeros((2, 2)))\n"
        "class Lifted(ens.Hamiltonian):\n"
        "    dims: tuple = (1, 1)\n"
        "def annotated(E: Ensemble) -> DensityMatrix:\n"
        "    return E.states[0]\n"
        "def build(A):\n"
        "    return DensityMatrix(A)\n"
        "def builders(raw):\n"
        "    return list(map(ens.Hamiltonian, raw))\n"
        "class Pass:\n"
        "    def run(self, p, states):\n"
        "        return Ensemble(probabilities=p, states=states)\n"
        "def keyword(raw, parse):\n"
        "    return parse(raw, build=PureState)\n"
        "def interior(A):\n"
        "    return np.linalg.eigvalsh(A), Lifted\n"
    )
    assert _sites(bad, _constructs) == {
        "mod", "mod.build", "mod.builders", "mod.Pass.run", "mod.keyword"
    }


def test_symmetrizer_scan_finds_what_it_forbids(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import numpy as np\n"
        "H = (X + X.swapaxes(-1, -2).conj()) / 2\n"
        "def hermitian_part(M):\n"
        "    return (M + M.conj().swapaxes(-1, -2)) / 2\n"
        "def spectra(G):\n"
        "    return (G.conj().swapaxes(-1, -2) + G) / 2\n"
        "class Pass:\n"
        "    def run(self, A):\n"
        "        return (A + np.conjugate(A.swapaxes(-1, -2))) / 2.0\n"
        "def other(A, B):\n"
        "    return (A + B.conj().swapaxes(-1, -2)) / 2, (A + A.conj().T) / 3, A.T.conj() - A\n"
    )
    assert _sites(bad, _symmetrizer) == {"mod", "mod.hermitian_part", "mod.spectra", "mod.Pass.run"}


def _sets_state(node) -> bool:
    """Whether a node writes a generator's state: `X.bit_generator.state` as
    an assignment target (a tuple's element included) or deleted."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "state"
        and not isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "bit_generator"
    )


def test_only_streams_sets_a_generator_state():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert set().union(*(_sites(f, _sets_state) for f in files)) == {"sampling.streams"}


def test_state_scan_finds_what_it_forbids(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "def climb(g):\n"
        "    saved = g.bit_generator.state\n"
        "    g.bit_generator.state, retry = saved, True\n"
        "class Search:\n"
        "    def step(self, g, s):\n"
        "        g.bit_generator.state = s\n"
        "def read(g, s):\n"
        "    g.state = s\n"
        "    return g.bit_generator.state\n"
    )
    assert _sites(bad, _sets_state) == {"mod.climb", "mod.Search.step"}


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


def _public_names(path: Path) -> list[tuple[str, int]]:
    """The public top-level functions, classes and constants of one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in tree.body:
        if isinstance(node, (*FUNCS, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        out += [(name, node.lineno) for name in names if not name.startswith("_")]
    return out


def _references(path: Path) -> set[str]:
    """Every name one file reads, as a name, an attribute or an import."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def _unreached(modules: list[Path], readers: list[Path]) -> list[str]:
    """The public names of the modules that no reader references."""
    reached = set().union(*map(_references, readers))
    return [
        f"{m.name}:{line}: {name}"
        for m in modules
        for name, line in _public_names(m)
        if name not in reached
    ]


def test_every_public_name_is_reached():
    # Re-exports in __init__ do not count: a name must be used by the
    # package, named by an acceptance criterion or run by the benchmark.
    modules = [f for f in sorted(SRC.glob("*.py")) if f.name != "__init__.py"]
    bench = sorted((ROOT / "bench").glob("*.py"))
    assert modules and bench
    readers = modules + [ROOT / "tests" / "test_acceptance.py"] + bench
    assert _unreached(modules, readers) == []


def test_reach_scan_finds_what_it_forbids(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "LIMIT = 3\n"
        "TABLE: dict = {}\n"
        "_PRIVATE = 1\n"
        "def used():\n"
        "    return LIMIT\n"
        "def unused():\n"
        "    return _helper()\n"
        "def _helper(): pass\n"
        "class Kept: pass\n"
        "class Orphan: pass\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("import mod\nfrom mod import Kept as K\nmod.used()\n")
    found = [v.split(": ", 1)[1] for v in _unreached([mod], [mod, reader])]
    assert found == ["TABLE", "unused", "Orphan"]


def test_package_root_binds_only_the_version():
    # Submodules appear as attributes once imported; anything else is a re-export.
    bound = [n for n, v in vars(mixrate).items() if not inspect.ismodule(v)]
    assert [n for n in bound if not n.startswith("_")] == []
    assert mixrate.__version__


README_NAME = re.compile(
    r"`(?:mixrate\.)?(cli|harness|sampling|rates|ensembles|entangling|hermitian|errors)"
    r"((?:\.[A-Za-z_]\w*)+)"
)


def test_readme_names_resolve():
    found = README_NAME.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert found
    missing = []
    for module, path in found:
        obj = importlib.import_module(f"mixrate.{module}")
        for attr in path.split(".")[1:]:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"{module}{path}")
    assert missing == []
