"""Source hygiene: no module imports a name it never uses, every
exported name exists and the package re-exports exactly its library
modules' exports, and the package's only private SciPy dependency is the
one its bit-for-bit tests guard.

Checked with the standard library's ``ast`` only, over ``src/dcboost``
(its ``__init__``, which imports to re-export, excepted) and ``tests/``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dcboost").glob("*.py"))
CHECKED = sorted(
    [p for p in SOURCES if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source):
    """Names bound by import statements in ``source`` and never loaded."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c``
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_names():
    source = ("import os\nimport numpy as np\nimport scipy.sparse\n"
              "from math import pi, tau\nprint(np.pi, scipy.sparse, tau)\n")
    assert unused_imports(source) == [(1, "os"), (4, "pi")]


def private_scipy_imports(source):
    """Dotted names imported in ``source`` from SciPy through a path with a
    ``_``-prefixed component."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "scipy" and any(part.startswith("_") for part in parts):
                found.add(name)
    return found


def test_only_private_scipy_import_is_csr_matvec():
    # _CsrOperator's products rely on csr_matvec; its bits are checked in
    # tests/test_biochem.py, and any other private import must be seen
    found = set().union(*(private_scipy_imports(p.read_text()) for p in SOURCES))
    assert found == {"scipy.sparse._sparsetools.csr_matvec"}


def test_private_import_detector():
    source = ("import scipy.sparse\nimport scipy._lib.x as y\n"
              "from scipy.sparse import _sparsetools, csr_matrix\n"
              "from scipy.linalg._flapack import dpotrf\nfrom ._private import z\n"
              "from numpy._core import w\n")
    assert private_scipy_imports(source) == {
        "scipy._lib.x", "scipy.sparse._sparsetools", "scipy.linalg._flapack.dpotrf"}


def exported_names(source):
    """The literal ``__all__`` of a module's source, or None without one."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return tuple(ast.literal_eval(node.value))
    return None


def defined_names(source):
    """Names bound at a module's top level: defs, classes, assignments
    and imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    source = path.read_text()
    exported = exported_names(source) or ()
    assert len(set(exported)) == len(exported)
    assert sorted(set(exported) - defined_names(source)) == []


def test_package_reexports_exactly_its_modules_exports():
    # cli's ``main`` is the command-line entry point, not library API
    library = [p for p in SOURCES if p.name not in ("__init__.py", "__main__.py", "cli.py")]
    union = set().union(*(exported_names(p.read_text()) or () for p in library))
    package = set(exported_names((ROOT / "src" / "dcboost" / "__init__.py").read_text()))
    assert sorted(package - {"__version__"}) == sorted(union)


def test_export_detectors():
    source = ("import os.path as osp\nfrom math import pi\nX, (Y, Z) = 1, (2, 3)\n"
              "T: int = 4\ndef f(): pass\nclass C: pass\n"
              "__all__ = ('f', 'C', 'pi', 'gone')\n")
    assert exported_names(source) == ("f", "C", "pi", "gone")
    assert defined_names(source) == {"osp", "pi", "X", "Y", "Z", "T", "f", "C", "__all__"}
    assert exported_names("x = 1\n") is None
