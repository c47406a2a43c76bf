"""Source hygiene: no module imports a name it never uses, no private
module-level name and no member of a private class goes unused, every
exported name exists and the package re-exports exactly its library
modules' exports, the package's only private SciPy dependency is the one
its bit-for-bit tests guard, the command line writes JSON only through
its strict-JSON helper and turns an exception into an exit code only in
``main``, and record files are written and read only through one CSV
codec pair.

Checked with the standard library's ``ast`` only, over ``src/dcboost``
(its ``__init__``, which imports to re-export, excepted) and ``tests/``;
the package's export list, which joins its modules' at import, is read
from the imported package.  The last test runs pytest on a failing
property test, to check that ``tests/conftest.py`` lets it end in a
plain failure report.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import dcboost
from dcboost import exceptions

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


def unreferenced_private_names(sources):
    """The private module-level names (``_name``, not dunders: functions,
    classes and constants) defined in ``sources``, a mapping of module
    name to source, that no source loads, reads as an attribute or
    imports outside the statement that defines them, as (module, name)."""
    defined, referenced = set(), set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            # an import binds a name another module defines
            own = set() if isinstance(top, (ast.Import, ast.ImportFrom)) else {
                name for name in defined_names_of(top)
                if name.startswith("_") and not name.endswith("__")}
            defined.update((module, name) for name in own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                referenced.update(name for name in names if name not in own)
    return sorted((module, name) for module, name in defined if name not in referenced)


def test_no_unused_private_names():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unreferenced_private_names(sources) == []


def test_detector_flags_unused_private_names():
    sources = {
        "a": ("import os\n_LIMIT = 3\n_SEEN, _UNSEEN = 1, 2\n__all__ = ('f',)\n"
              "def _helper():\n    return _helper()\n"
              "def _used():\n    return _LIMIT\nclass _Gone:\n    _inner = 1\n"
              "def f():\n    return _used() + _SEEN\n"),
        "b": "from .a import _imported\nimport a\nprint(a._read)\n",
        "c": "def _imported():\n    pass\ndef _read():\n    pass\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a", "_Gone"), ("a", "_UNSEEN"), ("a", "_helper")]


def unread_private_members(sources):
    """The members of the private classes (``_Name``) defined in
    ``sources``, a mapping of module name to source: their methods,
    class-level names and ``self.`` attributes, dunders excepted, that no
    source reads as an attribute outside the statements that define them,
    as (module, class, member)."""
    definitions, reads = {}, []
    for module, source in sources.items():
        tree = ast.parse(source)
        reads += [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name.startswith("_")):
                continue
            members = [(name, top) for top in cls.body for name in defined_names_of(top)]
            members += [(target.attr, node) for top in cls.body for node in ast.walk(top)
                        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                        for target in ast.walk(node)
                        if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                        and isinstance(target.value, ast.Name) and target.value.id == "self"]
            for name, node in members:
                if not (name.startswith("__") and name.endswith("__")):
                    inside = definitions.setdefault((module, cls.name, name), set())
                    inside.update(id(part) for part in ast.walk(node))
    return sorted(key for key, inside in definitions.items()
                  if not any(read.attr == key[2] and id(read) not in inside for read in reads))


def test_no_unread_private_members():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unread_private_members(sources) == []


def test_detector_flags_unread_private_members():
    sources = {
        "a": ("class _Box:\n    LIMIT = 3\n    __slots__ = ('x', 'unread', 'count')\n"
              "    def __init__(self):\n        self.x, self.unread = 1, 2\n"
              "        self.count = 0\n"
              "    def used(self):\n        self.count += 1\n        return self.x + self.LIMIT\n"
              "    def recursive(self):\n        return self.recursive()\n"
              "class Public:\n    def unused(self):\n        pass\n"),
        "b": "from .a import _Box\nprint(_Box().used())\n",
    }
    assert unread_private_members(sources) == [
        ("a", "_Box", "count"), ("a", "_Box", "recursive"), ("a", "_Box", "unread")]


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


def test_only_private_scipy_imports_are_the_matvec_kernels():
    # _Operator's products rely on csr_matvec and csc_matvec; their bits are
    # checked in tests/test_biochem.py, and any other private import must be seen
    found = set().union(*(private_scipy_imports(p.read_text()) for p in SOURCES))
    assert found == {"scipy.sparse._sparsetools.csr_matvec",
                     "scipy.sparse._sparsetools.csc_matvec"}


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
    return set().union(*(defined_names_of(node) for node in ast.parse(source).body))


def defined_names_of(node):
    """The names one top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    if path.name == "__init__.py":
        # the package's list joins its modules' lists at import
        exported, defined = dcboost.__all__, set(vars(dcboost))
    else:
        source = path.read_text()
        exported, defined = exported_names(source) or (), defined_names(source)
    assert len(set(exported)) == len(exported)
    assert sorted(set(exported) - defined) == []


def test_package_reexports_exactly_its_modules_exports():
    # cli's ``main`` is the command-line entry point, not library API
    library = [p for p in SOURCES if p.name not in ("__init__.py", "__main__.py", "cli.py")]
    union = set().union(*(exported_names(p.read_text()) or () for p in library))
    package = dcboost.__all__
    assert len(set(package)) == len(package)
    assert [name for name in package if not hasattr(dcboost, name)] == []
    assert sorted(package) == sorted(union | {"__version__"})


def test_export_detectors():
    source = ("import os.path as osp\nfrom math import pi\nX, (Y, Z) = 1, (2, 3)\n"
              "T: int = 4\ndef f(): pass\nclass C: pass\n"
              "__all__ = ('f', 'C', 'pi', 'gone')\n")
    assert exported_names(source) == ("f", "C", "pi", "gone")
    assert defined_names(source) == {"osp", "pi", "X", "Y", "Z", "T", "f", "C", "__all__"}
    assert exported_names("x = 1\n") is None


def calls_outside(source, module, names, helpers):
    """Line numbers of the ``module.<name>(...)`` calls in ``source``, for
    each name in ``names``, that lie outside the top-level functions named
    in ``helpers``, or None when one of those functions is not defined."""
    tree = ast.parse(source)
    defined = {node.name: node for node in reversed(tree.body)
               if isinstance(node, ast.FunctionDef)}
    if not set(helpers) <= set(defined):
        return None
    inside = {id(node) for helper in helpers for node in ast.walk(defined[helper])}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in names
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == module
                  and id(node) not in inside)


def json_dumps_outside(source, helper):
    """``json.dump``/``json.dumps`` calls outside the function ``helper``."""
    return calls_outside(source, "json", ("dump", "dumps"), (helper,))


def test_cli_writes_json_only_through_its_strict_helper():
    # the helper prints a non-finite number as null, which strict parsers
    # accept, where json.dumps would print NaN or Infinity
    source = (ROOT / "src" / "dcboost" / "cli.py").read_text()
    assert json_dumps_outside(source, "_print_json") == []


def test_json_dumps_detector():
    source = ("import json\ndef _print_json(obj):\n    def inner(v):\n"
              "        return json.dumps(v)\n    print(json.dumps(obj))\n"
              "def cmd(report):\n    print(json.dumps(report))\n"
              "    json.dump(report, handle)\n    report.dumps()\n"
              "f = lambda v: json.dumps(v)\n")
    assert json_dumps_outside(source, "_print_json") == [7, 8, 10]
    assert json_dumps_outside(source, "_echo") is None


CODEC = ("_write_records", "_read_columns")
CSV_CALLS = ("writer", "reader", "DictReader", "DictWriter")


@pytest.mark.parametrize("name, helpers", [("solver.py", CODEC), ("harness.py", ()),
                                           ("cli.py", ())])
def test_record_files_go_through_one_codec(name, helpers):
    # traces, comparison tables and the series ``rate`` reads are written and
    # read by solver's codec pair alone, so every kind of file makes the same
    # choices and is refused with the same SchemaError
    source = (ROOT / "src" / "dcboost" / name).read_text()
    assert calls_outside(source, "csv", CSV_CALLS, helpers) == []


def test_csv_call_detector():
    source = ("import csv\ndef _write_records(rows, handle):\n"
              "    csv.writer(handle).writerows(rows)\n"
              "def _read_columns(handle):\n    return list(csv.reader(handle))\n"
              "def export_table(rows, handle):\n    csv.writer(handle)\n"
              "def read_table(handle):\n    return csv.DictReader(handle)\n"
              "csv.field_size_limit(10)\nwriter = handle.writer()\n")
    assert calls_outside(source, "csv", CSV_CALLS, CODEC) == [7, 9]
    assert calls_outside(source, "csv", CSV_CALLS, ()) == [3, 5, 7, 9]
    assert calls_outside(source, "csv", CSV_CALLS, ("_write_records", "_gone")) is None


def handlers_outside(source, names, helper):
    """Line numbers of the ``except`` clauses in ``source`` that name one of
    ``names``, bare or as a module attribute, alone or in a tuple, outside
    the top-level function ``helper``."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body if isinstance(top, ast.FunctionDef)
              and top.name == helper for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or id(node) in inside:
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(getattr(c, "id", getattr(c, "attr", None)) in names for c in caught):
            found.append(node.lineno)
    return sorted(found)


def test_only_main_maps_exceptions_to_exit_codes():
    # main holds the one policy: OSError and DcError exit 1, SchemaError
    # exits 1 as "schema error:", ValueError exits 2
    failures = {name for name, value in vars(exceptions).items()
                if isinstance(value, type) and issubclass(value, exceptions.DcError)}
    source = (ROOT / "src" / "dcboost" / "cli.py").read_text()
    assert handlers_outside(source, failures | {"OSError"}, "main") == []


def test_handler_detector():
    source = ("def cmd(args):\n    try:\n        run()\n    except OSError:\n        pass\n"
              "    except (ValueError, exceptions.SchemaError) as exc:\n        raise\n"
              "    except ValueError:\n        pass\n    except:\n        pass\n"
              "def main():\n    try:\n        cmd()\n    except DcError:\n        pass\n")
    assert handlers_outside(source, {"OSError", "SchemaError", "DcError"}, "main") == [4, 6]
    assert handlers_outside(source, {"DcError"}, "cmd") == [15]


def test_failing_property_test_reports_without_internal_error(tmp_path):
    # tests/conftest.py imports the module hypothesis loads on a failure, so
    # that its DeprecationWarning is not raised as an error during teardown
    (tmp_path / "conftest.py").write_text((ROOT / "tests" / "conftest.py").read_text())
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\ndef test_small(x):\n    assert x < 10\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout
