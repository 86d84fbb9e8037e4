import ast
import builtins
import collections
import subprocess
import sys
import types
from pathlib import Path

import pytest

import weakiv
from weakiv import data, distributions, errors, estimators, fstats, grouped_sim, weak_test


def test_package_exports_exactly_its_modules_public_names():
    """The package namespace lists every name in its modules' __all__ and no
    other public name, so a name removed from or added to one list shows;
    each name resolves, on first access, to its module's object."""
    modules = (data, distributions, errors, estimators, fstats, grouped_sim, weak_test)
    listed = [name for mod in modules for name in mod.__all__]
    public = {
        name for name in dir(weakiv)
        if not name.startswith("_")
        and not isinstance(getattr(weakiv, name), types.ModuleType)
    }
    assert len(listed) == len(set(listed))
    assert sorted(weakiv.__all__) == sorted(listed)
    assert public == set(listed)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(weakiv, name) is getattr(mod, name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        weakiv.no_such_name
    code = "import weakiv; print(weakiv.grouped_sim.run_sim.__module__)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "weakiv.grouped_sim"


def test_version_matches_pyproject():
    """The version has two homes, the package and pyproject.toml, and
    `weakiv --version` answers from the package before anything else loads."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    proc = subprocess.run([sys.executable, "-m", "weakiv.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert weakiv.__version__ == version
    assert proc.stdout == version + "\n"


# The package modules each submodule loads, itself included: the command
# line loads no numpy-backed module and no handler until it has parsed, and
# the handlers load what they call.
LOADS = {
    "errors": {"errors"},
    "_settings": {"_settings", "errors"},
    "distributions": {"distributions", "_settings", "errors"},
    "estimators": {"estimators", "errors"},
    "fstats": {"fstats", "estimators", "errors"},
    "data": {"data", "errors"},
    "weak_test": {"weak_test", "_settings", "distributions", "estimators", "fstats",
                  "errors"},
    "grouped_sim": {"grouped_sim", "_settings", "data", "weak_test", "distributions",
                    "estimators", "fstats", "errors"},
    "cli": {"cli", "_settings", "errors"},
    "commands": {"commands"},
}


@pytest.mark.parametrize("module", sorted(LOADS))
def test_submodule_loads_only_what_it_imports(module):
    code = f"import sys, weakiv.{module}; print(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {name for name in ast.literal_eval(proc.stdout) if name.startswith("weakiv.")}
    assert loaded == {f"weakiv.{name}" for name in LOADS[module]}


def test_load_table_lists_every_submodule():
    package = Path(weakiv.__file__).parent
    assert set(LOADS) == {path.stem for path in package.glob("*.py")} - {"__init__"}


# Each raise of a builtin exception class in the package, with its reason; every
# other error the package raises is a WeakIvError (errors.py).
BUILTIN_RAISES = {
    ("data.py", "_checked_lines", "ValueError"): (
        2, "mimics np.loadtxt's refusal of a cell; _parse_columns catches it",
    ),
    ("__init__.py", "__getattr__", "AttributeError"): (
        1, "PEP 562: a module __getattr__ signals a missing name with AttributeError",
    ),
}


def _builtin_raises(tree, path):
    """(file, enclosing function, class) of each raise of a builtin exception."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else None
            builtin = getattr(builtins, name or "", None)
            if isinstance(builtin, type) and issubclass(builtin, BaseException):
                found.append((path.name, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_package_raises_no_bare_builtin_error():
    """Every refusal is a WeakIvError, which the command line maps to its
    exit codes, but for the allowlisted raises of builtin classes."""
    package = Path(weakiv.__file__).parent
    found = collections.Counter(
        site for path in sorted(package.glob("*.py"))
        for site in _builtin_raises(ast.parse(path.read_text(encoding="utf-8")), path)
    )
    assert dict(found) == {site: count for site, (count, _) in BUILTIN_RAISES.items()}
