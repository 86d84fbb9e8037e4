import ast
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
    "distributions": {"distributions", "errors"},
    "estimators": {"estimators", "errors"},
    "fstats": {"fstats", "estimators", "errors"},
    "data": {"data", "errors"},
    "weak_test": {"weak_test", "distributions", "estimators", "fstats", "errors"},
    "grouped_sim": {"grouped_sim", "data", "weak_test", "distributions", "estimators",
                    "fstats", "errors"},
    "cli": {"cli", "errors"},
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
