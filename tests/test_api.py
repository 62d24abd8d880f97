"""Every exported name resolves, so a deleted function cannot leave a stale
entry behind in an ``__all__``; the Lagrange-top model does not judge; the
package's exceptions pickle."""

import ast
import importlib
import pickle
import re
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import haantjeskit
from haantjeskit import ChartError, ChartMismatchError, SingularPointError
from haantjeskit.lagrange.flow import FlowBlowupError

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(haantjeskit.__path__,
                                                "haantjeskit."))


@pytest.mark.parametrize("name", ["haantjeskit"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing


@pytest.mark.parametrize("error", [
    ChartError("could not sample 3 points"),
    ChartMismatchError("fields on charts 'body' and 'euler'"),
    SingularPointError("point lies on a singular set of chart 'complex'"),
    FlowBlowupError(1.5)], ids=lambda error: type(error).__name__)
def test_errors_survive_a_pickle_round_trip(error):
    """Each exception class the package raises comes back from a pickle
    with its type and message, and ``FlowBlowupError`` with its time."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


def test_star_import():
    namespace = {}
    exec("from haantjeskit import *", namespace)
    assert set(haantjeskit.__all__) <= set(namespace)


def test_lagrange_does_not_import_report():
    """The model defines fields and maps; the suites judge them."""
    lagrange = importlib.import_module("haantjeskit.lagrange")
    imported = set()
    for path in Path(lagrange.__file__).parent.glob("*.py"):
        package = "haantjeskit.lagrange"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                base = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), package)
                imported |= {base} | {f"{base}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Import):
                imported |= {a.name for a in node.names}
    assert "haantjeskit.report" not in imported


def test_benchmark_imports_resolve():
    """Every name that a benchmark module imports from the package still
    resolves, as an attribute or as a submodule such as ``cli``, so a
    rename cannot break a benchmark run that tier-1 never imports."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    names, missing = [], []
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "haantjeskit"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    names.append(name)
                    if not (hasattr(module, alias.name)
                            or hasattr(module, "__path__")
                            and importlib.util.find_spec(name)):
                        missing.append(f"{path.name}: {name}")
    assert names and not missing, missing


def test_readme_library_use_runs(capsys):
    """README's "Library use" block runs as written and its comments hold,
    so a change to the public API cannot leave it stale."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.startswith("SampledResidual(")
    assert namespace["is_haantjes"](namespace["L"], namespace["sample"]).passed
    assert namespace["Lc"].shape == (50, 2, 2)
    assert namespace["dL"].shape == (50, 2, 2, 2)
    assert len(namespace["p"]) == 1
