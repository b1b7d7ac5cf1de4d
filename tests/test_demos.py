"""The demos import only names that gnwaves still has: each is parsed and
its ``gnwaves`` imports are resolved. Running them is a separate CI step
(``.github/workflows/tests.yml``); all five take about 6 s on a 2-vCPU VM."""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def gnwaves_imports(path):
    """(module, name) for every ``from gnwaves... import name`` in the file,
    and (module, None) for every ``import gnwaves...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "gnwaves":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "gnwaves")


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = list(gnwaves_imports(path))
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        assert name is None or hasattr(module, name), f"{path.name}: {module_name} has no {name}"
