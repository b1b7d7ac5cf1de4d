"""Every name in a gnwaves export list resolves, and none is listed twice.
A name left behind in an ``__all__`` would otherwise fail only a star
import. No module imports another module's underscore names."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import gnwaves

MODULES = [gnwaves] + [importlib.import_module(f"gnwaves.{info.name}") for info in pkgutil.iter_modules(gnwaves.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_export_list_resolves(module):
    names = module.__all__
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert [name for name in names if not hasattr(module, name)] == []


def test_no_private_import_across_modules():
    # a gnwaves module may use its own underscore names only: an import
    # of one from another module, relative or absolute, is listed here
    # (dunders such as __version__ are public)
    source = pathlib.Path(gnwaves.__file__).parent
    private = []
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module == "gnwaves" or node.module.startswith("gnwaves.")):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    private.append(f"{path.name}:{node.lineno} {node.module or '.'}.{alias.name}")
    assert private == []
