"""Every name in a gnwaves export list resolves, and none is listed twice.
A name left behind in an ``__all__`` would otherwise fail only a star
import."""

import importlib
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
