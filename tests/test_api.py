"""Every name a module lists in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import smallball

MODULES = sorted(m.name for m in pkgutil.iter_modules(smallball.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"smallball.{name}")
    names = getattr(mod, "__all__", [])
    assert [n for n in names if not hasattr(mod, n)] == []
    assert len(set(names)) == len(names)
