"""Every name a module lists in ``__all__`` exists in that module, and the
package reports the version its metadata declares."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import smallball

MODULES = sorted(m.name for m in pkgutil.iter_modules(smallball.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"smallball.{name}")
    names = getattr(mod, "__all__", [])
    assert [n for n in names if not hasattr(mod, n)] == []
    assert len(set(names)) == len(names)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert smallball.__version__ == version
