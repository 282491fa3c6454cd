"""Every name a module lists in ``__all__`` exists in that module, the
package reports the version its metadata declares, and importing the CLI
loads only what the library uses."""

import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_cli_import_loads_no_scipy_stats():
    # scipy.stats drags in optimize, integrate, interpolate, spatial and
    # ndimage, and scipy.linalg its LAPACK wrappers; the library needs only
    # scipy.special.  One interpreter checks both prefixes.
    src = str(Path(smallball.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, smallball.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith(('scipy.stats', 'scipy.linalg'))))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        check=True)
    assert out.stdout.strip() == "[]"
