"""Every library name that the README and the demos refer to exists, and
the README's CLI flags and bound-kind keys are the ones the CLI takes.

Static only: the demos are parsed, never run.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

from smallball import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _imports(tree):
    """(module, name) for each ``from smallball... import name``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "smallball"
        for alias in node.names
    ]


def _readme_refs():
    text = README.read_text()
    refs = re.findall(r"\b(smallball\.\w+)\.(\w+)", text)
    for block in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S):
        refs += _imports(ast.parse(block))
    return sorted(set(refs))


def _demo_refs():
    return sorted(
        (path.name, module, name)
        for path in DEMOS
        for module, name in _imports(ast.parse(path.read_text()))
    )


def test_sources_are_found():
    assert len(_readme_refs()) >= 10
    assert {name for name, _, _ in _demo_refs()} == {p.name for p in DEMOS}


@pytest.mark.parametrize("module,name", _readme_refs(),
                         ids=lambda v: v)
def test_readme_names_resolve(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("demo,module,name", _demo_refs(), ids=lambda v: v)
def test_demo_imports_resolve(demo, module, name):
    assert hasattr(importlib.import_module(module), name)


def test_readme_names_the_estimate_header():
    from smallball.mcverify import EstimateTable

    table = EstimateTable("bm", "sup", 1.0, 1, 0, 1, 0.99, "0", ())
    header = table.to_csv_text().split("\n")[0]
    assert header.startswith("# small-ball estimates v")
    assert f"`{header}`" in README.read_text()


def test_readme_bound_kind_keys_match_the_cli():
    paragraph = README.read_text().split("Bound kinds: ", 1)[1].split("\n\n")[0]
    documented = {kind: set(re.findall(r"`(\w+)`", keys))
                  for kind, keys in re.findall(r"`(\w+)` \(([^)]*)\)", paragraph)}
    assert documented == {kind: keys - {"kind"}
                          for kind, (keys, _, _) in cli._BOUND_KINDS.items()}


def test_readme_flags_match_the_parser():
    rows = re.findall(r"^\| `(\w+)` \| ((?:`--\w+`(?:, )?)+) \|",
                      README.read_text(), re.M)
    documented = {command: set(re.findall(r"`(--\w+)`", flags))
                  for command, flags in rows}
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert documented == {
        command: {flag for action in parser._actions
                  for flag in action.option_strings} - {"-h", "--help"}
        for command, parser in sub.choices.items()}
