"""Every library name that the README and the demos refer to exists, and
the README's CLI flags and the keys of each bound, dist, drift and
drift_model kind are the ones the CLI takes.

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


def _documented_kinds(heading):
    """{kind: keys} from the README paragraph "<heading>: `kind` (keys), ..."."""
    paragraph = README.read_text().split(f"{heading}: ", 1)[1].split("\n\n")[0]
    return {kind: set(re.findall(r"`(\w+)`", keys))
            for kind, keys in re.findall(r"`(\w+)` \(([^)]*)\)", paragraph)}


def _keys_read(parse, kind, config):
    # a config object accepts exactly the keys its parser reads
    obj = cli._Obj({"kind": kind, **config})
    parse(obj)
    obj.done()
    return obj._taken - {"kind"}


def test_readme_bound_kind_keys_match_the_cli():
    minimal = {
        "gaussian_class": {"H": 0.3},
        "iid_sum": {"dist": {"kind": "rademacher"}, "n": 4},
        "holder_indep": {"H": 0.3, "beta": 0.5, "c_inc": 1.0,
                         "holder_bound": 1.0},
        "fbm_holder": {"H": 0.4, "beta": 0.2},
        "stationary": {"H": 0.3},
    }
    assert _documented_kinds("Bound kinds") == {
        kind: _keys_read(cli._parse_bound, kind, minimal[kind])
        for kind in cli._BOUND_KINDS}


@pytest.mark.parametrize("heading,parse,minimal", [
    ("Dist kinds", cli._parse_dist, {
        "uniform": {"low": -1.0, "high": 1.0}, "rademacher": {},
        "scaled_beta": {"a": 2.0, "b": 2.0, "low": -1.0, "high": 1.0}}),
    ("Drift kinds", cli._parse_drift, {
        "none": {}, "constant": {}, "bounded_wave": {}, "fbm": {},
        "shared_fbm": {}}),
    ("Drift model kinds", cli._parse_drift_model, {
        "bounded": {"bound": 0.1}, "gauss_borell": {"mean": 0.0, "var": 1.0}}),
], ids=["dist", "drift", "drift_model"])
def test_readme_spec_kind_keys_match_the_cli(heading, parse, minimal):
    assert _documented_kinds(heading) == {
        kind: _keys_read(parse, kind, config) for kind, config in minimal.items()}


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
