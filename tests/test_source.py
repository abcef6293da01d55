"""Source checks that need no linter."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import nodalflow

SRC = pathlib.Path(nodalflow.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport scipy.sparse\n"
              "from ._serial import dumps, jsonable\n"
              "def f(x):\n    import json\n    return scipy.sparse.eye(jsonable(x))\n")
    assert unused_imports(source) == ["dumps (line 4)", "json (line 6)", "np (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def private_imports(source: str) -> list[str]:
    """Underscore names that ``source`` imports, at any depth, from a
    nodalflow module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "nodalflow"):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.startswith("_")]
    return sorted(found)


def test_private_import_detector():
    source = ("from .flow import _make_state, integrate_flow\n"
              "from ._serial import dumps\nfrom nodalflow.cones import _active_set\n"
              "from numpy import _globals\nimport nodalflow._serial\n"
              "def f():\n    from .energy import _box_dual_qp as qp\n")
    assert private_imports(source) == ["_active_set (line 3)", "_box_dual_qp (line 7)",
                                       "_make_state (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_imports_across_modules(module):
    # a name one module shares with another is public within the package
    assert private_imports((SRC / module).read_text()) == []


# Numeric keyword defaults that are data, not tolerances, with the reason each
# stays settable.  Every other tolerance, cap or sample count is a module
# constant, and FlowConfig's fields are the config schema README lists.
DATA_DEFAULTS = {
    "cones.project_cone(sign)": "the cone's orientation: P unless -P is asked for",
    "flow.save_checkpoint(start)": "the first state to append; 0 begins a new file",
    "potential.check_hypotheses(seed)": "the sample draw, derived from the run's seed",
}
CONFIG_SCHEMA = {"FlowConfig"}


def _is_number(node) -> bool:
    """An int or float literal, negated or not, or a tuple or list of them."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return bool(node.elts) and all(map(_is_number, node.elts))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if (dec.id if isinstance(dec, ast.Name) else getattr(dec, "attr", None)) == "dataclass":
            return True
    return False


def numeric_defaults(source: str, module: str) -> list[str]:
    """Parameters of each def, and fields of each dataclass, that default to
    an int or float literal, as ``module.func(param)`` or ``module.Class.field``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += zip(args.kwonlyargs, args.kw_defaults)
            found += [f"{module}.{node.name}({arg.arg})" for arg, default in pairs
                      if default is not None and _is_number(default)]
        elif (isinstance(node, ast.ClassDef) and _is_dataclass(node)
              and node.name not in CONFIG_SCHEMA):
            for stmt in node.body:
                if not (isinstance(stmt, ast.AnnAssign) and stmt.value is not None):
                    continue
                value = stmt.value
                if isinstance(value, ast.Call):   # field(default=...)
                    value = next((kw.value for kw in value.keywords if kw.arg == "default"),
                                 None)
                if value is not None and _is_number(value):
                    found.append(f"{module}.{node.name}.{stmt.target.id}")
    return sorted(found)


def test_numeric_default_detector():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=2, *, c=-1e-3, d=None, e=True, g='x'): pass\n"
              "@dataclass(frozen=True)\nclass P:\n    s: float = 5.0\n"
              "    t: int = field(default=3)\n    u: str = 'a'\n"
              "    l: tuple = (1.0, -2)\n    e: tuple = ()\n"
              "class Q:\n    v: float = 1.0\n"
              "@dataclass\nclass FlowConfig:\n    w: float = 1.0\n")
    assert numeric_defaults(source, "m") == ["m.P.l", "m.P.s", "m.P.t", "m.f(b)", "m.f(c)"]


def test_no_numeric_keyword_defaults():
    found = [name for module in MODULES
             for name in numeric_defaults((SRC / module).read_text(), module[:-3])]
    assert [name for name in found if name not in DATA_DEFAULTS] == []
    assert sorted(set(found) & set(DATA_DEFAULTS)) == sorted(DATA_DEFAULTS)


def test_readme_lists_the_numerical_constants():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z]+)\.([A-Z_0-9]+)` \| `([^`]+)` \|", readme, re.M)
    assert rows
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"nodalflow.{module}"), name) \
            == ast.literal_eval(value), name


def test_import_leaves_scipy_optimize_unloaded():
    # energy.slope_on_set imports it when first called, so import stays lean
    code = "import sys, nodalflow; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert out.stdout.strip() == "False"
