"""No tradequil module uses a private name of another tradequil module,
every tolerance is named once, in ``_numerics``, only ``_numerics``
imports scipy, inside the functions that call it, and ``tradequil.cli``
loads no structure analysis."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tradequil

PACKAGE = Path(tradequil.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reaches(source):
    """``(line, name)`` of every private name that ``source`` imports from a
    sibling module or reads as ``<expr>._name``, unless ``<expr>`` is ``self``
    or ``cls`` or ``source`` binds ``_name`` itself."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            bound.add(node.id if isinstance(node, ast.Name) else node.attr)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "tradequil"
        ):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name not in MODULES and _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and node.attr not in bound
              and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            found.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("source, expected", [
    ("from .consistency import _classify_factor", [(1, "_classify_factor")]),
    ("from tradequil.recession import _split_goods", [(1, "_split_goods")]),
    ("from . import consistency as c\nc._with_row_sums(1, 2, 3)",
     [(2, "c._with_row_sums")]),
    ("from ._numerics import BASE_TOL\nfrom . import cone_geometry\n"
     "cone_geometry.max_margin(1, 2)", []),
    ("from .trade_data import ShareReport\nShareReport._SECTIONS",
     [(2, "ShareReport._SECTIONS")]),
    ("def ranked(report):\n    return report._SECTIONS", [(2, "report._SECTIONS")]),
    ("class A:\n    _n = 0\n\n    def f(self, other):\n        return self._m + other._n",
     []),
])
def test_checker_finds_private_reaches(source, expected):
    assert private_reaches(source) == expected


def test_no_module_uses_a_private_name_of_another():
    offences = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in private_reaches(path.read_text(encoding="utf-8"))
    ]
    assert offences == []


def small_float_literals(source):
    """``(line, value)`` of every float literal in ``(0, 1e-6]``: the range of
    the tolerances, which live only in ``_numerics``."""
    return sorted((node.lineno, node.value) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0.0 < node.value <= 1e-6)


def test_checker_finds_small_float_literals():
    source = "x = 1e-9 * y\nz = max(1.0, w) + 0.5 + 1e-2\nt = 1e-6\nu = 0.0"
    assert small_float_literals(source) == [(1, 1e-9), (3, 1e-6)]


def test_tolerances_are_named_only_in_numerics():
    offences = [
        f"{path.name}:{line}: {value!r}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "_numerics.py"
        for line, value in small_float_literals(path.read_text(encoding="utf-8"))
    ]
    assert offences == []


def scipy_imports(source):
    """``(line, in_function)`` of every import of ``scipy`` in ``source``."""
    tree = ast.parse(source)
    nested = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append((node.lineno, id(node) in nested))
    return sorted(found)


@pytest.mark.parametrize("source, expected", [
    ("import numpy as np\nfrom scipy.optimize import linprog", [(2, False)]),
    ("def f(a):\n    import scipy.sparse as sp\n    return sp.csr_matrix(a)\n"
     "import scipy", [(2, True), (4, False)]),
    ("from ._numerics import linprog\nimport scipyx\nfrom .scipy import x", []),
])
def test_checker_finds_scipy_imports(source, expected):
    assert scipy_imports(source) == expected


def test_only_numerics_imports_scipy_and_only_on_first_use():
    offences = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, in_function in scipy_imports(path.read_text(encoding="utf-8"))
        if path.name != "_numerics.py" or not in_function
    ]
    assert offences == []


# Runs in a fresh interpreter: the modules loaded by importing the CLI, then
# every exported name, looked up on the package.
FRESH_IMPORT = """
import json, sys
import tradequil.cli
loaded = sorted(m for m in sys.modules if m.startswith("tradequil."))
import tradequil
missing = [name for name in tradequil.__all__ if getattr(tradequil, name, None) is None]
print(json.dumps({"loaded": loaded, "missing": missing}))
"""


def test_cli_import_loads_no_structure_analysis():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "tradequil.cli" in child["loaded"]
    assert not {"tradequil.cone_geometry", "tradequil.consistency"} & set(child["loaded"])
    assert child["missing"] == []
