"""Layering rules: no module of the package reaches into another's privates,
and importing the package does not load scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pentamod"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("pentamod")):
            module = (node.module or "").removeprefix("pentamod").lstrip(".")
            if any(_private(part) for part in module.split(".") if part):
                found.append(f"line {node.lineno}: imports from private module {module!r}")
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports private name {alias.name!r}")
                elif not module:
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("pentamod."):
                    if any(_private(part) for part in alias.name.split(".")):
                        found.append(f"line {node.lineno}: imports private module {alias.name!r}")
                    if alias.asname:
                        siblings.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    bad = {p.name: v for p in modules if (v := _violations(p))}
    assert not bad, bad


def test_layout_check_catches_each_kind(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from ._helpers import f\n"
                   "from .moduli import _tables\n"
                   "from . import charts\n"
                   "x = charts._cache\n"
                   "y = charts.geometry\n", encoding="utf-8")
    found = _violations(src)
    assert len(found) == 3
    assert "line 1" in found[0] and "line 2" in found[1] and "line 4" in found[2]


def test_import_does_not_load_scipy():
    # scipy is about half of the import time; only the area quadratures use
    # it, and they import it when first called
    code = ("import sys, pentamod, pentamod.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
