"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import v2xloop

PACKAGE = Path(v2xloop.__file__).resolve().parent
# imported but never called in the module: perfbench/layers.py traces the
# binding under this name
EXEMPT = {("scenarios", "polyline_cumlength")}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported
                  if name not in used and name != "annotations")


def test_unused_import_scan_sees_through_aliases_and_attributes():
    src = ("from __future__ import annotations\n"
           "import numpy as np\nimport os.path\nfrom math import pi, tau\n"
           "x: np.ndarray = os.path.join(str(pi))\n")
    assert _unused_imports(src) == ["tau"]


def test_modules_import_no_unused_names():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":    # re-exports are its purpose
            continue
        for name in _unused_imports(path.read_text()):
            if (path.stem, name) not in EXEMPT:
                found.append(f"{path.stem}: {name}")
    assert found == []
