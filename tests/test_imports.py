"""Every name a module of the package imports is used in that module, every
function the package defines is named elsewhere in it, every parameter of
a function is read in its body, and every name the package exports exists."""

import ast
from pathlib import Path

import v2xloop

PACKAGE = Path(v2xloop.__file__).resolve().parent
# imported but never called in the module: perfbench/layers.py traces the
# binding under this name
EXEMPT = {("scenarios", "polyline_cumlength")}
# defined but named nowhere else in the package: perfbench/layers.py reads it
UNNAMED_EXEMPT = {("planner", "succeeded")}


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


def _unnamed_functions(sources: dict[str, str]) -> list[str]:
    """`module: name` of each function or method, dunders aside, that no
    module but `__init__` names: by a call, an attribute read or an import,
    under an alias too."""
    trees = {stem: ast.parse(source) for stem, source in sources.items()}
    named = set()
    for stem, tree in trees.items():
        if stem == "__init__":            # re-exports are not uses
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return sorted(f"{stem}: {node.name}" for stem, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and node.name not in named)


def test_unnamed_function_scan_sees_calls_attributes_and_aliased_imports():
    sources = {"__init__": "from .a import lone\n",
               "a": ("def f(): pass\ndef g(): f()\ndef lone(): pass\n"
                     "class C:\n    def __init__(self): pass\n"
                     "    def m(self): pass\n    def n(self): pass\n"),
               "b": "from .a import g as h\nx = C().m\n"}
    assert _unnamed_functions(sources) == ["a: lone", "a: n"]


def test_every_function_is_named_elsewhere_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert [entry for entry in _unnamed_functions(sources)
            if tuple(entry.split(": ")) not in UNNAMED_EXEMPT] == []


def _unread_parameters(source: str) -> list[str]:
    """`function: parameter` of each parameter of a function or method, `self`
    and `*args` and `**kwargs` included, that its body, nested functions
    and lambdas included, never reads by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [arg.arg for arg in (*args.posonlyargs, *args.args, args.vararg,
                                      *args.kwonlyargs, args.kwarg) if arg is not None]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        found += [f"{node.name}: {param}" for param in params if param not in read]
    return found


def test_unread_parameter_scan_sees_nested_reads_and_every_kind_of_parameter():
    src = ("def f(a, b, /, c, *args, d, **kw):\n    return a + d\n"
           "def g(x, y=1):\n    def h(z):\n        return x\n"
           "    return lambda: h(y)\n"
           "class C:\n    def m(self, v):\n        v = 2\n        return self\n")
    assert _unread_parameters(src) == ["f: b", "f: c", "f: args", "f: kw", "h: z",
                                       "m: v"]


def test_every_parameter_is_read():
    assert [f"{path.stem}.{entry}" for path in sorted(PACKAGE.glob("*.py"))
            for entry in _unread_parameters(path.read_text())] == []


def test_package_exports_resolve():
    # a name deleted from its module must leave __all__ too, or
    # `from v2xloop import *` fails
    assert [name for name in v2xloop.__all__ if not hasattr(v2xloop, name)] == []
