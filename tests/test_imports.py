"""Every name a module of the package, the tests or the scripts imports is
used in it, and every private name or constant a package module defines is
read somewhere in the package; the tests and the scripts, taken together,
read every one they define.

Stdlib ``ast`` checks: an imported name counts as used if the module reads
it anywhere, or lists it in ``__all__`` (the package's re-exports); a
module-level ``_private`` function, class or constant, or an UPPER_CASE
constant, counts as read if any module of its group loads it, reads it as
an attribute or imports it.  They catch what a deletion leaves behind.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "predprey"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_rule_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize(
    "path", [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("tests/*.py")),
             *sorted(ROOT.glob("scripts/*.py"))],
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}")
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level ``_private`` names and UPPER_CASE constants of the
    modules ``sources`` (name -> source) that no module reads."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if (name.startswith("_") and not name.startswith("__")
                        or re.fullmatch(r"[A-Z][A-Z0-9_]*", name)):
                    defined[name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in read)


def test_rule_flags_an_unread_private_name():
    sources = {"a": "_A = 1\n_B = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n",
               "b": "from .a import _C\n__all__ = []\n"}
    assert unread_private_names(sources) == ["_B (a:2)", "_f (a:3)"]


def test_rule_flags_an_unread_constant():
    # an UPPER_CASE constant counts as read where a module loads it, reads it
    # as an attribute or imports it; a leftover one is flagged
    sources = {"a": "TOL = 1e-12\nBRACKET = (-10.0, 10.0)\nLIMIT: int = 3\nSIZE = 2\n"
                    "Mixed = 1\ndef f(x):\n    return abs(x) <= TOL\n",
               "b": "from . import a\nfrom .a import SIZE\nprint(a.LIMIT)\n"}
    assert unread_private_names(sources) == ["BRACKET (a:2)"]


def test_package_reads_every_private_name():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_tests_and_scripts_read_every_private_name():
    # on their own names: a test helper or an oracle left behind by a
    # deletion is flagged, whatever the package defines
    sources = {f"{path.parent.name}/{path.name}": path.read_text()
               for path in (*sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("scripts/*.py")))}
    assert unread_private_names(sources) == []


def numpy_references(source: str, names: list[str]) -> dict[str, list[int]]:
    """The lines on which each definition ``names`` (a module-level function
    or class, or ``Class.method``) of ``source`` reads ``np`` or ``numpy``."""
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
            if isinstance(node, ast.ClassDef):
                defs.update((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef))
    return {name: sorted(n.lineno for n in ast.walk(defs[name])
                         if isinstance(n, ast.Name) and n.id in ("np", "numpy")
                         or isinstance(n, (ast.Import, ast.ImportFrom)))
            for name in names}


def test_rule_flags_numpy_in_a_definition():
    source = ("import numpy as np\nclass Ops:\n    exp = np.exp\n"
              "class C:\n    def f(self):\n        return 1.0\n    def g(self):\n"
              "        import numpy\n        return numpy.pi\ndef h(x):\n    return x\n")
    assert numpy_references(source, ["Ops", "C.f", "C.g", "h"]) == {
        "Ops": [3], "C.f": [], "C.g": [8, 9], "h": []}


def test_per_step_path_names_no_numpy():
    # the eta loop runs on the stdlib: the float primitives, the laws' one
    # formula each, the two per-step calls and the loop itself read no numpy
    per_step = {
        "controllers.py": ["FloatOps", "_clamp", "_phi", "_control_a", "_control_b",
                           "_control_measured", "BoundController.u_from_eta",
                           "BoundController.u_from_state"],
        "simulate.py": ["_march_eta"],
    }
    for module, names in per_step.items():
        refs = numpy_references((PACKAGE / module).read_text(), names)
        assert refs == {name: [] for name in names}, module


def loop_calls(source: str, name: str) -> set[str]:
    """The names of the functions that the loop bodies of the module-level
    function ``name`` of ``source`` call: a called name, or the attribute
    of a called attribute."""
    func = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for loop in ast.walk(func) if isinstance(loop, (ast.For, ast.While))
            for stmt in loop.body for call in ast.walk(stmt) if isinstance(call, ast.Call)}


def test_rule_lists_the_calls_of_a_loop_body():
    source = ("def f(xs, g):\n    y = len(xs)\n    for x in range(y):\n"
              "        if math.isfinite(x):\n            g.step(x)\n        y = helper(x)\n")
    assert loop_calls(source, "f") == {"isfinite", "step", "helper"}


def test_eta_loop_calls_only_exp_the_checks_and_the_law():
    # Heun's step sits in the loop body on the stdlib's exp: no helper call,
    # and the law is the one call per step that the benchmark's tracer counts
    source = (PACKAGE / "simulate.py").read_text()
    assert loop_calls(source, "_march_eta") == {"exp", "isfinite", "u_from_eta",
                                                "u_from_state", "_failure"}
