"""Every function of the package has a caller inside the package.

``src/kcrit/`` keeps only what the census, the criticality test, the
certifier and the command line call, plus the documented entry points
listed below.  A top-level function or a method that no line of the
package names, outside its own body, fails this test.  A reference is a
name or an attribute name read anywhere in the package except
``__init__.py``, whose imports only re-export.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "kcrit"

# entry points the package documents but does not call itself: the
# module docstring of kcrit names the first three, the README names the
# list verifier, and its library example imports the rest
ENTRY_POINTS = {
    "generate_graphs", "relabel", "census_general", "verify_list",
    "from_graph6", "chromatic_number", "is_vertex_critical",
    "census_copaw_critical", "build_database", "certify_color",
    "verify_certificate", "co_odd_cycle", "is_k_colorable",
}


def _names(node) -> Counter:
    # every name and attribute name read under node
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    # (qualified name, name, node) of the module's functions and methods
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item


def _unreferenced() -> list[str]:
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    reads = sum((_names(tree) for name, tree in trees.items()
                 if name != "__init__.py"), Counter())
    out = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            if name.startswith("__") or name in ENTRY_POINTS:
                continue
            if reads[name] - _names(node)[name] <= 0:
                out.append(f"{module}:{node.lineno} {qualified}")
    return out


def test_every_function_has_a_caller_in_the_package():
    assert _unreferenced() == []


def test_the_check_sees_a_function_nothing_calls(tmp_path, monkeypatch):
    # a recursive function that only calls itself counts as unreferenced
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else used()\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert _unreferenced() == ["mod.py:5 lonely"]
