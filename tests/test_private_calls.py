"""Every private function or method of the package is used by the package.

Read with ``ast``: a function or method defined at module or class level
whose name starts with one underscore (dunders are left out) must be
named somewhere in ``src/unitgraphs`` outside its own definition, as a
bare name or as an attribute.  Names are matched by spelling, so a use
of any same-named attribute counts.  A private function that only the
tests call is an oracle; it is allowed when listed in ORACLES.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "unitgraphs"

# definitional scans kept as independent oracles for the tests
ORACLES = {"Ring._units_generic"}


def _private_defs(tree: ast.Module):
    """(qualified name, node) of the private functions defined at module
    level and the private methods of module-level classes."""
    for node in tree.body:
        scopes = [("", node)]
        if isinstance(node, ast.ClassDef):
            scopes = [(node.name + ".", item) for item in node.body]
        for prefix, item in scopes:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
                if name.startswith("_") and not name.startswith("__"):
                    yield prefix + name, item


def _uses(tree: ast.Module):
    """(name, line) of every bare name and attribute read in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced(sources: dict[str, str]) -> list[str]:
    """The private functions and methods of sources (file name -> text)
    that no line outside their own definition names, as file:qualname."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    uses = {path: list(_uses(tree)) for path, tree in trees.items()}
    out = []
    for path, tree in trees.items():
        for qualname, node in _private_defs(tree):
            name = node.name
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                used == name and not (where == path and line in inside)
                for where, found in uses.items()
                for used, line in found
            ):
                out.append(f"{path}:{qualname}")
    return out


def test_every_private_function_is_used_or_a_listed_oracle():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    found = unreferenced(sources)
    assert sorted(found) == sorted(f"rings.py:{q}" for q in ORACLES)


def test_the_check_sees_a_planted_unused_function():
    first = (
        "def _used():\n    return 1\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
        "class K:\n"
        "    def _dead(self):\n        return self._dead()\n"
        "    def _called(self):\n        return 2\n"
        "    def __repr__(self):\n        return ''\n\n"
        "def public():\n    def _nested():\n        return 3\n    return _used()\n"
    )
    second = "from first import K\n\ndef g(k: K):\n    return k._called()\n"
    found = unreferenced({"first.py": first, "second.py": second})
    # self-calls are not uses; nested and dunder functions are not checked
    assert found == ["first.py:_recursive", "first.py:K._dead"]
