"""Every private function or method of the package is used by the package,
every default of one is overridden by some call in the package, and
every export is used by the package, its demos or its benchmark.

Read with ``ast``: a function or method defined at module or class level
whose name starts with one underscore (dunders are left out) must be
named somewhere in ``src/unitgraphs`` outside its own definition, as a
bare name or as an attribute.  Names are matched by spelling, so a use
of any same-named attribute counts.  A private function that only the
tests call is an oracle; it is allowed when listed in ORACLES.

A parameter with a default, of a private function or method or of any
method of a private class (its ``__init__`` included), must be passed by
some call in the package, by keyword or by position; a call that
unpacks ``*args`` or ``**kwargs`` counts as passing what it could.  A
default no caller overrides is a setting nobody sets, and belongs in a
module constant read where it is enforced.

A name ``__init__.py`` exports must be named in ``src/unitgraphs``
outside ``__init__.py`` and outside its own definition, or in
``demos/`` or ``benchmark/``: as a bare name, an attribute, or a string
(the benchmark's tracer looks names up with ``getattr``).  An export
only library users and the tests call is listed, with its reason, in
PUBLIC_ONLY.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "unitgraphs"

# private functions only the tests call; the definitional scans that
# were listed here live in tests/oracles.py
ORACLES: set[str] = set()

# exports that nothing in src/, demos/ or benchmark/ names
PUBLIC_ONLY = {
    "facets_to_json": "writes the format that complex --facets-file reads",
    "product_nonunit_extend": "the paper's product recipe from a non-unit set of one factor",
    "product_unit_sets": "the paper's product recipe from all-unit sets of every factor",
}


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


def _checked_defs(tree: ast.Module):
    """(qualified name, the name a call spells, node, leading parameters
    a call leaves out) of the functions whose defaults are checked: the
    private functions and methods, and every method of a private class.
    A call through an instance or a class leaves out self or cls, and a
    call of the class itself fills ``__init__`` from its second
    parameter on."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and node.name.startswith("_"):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            hidden = node.name.startswith("_")
            for item in node.body:
                if not isinstance(item, functions):
                    continue
                private = item.name.startswith("_") and not item.name.startswith("__")
                if hidden or private:
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    called = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", called, item, 0 if static else 1


def _calls(tree: ast.Module):
    """(called name, positional argument count or None when one is
    unpacked, keyword names or None when a mapping is unpacked) of every
    call in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield (
                name,
                None if starred else len(node.args),
                None if None in keywords else keywords,
            )


def unset_defaults(sources: dict[str, str]) -> list[str]:
    """The defaulted parameters of sources' private functions and methods
    (see the module docstring) that no call passes, as
    file:qualname(parameter)."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    calls = [call for tree in trees.values() for call in _calls(tree)]
    out = []
    for path, tree in trees.items():
        for qualname, called, node, skip in _checked_defs(tree):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            # (name, position or None, passable by keyword) of each
            # parameter with a default
            params = [
                (a.arg, i, i >= len(args.posonlyargs))
                for i, a in enumerate(positional)
                if i >= first
            ]
            params += [
                (a.arg, None, True)
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            for param, index, by_keyword in params:
                if not any(
                    name == called
                    and (
                        index is not None and (count is None or count + skip > index)
                        or by_keyword and (keywords is None or param in keywords)
                    )
                    for name, count, keywords in calls
                ):
                    out.append(f"{path}:{qualname}({param})")
    return out


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


def exports(init_source: str) -> list[str]:
    """The names an ``__init__`` module re-exports from its modules."""
    return [
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _named(tree: ast.Module):
    """(name, line) of every bare name, attribute and string in the tree."""
    yield from _uses(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unnamed_exports(init_source: str, sources: dict[str, str]) -> list[str]:
    """The exports of init_source that no source (file name -> text)
    names outside a module-level definition of that name."""
    found = set()
    for text in sources.values():
        tree = ast.parse(text)
        spans = {
            node.name: range(node.lineno, node.end_lineno + 1)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        for name, line in _named(tree):
            if line not in spans.get(name, ()):
                found.add(name)
    return [name for name in exports(init_source) if name not in found]


def test_every_export_is_used_or_listed_as_public_only():
    users = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("demos", "benchmark"):
        users += sorted((ROOT / folder).glob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in users}
    init = (PACKAGE / "__init__.py").read_text()
    assert sorted(unnamed_exports(init, sources)) == sorted(PUBLIC_ONLY)


def test_the_check_sees_a_planted_unused_export():
    init = "from .a import Used, helper, dead, Shown, recursive\n"
    first = (
        "class Used:\n    pass\n\n"
        "def helper():\n    return Used()\n\n"
        "def dead():\n    return dead\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Shown:\n    def same(self):\n        return Shown\n"
    )
    demo = "import unitgraphs as ug\n\nug.helper()\nLAYERS = ('Shown',)\n"
    # a use inside the name's own definition does not count
    assert unnamed_exports(init, {"a.py": first, "demo.py": demo}) == ["dead", "recursive"]


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


def test_every_private_default_is_passed_by_some_call():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unset_defaults(sources) == []


def test_the_check_sees_a_planted_unset_default():
    first = (
        "def _f(a, b=1, *, c=2, d=3):\n    return a\n\n"
        "def _g(a, b=1, /):\n    return a\n\n"
        "class _K:\n"
        "    def __init__(self, g, whole=None):\n        self.g = g\n"
        "    def run(self, roots=None):\n        return roots\n\n"
        "class Public:\n"
        "    def __init__(self, x=0):\n        self.x = x\n"
        "    def _m(self, y=0, z=0):\n        return y\n"
        "    def shown(self, w=0):\n        return w\n\n"
        "def public(e=0):\n    return e\n"
    )
    second = (
        "from first import _K, _f, _g, Public\n\n"
        "def use(p: Public, args, kwargs):\n"
        "    _f(0, 1)\n    _f(0, **kwargs)\n    _g(*args)\n"
        "    _K(None).run(1)\n    p._m(z=1)\n"
    )
    found = unset_defaults({"first.py": first, "second.py": second})
    # public functions and the public methods of public classes are not
    # checked; positional, keyword and unpacked arguments all count
    assert found == ["first.py:_K.__init__(whole)", "first.py:Public._m(y)"]
