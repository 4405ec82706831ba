"""The oracle modules stay off ring structure, and no module imports
or reads another module's private name.

The brute-force oracles (``indsets``, ``complexes``) must rest on graph
facts alone, so that their agreement with the classifier is evidence.
Read with ``ast``, every import of the package is checked:

* ``indsets`` and ``complexes`` import from no module of the package but
  ``graphs``, ``bits`` and each other;
* ``graphs`` imports from ``bits`` anything, from ``rings`` only the
  ``Ring`` type and from ``descriptors`` only ``CACHE_SIZE`` (the size
  of ``build_graph``'s cache), and from no other module of the package;
* ``cli`` imports from ``indsets`` only ``enumerate_mis`` and the two
  default limits, so a brute-force verdict reaches the command line only
  through ``classify.cross_validate``;
* ``classify`` imports from ``complexes`` only ``DEFAULT_FACET_CAP``,
  ``SKIPPED``, ``join_factors`` and ``join_verdicts``: Ind(G) is judged
  in ``complexes`` alone, and ``classify`` builds no complex;
* ``constructions`` imports neither ``ZnRing`` from ``rings`` nor
  ``is_prime`` from ``descriptors``: a ring's fields and matrix blocks
  come from ``rings.quotient_by_radical``, which alone decides them;
* ``dsl`` imports from ``descriptors`` only the node classes (and their
  union ``RingDescriptor``), ``DescriptorError``, ``descriptor_expr``,
  ``is_prime`` and ``MAX_DEPTH``: the rules on a descriptor's numbers are
  its constructor's, and the parser has nothing to restate them with;
* no module imports a private name (one underscore) of another module;
* no module reads a private attribute (``x._name``) that it does not
  define, assign or store itself: a ring's digit and part layout
  (``_moduli``, ``_places``, ``_radices``) is read in ``rings`` alone,
  and every other module goes through ``parts`` and ``from_parts``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "unitgraphs"
MODULES = sorted(PACKAGE.glob("*.py"))

ORACLES = {"indsets", "complexes"}
ORACLE_SOURCES = {"graphs", "bits", *ORACLES}
# per module the graph layer may import from, the names it may take (None:
# any name)
GRAPH_SOURCES = {"bits": None, "rings": {"Ring"}, "descriptors": {"CACHE_SIZE"}}
CLI_FROM_INDSETS = {"enumerate_mis", "DEFAULT_MAX_SETS", "DEFAULT_TIME_BUDGET"}
CLASSIFY_FROM_COMPLEXES = {"DEFAULT_FACET_CAP", "SKIPPED", "join_factors", "join_verdicts"}
CONSTRUCTIONS_BARRED = {("rings", "ZnRing"), ("descriptors", "is_prime")}
DSL_FROM_DESCRIPTORS = {
    "Cn", "D4", "Gf", "GroupAlgebra", "Mat", "Product", "Q8", "Zn", "RingDescriptor",
    "DescriptorError", "descriptor_expr", "is_prime", "MAX_DEPTH",
}


def package_imports(source: str):
    """(module, name) for every name imported from a module of the
    package: ``from .x import a`` gives ("x", "a"), and ``from . import
    x`` gives ("x", None)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    yield alias.name, None
                else:
                    yield node.module.partition(".")[0], alias.name


def violations(module: str, source: str) -> list[str]:
    """The imports of module (given its source) that break a rule of the
    module docstring, as "module: from x import name" (or "module:
    import x" for ``from . import x``)."""
    out = []
    for origin, name in package_imports(source):
        bad = name is not None and name.startswith("_") and not name.startswith("__")
        if module in ORACLES:
            bad |= origin not in ORACLE_SOURCES
        elif module == "graphs":
            allowed = GRAPH_SOURCES.get(origin, set())
            bad |= allowed is not None and name not in allowed
        elif module == "cli":
            bad |= origin == "indsets" and name not in CLI_FROM_INDSETS
        elif module == "classify":
            bad |= origin == "complexes" and name not in CLASSIFY_FROM_COMPLEXES
        elif module == "constructions":
            bad |= (origin, name) in CONSTRUCTIONS_BARRED
        elif module == "dsl":
            bad |= origin == "descriptors" and name not in DSL_FROM_DESCRIPTORS
        if bad:
            what = f"import {origin}" if name is None else f"from {origin} import {name}"
            out.append(f"{module}: {what}")
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_reads(source: str) -> list[str]:
    """The private attributes the source reads, sorted, that it neither
    defines (as a function, method or class) nor binds (as a name or an
    attribute) anywhere."""
    own, reads = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            reads.add(node.attr)
    return sorted(reads - own)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_keep_the_boundaries(path):
    assert violations(path.stem, path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_read_only_their_own_private_attributes(path):
    assert foreign_private_reads(path.read_text()) == []


def test_the_check_sees_planted_private_reads():
    layout = (
        "from .rings import quotient_by_radical\n"
        "def block_digits(ring, x):\n"
        "    q = quotient_by_radical(ring)\n"
        "    return [x // p % q._radices[0] for p in ring._places], q.__dict__\n"
        "class Walk:\n"
        "    _limit = 3\n"
        "    def _step(self):\n"
        "        self._seen = self._limit\n"
        "        return self._seen, self._step, ring._radices\n"
    )
    assert foreign_private_reads(layout) == ["_places", "_radices"]


def test_the_check_sees_planted_imports():
    oracle = (
        "from .graphs import Graph\nfrom .bits import mask_indices\n"
        "from .complexes import link\nfrom .rings import VertexSet\n"
        "from . import wedderburn\n"
    )
    assert violations("indsets", oracle) == [
        "indsets: from rings import VertexSet",
        "indsets: import wedderburn",
    ]
    graph = (
        "from .bits import row_chunks\nfrom .rings import Ring, build_ring\n"
        "from .descriptors import CACHE_SIZE, Zn\nfrom .classify import predict\n"
    )
    assert violations("graphs", graph) == [
        "graphs: from rings import build_ring",
        "graphs: from descriptors import Zn",
        "graphs: from classify import predict",
    ]
    private = (
        "from .constructions import _matrix_view, matrix_ring\n"
        "from .bits import __all__\nfrom os import _exit\n"
        "def f():\n    from .indsets import _twin_classes\n"
    )
    assert violations("cli", private) == [
        "cli: from constructions import _matrix_view",
        "cli: from indsets import _twin_classes",
    ]
    verdicts = (
        "from .indsets import DEFAULT_MAX_SETS, enumerate_mis, well_covered_bruteforce\n"
        "from .classify import cross_validate\nfrom . import indsets\n"
    )
    assert violations("cli", verdicts) == [
        "cli: from indsets import well_covered_bruteforce",
        "cli: import indsets",
    ]
    judged = (
        "from .complexes import SKIPPED, SimplicialComplex, ind_reisner, join_verdicts\n"
        "from .graphs import Graph\nfrom . import complexes\n"
    )
    assert violations("classify", judged) == [
        "classify: from complexes import SimplicialComplex",
        "classify: from complexes import ind_reisner",
        "classify: import complexes",
    ]
    blocks = (
        "from .rings import GfRing, ZnRing, quotient_by_radical\n"
        "from .descriptors import Gf, factorize, is_prime\n"
    )
    assert violations("constructions", blocks) == [
        "constructions: from rings import ZnRing",
        "constructions: from descriptors import is_prime",
    ]
    rules = (
        "from .descriptors import DescriptorError, Gf, descriptor_expr, is_prime, prime_power\n"
        "from .descriptors import factorize\nfrom . import descriptors\n"
    )
    assert violations("dsl", rules) == [
        "dsl: from descriptors import prime_power",
        "dsl: from descriptors import factorize",
        "dsl: import descriptors",
    ]
