"""Graphs on the elements of a realized ring.

Two kinds are supported, both simple and undirected:

* unit:   x ~ y  iff  x != y and x + y is a unit,
* cayley: x ~ y  iff  x != y and x - y is a unit.

Adjacency is stored as one bitmask row per vertex, which keeps
256-vertex rings cheap and makes independence tests single AND
operations.

Every row is a translate of the unit set U.  ``build_graph`` reads both
graphs off ``T = ring.unit_translates``, where T[x] is the bitmask of
x + U; the ring computes T once and both kinds share its row objects:

* cayley: row x is T[x].  x - y is a unit iff y lies in x - U = x + U,
  since U = -U; and x is not in x + U, since 0 is not a unit.
* unit:   row x is T[-x] without bit x.  x + y is a unit iff y lies in
  -x + U, and x itself is in it exactly when 2x = (1 + 1)x is a unit.
  As 1 + 1 is central, that happens iff 1 + 1 is a unit and then exactly
  at the units, so only then are bits cleared, and only at the units.

In characteristic 2, where -x = x and 1 + 1 = 0, the unit graph is the
Cayley graph: ``build_graph`` builds (or finds) the Cayley graph and
gives the unit graph its rows tuple, the same object, already checked
for loops and range, so the rows are scanned once per ring.

``edges()`` and the exports unpack the rows into 0/1 blocks of
BITS_BLOCK entries and read them with numpy.

A built graph also keeps ``candidates``: the ring's translations by its
additive generators (``Ring.place_translations``), as permutations of
the vertices that may be automorphisms.  Translations are automorphisms
of every Cayley graph.  The translation by a maps an edge {x, y} of the
unit graph to a pair with sum x + y + 2a, so it is an automorphism iff
2a + U = U (iff 2a lies in J(R)), and a unit graph with 1 + 1 != 0 keeps
only the translations with T[2a] == T[0]: all of them when R/J(R) has
characteristic 2.  Nothing here relies on the candidates being
automorphisms: ``indsets`` keeps one only after checking it against the
rows.  Graphs built from rows and induced subgraphs have none.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import repeat

import numpy as np

from .bits import BITS_BLOCK, bits_to_masks, mask_indices, masks_to_bits, row_chunks
from .descriptors import CACHE_SIZE
from .rings import Ring

DEFAULT_GRAPH_CAP = 4096

KINDS = ("unit", "cayley")


class GraphError(Exception):
    pass


class Graph:
    """Immutable simple graph on vertices 0..n-1 with bitmask rows; the
    constructor checks the rows for loops and range, not for symmetry.

    ``candidates`` are vertex permutations, each a shift (up, high, down)
    of ``bits.shift_mask``, that may be automorphisms; they are unchecked
    hints."""

    __slots__ = ("n", "kind", "rows", "ring_expr", "candidates")

    def __init__(self, n: int, kind: str, rows, ring_expr: str | None = None, candidates=()):
        if type(n) is bool or not isinstance(n, int):
            raise GraphError(f"vertex count must be an int, got {n!r}")
        self.n = n
        self.kind = kind
        self.rows = tuple(rows)
        self.ring_expr = ring_expr
        self.candidates = tuple(candidates)
        if len(self.rows) != n:
            raise GraphError("row count does not match vertex count")
        try:
            for x, row in enumerate(self.rows):
                if (row >> x) & 1:
                    raise GraphError(f"loop at vertex {x}")
                if row >> n:
                    raise GraphError(f"row {x} has bits outside the vertex range")
        except TypeError:
            raise GraphError(f"row {x} is not an int: {row!r}") from None

    def degree(self, x: int) -> int:
        return self.rows[x].bit_count()

    def _neighbors_above(self):
        """(x, [y > x adjacent to x]) for every vertex x in order, unpacking
        BITS_BLOCK entries of the adjacency matrix at a time."""
        for rows in row_chunks(self.n, BITS_BLOCK):
            bits = masks_to_bits(self.rows[rows], self.n)
            for x, row in zip(range(rows.start, self.n), bits):
                yield x, (np.flatnonzero(row[x + 1 :]) + (x + 1)).tolist()

    def edges(self) -> list[tuple[int, int]]:
        """The edges (x, y) with x < y, in row-major order.  Endpoints are
        shared int objects, which keeps a dense edge list compact."""
        labels = list(range(self.n))
        out = []
        for x, ys in self._neighbors_above():
            out.extend(zip(repeat(labels[x]), map(labels.__getitem__, ys)))
        return out

    def edge_count(self) -> int:
        return sum(self.degree(x) for x in range(self.n)) // 2

    def __repr__(self) -> str:
        src = f" of {self.ring_expr}" if self.ring_expr else ""
        return f"<Graph {self.kind}{src}: {self.n} vertices, {self.edge_count()} edges>"


@lru_cache(maxsize=CACHE_SIZE)
def build_graph(ring: Ring, kind: str = "unit") -> Graph:
    """Build the graph of the given kind on ring's elements; a ring of more
    than DEFAULT_GRAPH_CAP elements raises GraphError.

    Rings are interned per descriptor (up to CACHE_SIZE of each), so
    repeated calls share one graph.
    """
    if kind not in KINDS:
        raise GraphError(f"unknown graph kind {kind!r}")
    n = ring.order
    if n > DEFAULT_GRAPH_CAP:
        raise GraphError(f"ring order {n} exceeds the graph cap {DEFAULT_GRAPH_CAP}")
    rows = ring.unit_translates
    candidates = ring.place_translations
    if kind == "unit":
        two = ring.add(ring.one, ring.one)
        if two == ring.zero:
            return _renamed(build_graph(ring, "cayley"), kind)
        # the translation by a, at index up, keeps the unit graph iff 2a + U = U
        candidates = [t for t in candidates if rows[ring.add(t[0], t[0])] == rows[0]]
        rows = list(map(rows.__getitem__, ring.neg_many(np.arange(n)).tolist()))
        if ring.is_unit(two):
            for x in ring.unit_set.indices():
                rows[x] ^= 1 << x
    return Graph(n, kind, rows, ring_expr=ring.expr, candidates=candidates)


def _renamed(g: Graph, kind: str) -> Graph:
    """g as a graph of another kind, sharing its rows tuple and candidates;
    the rows were checked when g was made, so they are not scanned again."""
    out = Graph.__new__(Graph)
    out.n, out.kind, out.rows = g.n, kind, g.rows
    out.ring_expr, out.candidates = g.ring_expr, g.candidates
    return out


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, by least vertex."""
    return mask_components(g.rows, (1 << g.n) - 1)


def mask_components(rows, mask: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph induced on
    mask, by least vertex.  A breadth-first search over the bitmask rows
    reads each row of mask at most once; left keeps the vertices not
    reached yet, and once it is empty the last part is whole, so the rows
    of its frontier go unread (a complete graph reads one row)."""
    parts = []
    left = mask
    while left:
        part = frontier = left & -left
        left ^= frontier
        while frontier and left:
            reach = 0
            for v in mask_indices(frontier):
                reach |= rows[v]
            frontier = reach & left
            left ^= frontier
            part |= frontier
        parts.append(part)
    return parts


# Vertices up to which induced_subgraph relabels a row by walking its set
# bits; above it, unpacking the kept rows with NumPy is faster.  Measured
# on a 2-core x86-64 Xeon, CPython 3.11, NumPy 2.4, on random parts of
# edge density 0.2-0.5 in graphs of 64-4096 vertices: at 8 vertices the
# walk takes 3-17 us and NumPy 11-19 us, at 16 the walk 10-57 us and
# NumPy 18-34 us; a part of 2 of the 4096-vertex Z2^12 graph walks in
# 2.4 us against 9.5 us, and a part of 32 of the 64-vertex Z8 x Z8 in
# 83 us against 31 us.
_RELABEL_WALK = 8


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """The subgraph induced on the vertices of mask, relabelled 0..k-1 in
    increasing order; g itself when mask holds every vertex."""
    if mask == (1 << g.n) - 1:
        return g
    keep = mask_indices(mask)
    if len(keep) <= _RELABEL_WALK:
        place = {v: 1 << i for i, v in enumerate(keep)}
        rows = []
        for v in keep:
            row, relabelled = g.rows[v] & mask, 0
            while row:
                low = row & -row
                relabelled |= place[low.bit_length() - 1]
                row ^= low
            rows.append(relabelled)
    else:
        bits = masks_to_bits([g.rows[v] for v in keep], g.n)
        rows = bits_to_masks(bits[:, keep])
    return Graph(len(keep), g.kind, rows, g.ring_expr)


def graphs_equal(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n:
        raise GraphError(f"vertex counts differ: {g1.n} vs {g2.n}")
    return g1.rows == g2.rows


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _require_graph(g) -> None:
    if not isinstance(g, Graph):
        raise GraphError(f"{g!r} is not a Graph")


# Both writers yield one row of edges at a time, which the CLI writes out
# as it comes; joined, the blocks are the DOT listing and json.dumps of
# {"n", "kind", "edges"} exactly.

def dot_blocks(g: Graph):
    _require_graph(g)
    yield "graph G {\n" + "".join(f"  {v};\n" for v in range(g.n))
    for x, ys in g._neighbors_above():
        if ys:
            head = f"  {x} -- "
            yield head + f";\n{head}".join(map(str, ys)) + ";\n"
    yield "}\n"


def json_blocks(g: Graph):
    _require_graph(g)
    yield f'{{"n": {g.n}, "kind": {json.dumps(g.kind)}, "edges": ['
    sep = ""
    for x, ys in g._neighbors_above():
        if ys:
            head = f"[{x}, "
            yield sep + head + f"], {head}".join(map(str, ys)) + "]"
            sep = ", "
    yield "]}"


def graph_to_dot(g: Graph) -> str:
    return "".join(dot_blocks(g))


def graph_to_json(g: Graph) -> str:
    return "".join(json_blocks(g))
