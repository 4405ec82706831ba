"""Independence complexes and their combinatorial ring-theoretic tests.

The independence complex of a graph has the independent sets as faces;
its facets are the maximal independent sets.  On top of that this module
decides, at desk scale:

* purity (all facets one size),
* pure shellability, by exhaustive search over facet orderings with the
  pairwise codimension-one criterion and memoized dead prefixes,
* reduced homology over GF(2), from boundary-matrix ranks,
* Cohen-Macaulayness over GF(2), via vanishing of every face link's
  reduced homology below its dimension,
* the Gorenstein property over GF(2), via the same vanishing on the
  core plus one-dimensional top homology of every core link.

Faces and facets are int bitmasks throughout.  The homology convention
for the reduced chain complex is the usual one: the complex {[]} whose
only face is empty has homology rank 1 in dimension -1; any complex
with a vertex has rank 0 there.
"""

from __future__ import annotations

import json

import numpy as np

from .graphs import Graph
from .indsets import enumerate_mis
from .rings import mask_indices

DEFAULT_FACET_CAP = 12
DEFAULT_FACE_CAP = 200_000
DEFAULT_SHELLING_NODE_CAP = 10**6


class ComplexError(Exception):
    pass


class BudgetExceeded(ComplexError):
    pass


class SimplicialComplex:
    """Facet-presented complex; facets are deduplicated, made mutually
    incomparable, and sorted canonically at construction."""

    __slots__ = ("vertex_count", "facets")

    def __init__(self, vertex_count: int, facet_masks):
        unique = sorted(set(int(m) for m in facet_masks), key=lambda m: m.bit_count())
        maximal = []
        for i, m in enumerate(unique):
            if m >> vertex_count:
                raise ComplexError("facet has vertices outside the complex")
            if any(m != other and m & other == m for other in unique[i + 1 :]):
                continue
            maximal.append(m)
        self.vertex_count = vertex_count
        self.facets = tuple(sorted(maximal, key=mask_indices))

    @classmethod
    def from_facets(cls, vertex_count: int, facets) -> "SimplicialComplex":
        masks = []
        for f in facets:
            mask = 0
            for v in f:
                mask |= 1 << int(v)
            masks.append(mask)
        return cls(vertex_count, masks)

    @property
    def dimension(self) -> int:
        """Max facet size minus one; -1 for {[]}; -2 for the void complex."""
        if not self.facets:
            return -2
        return max(m.bit_count() for m in self.facets) - 1

    def facet_lists(self) -> list[list[int]]:
        return [mask_indices(m) for m in self.facets]

    def faces(self, face_cap: int = DEFAULT_FACE_CAP) -> list[int]:
        """All faces (including the empty face) as masks, deduplicated."""
        seen: set[int] = set()
        for f in self.facets:
            sub = f
            while True:
                seen.add(sub)
                if len(seen) > face_cap:
                    raise BudgetExceeded(
                        f"complex has more than {face_cap} faces"
                    )
                if sub == 0:
                    break
                sub = (sub - 1) & f
        return sorted(seen, key=mask_indices)

    def __repr__(self) -> str:
        return (
            f"<SimplicialComplex on {self.vertex_count} vertices, "
            f"{len(self.facets)} facets, dim {self.dimension}>"
        )


def independence_complex(g: Graph, **limits) -> SimplicialComplex:
    """Complex whose facets are all maximal independent sets of g."""
    report = enumerate_mis(g, stop_mode="all", collect=True, **limits)
    if report.truncated:
        raise BudgetExceeded(
            "maximal independent set enumeration was truncated "
            f"({report.stop_reason}); cannot build the full complex"
        )
    return SimplicialComplex(g.n, [s.mask for s in report.sets])


def is_pure(c: SimplicialComplex) -> bool:
    sizes = {m.bit_count() for m in c.facets}
    return len(sizes) <= 1


# ---------------------------------------------------------------------------
# shellability (pure, exhaustive)
# ---------------------------------------------------------------------------

def find_shelling(
    c: SimplicialComplex,
    facet_cap: int = DEFAULT_FACET_CAP,
    node_cap: int = DEFAULT_SHELLING_NODE_CAP,
) -> list[int] | None:
    """A shelling order (as facet indices) or None if none exists.

    Raises BudgetExceeded beyond the caps.  Only pure complexes can be
    shellable here; callers gate on is_pure first.
    """
    facets = c.facets
    m = len(facets)
    if m > facet_cap:
        raise BudgetExceeded(f"{m} facets exceed the shellability cap {facet_cap}")
    if m <= 1:
        return list(range(m))
    failed: set[int] = set()
    nodes = 0

    def may_follow(j: int, placed: list[int]) -> bool:
        fj = facets[j]
        for i in placed:
            meet = fj & facets[i]
            for k in placed:
                if meet & ~facets[k]:
                    continue
                if (fj & ~facets[k]).bit_count() == 1:
                    break
            else:
                return False
        return True

    def search(placed_mask: int, placed: list[int]) -> list[int] | None:
        nonlocal nodes
        if len(placed) == m:
            return placed[:]
        if placed_mask in failed:
            return None
        nodes += 1
        if nodes > node_cap:
            raise BudgetExceeded("shelling search exceeded its node budget")
        for j in range(m):
            if (placed_mask >> j) & 1:
                continue
            if may_follow(j, placed):
                placed.append(j)
                found = search(placed_mask | (1 << j), placed)
                if found is not None:
                    return found
                placed.pop()
        failed.add(placed_mask)
        return None

    return search(0, [])


def is_shellable(
    c: SimplicialComplex,
    facet_cap: int = DEFAULT_FACET_CAP,
    node_cap: int = DEFAULT_SHELLING_NODE_CAP,
) -> bool | None:
    """True/False when decided; None when a budget was exceeded.

    Non-pure complexes are immediately False (only pure shellability is
    implemented).
    """
    if not is_pure(c):
        return False
    try:
        return find_shelling(c, facet_cap=facet_cap, node_cap=node_cap) is not None
    except BudgetExceeded:
        return None


# ---------------------------------------------------------------------------
# GF(2) homology
# ---------------------------------------------------------------------------

def _gf2_rank(mat: np.ndarray) -> int:
    m = mat.copy()
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivots = np.nonzero(m[rank:, c])[0]
        if pivots.size == 0:
            continue
        p = rank + int(pivots[0])
        if p != rank:
            m[[rank, p]] = m[[p, rank]]
        hit = np.nonzero(m[rank + 1 :, c])[0]
        if hit.size:
            m[rank + 1 + hit] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def reduced_homology_gf2(
    c: SimplicialComplex, face_cap: int = DEFAULT_FACE_CAP
) -> list[int]:
    """Ranks of reduced GF(2) homology in dimensions -1..dim.

    Entry 0 of the result is dimension -1.  The void complex gives [].
    """
    if not c.facets:
        return []
    faces = c.faces(face_cap)
    by_size: dict[int, list[int]] = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    dim = c.dimension
    index_of = {s: {f: i for i, f in enumerate(fs)} for s, fs in by_size.items()}
    # boundary from size s to size s-1, for s = 1..dim+1
    ranks = {}
    for s in range(1, dim + 2):
        upper = by_size.get(s, [])
        lower = index_of.get(s - 1, {})
        mat = np.zeros((len(lower), len(upper)), dtype=np.uint8)
        for j, f in enumerate(upper):
            rest = f
            while rest:
                low = rest & -rest
                mat[lower[f ^ low], j] = 1
                rest ^= low
        ranks[s] = _gf2_rank(mat) if mat.size else 0
    ranks[dim + 2] = 0
    out = []
    for d in range(-1, dim + 1):
        n_faces = len(by_size.get(d + 1, []))
        out.append(n_faces - ranks.get(d + 1, 0) - ranks.get(d + 2, 0))
    return out


def link(c: SimplicialComplex, face_mask: int) -> SimplicialComplex:
    """link(sigma) = {tau : tau disjoint from sigma, tau + sigma a face}."""
    return SimplicialComplex(
        c.vertex_count,
        [f & ~face_mask for f in c.facets if f & face_mask == face_mask],
    )


def is_cm_gf2(c: SimplicialComplex, face_cap: int = DEFAULT_FACE_CAP) -> bool:
    """Cohen-Macaulay over GF(2): every face link has vanishing reduced
    homology below its own dimension."""
    if not c.facets:
        raise ComplexError("void complex has no Cohen-Macaulay verdict")
    cache: dict[tuple[int, ...], list[int]] = {}
    for sigma in c.faces(face_cap):
        ranks = _link_homology(c, sigma, cache, face_cap)
        if any(ranks[:-1]):
            return False
    return True


def is_gorenstein_gf2(c: SimplicialComplex, face_cap: int = DEFAULT_FACE_CAP) -> bool:
    """Gorenstein over GF(2): on the core (the restriction to vertices
    missing from at least one facet), every face link has vanishing
    reduced homology below its dimension and rank exactly 1 on top."""
    if not c.facets:
        raise ComplexError("void complex has no Gorenstein verdict")
    common = c.facets[0]
    for f in c.facets[1:]:
        common &= f
    core = SimplicialComplex(c.vertex_count, [f & ~common for f in c.facets])
    cache: dict[tuple[int, ...], list[int]] = {}
    for sigma in core.faces(face_cap):
        ranks = _link_homology(core, sigma, cache, face_cap)
        if any(ranks[:-1]) or ranks[-1] != 1:
            return False
    return True


def _link_homology(c, sigma, cache, face_cap) -> list[int]:
    lk = link(c, sigma)
    key = lk.facets
    got = cache.get(key)
    if got is None:
        got = reduced_homology_gf2(lk, face_cap)
        cache[key] = got
    return got


def euler_characteristic_faces(c: SimplicialComplex, face_cap: int = DEFAULT_FACE_CAP) -> int:
    """Reduced Euler characteristic from face counts (includes the empty
    face with sign -1)."""
    total = 0
    for f in c.faces(face_cap):
        total += -1 if f.bit_count() % 2 == 0 else 1
    return total


def euler_characteristic_homology(c: SimplicialComplex, face_cap: int = DEFAULT_FACE_CAP) -> int:
    total = 0
    for d, rank in enumerate(reduced_homology_gf2(c, face_cap), start=-1):
        total += rank if d % 2 == 0 else -rank
    return total


# ---------------------------------------------------------------------------
# JSON facet exchange
# ---------------------------------------------------------------------------

def facets_to_json(c: SimplicialComplex) -> str:
    return json.dumps(c.facet_lists())


def complex_from_json(
    text: str | bytes, vertex_count: int | None = None
) -> SimplicialComplex:
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ComplexError(f"facet file is not JSON: {exc}") from None
    if not isinstance(data, list):
        raise ComplexError("facet file must be a JSON array of index arrays")
    facets = []
    top = -1
    for entry in data:
        if not isinstance(entry, list) or not all(
            isinstance(v, int) and v >= 0 for v in entry
        ):
            raise ComplexError(f"bad facet entry {entry!r}")
        facets.append(entry)
        top = max(top, max(entry, default=-1))
    n = vertex_count if vertex_count is not None else top + 1
    return SimplicialComplex.from_facets(n, facets)
