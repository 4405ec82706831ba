"""Independence complexes and their combinatorial ring-theoretic tests.

The independence complex Ind(G) of a graph has the independent sets as
faces; its facets are the maximal independent sets.  On top of that this
module decides, at desk scale:

* purity (all facets one size),
* pure shellability, by exhaustive search over facet orderings with the
  pairwise codimension-one criterion and memoized dead prefixes,
* reduced homology over GF(2), from boundary-matrix ranks,
* Cohen-Macaulayness over GF(2), via vanishing of every face link's
  reduced homology below its dimension (Reisner's criterion),
* the Gorenstein property over GF(2), via the same vanishing on the
  core plus one-dimensional top homology of every core link.

Both criteria judge the core, the complex less the vertices in every
facet: a cone is CM iff its base is.  They first reject a core that is
not pure, or that has dimension at least 1 and is disconnected: both
violate Reisner's criterion.  Then one engine per representation decides:

* Ind(G) is judged on G by ``ind_reisner``, given its dimension, with
  no facet listed: ``join_verdicts`` runs it on each component of a
  graph.  The vertices in every facet are G's isolated ones, so the
  core is Ind of G less them.  The complement of G is its 1-skeleton,
  so connectivity is read off G's rows, and the criterion recurses over
  vertex masks of G.  The link of a face sigma of Ind(G)
  is Ind(G - N[sigma]) (Woodroofe, Proc. AMS 137, 2009), so every link
  is named by a vertex mask.  A mask is split into the components of the
  subgraph it induces (Ind of a disjoint union is the join of the parts'
  complexes, and a join passes iff every part does); a component passes
  iff its vertex links all pass with one dimension and its own reduced
  homology vanishes below its dimension.  False twins (equal rows in the
  component) have isomorphic links, so one link per twin class is
  judged.  That homology is computed on the fold: if N(u) is a subset of
  N(v) for u != v, then Ind(G) and Ind(G - v) are homotopy equivalent
  (Engström, Europ. J. Combin. 29, 2008).  Folding keeps homology but
  not Cohen-Macaulayness, so the links recurse on the unfolded graph.
  The recursion reads only adjacency rows.
* A ``SimplicialComplex``, known by its facets (a facet file, or
  ``independence_complex``), strips the facets' common intersection,
  then takes one walk over the faces of the core that computes each
  distinct link's homology once.  It is also the reference the graph
  recursion is tested against.

A graph's verdicts are judged on the join of its components, one
``indsets.Component`` (subgraph and report) at a time: ``join_factors``
yields them and ``join_verdicts`` judges each distinct one once, from
its report and rows.  A verdict that hits a cap is ``Skipped``.

Faces, facets and links are int bitmasks throughout, and so are the
rows of the boundary matrices: the row of a face has bit i set for the
i-th face one size down, and ranks come from an XOR basis keyed by
leading bit.  Each complex also keeps, per vertex, the bitset of the
facets containing it; the maximality filter, links and the
connectivity test AND and OR those bitsets instead of scanning facets.
The homology convention for the reduced chain complex is the usual one:
the complex {[]} whose only face is empty has homology rank 1 in
dimension -1; any complex with a vertex has rank 0 there.
"""

from __future__ import annotations

import json
from functools import reduce

from .bits import BITS_BLOCK, HARD_ORDER_CAP, bits_to_masks, indices_mask
from .bits import mask_indices, masks_to_bits
from .graphs import Graph, mask_components
from .indsets import Component, component_reports, enumerate_mis, twin_classes

DEFAULT_FACET_CAP = 12
DEFAULT_FACE_CAP = 200_000
DEFAULT_SHELLING_NODE_CAP = 10**6
SKIPPED = "skipped"


class ComplexError(Exception):
    pass


class BudgetExceeded(ComplexError):
    pass


class Skipped(str):
    """A verdict that hit a cap: equal to SKIPPED and printed as it, and
    keeping the message of the cap that fired in ``reason``."""

    def __new__(cls, reason: str):
        self = super().__new__(cls, SKIPPED)
        self.reason = reason
        return self


class SimplicialComplex:
    """Facet-presented complex; facets are nonnegative int masks,
    deduplicated, made mutually incomparable, and sorted canonically at
    construction."""

    __slots__ = ("vertex_count", "facets", "_incidence")

    def __init__(self, vertex_count: int, facet_masks):
        masks = list(facet_masks)
        for m in masks:  # before deduplication, which would equate 1, 1.0 and True
            if type(m) is not int or m < 0:
                raise ComplexError(f"bad facet mask {m!r}: masks are nonnegative integers")
        masks = set(masks)
        if masks and max(masks) >> vertex_count:
            top = max(masks).bit_length() - 1
            raise ComplexError(f"facet has vertex {top} outside the complex")
        if len(set(map(int.bit_count, masks))) > 1:
            masks = _maximal(sorted(masks, key=int.bit_count, reverse=True), vertex_count)
        self.vertex_count = vertex_count
        self.facets = tuple(sorted(masks, key=_canonical_key))
        self._incidence = None

    @property
    def incidence(self) -> list[int]:
        """Per vertex, the facets containing it: bit j for facets[j]."""
        if self._incidence is None:
            self._incidence = _incidence(self.facets, self.vertex_count)
        return self._incidence

    @classmethod
    def from_facets(cls, vertex_count: int, facets) -> "SimplicialComplex":
        facets = [list(f) for f in facets]
        for f in facets:
            if not all(type(v) is int for v in f):  # no str, float or bool
                raise ComplexError(f"bad facet entry {f!r}: vertices are integers")
        low = min(map(min, filter(None, facets)), default=0)
        if low < 0:  # past vertex_count, the constructor names the vertex
            raise ComplexError(f"facet has vertex {low} outside the complex")
        return cls(vertex_count, map(indices_mask, facets))

    @property
    def dimension(self) -> int:
        """Max facet size minus one; -1 for {[]}; -2 for the void complex."""
        if not self.facets:
            return -2
        return max(m.bit_count() for m in self.facets) - 1

    def facet_lists(self) -> list[list[int]]:
        return [mask_indices(m) for m in self.facets]

    def faces(self) -> list[int]:
        """All faces (including the empty face) as masks, deduplicated and
        sorted canonically."""
        return sorted(self._face_set(), key=_canonical_key)

    def _face_set(self) -> set[int]:
        """All faces, unsorted; raises BudgetExceeded past DEFAULT_FACE_CAP."""
        seen: set[int] = set()
        for f in self.facets:
            sub = f
            while True:
                seen.add(sub)
                if len(seen) > DEFAULT_FACE_CAP:
                    raise BudgetExceeded(f"complex has more than {DEFAULT_FACE_CAP} faces")
                if sub == 0:
                    break
                sub = (sub - 1) & f
        return seen

    def __repr__(self) -> str:
        return (
            f"<SimplicialComplex on {self.vertex_count} vertices, "
            f"{len(self.facets)} facets, dim {self.dimension}>"
        )


def _incidence(facets, vertex_count: int) -> list[int]:
    """Per vertex, the mask of the facets (bit j = facets[j]) containing it:
    the transpose of the facet bitsets, BITS_BLOCK entries at a time."""
    out = [0] * vertex_count
    block = max(1, BITS_BLOCK // max(1, vertex_count))
    for start in range(0, len(facets), block):
        bits = masks_to_bits(facets[start : start + block], vertex_count)
        for v, column in enumerate(bits_to_masks(bits.T)):
            out[v] |= column << start
    return out


def _containing(incidence: list[int], mask: int, within: int) -> int:
    """The facets among within (a facet bitset) that contain mask: the
    AND of the incidence of mask's vertices."""
    while mask and within:
        low = mask & -mask
        within &= incidence[low.bit_length() - 1]
        mask ^= low
    return within


def _canonical_key(mask: int) -> str:
    """Sort key for the lexicographic order of index lists: the bits from
    bit 0 up to the top one, a member before a non-member ("1" < "2").
    The empty set is first, so it gets "" (format(0, "b") is "0")."""
    return format(mask, "b")[::-1].replace("0", "2") if mask else ""


def _maximal(masks: list[int], vertex_count: int) -> list[int]:
    """The masks not contained in another one, given distinct masks sorted
    by size, largest first.  A mask lies in a larger one iff the incidence
    of its vertices, ANDed over the larger masks, is nonzero."""
    inc = _incidence(masks, vertex_count)
    kept = []
    size, larger = None, 0
    for j, m in enumerate(masks):
        if m.bit_count() != size:
            size, larger = m.bit_count(), (1 << j) - 1
        if not _containing(inc, m, larger):
            kept.append(m)
    return kept


def independence_complex(g: Graph) -> SimplicialComplex:
    """Complex whose facets are all maximal independent sets of g."""
    report = enumerate_mis(g, stop_mode="all", collect=True)
    require_whole(report)
    return SimplicialComplex(g.n, [s.mask for s in report.sets])


def require_whole(report) -> None:
    """Raises BudgetExceeded if a cap cut the search short: its sets are
    then not the whole family, and no complex is built from them."""
    if report.truncated:
        raise BudgetExceeded(f"{_cut_short(report)}; cannot build the full complex")


def _cut_short(report) -> str:
    return f"maximal independent set enumeration was truncated ({report.stop_reason})"


def is_pure(c: SimplicialComplex) -> bool:
    sizes = {m.bit_count() for m in c.facets}
    return len(sizes) <= 1


# ---------------------------------------------------------------------------
# shellability (pure, exhaustive)
# ---------------------------------------------------------------------------

def find_shelling(
    c: SimplicialComplex, facet_cap: int = DEFAULT_FACET_CAP
) -> list[int] | None:
    """A shelling order (as facet indices) or None if none exists.

    Raises BudgetExceeded beyond facet_cap facets or beyond
    DEFAULT_SHELLING_NODE_CAP search nodes.  Only pure complexes can be
    shellable here; callers gate on is_pure first.
    """
    _check_facet_cap(facet_cap)
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
        if nodes > DEFAULT_SHELLING_NODE_CAP:
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


def _check_facet_cap(facet_cap) -> None:
    """Where the facet cap enters: anything but an int >= 0 is refused."""
    if type(facet_cap) is bool or not isinstance(facet_cap, int) or facet_cap < 0:
        raise ComplexError(f"bad facet_cap {facet_cap!r}")


def is_shellable(c: SimplicialComplex, facet_cap: int = DEFAULT_FACET_CAP) -> bool | None:
    """True/False when decided; None when a budget was exceeded.

    Non-pure complexes are immediately False (only pure shellability is
    implemented).  A pure complex of dimension at most 0 is True without a
    search: any order of its points is a shelling.
    """
    _check_facet_cap(facet_cap)
    if not is_pure(c):
        return False
    if c.dimension <= 0:
        return True
    try:
        return find_shelling(c, facet_cap=facet_cap) is not None
    except BudgetExceeded:
        return None


# ---------------------------------------------------------------------------
# GF(2) homology
# ---------------------------------------------------------------------------

def _gf2_rank(rows) -> int:
    """Rank over GF(2) of a matrix given as int rows (bit i = column i):
    each row is reduced against a basis keyed by leading bit and joins it
    if anything is left."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            row ^= pivot
    return len(basis)


def reduced_homology_gf2(c: SimplicialComplex) -> list[int]:
    """Ranks of reduced GF(2) homology in dimensions -1..dim.

    Entry 0 of the result is dimension -1.  The void complex gives [].
    """
    if not c.facets:
        return []
    return _homology(c._face_set())


def _homology(faces) -> list[int]:
    """Ranks of reduced GF(2) homology in dimensions -1..dim of the
    complex whose faces (the empty one included) are given."""
    # ranks do not depend on the order of faces, so they stay unsorted
    by_size: dict[int, list[int]] = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    dim = max(by_size) - 1
    index_of = {s: {f: i for i, f in enumerate(fs)} for s, fs in by_size.items()}
    # boundary from size s to size s-1, for s = 1..dim+1: one int row per
    # face, bit i set for the i-th face one size down
    ranks = {}
    for s in range(1, dim + 2):
        lower = index_of.get(s - 1, {})
        rows = []
        for f in by_size.get(s, []):
            row = 0
            rest = f
            while rest:
                low = rest & -rest
                row |= 1 << lower[f ^ low]
                rest ^= low
            rows.append(row)
        ranks[s] = _gf2_rank(rows)
    ranks[dim + 2] = 0
    out = []
    for d in range(-1, dim + 1):
        n_faces = len(by_size.get(d + 1, []))
        out.append(n_faces - ranks.get(d + 1, 0) - ranks.get(d + 2, 0))
    return out


def link(c: SimplicialComplex, face_mask: int) -> SimplicialComplex:
    """link(sigma) = {tau : tau disjoint from sigma, tau + sigma a face}.
    Its facets come from the facets containing sigma: the AND of the
    incidence of sigma's vertices.  A mask that is not a face of c
    raises ComplexError."""
    if type(face_mask) is not int or face_mask < 0:
        raise ComplexError(f"bad face mask {face_mask!r}: masks are nonnegative integers")
    if face_mask >> c.vertex_count:
        top = face_mask.bit_length() - 1
        raise ComplexError(f"face has vertex {top} outside the complex")
    containing = _containing(c.incidence, face_mask, (1 << len(c.facets)) - 1)
    if not containing:
        raise ComplexError(f"{mask_indices(face_mask)} is not a face of the complex")
    return SimplicialComplex(
        c.vertex_count, [c.facets[j] & ~face_mask for j in mask_indices(containing)]
    )


def is_cm_gf2(c: SimplicialComplex) -> bool:
    """Cohen-Macaulay over GF(2): every face link has vanishing reduced
    homology below its own dimension."""
    if not c.facets:
        raise ComplexError("void complex has no Cohen-Macaulay verdict")
    return _reisner(c, lambda top: True)


def is_gorenstein_gf2(c: SimplicialComplex) -> bool:
    """Gorenstein over GF(2): on the core, every face link has vanishing
    reduced homology below its dimension and rank exactly 1 on top."""
    if not c.facets:
        raise ComplexError("void complex has no Gorenstein verdict")
    return _reisner(c, lambda top: top == 1)


def _reisner(c: SimplicialComplex, top_ok) -> bool:
    """Reisner's criterion, with the top rank accepted by top_ok, on the
    core of c.  A complex whose links all pass is pure, and its core must
    be connected at dimension 1 or more (its own H~_0 vanishes); then the
    walk over its faces decides."""
    if not is_pure(c):
        return False
    common = reduce(int.__and__, c.facets)
    core = SimplicialComplex(c.vertex_count, [f & ~common for f in c.facets]) if common else c
    return (core.dimension < 1 or _connected(core)) and _every_link(core, top_ok)


def ind_reisner(rows, dimension: int, top_ok) -> bool:
    """Reisner's criterion, with the top rank accepted by top_ok, on the
    core of Ind(G), pure of this dimension, from G's adjacency rows: Ind
    of G less its isolated vertices, lower in dimension by their number.
    Its 1-skeleton, the complement of that graph, must be connected at
    dimension 1 or more; then the vertex-link recursion decides."""
    mask = (1 << len(rows)) - 1
    if 0 in rows:  # one scan when no vertex is isolated
        isolated = indices_mask(v for v, row in enumerate(rows) if not row)
        mask ^= isolated
        dimension -= isolated.bit_count()
    connected = dimension < 1 or _complement_connected(rows, mask)
    return connected and _graph_reisner(rows, mask, top_ok)


def _complement_connected(rows, mask: int) -> bool:
    """The complement of G[mask] is connected: a vertex joins the component
    of the least one when a vertex reached last is not adjacent to it."""
    new = mask & -mask
    left = mask ^ new
    while new and left:
        common = left
        for v in mask_indices(new):
            common &= rows[v]
        new, left = left ^ common, common
    return not left


def _every_link(c: SimplicialComplex, top_ok) -> bool:
    """Reisner's walk: every face link has vanishing reduced homology
    below its dimension and a top rank accepted by top_ok.  Homology is
    computed once per distinct link."""
    cache: dict[tuple[int, ...], bool] = {}
    for sigma in c.faces():
        lk = link(c, sigma)
        ok = cache.get(lk.facets)
        if ok is None:
            ranks = reduced_homology_gf2(lk)
            ok = cache[lk.facets] = not any(ranks[:-1]) and top_ok(ranks[-1])
        if not ok:
            return False
    return True


def _connected(c: SimplicialComplex) -> bool:
    """The facets form one component: a search from facets[0] that reads
    the incidence of each vertex once."""
    reached = 1
    seen = 0
    todo = c.facets[0]
    while todo:
        found = 0
        for v in mask_indices(todo):
            found |= c.incidence[v]
        seen |= todo
        found &= ~reached
        reached |= found
        todo = 0
        for j in mask_indices(found):
            todo |= c.facets[j]
        todo &= ~seen
    return reached == (1 << len(c.facets)) - 1


# ---------------------------------------------------------------------------
# Reisner's criterion on a graph: the vertex-link recursion
# ---------------------------------------------------------------------------

def _graph_reisner(rows, mask: int, top_ok) -> bool:
    """Reisner's criterion on Ind(G[mask]), where rows are G's adjacency
    rows, by recursion over vertex masks of G.

    The link of a vertex v in Ind(H) is Ind(H - N[v]), so each link is
    the complex of the subgraph induced on a smaller mask.  Ind of a
    disjoint union is the join of the parts' complexes; a join passes
    iff every part does, and has dimension sum(d_i + 1) - 1.  So only
    connected masks are judged (``_judge_component``), and each one that
    passes is memoized with its dimension.  A mask is reached only as a
    link of a link of ... of the top, so the first one that fails fails
    the top as well, and the verdict is False at once.

    Each judged mask is a generator that yields the masks it needs a
    dimension for; a loop over an explicit stack drives them, so a
    descent as deep as the independence number costs no Python
    recursion.  DEFAULT_FACE_CAP bounds each homology computation and
    the count of distinct passing masks; passing either raises
    BudgetExceeded."""
    passed: dict[int, int] = {}
    for top in mask_components(rows, mask):
        stack = [(top, _judge_component(rows, top, top_ok, passed))]
        dim = None
        while stack:
            part, judge = stack[-1]
            try:
                needed = judge.send(dim)
            except StopIteration as done:
                dim = done.value
                if dim is None:
                    return False
                passed[part] = dim
                if len(passed) > DEFAULT_FACE_CAP:
                    raise BudgetExceeded(
                        f"Reisner's criterion visited more than {DEFAULT_FACE_CAP} distinct links"
                    )
                stack.pop()
            else:
                stack.append((needed, _judge_component(rows, needed, top_ok, passed)))
                dim = None
    return True


def _judge_component(rows, part: int, top_ok, passed: dict[int, int]):
    """Generator judging Ind(G[part]) for a connected part: it yields each
    component of a vertex link that is not in passed, is sent that
    component's dimension, and returns the dimension of Ind(G[part]), or
    None if the criterion fails there.

    Vertex links come first: two of different dimensions mean the
    complex is not pure.  Otherwise every facet is a vertex plus a facet
    of that vertex's link, so the dimension is one more than theirs, and
    the reduced homology of the complex, computed on its fold, must
    vanish below it, with top_ok accepting the top rank.

    Swapping two false twins of G[part] (equal rows there) is an
    automorphism of it that maps the link of one onto the link of the
    other, so one link per twin class is judged."""
    vertices = mask_indices(part)
    reps, _ = twin_classes({v: rows[v] & part for v in vertices}, part, vertices)
    link_dim = None
    for v in mask_indices(reps):
        dim = -1
        for sub in mask_components(rows, part & ~(rows[v] | 1 << v)):
            sub_dim = passed.get(sub)
            if sub_dim is None:
                sub_dim = yield sub
            dim += sub_dim + 1
        if link_dim is None:
            link_dim = dim
        elif dim != link_dim:
            return None
    dim = link_dim + 1
    ranks = _folded_homology(rows, part)
    ranks += [0] * (dim + 2 - len(ranks))
    if any(ranks[: dim + 1]) or not top_ok(ranks[dim + 1]):
        return None
    return dim


def _fold(rows, mask: int) -> int:
    """The mask left once no fold applies: if N(u) is a subset of N(v) in
    G[mask] for u != v, delete v, which keeps the homotopy type of
    Ind(G[mask]) (Engström 2008).  The v that u folds away are the
    vertices other than u and its neighbours that are adjacent to every
    neighbour of u; they are deleted together, since deleting one leaves
    N(u) inside the neighbourhoods of the others."""
    while True:
        folded = mask
        for u in mask_indices(mask):
            low = 1 << u
            if not folded & low:
                continue
            neighbours = rows[u] & folded
            covering = folded & ~neighbours & ~low
            while covering and neighbours:
                w = neighbours & -neighbours
                covering &= rows[w.bit_length() - 1]
                neighbours ^= w
            folded &= ~covering
        if folded == mask:
            return mask
        mask = folded


def _folded_homology(rows, mask: int) -> list[int]:
    """Ranks of the reduced GF(2) homology of Ind(G[mask]) in dimensions
    -1, 0, ... (trailing zeros may be missing), computed on the fold one
    component at a time.  Over a field the homology of a join is the
    tensor product of the factors' shifted by one, so with entry i for
    dimension i - 1 the rank lists multiply as polynomials."""
    ranks = [1]  # {[]}, the unit of the join
    for part in mask_components(rows, _fold(rows, mask)):
        factor = _homology(_independent_sets(rows, part))
        product = [0] * (len(ranks) + len(factor) - 1)
        for i, a in enumerate(ranks):
            if a:
                for j, b in enumerate(factor):
                    product[i + j] += a * b
        ranks = product
    return ranks


def _independent_sets(rows, mask: int) -> list[int]:
    """Every independent set of G[mask], the empty one included: each set
    grows only by vertices above its largest one that no member is
    adjacent to, so it is listed once.  Raises BudgetExceeded past
    DEFAULT_FACE_CAP sets."""
    faces = []
    todo = [(0, mask)]
    while todo:
        face, free = todo.pop()
        faces.append(face)
        if len(faces) > DEFAULT_FACE_CAP:
            raise BudgetExceeded(f"complex has more than {DEFAULT_FACE_CAP} faces")
        while free:
            low = free & -free
            free ^= low
            todo.append((face | low, free & ~rows[low.bit_length() - 1]))
    return faces


# ---------------------------------------------------------------------------
# the join of a graph's components
# ---------------------------------------------------------------------------

def join_factors(graph, *, stop_mode="first_two_sizes", **limits):
    """Ind(G1 + G2) is the join Ind(G1) * Ind(G2): the factors are the
    Components of ``component_reports`` (a repeat is the same object),
    each search stopped at a second facet size, which decides every
    verdict, or with stop_mode="all" run to the whole family, as the
    ``complex`` command needs.  limits go to ``component_reports``."""
    return (c for _, c in component_reports(graph, stop_mode=stop_mode, **limits))


def join_verdicts(factors, keys, *, facet_cap=DEFAULT_FACET_CAP):
    """The verdicts named by keys ("well_covered" = "pure", "cm_gf2",
    "shellable", "gorenstein_gf2") on the join of the factors, by _join.
    Gorenstein and pure shellable complexes are CM (Stanley, ch. II), so
    CM False decides both without their walks.  factors may be a lazy
    iterable, read only once facet_cap is accepted."""
    _check_facet_cap(facet_cap)
    factors = list(factors)
    verdicts = {}
    for key in sorted(keys, key=lambda k: k != "cm_gf2"):  # CM first
        implied = key in ("shellable", "gorenstein_gf2") and verdicts.get("cm_gf2") is False
        verdicts[key] = False if implied else _join(factors, key, facet_cap)
    return {key: verdicts[key] for key in keys}


def _verdict(key, factor, facet_cap):
    """key's verdict on one factor: a facet file's complex by the facet
    oracles; a Component by its report and rows.  A truncated search is
    Skipped and one of two sizes is False (not pure); otherwise Ind of the
    component is pure, of dimension independence_number - 1."""
    if not isinstance(factor, Component):
        if key == "shellable":
            return is_shellable(factor, facet_cap=facet_cap)
        return {"cm_gf2": is_cm_gf2, "gorenstein_gf2": is_gorenstein_gf2}.get(key, is_pure)(factor)
    sub, found = factor.graph, factor.report
    if found.truncated:
        return Skipped(_cut_short(found))
    if key in ("well_covered", "pure") or len(found.sizes_seen) > 1:
        return len(found.sizes_seen) == 1
    dimension = found.independence_number - 1
    if key == "shellable":
        if dimension <= 0 or found.count > facet_cap:  # any order, or over find_shelling's cap
            return dimension <= 0 or None
        return is_shellable(independence_complex(sub), facet_cap=facet_cap)
    top_ok = (lambda top: top == 1) if key == "gorenstein_gf2" else (lambda top: True)
    return ind_reisner(sub.rows, dimension, top_ok)


def _join(factors, key, facet_cap):
    """key's verdict on the join from the factors' own (``_verdict``): a
    join is CM (Gorenstein) iff every factor is, its Stanley-Reisner ring
    being their tensor product (Stanley, Combinatorics and Commutative
    Algebra, ch. II); a join of pure shellable complexes is shellable, and
    each factor is the link of a facet of the others, so it inherits
    shellability.  False if any factor fails, else skipped if any is
    undecided (None) or hit a cap (the first, as a Skipped), else True.
    A recurring factor object is judged once."""
    verdict = True
    for c in dict.fromkeys(factors):
        try:
            v = _verdict(key, c, facet_cap)
        except BudgetExceeded as exc:
            v = Skipped(str(exc))
        if v is False:
            return False
        if verdict is True and v is not True:
            verdict = SKIPPED if v is None else v
    return verdict


# ---------------------------------------------------------------------------
# JSON facet exchange
# ---------------------------------------------------------------------------

def facets_to_json(c: SimplicialComplex) -> str:
    return json.dumps(c.facet_lists())


def complex_from_json(text: str | bytes) -> SimplicialComplex:
    """The complex of a JSON array of facets, each an array of vertex
    indices 0..HARD_ORDER_CAP - 1, on the vertices up to the largest
    index named."""
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
            type(v) is int and 0 <= v < HARD_ORDER_CAP for v in entry
        ):
            raise ComplexError(
                f"bad facet entry {entry!r}: vertices are integers "
                f"0..{HARD_ORDER_CAP - 1}"
            )
        facets.append(entry)
        top = max(top, max(entry, default=-1))
    return SimplicialComplex.from_facets(top + 1, facets)
