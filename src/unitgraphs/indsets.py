"""Maximal independent set enumeration and well-coveredness by brute force.

Maximal independent sets of G are exactly the maximal cliques of the
complement of G, so enumeration runs the classic recursive clique search
with pivoting on complement bitmask rows.  The pivot is the candidate
(from candidates-plus-excluded) covering the most of the candidate set,
ties broken by lowest index, which makes the emission order
deterministic.  The collected family is kept in that order.

Three reductions follow the graph's structure, and a probe looks for a
quick False; each reads only rows.

* Twins.  The search runs on both twin quotients.  False twins have
  equal rows: they are never adjacent and lie together in or out of
  every maximal independent set.  True twins have equal closed
  neighbourhoods (so equal complement rows): they form a clique, a
  maximal independent set holds at most one of them, and any one will
  do.  So only the least vertex of each class is a candidate, and each
  emitted set is expanded by its false-twin classes and counts once per
  choice of one member from each true-twin class it meets; the choices
  are listed member by member only when the sets are collected, and a
  weighted emission stops the count at max_sets.  Counts, sizes, the
  sorted family and the caps mean what they would on the whole graph;
  only the order of emission (and so the order of ``sets``, the
  witnesses and which sets a capped run keeps) follows the quotient.
  The classes come from a stable sort of the rows, not a dict: rows of
  4096 bits that differ in bits 61 apart share their hash (see
  ``twin_classes``).  Complement rows are built for the false-twin
  representatives alone, all the search reads: 2 of 2048 for the unit
  graph of Z2048.  A representative with no neighbour in the quotient
  (an isolated vertex, or a true-twin class that is a whole component)
  lies in every maximal independent set, so the search starts with all
  of them chosen.
* Components.  ``component_reports`` is the one walk over the connected
  components, under one deadline, behind every brute-force verdict and
  every count of a disconnected graph; it yields each component's part
  mask and ``Component``, its subgraph and report, which holds no sets:
  the verdicts on Ind(G) read only these.  Each distinct component is
  searched once, by ``enumerate_mis`` on its own subgraph: a component's
  relabelled rows determine its graph, so one whose rows equal an
  earlier one's yields that ``Component`` object again, and the 2048
  components of the unit graph of Z2^12 cost one search of two
  vertices.  A count (stop_mode "all") of a disconnected graph walks
  the parts it found, multiplies the size generating functions and
  stops at max_sets once the product reaches it: 2048 components of two
  vertices pass 10^6 sets after 20 of them.  An induced subgraph keeps
  no candidates, so a component's own search never takes the orbit path.
* Orbits.  An automorphism of G maps maximal independent sets onto
  maximal independent sets of the same size.  A maximal independent set
  S meets N[u] for every vertex u (it holds u or a neighbour of u), so
  if the roots are one vertex per orbit of a group of automorphisms
  that meets N[u], some automorphism maps S onto a set {r} + T with r a
  root and T maximal independent in G - N[r].  The sizes are therefore
  the union over the roots of 1 plus the sizes in G - N[r], each G -
  N[r] searched on its own twin quotients, and the family is the
  closure of those sets under the group's generators (McKay & Piperno,
  J. Symbolic Comput. 60, 2014, prune by orbits the same way).  The
  family is counted without being held: ``_weighted_sizes`` weighs each
  set {r} + T by the size of r's orbit over the number of its members in
  the union of the root orbits, tallied per choice of true-twin members
  through one linear polynomial per class.  The automorphisms come from
  ``Graph.candidates`` (for a ring's graph, its translations, under
  which unit graphs over R/J(R) of characteristic 2 and all Cayley
  graphs are invariant), and ``verified_automorphisms`` keeps only
  those that map every row x onto the row of the image of x.  A wrong
  candidate costs time, never a verdict.
* Probe.  Two maximal independent sets of different sizes prove a
  graph not well-covered by definition, while recognizing well-covered
  graphs is co-NP-complete (Chvatal & Slater, Ann. Discrete Math. 55,
  1993; Sankaranarayana & Stewart, Networks 22, 1992).  So a cheap
  certificate can decide the False side, and the exact search stays for
  True.  ``_greedy_sets`` builds up to PROBE_ORDERS greedy maximal
  independent sets from the rows, scanning the vertices in index order,
  in reverse order and then in orders shuffled by a local
  ``random.Random(0)``, never the global random state, and stops at the
  first set of a second size.  Its sets are sets of the whole graph, so
  each counts once, whatever twin classes it meets.

Limits are explicit: a cap on sets, a wall-clock budget, and a stop
mode.  ``first_two_sizes`` halts as soon as two distinct sizes have
been seen; it is the one search per component of both
``well_covered_bruteforce`` and ``complexes.join_factors``, and the only
mode that takes the probe.  ``all`` lists or counts the
whole family.  Every search first runs plain under a work allowance of
one row read per candidate (at least one) and vertex, with at least
VERIFY_MIN_ROWS per candidate, which is about what verifying the
candidates costs.  Past it, a verdict search runs the probe, which ends
it with two sizes if it finds them; then the candidates are verified,
and the search switches to the orbit path if any is kept, or carries
on.  The allowance is counted, not timed, and the probe's orders are
seeded, so the path taken, the witnesses and the output are
deterministic.  Hitting a cap is reported in-band, never silently.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import VertexSet, indices_mask, mask_indices, shift_mask
from .graphs import DEFAULT_GRAPH_CAP, Graph, connected_components, induced_subgraph

DEFAULT_MAX_SETS = 10**6
DEFAULT_TIME_BUDGET = 60.0
# Verifying a candidate reads every row once, after a set-up that costs
# about as much as a plain search reading this many rows on a small graph;
# the allowance counts at least this many per candidate, and as many for
# a graph without candidates, which pays for the probe.
VERIFY_MIN_ROWS = 256
# greedy maximal independent sets the probe builds at most; 0 switches
# the probe off
PROBE_ORDERS = 10


class EnumerationError(Exception):
    pass


@dataclass
class MisReport:
    """Outcome of one enumeration run."""

    sizes_seen: Counter
    count: int
    independence_number: int
    well_covered: bool | None  # None: stopped before a second size was seen
    witnesses: tuple[VertexSet, ...]
    truncated: bool
    stop_reason: str  # exhausted | two_sizes | max_sets | time_budget
    sets: tuple[VertexSet, ...] | None
    nodes: int = 0  # search nodes, over every run
    # orbits searched when the orbit reduction fired, else None
    orbits: int | None = None
    # greedy sets the probe built when it ran, else None; when it found
    # two sizes (stop_reason two_sizes), count, sizes_seen and sets
    # describe its distinct sets and the witnesses are its first set and
    # its first set of another size
    probes: int | None = None


@dataclass(eq=False)
class Component:
    """A connected component of a graph and its search's report."""

    graph: Graph
    report: MisReport


def is_independent(g: Graph, s: VertexSet) -> bool:
    """No two members adjacent."""
    if not isinstance(s, VertexSet):
        raise EnumerationError(f"expected a VertexSet, got {type(s).__name__}")
    mask = s.mask
    if mask >> g.n:
        raise EnumerationError("set has vertices outside the graph")
    return not any(g.rows[v] & mask for v in mask_indices(mask))


def is_maximal_independent(g: Graph, s: VertexSet) -> bool:
    """Independent, and every outside vertex is adjacent to a member."""
    if not is_independent(g, s):
        return False
    covered = s.mask
    for v in mask_indices(s.mask):
        covered |= g.rows[v]
    return covered == (1 << g.n) - 1


class _Stop(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _Search:
    def __init__(self, g, stop_mode, max_sets, time_budget, collect):
        n = g.n
        self.g = g
        self.restrict((1 << n) - 1)
        self.stop_mode = stop_mode
        self.max_sets = max_sets
        self.deadline = time.monotonic() + time_budget
        self.collect = collect
        self.calls = 0
        # rows read by the pivot scans and branches; past the allowance a
        # verdict search runs the probe, and the candidates are verified
        self.reads = 0
        # the row reads a search makes before it verifies g's candidates
        self.allowance = max(len(g.candidates), 1) * max(n, VERIFY_MIN_ROWS)
        self.probes: int | None = None
        self.generators: tuple[tuple[int, int, int], ...] = ()
        # on the orbit path: W, the union of the root orbits, and per root
        # the sets {r} + T emitted, by (size, |S & W|)
        self.orbit_union = 0
        self.tallies: list[Counter] = []
        self.reset()

    def restrict(self, within: int) -> None:
        """Search G[within]: both twin quotients, the complement rows of the
        false-twin representatives (the search reads no others), and the
        forced representatives.  False twins have equal rows; true twins
        have equal closed neighbourhoods, and so equal complement rows."""
        n = self.g.n
        rows = self.g.rows
        vertices = range(n)
        if within != (1 << n) - 1:
            vertices = mask_indices(within)
            # None outside within, so that rows.index(0) below finds only
            # the isolated vertices of G[within]
            rows = [None] * n
            for v in vertices:
                rows[v] = self.g.rows[v] & within
        false_reps, self.twins = twin_classes(rows, within, vertices)
        if false_reps != within:
            vertices = mask_indices(false_reps)
        comp = [0] * n
        for v in vertices:
            comp[v] = within ^ (rows[v] | (1 << v))
        self.comp = comp
        self.paired = sum(self.twins)  # representatives with a false twin
        # a vertex v with a false twin u has no true twin: one would be a
        # neighbour of v, so of u, and its closed neighbourhood, N[v],
        # would hold u; only the other vertices are sorted again
        singles = false_reps & ~self.paired
        if singles != false_reps:
            vertices = mask_indices(singles)
        true_reps, self.cliques = twin_classes(comp, singles, vertices)
        self.reps = false_reps & ~singles | true_reps
        self.cliqued = sum(self.cliques)  # representatives with a true twin
        # representatives with no neighbour in the quotient, which every
        # maximal independent set holds: the least isolated vertex (the
        # isolated ones are false twins) and each true-twin class that is
        # a whole component.  The plain search would take them first, one
        # node each, scanning every candidate at each
        self.forced = 1 << rows.index(0) if 0 in rows else 0
        for rep, members in self.cliques.items():
            if rows[rep.bit_length() - 1] | rep == members:
                self.forced |= rep

    def reset(self) -> None:
        self.sizes = Counter()
        self.count = 0
        self.first_of_size: dict[int, int] = {}
        self.sets: list[int] = []

    def emit(self, chosen: int) -> None:
        """Record the sets of G that a set of the quotient stands for: its
        false-twin classes whole, and any one member of each true-twin
        class it meets in the class's least member."""
        mask = chosen
        rest = chosen & self.paired
        while rest:
            low = rest & -rest
            mask |= self.twins[low]
            rest ^= low
        rest = chosen & self.cliqued
        if not rest:
            self.record(mask)
            return
        classes = []
        while rest:
            low = rest & -rest
            classes.append(self.cliques[low])
            rest ^= low
        self.record(mask, classes)

    def record(self, mask: int, classes=()) -> None:
        """Count mask and every set that swaps the least member of one or
        more of the classes (each meeting mask in that member alone) for
        another member, at most max_sets in all; they share mask's size,
        and with collect they are expanded member by member."""
        size = mask.bit_count()
        take = 1
        if classes:
            take = min(math.prod(map(int.bit_count, classes)), self.max_sets - self.count)
        self.sizes[size] += take
        self.count += take
        self.first_of_size.setdefault(size, mask)
        if self.collect:
            if classes:
                self.sets.extend(itertools.islice(_member_choices(mask, classes), take))
            else:
                self.sets.append(mask)
        if self.stop_mode == "first_two_sizes" and len(self.sizes) >= 2:
            raise _Stop("two_sizes")
        if self.count >= self.max_sets:
            raise _Stop("max_sets")
        # a stopped root search leaves its tallies unread
        if self.orbit_union:
            self.tally(size, mask, classes)

    def tally(self, size: int, mask: int, classes) -> None:
        """Add the sets ``record`` counts for mask to the current root's
        tally by (size, |S & W|).  Each class contributes one member, in W
        or not, so the meets are the coefficients of a product of one
        linear polynomial per class, and no choice is enumerated."""
        union = self.orbit_union
        tally = self.tallies[-1]
        if not classes:
            tally[size, (mask & union).bit_count()] += 1
            return
        meets = {(mask & ~sum(classes) & union).bit_count(): 1}
        for c in classes:
            inside = (c & union).bit_count()
            outside = c.bit_count() - inside
            grown = Counter()
            for meet, ways in meets.items():
                if outside:
                    grown[meet] += ways * outside
                if inside:
                    grown[meet + 1] += ways * inside
            meets = grown
        for meet, ways in meets.items():
            tally[size, meet] += ways

    def probe(self) -> None:
        """Greedy sets until two sizes; if found, they replace what the
        search emitted so far and the last one stops it."""
        if not PROBE_ORDERS:
            return
        masks = _greedy_sets(self.g, PROBE_ORDERS)
        self.probes = len(masks)
        if masks[0].bit_count() != masks[-1].bit_count():
            self.reset()
            for mask in dict.fromkeys(masks):
                self.record(mask)

    def run(self, roots=None) -> str:
        """Search the whole graph, or with roots, for each root r the sets
        {r} + T, T maximal independent in G - N[r]."""
        n = self.g.n
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 4 * n + 1000))
        try:
            if roots is None:
                self.expand(self.forced, self.reps ^ self.forced, 0)
            else:
                full = (1 << n) - 1
                for r in roots:
                    self.restrict(full ^ (self.g.rows[r] | (1 << r)))
                    self.tallies.append(Counter())
                    self.expand(1 << r | self.forced, self.reps ^ self.forced, 0)
            return "exhausted"
        except _Stop as stop:
            return stop.reason
        finally:
            sys.setrecursionlimit(old_limit)

    def count_family(self, orbit_sizes) -> str:
        """After the root searches: the whole family's sizes from the
        tallies (see ``_weighted_sizes``), and with collect, the family
        itself by closing the sets found.  A family of max_sets or more
        sets, or a closure cut short, leaves the report describing only
        the sets found."""
        sizes = _weighted_sizes(self.tallies, orbit_sizes)
        count = sum(sizes.values())
        reason = self.close() if self.collect else "exhausted"
        if reason != "exhausted":
            self.sizes = Counter(map(int.bit_count, self.sets))
            self.count = len(self.sets)
            return reason
        if self.collect and len(self.sets) != count:
            raise EnumerationError(
                f"the closure holds {len(self.sets)} sets, the orbit weights count {count}"
            )
        if count >= self.max_sets:
            return "max_sets"
        self.sizes, self.count = sizes, count
        return reason

    def close(self) -> str:
        """Close the collected sets under the generators."""
        family = set(self.sets)
        todo = list(family)
        steps = 0
        try:
            while todo:
                mask = todo.pop()
                steps += 1
                if steps % 256 == 0 and time.monotonic() >= self.deadline:
                    raise _Stop("time_budget")
                for shift in self.generators:
                    image = shift_mask(mask, shift)
                    if image not in family:
                        family.add(image)
                        todo.append(image)
                        if len(family) >= self.max_sets:
                            raise _Stop("max_sets")
            return "exhausted"
        except _Stop as stop:
            return stop.reason
        finally:
            self.sets = list(family)

    def expand(self, chosen: int, cand: int, excl: int) -> None:
        self.calls += 1
        # the first node reads the clock too: no search starts past its deadline
        if self.calls % 256 == 1 and time.monotonic() >= self.deadline:
            raise _Stop("time_budget")
        if self.reads > self.allowance:
            self.allowance = math.inf
            if self.stop_mode == "first_two_sizes":
                self.probe()
            self.generators = verified_automorphisms(self.g)
            if self.generators:
                raise _Stop("orbits")
        if cand == 0 and excl == 0:
            self.emit(chosen)
            return
        # pivot: candidate-or-excluded vertex covering most of cand
        best, best_cover = -1, -1
        scan = cand | excl
        reads = scan.bit_count()
        while scan:
            low = scan & -scan
            u = low.bit_length() - 1
            cover = (cand & self.comp[u]).bit_count()
            if cover > best_cover:
                best, best_cover = u, cover
            scan ^= low
        ext = cand & ~self.comp[best]
        self.reads += reads + ext.bit_count()
        while ext:
            low = ext & -ext
            v = low.bit_length() - 1
            nv = self.comp[v]
            self.expand(chosen | low, cand & nv, excl & nv)
            cand ^= low
            excl |= low
            ext ^= low


def _greedy_sets(g: Graph, k: int) -> list[int]:
    """Up to k greedy maximal independent sets of g, each taking every
    vertex no earlier choice rules out, in index order, reverse order,
    then orders shuffled by a local random.Random(0) (sorted by its
    random keys, which costs no Python call per vertex); the list ends
    at the first set whose size differs from the first set's."""
    n = g.n
    rows = g.rows
    bits = [1 << v for v in range(n)]
    rng = random.Random(0)
    sets: list[int] = []
    for i in range(k):
        if i < 2:
            order = range(n) if i == 0 else range(n - 1, -1, -1)
        else:
            keys = np.frombuffer(rng.randbytes(4 * n), dtype="<u4")
            order = np.argsort(keys, kind="stable").tolist()
        free = (1 << n) - 1
        chosen = 0
        for v in order:
            bit = bits[v]
            if free & bit:
                chosen |= bit
                free ^= free & (rows[v] | bit)
                if not free:
                    break
        sets.append(chosen)
        if chosen.bit_count() != sets[0].bit_count():
            break
    return sets


def verified_automorphisms(g: Graph) -> tuple[tuple[int, int, int], ...]:
    """The candidates of g that are automorphisms: shifts (up, high, down)
    that permute the vertices 0..n-1 and map every row x onto the row of
    the image of x.  Reads only g's rows; the first row that fails
    rejects a candidate."""
    n = g.n
    full = (1 << n) - 1
    rows = g.rows
    kept = []
    for shift in g.candidates:
        up, high, down = shift
        if up < 0 or down < 0:
            continue
        high &= full
        low = full ^ high
        raised, lowered = low << up, high >> down
        # each part moves injectively, so this is a permutation iff no bit
        # falls off the bottom and the two images tile the vertex set
        if high & ((1 << down) - 1) or raised & lowered or raised | lowered != full:
            continue
        flags = format(high, f"0{n}b")[::-1]  # flags[x] == "1": x is in high
        if all(
            ((row & low) << up) | ((row & high) >> down)
            == rows[x - down if flags[x] == "1" else x + up]
            for x, row in enumerate(rows)
        ):
            kept.append(shift)
    return tuple(kept)


def _orbit_roots(generators, g: Graph) -> tuple[list[int], list[int], int]:
    """The least vertex of each orbit, under the group the generators
    span, that meets N[u] for a vertex u of least degree (every maximal
    independent set meets N[u]); the orbits' sizes; and W, the union of
    those orbits.  A group of permutations of a finite set is closed
    under images alone, so each orbit grows by whole-mask images until
    it stops."""
    u = min(range(g.n), key=lambda v: g.rows[v].bit_count())
    roots, sizes, union = [], [], 0
    left = g.rows[u] | (1 << u)
    while left:
        orbit = frontier = left & -left
        while frontier:
            reach = 0
            for shift in generators:
                reach |= shift_mask(frontier, shift)
            frontier = (reach | orbit) ^ orbit
            orbit |= frontier
        roots.append((orbit & -orbit).bit_length() - 1)
        sizes.append(orbit.bit_count())
        union |= orbit
        left ^= left & orbit
    return roots, sizes, union


def _weighted_sizes(tallies, orbit_sizes) -> Counter:
    """The number of maximal independent sets of each size, from the
    tallies of the root searches (per root r, the sets S containing r by
    (|S|, |S & W|)) and the orbits' sizes.  Every S meets W, and |S & W|
    is the same on S's orbit under the group H, since W is a union of
    H-orbits.  Count each S as the sum of 1/|S & W| over v in S & W;
    H is transitive on the orbit O of each root r_O, so the sets of size
    k number the sum over O of |O| * (the sum of 1/|S & W| over the S of
    size k containing r_O).  A count that is no integer raises
    EnumerationError."""
    weighted = Counter()
    for tally, orbit_size in zip(tallies, orbit_sizes):
        for (size, meet), sets in tally.items():
            weighted[size] += Fraction(orbit_size * sets, meet)
    if any(w.denominator != 1 for w in weighted.values()):
        raise EnumerationError(f"orbit weights give a fractional count: {dict(weighted)}")
    return Counter({size: int(w) for size, w in weighted.items()})


def twin_classes(keys, within: int, vertices) -> tuple[int, dict[int, int]]:
    """The classes of vertices with equal keys in the graph on within (its
    vertices, in increasing order).  Keyed by rows they are false twins,
    never adjacent, which are all in or all out of every maximal
    independent set; keyed by complement rows they are true twins, a
    clique of vertices with one closed neighbourhood, of which a maximal
    independent set holds at most one, and any one.  Returns the mask of
    class representatives (least members) and, for every class of two or
    more, the representative's bit -> the mask of its class.

    The vertices are grouped by a stable sort, so each run of equal keys
    starts at its least vertex.  A dict would do worse: 2^61 is 1 modulo
    the int hash's modulus 2^61 - 1, so rows that differ in bits 61 apart
    share their hash, and the rows of a complete graph fall into 61
    buckets."""
    order = sorted(vertices, key=keys.__getitem__)
    if len(order) > 1 and keys[order[0]] == keys[order[-1]]:  # one class, as in a complete graph
        least = within & -within
        return least, {least: within}
    # the runs of two or more equal keys, each mask then made once from
    # its members
    runs = []
    run = first = previous = None
    for v in order:
        key = keys[v]
        if key != previous:
            previous, first, run = key, v, None
        elif run is None:
            run = [first, v]
            runs.append(run)
        else:
            run.append(v)
    reps = within
    classes: dict[int, int] = {}
    for run in runs:
        rep = 1 << run[0]
        classes[rep] = mask = indices_mask(run)
        reps ^= mask ^ rep
    return reps, classes


def _member_choices(mask: int, classes):
    """mask, then every set that swaps the least members of classes (each
    meeting mask in that member alone) for other members of the same
    classes, one at a time and in a fixed order."""
    base = mask & ~sum(classes)
    picks = itertools.product(*([1 << v for v in mask_indices(c)] for c in classes))
    return map(base.__or__, map(sum, picks))


def enumerate_mis(
    g: Graph,
    *,
    stop_mode: str = "all",
    max_sets: int = DEFAULT_MAX_SETS,
    time_budget: float = DEFAULT_TIME_BUDGET,
    collect: bool = True,
) -> MisReport:
    """Enumerate maximal independent sets.

    With stop_mode="all" and no cap hit, ``count`` and ``sizes_seen``
    describe the family of all maximal independent sets, and the
    collected ``sets`` are that family: in search order, or on the orbit
    path (see the module docstring) in the order of its closure.  A
    count (collect=False) of a disconnected graph is folded from its
    components' own reports (see ``_component_product``).  With
    stop_mode="first_two_sizes" a long search first runs the probe, and
    may end on its greedy sets of two sizes.  A truncated report
    describes the sets it found, at most max_sets of them.  A graph of
    more than DEFAULT_GRAPH_CAP vertices, a max_sets that is not an int
    or is below 1, and a time_budget that is not an int or float or is
    NaN (no deadline would pass) raise EnumerationError, a bool being
    neither; a negative time_budget is a deadline already past.
    """
    if stop_mode not in ("all", "first_two_sizes"):
        raise EnumerationError(f"unknown stop mode {stop_mode!r}")
    _check_limits(max_sets, time_budget)
    if g.n > DEFAULT_GRAPH_CAP:
        raise EnumerationError(f"vertex count {g.n} exceeds the cap {DEFAULT_GRAPH_CAP}")
    if stop_mode == "all" and not collect:
        parts = connected_components(g)
        if len(parts) > 1:
            return _component_product(g, parts, max_sets, time_budget)
    search = _Search(g, stop_mode, max_sets, time_budget, collect)
    reason = search.run()
    orbits = None
    if reason == "orbits":
        roots, orbit_sizes, search.orbit_union = _orbit_roots(search.generators, g)
        orbits = len(roots)
        search.reset()
        reason = search.run(roots)
        if reason == "exhausted":
            reason = search.count_family(orbit_sizes)
    first = search.first_of_size
    return _report(
        g.n,
        search.sizes,
        search.count,
        reason,
        witnesses=list(first.values())[:2] if len(first) >= 2 else [],
        sets=tuple(VertexSet(m, g.n) for m in search.sets) if collect else None,
        nodes=search.calls,
        orbits=orbits,
        probes=search.probes,
    )


def _check_limits(max_sets, time_budget) -> None:
    """The one check of the limits where they enter: enumerate_mis and
    component_reports (see enumerate_mis for what is refused)."""
    # bool is an int subclass; NumPy integers are not int at all
    bad_cap = type(max_sets) is bool or not isinstance(max_sets, int) or max_sets < 1
    bad_budget = type(time_budget) is bool or not isinstance(time_budget, (int, float))
    if bad_cap or bad_budget or math.isnan(time_budget):
        raise EnumerationError(f"bad limits: max_sets={max_sets}, time_budget={time_budget}")


def _report(n, sizes, count, reason, witnesses, **counters) -> MisReport:
    """The report of a run that saw these sizes.  The witnesses are the
    masks of two maximal independent sets of different sizes when the
    run saw any, and decide False; otherwise a stopped run has not
    decided well-coveredness."""
    truncated = reason in ("max_sets", "time_budget")
    well_covered = None if truncated else len(sizes) == 1
    if witnesses:
        well_covered = False
    return MisReport(
        sizes_seen=sizes,
        count=count,
        independence_number=max(sizes) if sizes else 0,
        well_covered=well_covered,
        witnesses=tuple(VertexSet(m, n) for m in witnesses),
        truncated=truncated,
        stop_reason=reason,
        **counters,
    )


def _component_product(g: Graph, parts, max_sets: int, time_budget: float) -> MisReport:
    """The count of a disconnected graph's family, folded from the
    reports of ``component_reports``.  Its maximal independent sets are the
    unions of one set per component, so the generating function of their
    sizes is the product of the components'.  The fold stops as soon as
    the product reaches max_sets, or at a component truncated by the
    deadline; ``nodes`` counts each distinct component's search once.

    A truncated product describes the first max_sets sets in
    component-product order: the sets of the components searched, their
    product taken smaller sets first, each completed on the components
    not searched by the index-order greedy set.  Two sets of different
    sizes in one component decide False whatever the truncation keeps:
    the witnesses are those two, completed on every other component by
    the greedy set."""
    sizes, count = Counter({0: 1}), 1
    reason = "exhausted"
    searched = 0
    split = None
    nodes = {}  # each distinct component -> its search's nodes
    limits = {"stop_mode": "all", "max_sets": max_sets}
    for part, c in component_reports(g, parts, time_budget=time_budget, **limits):
        report = c.report
        searched |= part
        nodes[c] = report.nodes
        if split is None and report.witnesses:
            split = part, report.witnesses
        product = Counter()
        for size, ways in sizes.items():
            for other, more in report.sizes_seen.items():
                product[size + other] += ways * more
        sizes, count = product, count * report.count
        if count >= max_sets or report.stop_reason != "exhausted":
            reason = "max_sets" if count >= max_sets else report.stop_reason
            break
    witnesses = []
    if reason != "exhausted" or split:
        greedy = _greedy_sets(g, 1)[0]
    if reason != "exhausted":
        rest = (greedy & ~searched).bit_count()
        left = count = min(count, max_sets)
        kept = Counter()
        for size in sorted(sizes):
            take = min(sizes[size], left)
            if take:
                kept[size + rest] = take
            left -= take
        sizes = kept
    if split:
        part, pair = split
        keep = mask_indices(part)
        witnesses = [
            greedy & ~part | indices_mask(keep[v] for v in w.indices()) for w in pair
        ]
    return _report(
        g.n, sizes, count, reason, witnesses,
        sets=None, nodes=sum(nodes.values()), orbits=None, probes=None,
    )


def component_reports(g: Graph, parts=None, *, time_budget: float = DEFAULT_TIME_BUDGET, **limits):
    """(part mask, Component) for each connected component of g, by least
    vertex, under one deadline: the one component walk behind every
    brute-force verdict and every count of a disconnected graph.  The
    Component holds the induced subgraph and its enumerate_mis report,
    which holds no sets.  parts are g's components when the caller has
    them already.  A search that meets the deadline, or would start past
    it, is truncated (time_budget) and ends the walk, as does one that met
    two sizes; a max_sets cap on one component does not.

    A component whose relabelled rows equal an earlier one's is that
    graph, so it yields the earlier Component, the same object, without
    a search, even past the deadline."""
    _check_limits(limits.get("max_sets", DEFAULT_MAX_SETS), time_budget)
    parts = connected_components(g) if parts is None else parts
    deadline = time.monotonic() + time_budget
    searched: dict[tuple[int, ...] | None, Component] = {}
    for part in parts:
        sub = induced_subgraph(g, part)
        # one component repeats none, and its rows are not worth hashing
        key = sub.rows if len(parts) > 1 else None
        c = searched.get(key)
        if c is None:
            report = enumerate_mis(
                sub, time_budget=deadline - time.monotonic(), collect=False, **limits
            )
            c = searched[key] = Component(sub, report)
        yield part, c
        if c.report.stop_reason in ("two_sizes", "time_budget"):
            return


def well_covered_bruteforce(
    g: Graph,
    *,
    max_sets: int = DEFAULT_MAX_SETS,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> bool | None:
    """True/False when decided; None when limits were hit first.

    A disjoint union is well-covered iff every component is (Plummer,
    J. Combin. Theory 8, 1970), so the verdict folds the reports of
    ``component_reports``.  Two sizes in any component decide False; a
    component whose search was capped leaves the verdict open unless
    another one decides False.
    """
    verdict: bool | None = True
    limits = {"stop_mode": "first_two_sizes", "max_sets": max_sets, "time_budget": time_budget}
    for _, c in component_reports(g, **limits):
        if c.report.well_covered is False:
            return False
        if c.report.truncated:
            verdict = None
    return verdict
