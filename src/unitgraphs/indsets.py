"""Maximal independent set enumeration and well-coveredness by brute force.

Maximal independent sets of G are exactly the maximal cliques of the
complement of G, so enumeration runs the classic recursive clique search
with pivoting on complement bitmask rows.  The pivot is the candidate
(from candidates-plus-excluded) covering the most of the candidate set,
ties broken by lowest index, which makes the emission order
deterministic.  The collected family is kept in that order.

Three reductions follow the graph's structure, and a probe looks for a
quick False; each reads only rows.

* Twins.  The search runs on the false-twin quotient: vertices with
  equal rows are never adjacent and lie together in or out of every
  maximal independent set, so only the least vertex of each class is a
  candidate, and each emitted set is expanded by its classes.  The
  expansion is one to one, so counts, sizes, the sorted family and the
  caps mean what they would on the whole graph; only the order of
  emission (and so the order of ``sets``, the witnesses and which sets
  a capped run keeps) follows the quotient.
* Components.  ``component_reports`` is the one walk over the connected
  components of every brute-force verdict, under one deadline.
* Orbits.  An automorphism of G maps maximal independent sets onto
  maximal independent sets of the same size.  A maximal independent set
  S meets N[u] for every vertex u (it holds u or a neighbour of u), so
  if the roots are one vertex per orbit of a group of automorphisms
  that meets N[u], some automorphism maps S onto a set {r} + T with r a
  root and T maximal independent in G - N[r].  The sizes are therefore
  the union over the roots of 1 plus the sizes in G - N[r], each G -
  N[r] searched on its own twin quotient, and the family is the closure
  of those sets under the group's generators (McKay & Piperno, J.
  Symbolic Comput. 60, 2014, prune by orbits the same way).  The
  automorphisms come from ``Graph.candidates`` (for a ring's graph, its
  translations, under which unit graphs over R/J(R) of characteristic 2
  and all Cayley graphs are invariant), and ``verified_automorphisms``
  keeps only those that map every row x onto the row of the image of x.
  A wrong candidate costs time, never a verdict.

* Probe.  Two maximal independent sets of different sizes prove a
  graph not well-covered by definition, while recognizing well-covered
  graphs is co-NP-complete (Chvatal & Slater, Ann. Discrete Math. 55,
  1993; Sankaranarayana & Stewart, Networks 22, 1992).  So a cheap
  certificate can decide the False side, and the exact search stays for
  True.  ``_greedy_sets`` builds up to PROBE_ORDERS greedy maximal
  independent sets from the rows, scanning the vertices in index order,
  in reverse order and then in orders shuffled by a local
  ``random.Random(0)``, never the global random state, and stops at the
  first set of a second size.

Limits are explicit: a cap on emitted sets, a wall-clock budget, and a
stop mode.  ``first_two_sizes`` halts as soon as two distinct sizes have
been seen; it is the one search per component of both
``well_covered_bruteforce`` and ``classify.join_factors`` (which keeps a
one-size component's sets as its complex), and the only mode that takes
the probe and the orbit path.  It first runs the plain search under a
work allowance of one row read per candidate (at least one) and vertex,
with at least VERIFY_MIN_ROWS per candidate, which is about what
verifying the candidates costs.  A search that outruns it runs the
probe, which ends it with two sizes if it finds them; else the
candidates are verified, and the search switches to the orbit path if
any is kept, or carries on.  The allowance is counted, not timed, and
the probe's orders are seeded, so the path taken, the witnesses and the
output are deterministic.  ``mis`` and ``independence_complex`` list
the whole family with a plain search.  Hitting a cap is reported
in-band, never silently.
"""

from __future__ import annotations

import math
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graphs import DEFAULT_GRAPH_CAP, Graph, connected_components, induced_subgraph
from .rings import VertexSet, mask_indices, shift_mask

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
    # orbits searched when the orbit reduction fired, else None; then
    # count and sizes_seen count the sets {r} + T unless the family was
    # collected, which is closed to every maximal independent set
    orbits: int | None = None
    # greedy sets the probe built when it ran, else None; when it found
    # two sizes (stop_reason two_sizes), count, sizes_seen and sets
    # describe its distinct sets and the witnesses are its first set and
    # its first set of another size
    probes: int | None = None


def is_independent(g: Graph, s: VertexSet) -> bool:
    """No two members adjacent."""
    mask = s.mask
    if mask >> g.n:
        raise EnumerationError("set has vertices outside the graph")
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if g.rows[v] & mask:
            return False
        m ^= low
    return True


def is_maximal_independent(g: Graph, s: VertexSet) -> bool:
    """Independent, and every outside vertex is adjacent to a member."""
    if not is_independent(g, s):
        return False
    covered = s.mask
    m = s.mask
    while m:
        low = m & -m
        covered |= g.rows[low.bit_length() - 1]
        m ^= low
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
        # rows read by the pivot scans and branches; past the allowance the
        # probe runs and the candidates are verified
        self.reads = 0
        self.allowance = math.inf
        if stop_mode == "first_two_sizes":
            self.allowance = max(len(g.candidates), 1) * max(n, VERIFY_MIN_ROWS)
        self.probes: int | None = None
        self.generators: tuple[tuple[int, int, int], ...] = ()
        self.reset()

    def restrict(self, within: int) -> None:
        """Search G[within]: its complement rows and false-twin classes."""
        n = self.g.n
        rows = self.g.rows
        vertices = range(n)
        if within != (1 << n) - 1:
            vertices = mask_indices(within)
            rows = [0] * n
            for v in vertices:
                rows[v] = self.g.rows[v] & within
        comp = [0] * n
        for v in vertices:
            comp[v] = within ^ (rows[v] | (1 << v))
        self.comp = comp
        self.reps, self.twins = _false_twin_classes(rows, within, vertices)
        self.paired = sum(self.twins)  # representatives with a twin

    def reset(self) -> None:
        self.sizes = Counter()
        self.count = 0
        self.first_of_size: dict[int, int] = {}
        self.sets: list[int] = []

    def emit(self, chosen: int) -> None:
        mask = chosen
        rest = chosen & self.paired
        while rest:
            low = rest & -rest
            mask |= self.twins[low]
            rest ^= low
        size = mask.bit_count()
        self.sizes[size] += 1
        self.count += 1
        self.first_of_size.setdefault(size, mask)
        if self.collect:
            self.sets.append(mask)
        if self.stop_mode == "first_two_sizes" and len(self.sizes) >= 2:
            raise _Stop("two_sizes")
        if self.count >= self.max_sets:
            raise _Stop("max_sets")

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
                self.emit(mask)

    def run(self, roots=None) -> str:
        """Search the whole graph, or with roots, for each root r the sets
        {r} + T, T maximal independent in G - N[r]."""
        n = self.g.n
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 4 * n + 1000))
        try:
            if roots is None:
                self.expand(0, self.reps, 0)
            else:
                full = (1 << n) - 1
                for r in roots:
                    self.restrict(full & ~(self.g.rows[r] | (1 << r)))
                    self.expand(1 << r, self.reps, 0)
            return "exhausted"
        except _Stop as stop:
            return stop.reason
        finally:
            sys.setrecursionlimit(old_limit)

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
            self.count = len(family)
            self.sizes = Counter(map(int.bit_count, family))

    def expand(self, chosen: int, cand: int, excl: int) -> None:
        self.calls += 1
        # the first node reads the clock too: no search starts past its deadline
        if self.calls % 256 == 1 and time.monotonic() >= self.deadline:
            raise _Stop("time_budget")
        if self.reads > self.allowance:
            self.allowance = math.inf
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
                free &= ~(rows[v] | bit)
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


def _orbit_roots(generators, g: Graph) -> list[int]:
    """The least vertex of each orbit, under the group the generators
    span, that meets N[u] for a vertex u of least degree: every maximal
    independent set meets N[u].  A group of permutations of a finite set
    is closed under images alone, so each orbit grows by whole-mask
    images until it stops."""
    u = min(range(g.n), key=lambda v: g.rows[v].bit_count())
    roots = []
    left = g.rows[u] | (1 << u)
    while left:
        orbit = frontier = left & -left
        while frontier:
            reach = 0
            for shift in generators:
                reach |= shift_mask(frontier, shift)
            frontier = reach & ~orbit
            orbit |= frontier
        roots.append((orbit & -orbit).bit_length() - 1)
        left &= ~orbit
    return roots


def _false_twin_classes(rows, within: int, vertices) -> tuple[int, dict[int, int]]:
    """False twins in the graph on within (its vertices, in increasing
    order) with these rows, which have equal rows and so are never
    adjacent, are all in or all out of every maximal independent set.
    Returns the mask of class representatives (least members) and, for
    every class of two or more, the representative's bit -> the mask of
    its class.  Sorting the vertices by row is stable, so each run of
    equal rows starts at its least vertex."""
    reps = within
    twins: dict[int, int] = {}
    rep, previous = 0, None
    for v in sorted(vertices, key=rows.__getitem__):
        bit = 1 << v
        if rows[v] == previous:
            reps ^= bit
            twins[rep] = twins.get(rep, rep) | bit
        else:
            rep, previous = bit, rows[v]
    return reps, twins


def enumerate_mis(
    g: Graph,
    *,
    stop_mode: str = "all",
    max_sets: int = DEFAULT_MAX_SETS,
    time_budget: float = DEFAULT_TIME_BUDGET,
    collect: bool = True,
    cap: int = DEFAULT_GRAPH_CAP,
) -> MisReport:
    """Enumerate maximal independent sets.

    With stop_mode="all" and no cap hit, the emitted family is exactly
    the family of all maximal independent sets; the collected ``sets``
    come in search order.  With stop_mode="first_two_sizes" a long
    search runs the probe, and may end on its greedy sets of two sizes,
    or else take the orbit path (see the module docstring); the
    collected family is then the closure, which is the same family.
    """
    if stop_mode not in ("all", "first_two_sizes"):
        raise EnumerationError(f"unknown stop mode {stop_mode!r}")
    if g.n > cap:
        raise EnumerationError(f"vertex count {g.n} exceeds the cap {cap}")
    search = _Search(g, stop_mode, max_sets, time_budget, collect)
    reason = search.run()
    orbits = None
    if reason == "orbits":
        roots = _orbit_roots(search.generators, g)
        orbits = len(roots)
        search.reset()
        reason = search.run(roots)
        if reason == "exhausted" and collect:
            reason = search.close()
    truncated = reason in ("max_sets", "time_budget")
    sets = tuple(VertexSet(m, g.n) for m in search.sets) if collect else None
    # a stopped search that saw one size has not decided well-coveredness
    well_covered = None if truncated else len(search.sizes) == 1
    witnesses: tuple[VertexSet, ...] = ()
    if len(search.sizes) >= 2:
        well_covered = False
        sizes_in_order = list(search.first_of_size)[:2]
        witnesses = tuple(
            VertexSet(search.first_of_size[s], g.n) for s in sizes_in_order
        )
    return MisReport(
        sizes_seen=search.sizes,
        count=search.count,
        independence_number=max(search.sizes) if search.sizes else 0,
        well_covered=well_covered,
        witnesses=witnesses,
        truncated=truncated,
        stop_reason=reason,
        sets=sets,
        nodes=search.calls,
        orbits=orbits,
        probes=search.probes,
    )


def component_reports(g: Graph, *, time_budget: float = DEFAULT_TIME_BUDGET, **limits):
    """(induced subgraph, enumerate_mis report) for each connected
    component, by least vertex, under one deadline.  A search that meets
    the deadline, or would start past it, is truncated (time_budget) and
    ends the walk, as does one that met two sizes; a max_sets cap on one
    component does not."""
    deadline = time.monotonic() + time_budget
    for part in connected_components(g):
        sub = induced_subgraph(g, part)
        report = enumerate_mis(sub, time_budget=deadline - time.monotonic(), **limits)
        yield sub, report
        if report.stop_reason in ("two_sizes", "time_budget"):
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
    reports = component_reports(
        g, stop_mode="first_two_sizes", max_sets=max_sets, time_budget=time_budget, collect=False
    )
    for _, report in reports:
        if report.well_covered is False:
            return False
        if report.truncated:
            verdict = None
    return verdict
