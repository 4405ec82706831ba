"""Maximal independent set enumeration and well-coveredness by brute force.

Maximal independent sets of G are exactly the maximal cliques of the
complement of G, so enumeration runs the classic recursive clique search
with pivoting on complement bitmask rows.  The pivot is the candidate
(from candidates-plus-excluded) covering the most of the candidate set,
ties broken by lowest index, which makes the emission order
deterministic.  The collected family is sorted lexicographically, so
reports are stable.

The search runs on the false-twin quotient: vertices with equal rows are
never adjacent and lie together in or out of every maximal independent
set, so only the least vertex of each class is a candidate, and each
emitted set is expanded by its classes.  The expansion is one to one,
so counts, sizes, the sorted family and the caps mean what they would
on the whole graph; only the order of emission (and so the callback
order, the witnesses and which sets a capped run keeps) follows the
quotient.  ``component_subgraphs`` splits a graph into its connected
components under one shared budget.  Both reductions read only rows.

Limits are explicit: a cap on emitted sets, a wall-clock budget, and a
stop mode.  ``first_two_sizes`` halts as soon as two distinct sizes have
been seen; it is the one search per component of both
``well_covered_bruteforce`` and ``classify.join_factors`` (which keeps a
one-size component's sets as its complex).  Hitting a cap is reported
in-band, never silently.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass

from .graphs import DEFAULT_GRAPH_CAP, Graph, connected_components, induced_subgraph
from .rings import VertexSet, mask_indices

DEFAULT_MAX_SETS = 10**6
DEFAULT_TIME_BUDGET = 60.0


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
    def __init__(self, g, on_set, stop_mode, max_sets, time_budget, collect):
        n = g.n
        full = (1 << n) - 1
        self.comp = [full ^ (g.rows[v] | (1 << v)) for v in range(n)]
        self.reps, self.twins = _false_twin_classes(g)
        self.paired = sum(self.twins)  # representatives with a twin
        self.g = g
        self.on_set = on_set
        self.stop_mode = stop_mode
        self.max_sets = max_sets
        self.deadline = time.monotonic() + time_budget
        self.collect = collect
        self.sizes = Counter()
        self.count = 0
        self.calls = 0
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
        if self.on_set is not None:
            self.on_set(VertexSet(mask, self.g.n))
        if self.stop_mode == "first_two_sizes" and len(self.sizes) >= 2:
            raise _Stop("two_sizes")
        if self.count >= self.max_sets:
            raise _Stop("max_sets")

    def run(self) -> str:
        n = self.g.n
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 4 * n + 1000))
        try:
            self.expand(0, self.reps, 0)
            return "exhausted"
        except _Stop as stop:
            return stop.reason
        finally:
            sys.setrecursionlimit(old_limit)

    def expand(self, chosen: int, cand: int, excl: int) -> None:
        self.calls += 1
        if self.calls % 256 == 0 and time.monotonic() > self.deadline:
            raise _Stop("time_budget")
        if cand == 0 and excl == 0:
            self.emit(chosen)
            return
        # pivot: candidate-or-excluded vertex covering most of cand
        best, best_cover = -1, -1
        scan = cand | excl
        while scan:
            low = scan & -scan
            u = low.bit_length() - 1
            cover = (cand & self.comp[u]).bit_count()
            if cover > best_cover:
                best, best_cover = u, cover
            scan ^= low
        ext = cand & ~self.comp[best]
        while ext:
            low = ext & -ext
            v = low.bit_length() - 1
            nv = self.comp[v]
            self.expand(chosen | low, cand & nv, excl & nv)
            cand ^= low
            excl |= low
            ext ^= low


def _false_twin_classes(g: Graph) -> tuple[int, dict[int, int]]:
    """False twins (equal rows, so never adjacent) are all in or all out
    of every maximal independent set.  Returns the mask of class
    representatives (least members) and, for every class of two or more,
    the representative's bit -> the mask of its class.  Sorting the
    vertices by row is stable, so each run of equal rows starts at its
    least vertex."""
    rows = g.rows
    reps = (1 << g.n) - 1
    twins: dict[int, int] = {}
    rep, previous = 0, None
    for v in sorted(range(g.n), key=rows.__getitem__):
        bit = 1 << v
        if rows[v] == previous:
            reps ^= bit
            twins[rep] = twins.get(rep, rep) | bit
        else:
            rep, previous = bit, rows[v]
    return reps, twins


def enumerate_mis(
    g: Graph,
    on_set=None,
    *,
    stop_mode: str = "all",
    max_sets: int = DEFAULT_MAX_SETS,
    time_budget: float = DEFAULT_TIME_BUDGET,
    collect: bool = True,
    cap: int = DEFAULT_GRAPH_CAP,
) -> MisReport:
    """Enumerate maximal independent sets.

    With stop_mode="all" and no cap hit, the emitted family is exactly
    the family of all maximal independent sets.  The on_set callback (if
    given) sees each set as it is found, in search order; the collected
    ``sets`` are sorted canonically.
    """
    if stop_mode not in ("all", "first_two_sizes"):
        raise EnumerationError(f"unknown stop mode {stop_mode!r}")
    if g.n > cap:
        raise EnumerationError(f"vertex count {g.n} exceeds the cap {cap}")
    search = _Search(g, on_set, stop_mode, max_sets, time_budget, collect)
    reason = search.run()
    truncated = reason in ("max_sets", "time_budget")
    sets = None
    if collect:
        ordered = sorted(search.sets, key=mask_indices)
        sets = tuple(VertexSet(m, g.n) for m in ordered)
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
    )


def component_subgraphs(g: Graph, time_budget: float = DEFAULT_TIME_BUDGET):
    """The induced subgraph of each connected component, by least vertex,
    with the seconds left of one time_budget that all of them share."""
    deadline = time.monotonic() + time_budget
    for part in connected_components(g):
        yield induced_subgraph(g, part), deadline - time.monotonic()


def well_covered_bruteforce(
    g: Graph,
    *,
    max_sets: int = DEFAULT_MAX_SETS,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> bool | None:
    """True/False when decided; None when limits were hit first.

    A disjoint union is well-covered iff every component is (Plummer,
    J. Combin. Theory 8, 1970), so each connected component is searched
    on its own: max_sets caps each search, and time_budget all of them.
    Two sizes in any component decide False; a component whose search
    was capped leaves the verdict open unless another one decides False.
    """
    verdict: bool | None = True
    for part, left in component_subgraphs(g, time_budget):
        if left <= 0:
            return None
        report = enumerate_mis(
            part,
            stop_mode="first_two_sizes",
            max_sets=max_sets,
            time_budget=left,
            collect=False,
        )
        if len(report.sizes_seen) >= 2:
            return False
        if report.truncated:
            verdict = None
    return verdict
