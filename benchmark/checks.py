"""Checks of the program's outputs that use no code of the program.

Every function takes plain data (ints, adjacency bitmask rows, report
dicts) and returns a list of error messages; an empty list means the
output is correct.  The expected values come from facts.py or are
recomputed here from first principles.
"""

from __future__ import annotations

from collections import Counter

import facts as F


def check_realization(expr: str, facts: F.Facts, out: dict) -> list[str]:
    """Unit count, |J| * |R/J| = |R|, the recorded shape and classifier."""
    errors = []
    if out["order"] != facts.order:
        errors.append(f"{expr}: order {out['order']} != {facts.order}")
    if out["units"] != facts.units:
        errors.append(f"{expr}: {out['units']} units, closed form gives {facts.units}")
    if out["radical"] * out["quotient"] != facts.order:
        errors.append(f"{expr}: |J| * |R/J| = {out['radical']} * {out['quotient']}")
    if out["quotient"] != facts.quotient_order:
        errors.append(f"{expr}: |R/J| = {out['quotient']} != {facts.quotient_order}")
    shape = out.get("shape")
    if shape is not None and sorted(shape) != sorted(facts.shape):
        errors.append(f"{expr}: shape {shape} != {facts.shape}")
    form = out.get("form_order")
    if form is not None and form != facts.quotient_order:
        errors.append(f"{expr}: semisimple form has {form} elements")
    predicted = out.get("classified")
    if predicted is not None and predicted != F.well_covered(facts.shape):
        errors.append(f"{expr}: classifier says well-covered={predicted}")
    return errors


def check_graphs(expr: str, facts: F.Facts, unit_rows, cayley_rows) -> list[str]:
    """Degree sums from the closed forms, and unit = Cayley iff char 2."""
    errors = []
    got = sum(r.bit_count() for r in unit_rows)
    if got != F.unit_degree_sum(facts):
        errors.append(f"{expr}: unit degree sum {got} != {F.unit_degree_sum(facts)}")
    got = sum(r.bit_count() for r in cayley_rows)
    if got != F.cayley_degree_sum(facts):
        errors.append(f"{expr}: Cayley degree sum {got} != {F.cayley_degree_sum(facts)}")
    equal = tuple(unit_rows) == tuple(cayley_rows)
    if equal != F.residue_char_two(facts.shape):
        errors.append(f"{expr}: unit graph == Cayley graph is {equal}")
    return errors


def check_verdicts(expr: str, facts: F.Facts, observed: dict, predicted: dict) -> list[str]:
    """Decided oracle verdicts and classifier predictions against the
    theorems.  "skipped" (a cap was hit) is not an error."""
    want = F.expected_verdicts(facts)
    errors = []
    for key, value in observed.items():
        if value != "skipped" and value != want[key]:
            errors.append(f"{expr}: oracle {key}={value}, theorem says {want[key]}")
    pred_keys = {"well_covered": "well_covered", "cm": "cm_gf2",
                 "shellable": "shellable", "gorenstein": "gorenstein_gf2"}
    for key, value in predicted.items():
        if value is not None and value != want[pred_keys[key]]:
            errors.append(f"{expr}: predicted {key}={value}, theorem says {want[pred_keys[key]]}")
    return errors


def decided(observed: dict) -> int:
    return sum(1 for v in observed.values() if v is not None and v != "skipped")


# ---------------------------------------------------------------------------
# independent sets
# ---------------------------------------------------------------------------

def is_maximal_independent(rows, members) -> bool:
    """Independent (no member adjacent to a member) and maximal (every
    other vertex adjacent to a member), straight from the rows."""
    mask = 0
    for v in members:
        mask |= 1 << v
    covered = mask
    for v in members:
        if rows[v] & mask:
            return False
        covered |= rows[v]
    return covered == (1 << len(rows)) - 1


def check_witness_sets(expr: str, rows, sets) -> list[str]:
    errors = [
        f"{expr}: witness set {i} is not a maximal independent set"
        for i, s in enumerate(sets)
        if not is_maximal_independent(rows, s)
    ]
    if len({len(s) for s in sets}) != len(sets):
        errors.append(f"{expr}: witness sets do not have distinct sizes")
    return errors


def mis_size_counts(rows) -> Counter:
    """Sizes of all maximal independent sets, as maximal cliques of the
    complement found by networkx."""
    import networkx as nx

    n = len(rows)
    full = (1 << n) - 1
    comp = nx.Graph()
    comp.add_nodes_from(range(n))
    for x, row in enumerate(rows):
        non = (full ^ row ^ (1 << x)) >> (x + 1)
        y = x + 1
        while non:
            if non & 1:
                comp.add_edge(x, y)
            non >>= 1
            y += 1
    return Counter(len(c) for c in nx.find_cliques(comp))


# ---------------------------------------------------------------------------
# 2x2 matrices over GF(q), in the program's documented element encoding:
# row-major little-endian base-q digits; a GF(p^k) element is its
# little-endian base-p coefficient vector modulo the lexicographically
# smallest monic irreducible (x^3 + x^2 + 1 for GF(8)).
# ---------------------------------------------------------------------------

_GF8_MODULUS = 0b1101


def _gf8_mul(a: int, b: int) -> int:
    acc = 0
    for i in range(3):
        if (b >> i) & 1:
            acc ^= a << i
    for bit in (4, 3):
        if (acc >> bit) & 1:
            acc ^= _GF8_MODULUS << (bit - 3)
    return acc


class MatrixArith:
    """det and + on encoded 2x2 matrices over GF(7) or GF(8)."""

    def __init__(self, q: int):
        if q not in (7, 8):
            raise ValueError(f"no matrix arithmetic for GF({q})")
        self.q = q

    def entries(self, x: int) -> list[int]:
        return [(x // self.q**i) % self.q for i in range(4)]

    def encode(self, entries) -> int:
        return sum(e * self.q**i for i, e in enumerate(entries))

    def det(self, x: int) -> int:
        a, b, c, d = self.entries(x)
        if self.q == 7:
            return (a * d - b * c) % 7
        return _gf8_mul(a, d) ^ _gf8_mul(b, c)

    def add(self, x: int, y: int) -> int:
        pairs = zip(self.entries(x), self.entries(y))
        if self.q == 7:
            return self.encode((s + t) % 7 for s, t in pairs)
        return self.encode(s ^ t for s, t in pairs)


def check_complement_witnesses(expr: str, arith: MatrixArith, ys, zs) -> list[str]:
    """z must be a non-unit (det 0) with y + z a unit (det != 0)."""
    if len(zs) != len(ys):
        return [f"{expr}: {len(zs)} witnesses for {len(ys)} elements"]
    errors = []
    for y, z in zip(ys, zs):
        if arith.det(z) != 0 or arith.det(arith.add(y, z)) == 0:
            errors.append(f"{expr}: {z} is not a complement witness for {y}")
    return errors
