"""The explicit independent-set recipes, in action on M2(GF(3)).

Two maximal independent sets of different sizes certify that a graph is
not well-covered.  When 2 is a unit both recipes live in the matrix
ring: the 2^n signature matrices (diagonal, entries +-1), and the
q^(n^2-n) matrices with first row zero.
"""

from unitgraphs import (
    build_graph,
    build_ring,
    is_maximal_independent,
    matrix_ring,
    mixed_char_product_witnesses,
    nonunit_complement_witness,
    parse_ring_expr,
    signature_set,
    two_size_witnesses,
    zero_first_row_set,
)

ring = matrix_ring(2, 3)
graph = build_graph(ring)
print(f"M2(GF(3)): {ring.order} elements, {len(ring.unit_set)} invertible")

sig = signature_set(2, 3)
print(f"\nsignature matrices ({len(sig)} of them):")
for idx in sig:
    print(f"  {ring.element_repr(idx)}")
print(f"maximal independent: {is_maximal_independent(graph, sig)}")

rows = zero_first_row_set(2, 3)
print(f"\nzero-first-row matrices: {len(rows)} of them, "
      f"maximal independent: {is_maximal_independent(graph, rows)}")
print("sizes 4 and 9 differ, so the unit graph of M2(GF(3)) is not well-covered")

print("\nthe same witnesses through the quotient machinery (works for any")
print("supported ring in which 2 is a unit):")
for expr in ("Z3", "Z9", "Z25", "M2(GF(3))"):
    a, b = two_size_witnesses(build_ring(parse_ring_expr(expr)))
    print(f"  {expr:<9} sizes {len(a)} and {len(b)}")

print("\nevery nonzero non-invertible y has a non-invertible complement z")
print("with y + z invertible (shown here on a singular matrix):")
y = ring.from_parts([1, 2, 2, 1])
z = nonunit_complement_witness(ring, y)
print(f"  y = {ring.element_repr(y)}  z = {ring.element_repr(z)}  "
      f"y + z = {ring.element_repr(ring.add(y, z))}")

print("\nmixing characteristics: char(R) = 2, char(S) odd makes R x S")
print("never well-covered; the two witnesses:")
r = build_ring(parse_ring_expr("GF(4)"))
s = build_ring(parse_ring_expr("Z3"))
m_times_s, n_set = mixed_char_product_witnesses(r, s)
print(f"  GF(4) x Z3: sizes {len(m_times_s)} and {len(n_set)}")
