"""Radical, quotient, and lifting independent sets, on M2(Z4).

M2(Z4) has 256 elements; its radical is the 16 matrices with entries in
{0, 2}, and the quotient is M2(GF(2)).  When 2 is a zero divisor the
maximal independent sets of the unit graph are exactly the unions of
radical cosets over the quotient's maximal independent sets, so the
256-vertex problem collapses to a 16-vertex one.
"""

from unitgraphs import (
    VertexSet,
    build_graph,
    build_ring,
    enumerate_mis,
    jacobson_radical,
    lift_nonunit_mis,
    parse_ring_expr,
    quotient_by_radical,
    zero_first_row_set,
)

ring = build_ring(parse_ring_expr("M2(Z4)"))
radical = jacobson_radical(ring)
quot = quotient_by_radical(ring)
print(f"M2(Z4): order {ring.order}, |J| = {len(radical)}, quotient order {quot.order}")

quot_graph = build_graph(quot)
quot_report = enumerate_mis(quot_graph)
print(f"quotient unit graph: {quot_report.count} maximal independent sets, "
      f"sizes {dict(quot_report.sizes_seen)}")

full_report = enumerate_mis(build_graph(ring))
print(f"full unit graph:     {full_report.count} maximal independent sets, "
      f"sizes {dict(full_report.sizes_seen)}")
print("counts match and every full set is a union of radical cosets:")

rad = radical.indices()
lifted = set()
for qset in quot_report.sets:
    mask = 0
    for a in qset:
        for j in rad:
            mask |= 1 << ring.add(quot.representatives[a], j)
    lifted.add(mask)
print(f"  lifted family == enumerated family: "
      f"{lifted == {s.mask for s in full_report.sets}}")

zero_rows = zero_first_row_set(2, 2)
lift = lift_nonunit_mis(ring, VertexSet(zero_rows.mask, quot.order))
print(f"\nlifting the 4 zero-first-row classes: {len(lift)} elements "
      f"(4 x |J| = {4 * len(radical)})")
