"""Build the two graph kinds on a few small rings and look around.

The unit graph joins x and y when x + y is invertible; the unitary
Cayley graph uses x - y instead.  Over Z4 the two coincide (the residue
ring mod the radical has characteristic 2); over Z5 they differ.
"""

from unitgraphs import (
    build_graph,
    build_ring,
    graph_to_dot,
    graph_to_json,
    graphs_equal,
    parse_ring_expr,
)

for expr in ("Z4", "Z5", "GF(4)", "Z2 x Z3"):
    ring = build_ring(parse_ring_expr(expr))
    unit = build_graph(ring, "unit")
    cayley = build_graph(ring, "cayley")
    print(f"{expr}: order {ring.order}, units {sorted(ring.unit_set)}")
    print(f"  unit graph edges   {unit.edges()}")
    print(f"  cayley graph equal? {graphs_equal(unit, cayley)}")
    degrees = [unit.degree(x) for x in range(ring.order)]
    print(f"  unit graph degrees {degrees}")


print()
print("DOT output for the unit graph of Z2:")
print(graph_to_dot(build_graph(build_ring(parse_ring_expr("Z2")))))
print("JSON output for the unit graph of Z4:")
print(graph_to_json(build_graph(build_ring(parse_ring_expr("Z4")))))
