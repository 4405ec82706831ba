"""Unit graphs and unitary Cayley graphs of finite rings.

Realize a ring from a symbolic descriptor, build the graph, enumerate
maximal independent sets, and compare the structural classification of
well-covered / Cohen-Macaulay unit graphs against brute force:

    >>> from unitgraphs import parse_ring_expr, build_ring, build_graph
    >>> from unitgraphs import well_covered_bruteforce, classify_well_covered
    >>> d = parse_ring_expr("M2(GF(2))")
    >>> classify_well_covered(d), well_covered_bruteforce(build_graph(build_ring(d)))
    (True, True)
"""

from .bits import VertexSet
from .classify import (
    ClassificationReport,
    classify_cm,
    classify_well_covered,
    cross_validate,
)
from .complexes import (
    BudgetExceeded,
    ComplexError,
    SimplicialComplex,
    complex_from_json,
    facets_to_json,
    find_shelling,
    independence_complex,
    is_cm_gf2,
    is_gorenstein_gf2,
    is_pure,
    is_shellable,
    link,
    reduced_homology_gf2,
)
from .constructions import (
    ConstructionError,
    lift_nonunit_mis,
    lift_unit_mis_reps,
    matrix_ring,
    mixed_char_product_witnesses,
    nonunit_complement_witness,
    product_nonunit_extend,
    product_unit_sets,
    signature_set,
    two_size_witnesses,
    zero_first_row_set,
)
from .descriptors import (
    Cn,
    D4,
    DescriptorError,
    Gf,
    GroupAlgebra,
    Mat,
    Product,
    Q8,
    RingDescriptor,
    Zn,
    descriptor_expr,
)
from .dsl import RingExprError, parse_ring_expr
from .graphs import (
    Graph,
    GraphError,
    build_graph,
    graph_to_dot,
    graph_to_json,
    graphs_equal,
)
from .indsets import (
    EnumerationError,
    MisReport,
    enumerate_mis,
    is_independent,
    is_maximal_independent,
    well_covered_bruteforce,
)
from .rings import (
    CapExceeded,
    QuotientRing,
    Ring,
    RingError,
    UnsupportedStructure,
    build_ring,
    jacobson_radical,
    quotient_by_radical,
)
from .wedderburn import semisimple_form, wedderburn_shape

__version__ = "0.1.0"
