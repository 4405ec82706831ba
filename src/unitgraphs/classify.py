"""Decision procedures for well-covered / CM / shellable / Gorenstein
unit graphs, plus cross-validation against the brute-force oracles.

The classifiers work from structure alone:

* ``classify_well_covered`` inspects the semisimple shape of R/J(R).
  The unit graph is well-covered exactly when every residue field has
  characteristic 2 and the shape is one of: a single field; two copies
  of one field; 2x2 matrices over a field; or k >= 1 copies of GF(2).
  "Two copies of one field" is read literally: products of two distinct
  characteristic-2 fields classify as False (and the oracle agrees on
  e.g. GF(2) x GF(4)).
* ``classify_cm`` decides Cohen-Macaulay = shellable = (R is a field of
  characteristic 2, or every element of R is idempotent), and
  Gorenstein = (every element idempotent), from the shape and |R| of a
  descriptor.

``cross_validate`` runs the classifiers next to the independent oracles
(set enumeration, GF(2) homology) and reports predictions, observations
and their agreement.  Its ``shape`` and ``quotient_char`` are read off
the descriptor too, so it realizes R and its unit graph but neither
J(R) nor R/J(R).  The observations are the verdicts of
``complexes.join_verdicts`` on the join of the unit graph's components,
which read only adjacency rows, never the ring.  The classifiers never
fall back to the oracle, so agreement remains evidence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .complexes import DEFAULT_FACET_CAP, SKIPPED, join_factors, join_verdicts
from .descriptors import RingDescriptor, descriptor_expr, descriptor_order
from .graphs import build_graph
from .indsets import DEFAULT_MAX_SETS, DEFAULT_TIME_BUDGET
from .rings import build_ring
from .wedderburn import shape_characteristic, wedderburn_shape


def classify_well_covered(descriptor: RingDescriptor) -> bool:
    """True/False from the semisimple shape."""
    shape = wedderburn_shape(descriptor)
    # prime power q: characteristic 2 iff q is a power of 2 (2^82 is not factored)
    if any(q & (q - 1) for _, q in shape):
        return False
    if all(block == (1, 2) for block in shape):
        return True
    if len(shape) == 1:
        n, _ = shape[0]
        return n in (1, 2)
    if len(shape) == 2:
        (n1, q1), (n2, q2) = shape
        return n1 == n2 == 1 and q1 == q2
    return False


def classify_cm(descriptor: RingDescriptor) -> dict[str, bool]:
    """Cohen-Macaulay / shellable / Gorenstein verdicts for the unit graph.

    Read from the shape of R/J(R) and |R|, without realizing R: R is
    Boolean iff every block is (1, 2) and |R| = 2^blocks, and a field iff
    the shape is one block (1, q) and |R| = q (either way J(R) = 0)."""
    shape = wedderburn_shape(descriptor)
    n, q = shape[0]
    blocks_order = 2 ** len(shape)
    boolean = all(block == (1, 2) for block in shape) and (
        descriptor_order(descriptor, blocks_order) == blocks_order
    )
    # q is a prime power: characteristic 2 iff q is a power of 2
    cm = boolean or (
        len(shape) == 1 and n == 1 and q & (q - 1) == 0 and descriptor_order(descriptor, q) == q
    )
    return {"cm": cm, "shellable": cm, "gorenstein": boolean}


def predict(descriptor: RingDescriptor) -> dict:
    """Every structural verdict: well_covered, cm, shellable, gorenstein."""
    cm = classify_cm(descriptor)
    return {"well_covered": classify_well_covered(descriptor), **cm}


@dataclass
class ClassificationReport:
    ring: str
    quotient_char: int
    shape: tuple[tuple[int, int], ...]
    predicted: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    agreement: bool | None = None
    runtime_ms: int = 0

    def to_dict(self) -> dict:
        return {
            "ring": self.ring,
            "quotient_char": self.quotient_char,
            "shape": [list(b) for b in self.shape],
            "predicted": dict(self.predicted),
            "observed": dict(self.observed),
            "agreement": self.agreement,
            "runtime_ms": self.runtime_ms,
        }


# predicted key -> observed key, per the report schema
CHECK_KEYS = {
    "wc": ("well_covered", "well_covered"),
    "cm": ("cm", "cm_gf2"),
    "shellable": ("shellable", "shellable"),
    "gorenstein": ("gorenstein", "gorenstein_gf2"),
}


def cross_validate(
    descriptor: RingDescriptor,
    checks=("wc",),
    *,
    facet_cap: int = DEFAULT_FACET_CAP,
    max_sets: int = DEFAULT_MAX_SETS,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> ClassificationReport:
    """Run the classifiers and the oracles side by side.

    Oracle runs that hit a cap are marked "skipped" and never count as
    disagreement.
    """
    for c in checks:
        if c not in CHECK_KEYS:
            raise ValueError(f"unknown check {c!r}")
    start = time.monotonic()
    ring = build_ring(descriptor)
    shape = wedderburn_shape(descriptor)
    report = ClassificationReport(
        ring=descriptor_expr(descriptor),
        quotient_char=shape_characteristic(shape),
        shape=shape,
    )
    report.predicted = predict(descriptor)

    factors = ()
    if checks:  # a realized ring is within the graph cap
        graph = build_graph(ring, "unit")
        factors = join_factors(graph, max_sets=max_sets, time_budget=time_budget)
    report.observed = join_verdicts(
        factors, [CHECK_KEYS[c][1] for c in CHECK_KEYS if c in checks], facet_cap=facet_cap
    )

    pairs = [(report.predicted[p], report.observed[o]) for p, o in map(CHECK_KEYS.get, checks)]
    decided = [pred == obs for pred, obs in pairs if obs != SKIPPED]
    report.agreement = all(decided) if decided else None
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    return report
