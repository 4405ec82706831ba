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
  Gorenstein = (every element idempotent).

``cross_validate`` runs the classifiers next to the independent oracles
(set enumeration, GF(2) homology) and reports predictions, observations
and their agreement.  The classifiers never fall back to the oracle, so
agreement remains evidence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .complexes import (
    DEFAULT_FACE_CAP,
    DEFAULT_FACET_CAP,
    BudgetExceeded,
    independence_complex,
    is_cm_gf2,
    is_gorenstein_gf2,
    is_shellable,
)
from .descriptors import RingDescriptor, descriptor_expr
from .graphs import DEFAULT_GRAPH_CAP, GraphError, build_graph
from .indsets import well_covered_bruteforce
from .rings import Ring, build_ring, is_boolean_ring, is_field, quotient_by_radical
from .wedderburn import wedderburn_shape

SKIPPED = "skipped"


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


def classify_cm(descriptor_or_ring: RingDescriptor | Ring) -> dict[str, bool]:
    """Cohen-Macaulay / shellable / Gorenstein verdicts for the unit graph."""
    ring = (
        descriptor_or_ring
        if isinstance(descriptor_or_ring, Ring)
        else build_ring(descriptor_or_ring)
    )
    boolean = is_boolean_ring(ring)
    cm = boolean or (ring.characteristic == 2 and is_field(ring))
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


_CHECKS = ("wc", "cm", "shellable", "gorenstein")

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
    graph_cap: int = DEFAULT_GRAPH_CAP,
    facet_cap: int = DEFAULT_FACET_CAP,
    face_cap: int = DEFAULT_FACE_CAP,
    max_sets: int = 10**6,
    time_budget: float = 60.0,
) -> ClassificationReport:
    """Run the classifiers and the oracles side by side.

    Oracle runs that hit a cap are marked "skipped" and never count as
    disagreement.
    """
    for c in checks:
        if c not in _CHECKS:
            raise ValueError(f"unknown check {c!r}")
    start = time.monotonic()
    ring = build_ring(descriptor)
    quotient = quotient_by_radical(ring)
    report = ClassificationReport(
        ring=descriptor_expr(descriptor),
        quotient_char=quotient.characteristic,
        shape=wedderburn_shape(descriptor),
    )
    report.predicted = predict(descriptor)

    graph = None
    complex_ = None
    if set(checks):
        try:
            graph = build_graph(ring, "unit", cap=graph_cap)
        except GraphError:
            graph = None
    if graph is not None and any(c in checks for c in ("cm", "shellable", "gorenstein")):
        try:
            complex_ = independence_complex(
                graph, max_sets=max_sets, time_budget=time_budget
            )
        except BudgetExceeded:
            complex_ = None

    observed: dict[str, object] = {}
    if "wc" in checks:
        if graph is None:
            observed["well_covered"] = SKIPPED
        else:
            verdict = well_covered_bruteforce(
                graph, max_sets=max_sets, time_budget=time_budget
            )
            observed["well_covered"] = SKIPPED if verdict is None else verdict
    if "cm" in checks:
        observed["cm_gf2"] = _run_complex_check(complex_, is_cm_gf2, face_cap)
    if "shellable" in checks:
        if complex_ is None:
            observed["shellable"] = SKIPPED
        else:
            verdict = is_shellable(complex_, facet_cap=facet_cap)
            observed["shellable"] = SKIPPED if verdict is None else verdict
    if "gorenstein" in checks:
        observed["gorenstein_gf2"] = _run_complex_check(
            complex_, is_gorenstein_gf2, face_cap
        )
    report.observed = observed

    comparisons = []
    for check in checks:
        pred_key, obs_key = CHECK_KEYS[check]
        pred = report.predicted[pred_key]
        obs = observed.get(obs_key, SKIPPED)
        if obs == SKIPPED:
            continue
        comparisons.append(pred == obs)
    report.agreement = all(comparisons) if comparisons else None
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    return report


def _run_complex_check(complex_, fn, face_cap):
    if complex_ is None:
        return SKIPPED
    try:
        return fn(complex_, face_cap)
    except BudgetExceeded:
        return SKIPPED
