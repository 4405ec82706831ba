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
J(R) nor R/J(R).  ``join_factors`` yields the factors of the join one
component report of ``indsets.component_reports`` at a time, each
search stopped at a second facet size (or, for the ``complex`` command,
run to the whole family); the verdicts on the whole complex follow from the
factors' by the join rule (``join_verdicts``).  A long verdict search
first runs a greedy probe, which ends it if it finds two sizes, and
else runs on one vertex neighbourhood per orbit of the graph's verified
automorphisms and closes the sets it finds under them (see
``indsets``).  Every step reads only adjacency rows and facets, never
the ring.  The classifiers never fall back to the oracle, so agreement
remains evidence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .complexes import (
    DEFAULT_FACET_CAP,
    BudgetExceeded,
    SimplicialComplex,
    is_cm_gf2,
    is_gorenstein_gf2,
    is_pure,
    is_shellable,
)
from .descriptors import RingDescriptor, descriptor_expr, descriptor_order
from .graphs import GraphError, build_graph
from .indsets import DEFAULT_MAX_SETS, DEFAULT_TIME_BUDGET, component_reports
from .rings import build_ring
from .wedderburn import shape_characteristic, wedderburn_shape

SKIPPED = "skipped"


class Skipped(str):
    """A verdict that hit a cap: equal to SKIPPED and printed as it, and
    keeping the message of the cap that fired in ``reason``."""

    def __new__(cls, reason: str):
        self = super().__new__(cls, SKIPPED)
        self.reason = reason
        return self


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

    factors = None
    if checks:
        try:
            graph = build_graph(ring, "unit")
        except GraphError:  # over the graph cap: every verdict is skipped
            pass
        else:
            factors = list(join_factors(graph, max_sets=max_sets, time_budget=time_budget))
    report.observed = join_verdicts(
        factors, [CHECK_KEYS[c][1] for c in CHECK_KEYS if c in checks], facet_cap=facet_cap
    )

    comparisons = []
    for check in checks:
        pred_key, obs_key = CHECK_KEYS[check]
        obs = report.observed[obs_key]
        if obs != SKIPPED:
            comparisons.append(report.predicted[pred_key] == obs)
    report.agreement = all(comparisons) if comparisons else None
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    return report


def join_factors(graph, *, stop_mode="first_two_sizes", **limits):
    """Ind(G1 + G2) is the join Ind(G1) * Ind(G2).  Yields the factors
    one component search at a time: its complex; a Skipped with the stop
    reason if truncated; False if it stopped at a second facet size,
    which decides every verdict on the join.  stop_mode="all" gives every
    complex whole, as the ``complex`` command needs; that command stops
    at the first Skipped, before the next search starts.  limits
    (max_sets, time_budget) go to ``component_reports``."""
    for part, found in component_reports(graph, stop_mode=stop_mode, **limits):
        if found.truncated:
            reason = f"maximal independent set enumeration was truncated ({found.stop_reason})"
            yield Skipped(reason)
        elif found.stop_reason == "two_sizes":
            yield False
        else:
            yield SimplicialComplex(part.n, [s.mask for s in found.sets], graph=part)


def join_verdicts(factors, keys, *, facet_cap=DEFAULT_FACET_CAP):
    """The verdicts named by keys ("well_covered" = "pure", "cm_gf2",
    "shellable", "gorenstein_gf2") on the join of the factors, by _join.
    Gorenstein and pure shellable complexes are CM (Stanley, ch. II), so
    CM False decides both without their walks."""
    oracles = {
        "well_covered": is_pure,
        "pure": is_pure,
        "cm_gf2": is_cm_gf2,
        "shellable": lambda c: is_shellable(c, facet_cap=facet_cap),
        "gorenstein_gf2": is_gorenstein_gf2,
    }
    verdicts = {}
    for key in sorted(keys, key=lambda k: k != "cm_gf2"):  # CM first
        implied = key in ("shellable", "gorenstein_gf2") and verdicts.get("cm_gf2") is False
        verdicts[key] = False if implied else _join(factors, oracles[key])
    return {key: verdicts[key] for key in keys}


def _join(factors, check):
    """A verdict on the join of the factor complexes from the factors' own:
    a join is CM (Gorenstein) iff every factor is, its Stanley-Reisner
    ring being their tensor product (Stanley, Combinatorics and
    Commutative Algebra, ch. II); a join of pure shellable complexes is
    shellable, and each factor is the link of a facet of the others, so
    it inherits shellability.  False if any factor is False (not pure)
    or fails the check, else skipped if any is undecided (None) or hit a
    cap (the first cap hit or truncated factor, as a Skipped), else True."""
    if factors is None:
        return SKIPPED
    verdict = True
    for c in factors:
        if c is False:  # not pure: no check holds
            return False
        try:
            v = c if isinstance(c, Skipped) else check(c)
        except BudgetExceeded as exc:
            v = Skipped(str(exc))
        if v is False:
            return False
        if verdict is True and v is not True:
            verdict = SKIPPED if v is None else v
    return verdict
