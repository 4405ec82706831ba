"""Command-line interface.

Results go to stdout as one JSON object per invocation:

    {"ring": ..., "command": ..., "result": ..., "truncated": ..., "runtime_ms": ...}

Each subcommand returns its ring, result and truncation flag; ``main``
alone times the run, writes the envelope and picks the exit code
(``graph`` and ``verify --pretty`` write their own text and return their
exit code).  ``--pretty`` renders the same data as human-readable text.
Diagnostics go to stderr.  Exit codes: 0 success, 1 a verify run found a
disagreement, 2 usage or parse error, 3 a resource cap was exceeded,
4 internal error (an unexpected exception, reported in one line).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from importlib import resources

from .bits import VertexSet
from .classify import CHECK_KEYS, classify_well_covered, cross_validate, predict
from .complexes import (
    DEFAULT_FACET_CAP,
    SKIPPED,
    BudgetExceeded,
    ComplexError,
    complex_from_json,
    join_factors,
    join_verdicts,
    require_whole,
)
from .constructions import (
    ConstructionError,
    nonunit_complement_witness,
    lift_nonunit_mis,
    lift_unit_mis_reps,
    signature_set,
    two_size_witnesses,
    zero_first_row_set,
)
from .descriptors import DescriptorError, descriptor_expr
from .dsl import RingExprError, parse_ring_expr
from .graphs import GraphError, build_graph, dot_blocks, json_blocks
from .indsets import DEFAULT_MAX_SETS, DEFAULT_TIME_BUDGET, enumerate_mis
from .rings import (
    CapExceeded,
    UnsupportedStructure,
    build_ring,
    quotient_by_radical,
)
from .wedderburn import shape_characteristic, wedderburn_shape

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _emit(args, ring_expr, command, result, truncated, start):
    if args.pretty:
        print(f"ring:    {ring_expr}")
        print(f"command: {command}")
        _render_value(result, "  ")
        if truncated:
            print("  (truncated)")
        return
    runtime_ms = int((time.monotonic() - start) * 1000)
    print(json.dumps({
        "ring": ring_expr,
        "command": command,
        "result": result,
        "truncated": truncated,
        "runtime_ms": runtime_ms,
    }))


def _render_value(result: dict, indent):
    width = max((len(str(k)) for k in result), default=0)
    for k, v in result.items():
        if isinstance(v, dict) and v:
            print(f"{indent}{k}:")
            _render_value(v, indent + "  ")
        else:
            shown = json.dumps(v) if isinstance(v, list) else v
            print(f"{indent}{str(k).ljust(width)} = {shown}")


def _indices_arg(text: str, universe: int) -> VertexSet:
    try:
        indices = [int(part) for part in text.split(",") if part.strip() != ""]
        return VertexSet.from_indices(indices, universe)
    except ValueError as exc:
        raise _CliError(f"bad index list {text!r}: {exc}", EXIT_USAGE)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_info(args):
    descriptor = parse_ring_expr(args.ring)
    ring = build_ring(descriptor)
    shape = wedderburn_shape(descriptor)
    result = {
        "order": ring.order,
        "characteristic": ring.characteristic,
        "units": len(ring.unit_set),
        # |R/J(R)| is the product of q^(n^2) over the blocks (n, q)
        "radical_size": ring.order // math.prod(q ** (n * n) for n, q in shape),
        "quotient_char": shape_characteristic(shape),
        "shape": [list(b) for b in shape],
    }
    return descriptor_expr(descriptor), result, False


def _cmd_graph(args) -> int:
    descriptor = parse_ring_expr(args.ring)
    ring = build_ring(descriptor)
    graph = build_graph(ring, args.kind)
    sys.stdout.writelines(dot_blocks(graph) if args.format == "dot" else json_blocks(graph))
    if args.format == "json":
        print()  # the JSON text ends its line
    return EXIT_OK


def _cmd_mis(args):
    descriptor = parse_ring_expr(args.ring)
    ring = build_ring(descriptor)
    graph = build_graph(ring, args.kind)
    report = enumerate_mis(
        graph,
        stop_mode="all",
        max_sets=args.max_sets,
        time_budget=args.time_budget,
        collect=args.list,
    )
    result = {
        "count": report.count,
        "sizes": {str(k): v for k, v in sorted(report.sizes_seen.items())},
        "independence_number": report.independence_number,
        "well_covered": report.well_covered,
        "stop_reason": report.stop_reason,
    }
    if args.list:
        result["sets"] = sorted(s.indices() for s in report.sets)
    if args.count:
        result = {"count": report.count, "stop_reason": report.stop_reason}
    return descriptor_expr(descriptor), result, report.truncated


def _cmd_wellcovered(args):
    descriptor = parse_ring_expr(args.ring)
    result: dict[str, object] = {}
    if args.method in ("classify", "both"):
        result["predicted"] = classify_well_covered(descriptor)
    if args.method in ("brute", "both"):
        report = cross_validate(
            descriptor, ("wc",), max_sets=args.max_sets, time_budget=args.time_budget
        )
        observed = report.observed["well_covered"]
        result["observed"] = "undecided" if observed == SKIPPED else observed
        if args.method == "both":
            result["agreement"] = report.agreement
    return descriptor_expr(descriptor), result, result.get("observed") == "undecided"


def _cmd_classify(args):
    descriptor = parse_ring_expr(args.ring)
    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    for c in checks:
        if c not in CHECK_KEYS:
            raise _CliError(f"unknown check {c!r}; use {', '.join(CHECK_KEYS)}", EXIT_USAGE)
    if args.cross_validate:
        report = cross_validate(
            descriptor,
            checks,
            facet_cap=args.facet_cap,
            max_sets=args.max_sets,
            time_budget=args.time_budget,
        )
        result = report.to_dict()
        result.pop("runtime_ms", None)
    else:
        result = {"predicted": predict(descriptor)}
    return descriptor_expr(descriptor), result, SKIPPED in result.get("observed", {}).values()


def _cmd_construct(args):
    descriptor = parse_ring_expr(args.ring)
    ring = build_ring(descriptor)
    what = args.what
    if what in ("signature", "zerorow"):
        builder = signature_set if what == "signature" else zero_first_row_set
        result = _set_result(builder(*_matrix_params(ring)))
    elif what in ("complement", "claim"):
        if args.y is None:
            raise _CliError("--y <index> is required", EXIT_USAGE)
        if not 0 <= args.y < ring.order:
            raise _CliError(f"--y must be an element index 0..{ring.order - 1}", EXIT_USAGE)
        z = nonunit_complement_witness(ring, args.y)
        result = {
            "y": args.y,
            "witness": z,
            "witness_repr": ring.element_repr(z),
            "verified": True,
        }
    elif what == "two-size":
        unit_side, nonunit_side = two_size_witnesses(ring)
        result = {
            "sets": [unit_side.indices(), nonunit_side.indices()],
            "sizes": [len(unit_side), len(nonunit_side)],
            "verified_maximal": True,
        }
    else:  # lift
        if args.quotient_set is None:
            raise _CliError("--quotient-set <indices> is required", EXIT_USAGE)
        quotient = quotient_by_radical(ring)
        qset = _indices_arg(args.quotient_set, quotient.order)
        lifter = lift_unit_mis_reps if args.side == "unit" else lift_nonunit_mis
        result = _set_result(lifter(ring, qset))
    return descriptor_expr(descriptor), result, False


def _set_result(vertex_set: VertexSet) -> dict:
    return {"set": vertex_set.indices(), "size": len(vertex_set), "verified_maximal": True}


def _matrix_params(ring) -> tuple[int, int]:
    """(n, q) of a ring whose R/J(R) = R is one block M_n(GF(q)), indexed
    as ``matrix_ring(n, q)`` (M_a(M_b(F)), a, b > 1, is over the cap)."""
    quotient = quotient_by_radical(ring)
    if quotient.order != ring.order or len(quotient.blocks) != 1:
        raise _CliError(
            "this construction needs a matrix ring over a field, like M2(GF(3))",
            EXIT_USAGE,
        )
    return quotient.blocks[0]


def _cmd_complex(args):
    if args.facets_file and args.ring:
        raise _CliError(
            f"give a ring expression or --facets-file, not both "
            f"(got {args.ring!r} and {args.facets_file!r})",
            EXIT_USAGE,
        )
    if args.facets_file:
        with open(args.facets_file, "rb") as fh:
            c = complex_from_json(fh.read())
        factors, facets, dimension = [c], len(c.facets), c.dimension
        ring_expr = None
    else:
        if not args.ring:
            raise _CliError("a ring expression or --facets-file is required", EXIT_USAGE)
        descriptor = parse_ring_expr(args.ring)
        graph = build_graph(build_ring(descriptor), "unit")
        factors = []
        for c in join_factors(
            graph, stop_mode="all", max_sets=args.max_sets, time_budget=args.time_budget
        ):
            require_whole(c.report)  # a truncated search: no later one can help
            factors.append(c)
        # the complex is the join of the components' complexes
        facets = math.prod(c.report.count for c in factors)
        dimension = sum(c.report.independence_number for c in factors) - 1
        ring_expr = descriptor_expr(descriptor)
    result: dict[str, object] = {"facets": facets, "dimension": dimension}
    flags = {"pure": args.pure, "shellable": args.shellable,
             "cm_gf2": args.cm, "gorenstein_gf2": args.gorenstein}
    wanted = [key for key, on in flags.items() if on]
    for key, verdict in join_verdicts(factors, wanted, facet_cap=args.facet_cap).items():
        if verdict == SKIPPED and key != "shellable":  # only a cap skips these
            raise BudgetExceeded(f"{key}: {verdict.reason}")
        result[key] = "undecided" if verdict == SKIPPED else verdict
    return ring_expr, result, False


def _cmd_verify(args):
    if args.catalog:
        catalog = _read_catalog(args.catalog)
    else:
        catalog = json.loads(
            resources.files("unitgraphs").joinpath("data/catalog.json").read_text()
        )
    rows = []
    disagreements = 0
    for entry in catalog:
        row = _verify_entry(entry, facet_cap=args.facet_cap)
        rows.append(row)
        if not row["ok"]:
            disagreements += 1
    if args.pretty:
        width = max((len(r["ring"]) for r in rows), default=4)
        print(
            f"{'ring'.ljust(width)}  predicted  observed  expected  checks  ok"
        )
        for r in rows:
            print(
                f"{r['ring'].ljust(width)}  "
                f"{str(r['predicted']).ljust(9)}  "
                f"{str(r['observed']).ljust(8)}  "
                f"{str(r['expected']).ljust(8)}  "
                f"{str(r.get('extra', '')).ljust(6)}  "
                f"{'yes' if r['ok'] else 'NO'}"
            )
        print(f"{len(rows)} rings, {disagreements} disagreement(s)")
        return EXIT_OK if disagreements == 0 else EXIT_DISAGREEMENT
    return None, {"entries": rows, "disagreements": disagreements}, False


def _read_catalog(path: str) -> list:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        catalog = json.loads(raw)
    except ValueError as exc:
        raise _CliError(f"{path}: not a JSON file: {exc}", EXIT_USAGE)
    expectations = ("well_covered", "cm", "shellable", "gorenstein")
    if not isinstance(catalog, list) or not all(
        isinstance(e, dict)
        and isinstance(e.get("ring"), str)
        and all(isinstance(e.get(k), (bool, type(None))) for k in expectations)
        for e in catalog
    ):
        raise _CliError(
            f'{path}: a catalog is a JSON array of objects with a "ring" string '
            "and true/false/null expectations",
            EXIT_USAGE,
        )
    return catalog


def _verify_entry(entry, facet_cap) -> dict:
    expr = entry["ring"]
    wanted = tuple(c for c in ("cm", "shellable", "gorenstein") if c in entry)
    report = cross_validate(parse_ring_expr(expr), ("wc", *wanted), facet_cap=facet_cap)
    expected = {"wc": entry.get("well_covered"), **{c: entry[c] for c in wanted}}
    ok = report.agreement is not False
    for check, want in expected.items():
        obs = report.observed[CHECK_KEYS[check][1]]
        if want is not None and obs != SKIPPED and obs != want:
            ok = False
    row = {
        "ring": expr,
        "predicted": report.predicted["well_covered"],
        "observed": report.observed["well_covered"],
        "expected": expected["wc"],
        "ok": ok,
    }
    if wanted:
        row["extra"] = "+".join(wanted)
        row["cm_report"] = {
            "predicted": report.predicted,
            "observed": {
                k: v for k, v in report.observed.items() if k != "well_covered"
            },
        }
    return row


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seconds(text: str) -> float:
    # nan and inf would switch the clock off
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitgraphs",
        description="Unit graphs of finite rings: construction, independent "
        "sets, and well-covered / Cohen-Macaulay classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, ring=True):
        if ring:
            p.add_argument("ring", help="ring expression, e.g. 'Z4 x M2(GF(2))'")
        p.add_argument("--pretty", action="store_true", help="human-readable output")

    def add_limits(p):
        p.add_argument("--max-sets", type=_positive_int, default=DEFAULT_MAX_SETS)
        p.add_argument("--time-budget", type=_seconds, default=DEFAULT_TIME_BUDGET)

    p = sub.add_parser("info", help="order, characteristic, units, radical, shape")
    add_common(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("graph", help="emit a graph in DOT or JSON form")
    add_common(p)
    p.add_argument("--kind", choices=["unit", "cayley"], default="unit")
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("mis", help="enumerate maximal independent sets")
    add_common(p)
    p.add_argument("--kind", choices=["unit", "cayley"], default="unit")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true", help="include the sets")
    group.add_argument("--sizes", action="store_true", help="sizes summary (default)")
    group.add_argument("--count", action="store_true", help="count only")
    add_limits(p)
    p.set_defaults(func=_cmd_mis)

    p = sub.add_parser("wellcovered", help="decide well-coveredness")
    add_common(p)
    p.add_argument("--method", choices=["brute", "classify", "both"], default="both")
    add_limits(p)
    p.set_defaults(func=_cmd_wellcovered)

    p = sub.add_parser("classify", help="well-covered / CM / shellable / Gorenstein")
    add_common(p)
    p.add_argument("--checks", default="wc,cm,shellable,gorenstein")
    p.add_argument("--cross-validate", action="store_true")
    p.add_argument("--facet-cap", type=_positive_int, default=DEFAULT_FACET_CAP)
    add_limits(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("construct", help="run one of the explicit constructions")
    add_common(p)
    p.add_argument(
        "what",
        choices=["signature", "zerorow", "complement", "claim", "two-size", "lift"],
        help="construction to run ('claim' is an alias of 'complement')",
    )
    p.add_argument("--y", type=int, default=None, help="element index for complement")
    p.add_argument("--side", choices=["unit", "nonunit"], default="nonunit")
    p.add_argument("--quotient-set", default=None, help="comma-separated quotient indices")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("complex", help="independence complex properties")
    add_common(p, ring=False)
    p.add_argument("ring", nargs="?", default=None)
    p.add_argument("--facets-file", default=None, help="standalone facet JSON file")
    p.add_argument("--pure", action="store_true")
    p.add_argument("--shellable", action="store_true")
    p.add_argument("--cm", action="store_true")
    p.add_argument("--gorenstein", action="store_true")
    p.add_argument("--facet-cap", type=_positive_int, default=DEFAULT_FACET_CAP)
    add_limits(p)
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("verify", help="run the classification catalog")
    p.add_argument("--catalog", default=None, help="catalog JSON path (default: shipped)")
    add_common(p, ring=False)
    p.add_argument("--facet-cap", type=_positive_int, default=40)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    start = time.monotonic()
    # exception -> exit code; a BaseException (interrupt, timeout) passes through
    try:
        out = args.func(args)
        if isinstance(out, int):  # graph and verify --pretty wrote their own text
            return out
        ring_expr, result, truncated = out
        command = f"construct {args.what}" if args.command == "construct" else args.command
        _emit(args, ring_expr, command, result, truncated, start)
        if args.command == "verify" and result["disagreements"]:
            return EXIT_DISAGREEMENT
        return EXIT_OK
    except _CliError as exc:
        return _fail(exc, exc.code)
    except (CapExceeded, BudgetExceeded, GraphError) as exc:
        return _fail(exc, EXIT_CAP)
    except (DescriptorError, RingExprError, UnsupportedStructure, ComplexError,
            ConstructionError, OSError) as exc:
        return _fail(exc, EXIT_USAGE)
    except Exception as exc:
        return _fail(f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL)


def _fail(message, code: int) -> int:
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
