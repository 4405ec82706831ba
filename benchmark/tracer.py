"""Per-layer spans recorded from outside the program.

While a Tracer is entered, every binding of the wrapped public functions
in the ``unitgraphs`` modules (and ``Ring.unit_set``) is replaced by a
wrapper that records a span: (name, start, end, parent).  Spans stay in
memory; ``metrics`` turns them into self times (a span's duration minus
the time its child spans cover) and adds the counters the wrappers saw.
On exit every binding is restored.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from unitgraphs.complexes import BudgetExceeded
from unitgraphs.rings import Ring

# (span name, module, function).  build_graph spans are named by graph
# kind and cli.main spans by sub-command.
LAYERS = (
    ("dsl.parse", "unitgraphs.dsl", "parse_ring_expr"),
    ("rings.build", "unitgraphs.rings", "build_ring"),
    ("rings.radical", "unitgraphs.rings", "jacobson_radical"),
    ("rings.quotient", "unitgraphs.rings", "quotient_by_radical"),
    ("wedderburn.shape", "unitgraphs.wedderburn", "wedderburn_shape"),
    ("wedderburn.form", "unitgraphs.wedderburn", "semisimple_form"),
    ("graphs", "unitgraphs.graphs", "build_graph"),
    ("indsets.wc", "unitgraphs.indsets", "well_covered_bruteforce"),
    ("indsets.enum", "unitgraphs.indsets", "enumerate_mis"),
    ("complexes.build", "unitgraphs.complexes", "independence_complex"),
    ("complexes.cm", "unitgraphs.complexes", "is_cm_gf2"),
    ("complexes.gorenstein", "unitgraphs.complexes", "is_gorenstein_gf2"),
    ("complexes.shellable", "unitgraphs.complexes", "is_shellable"),
    ("constructions.two_size", "unitgraphs.constructions", "two_size_witnesses"),
    ("constructions.witness", "unitgraphs.constructions", "nonunit_complement_witness"),
    ("classify.predict", "unitgraphs.classify", "classify_well_covered"),
    ("classify.predict", "unitgraphs.classify", "classify_cm"),
    ("classify.cross_validate", "unitgraphs.classify", "cross_validate"),
    ("cli", "unitgraphs.cli", "main"),
)
UNITS_SPAN = "rings.units"  # the first unit_set of each ring
OP_SPAN = "op"  # the benchmark's own root span around each operation

SELF_TIMES = (
    "dsl.parse", "rings.build", UNITS_SPAN, "rings.radical", "rings.quotient",
    "wedderburn.shape", "wedderburn.form", "graphs.unit", "graphs.cayley",
    "indsets.wc", "indsets.enum", "complexes.build", "complexes.cm",
    "complexes.gorenstein", "complexes.shellable", "constructions.two_size",
    "constructions.witness", "classify.predict", "classify.cross_validate",
    "cli.verify",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.enum_s = 0.0  # inclusive time of every enumerate_mis call
        self.table_mb = 0.0
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def close_open_spans(self) -> None:
        """After an operation was interrupted, end whatever it left open."""
        now = time.perf_counter()
        for s in self.spans:
            if s[2] is None:
                s[2] = now
        self._stack.clear()

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- installing the wrappers -------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, module, attr in LAYERS:
            orig = getattr(sys.modules[module], attr)
            self._rebind(orig, self._wrapper(name, orig))
        prop = Ring.__dict__["unit_set"]
        traced = functools.cached_property(self._unit_set(prop.func))
        traced.__set_name__(Ring, "unit_set")
        Ring.unit_set = traced
        self._undo.append((Ring, "unit_set", prop))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _rebind(self, orig, repl) -> None:
        for modname, module in list(sys.modules.items()):
            if modname.partition(".")[0] != "unitgraphs":
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, repl)
                    self._undo.append((module, attr, orig))

    def _unit_set(self, compute):
        def unit_set(ring):
            if not self.enabled:
                return compute(ring)
            with self.span(UNITS_SPAN):
                return compute(ring)
        return unit_set

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _call(self, name, fn, args, kwargs):
        if name == "graphs":
            name = "graphs." + (args[1] if len(args) > 1 else kwargs.get("kind", "unit"))
        elif name == "cli":
            argv = args[0] if args else kwargs.get("argv")
            name = "cli." + (argv[0] if argv else "main")
        elif name == "indsets.enum":
            return self._enumerate(fn, args, kwargs)
        with self.span(name):
            try:
                result = fn(*args, **kwargs)
            except BudgetExceeded:
                self.counts["complexes.skipped"] += 1
                raise
        if name == "complexes.shellable" and result is None:
            self.counts["complexes.skipped"] += 1
        return result

    def _enumerate(self, fn, args, kwargs):
        # The early-stopping search of well_covered_bruteforce is that
        # function's own work, so it opens no span of its own.
        start = time.perf_counter()
        if self._parent_name() == "indsets.wc":
            report = fn(*args, **kwargs)
        else:
            with self.span("indsets.enum"):
                report = fn(*args, **kwargs)
        self.enum_s += time.perf_counter() - start
        self.counts["indsets.sets"] += report.count
        self.counts["indsets.capped"] += report.truncated
        return report

    def note_tables(self) -> None:
        """After an op: the largest total of multiplication and addition
        tables that live rings hold at the end of any op."""
        total = 0
        for obj in gc.get_objects():
            if isinstance(obj, Ring):
                for attr in ("mul_table", "add_table"):
                    table = vars(obj).get(attr)
                    if isinstance(table, np.ndarray):
                        total += table.nbytes
        self.table_mb = max(self.table_mb, total / 2**20)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        selfs = self.self_times()
        out = {f"{name}_s": (selfs[name], "s") for name in SELF_TIMES}
        sets = self.counts["indsets.sets"]
        out["indsets.sets"] = (sets, "count")
        out["indsets.sets_per_s"] = (sets / self.enum_s if self.enum_s else 0.0, "1/s")
        out["indsets.capped"] = (self.counts["indsets.capped"], "count")
        out["complexes.skipped"] = (self.counts["complexes.skipped"], "count")
        out["rings.table_mb"] = (self.table_mb, "MB")
        out["trace.unattributed_s"] = (selfs[OP_SPAN], "s")
        return out
