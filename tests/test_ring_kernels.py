"""One multiplication kernel per ring kind.

Each concrete ring kind in ``unitgraphs.rings`` states its product once,
as ``mul_many``; the scalar ``mul`` is ``Ring``'s, that kernel on one
pair, and only ``GfRing`` keeps its own, on the log/antilog tables its
kernel reads.  ``QuotientRing`` is the product of its blocks and
multiplies, and finds its units, as ``ProductRing`` and ``Ring`` do.
This reads ``rings.py`` with ``ast`` and names every class that breaks
a rule.
"""

import ast
from pathlib import Path

RINGS = Path(__file__).resolve().parent.parent / "src" / "unitgraphs" / "rings.py"


def kernel_faults(source: str) -> list[str]:
    classes = [n for n in ast.parse(source).body if isinstance(n, ast.ClassDef)]
    kinds = {"Ring"}
    for node in classes:  # a subclass comes after its base
        if any(isinstance(b, ast.Name) and b.id in kinds for b in node.bases):
            kinds.add(node.name)
    faults = []
    for node in classes:
        defined = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        if "mul" in defined and node.name not in ("Ring", "GfRing"):
            faults.append(f"{node.name} defines a scalar mul")
        if node.name == "QuotientRing":
            faults += [f"QuotientRing defines {m}" for m in ("mul_many", "_compute_units")
                       if m in defined]
        elif node.name in kinds - {"Ring"} and "mul_many" not in defined:
            faults.append(f"{node.name} has no mul_many")
    return faults


def test_each_ring_kind_has_one_product_formula():
    assert kernel_faults(RINGS.read_text()) == []


def test_the_check_sees_a_second_product_formula():
    planted = (
        "class Ring:\n"
        "    def mul(self, x, y): ...\n"
        "class ZnRing(Ring):\n"
        "    def mul(self, x, y): ...\n"
        "    def mul_many(self, xs, ys): ...\n"
        "class ProductRing(Ring):\n"
        "    def element_repr(self, x): ...\n"
        "class QuotientRing(ProductRing):\n"
        "    def mul(self, x, y): ...\n"
        "    def mul_many(self, xs, ys): ...\n"
        "    def _compute_units(self): ...\n"
        "class UnsupportedStructure(Exception):\n"
        "    pass\n"
    )
    assert kernel_faults(planted) == [
        "ZnRing defines a scalar mul",
        "ProductRing has no mul_many",
        "QuotientRing defines a scalar mul",
        "QuotientRing defines mul_many",
        "QuotientRing defines _compute_units",
    ]
