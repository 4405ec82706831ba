"""Hand-recorded facts about every ring the benchmark runs, and the
paper's theorems stated over them.

Nothing here imports ``unitgraphs``: the checks compare the program's
outputs against these records, so they must not come from the program.
Each record gives the order of R, the size of its unit group U(R) as a
closed form, and the block shape of R/J(R) as (matrix size n, field
order q) pairs.  README.md derives each shape; the unit counts follow
from |U(R)| = |J(R)| * prod |GL_n(q)| and are written out as numbers,
so a typo in either shows up as an inconsistency (test_checks.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

Block = tuple[int, int]


@dataclass(frozen=True)
class Facts:
    order: int
    units: int
    shape: tuple[Block, ...]

    @property
    def quotient_order(self) -> int:
        """|R/J(R)| = prod q^(n^2)."""
        return prod(q ** (n * n) for n, q in self.shape)

    @property
    def radical_order(self) -> int:
        return self.order // self.quotient_order


def gl_order(n: int, q: int) -> int:
    """|GL_n(GF(q))| = prod_{i<n} (q^n - q^i)."""
    return prod(q**n - q**i for i in range(n))


def boolean_expr(k: int) -> str:
    """Z2 x ... x Z2 with k factors."""
    return " x ".join(["Z2"] * k)


F2, F3, F4 = (1, 2), (1, 3), (1, 4)

RINGS: dict[str, Facts] = {
    # --- the shipped catalog -------------------------------------------
    "Z2": Facts(2, 1, (F2,)),                      # phi(2)
    "Z3": Facts(3, 2, (F3,)),
    "Z4": Facts(4, 2, (F2,)),
    "Z5": Facts(5, 4, ((1, 5),)),
    "Z6": Facts(6, 2, (F2, F3)),
    "Z7": Facts(7, 6, ((1, 7),)),
    "Z8": Facts(8, 4, (F2,)),
    "Z9": Facts(9, 6, (F3,)),
    "Z10": Facts(10, 4, (F2, (1, 5))),
    "Z11": Facts(11, 10, ((1, 11),)),
    "Z12": Facts(12, 4, (F2, F3)),
    "Z13": Facts(13, 12, ((1, 13),)),
    "Z14": Facts(14, 6, (F2, (1, 7))),
    "Z15": Facts(15, 8, (F3, (1, 5))),
    "Z16": Facts(16, 8, (F2,)),
    "GF(2)": Facts(2, 1, (F2,)),                   # q - 1
    "GF(3)": Facts(3, 2, (F3,)),
    "GF(4)": Facts(4, 3, (F4,)),
    "GF(5)": Facts(5, 4, ((1, 5),)),
    "GF(7)": Facts(7, 6, ((1, 7),)),
    "GF(8)": Facts(8, 7, ((1, 8),)),
    "GF(9)": Facts(9, 8, ((1, 9),)),
    "GF(16)": Facts(16, 15, ((1, 16),)),
    boolean_expr(2): Facts(4, 1, (F2,) * 2),
    boolean_expr(3): Facts(8, 1, (F2,) * 3),
    boolean_expr(4): Facts(16, 1, (F2,) * 4),
    "M2(GF(2))": Facts(16, 6, ((2, 2),)),          # (4-1)(4-2)
    "M2(GF(3))": Facts(81, 48, ((2, 3),)),         # (9-1)(9-3)
    "Z2 x Z3": Facts(6, 2, (F2, F3)),
    "Z4 x GF(4)": Facts(16, 6, (F2, F4)),          # 2 * 3
    "GF(4) x GF(4)": Facts(16, 9, (F4, F4)),
    "GF(2) x GF(4)": Facts(8, 3, (F2, F4)),
    "M2(Z4)": Facts(256, 96, ((2, 2),)),           # |M2(2Z4)| * |GL2(2)| = 16 * 6
    "GA(GF(2), C2)": Facts(4, 2, (F2,)),           # local, |J| = 2
    "GA(GF(2), C4)": Facts(16, 8, (F2,)),          # local, |J| = 8
    "GA(GF(2), Q8)": Facts(256, 128, (F2,)),       # local, |J| = 128
    "GA(GF(2), D4)": Facts(256, 128, (F2,)),
    # --- oracle ----------------------------------------------------------
    "Z1024": Facts(1024, 512, (F2,)),              # phi(2^10)
    "Z2048": Facts(2048, 1024, (F2,)),
    "M2(GF(4))": Facts(256, 180, ((2, 4),)),       # (16-1)(16-4)
    "Z8 x Z8": Facts(64, 16, (F2, F2)),            # 4 * 4
    "GF(8) x GF(8)": Facts(64, 49, ((1, 8), (1, 8))),
    "GA(GF(3), C4)": Facts(81, 32, (F3, F3, (1, 9))),  # x^4-1 = (x-1)(x+1)(x^2+1)
    "GA(GF(2), C6)": Facts(64, 24, (F2, F4)),      # /J = GF(2)[C3]; 8 * 1 * 3
    "GA(GF(3), C2)": Facts(9, 4, (F3, F3)),        # x^2-1 = (x-1)(x+1)
    boolean_expr(5): Facts(32, 1, (F2,) * 5),
    boolean_expr(6): Facts(64, 1, (F2,) * 6),
    # --- cap-ladder ------------------------------------------------------
    "GF(4096)": Facts(4096, 4095, ((1, 4096),)),
    "Z4096": Facts(4096, 2048, (F2,)),
    boolean_expr(12): Facts(4096, 1, (F2,) * 12),
    "M2(GF(8))": Facts(4096, 3528, ((2, 8),)),     # (64-1)(64-8)
    "M2(GF(7))": Facts(2401, 2016, ((2, 7),)),     # (49-1)(49-7)
    "Z9 x M2(Z4)": Facts(2304, 576, (F3, (2, 2))),  # phi(9) * 96
    "GA(GF(2), C11)": Facts(2048, 1023, (F2, (1, 1024))),  # ord_11(2) = 10
    "M2(Z8)": Facts(4096, 1536, ((2, 2),)),        # |GL2(Z/8)| = 256 * 6
    "GA(GF(2), C12)": Facts(4096, 1536, (F2, F4)),  # /J = GF(2)[C3]; 512 * 3
    "GA(GF(3), C7)": Facts(2187, 1456, (F3, (1, 729))),  # ord_7(3) = 6; 2 * 728
}


# ---------------------------------------------------------------------------
# the paper's theorems, as functions of the recorded shape
# ---------------------------------------------------------------------------

def residue_char_two(shape) -> bool:
    """char(R/J(R)) = 2: every residue field has even order."""
    return all(q % 2 == 0 for _, q in shape)


def two_is_unit(shape) -> bool:
    """2 is a unit of R iff no residue field has characteristic 2."""
    return all(q % 2 == 1 for _, q in shape)


def well_covered(shape) -> bool:
    """The unit graph of R is well-covered iff char(R/J(R)) = 2 and
    R/J(R) is GF(q), GF(q) x GF(q), M_2(GF(q)), or GF(2)^k."""
    if not residue_char_two(shape):
        return False
    blocks = sorted(shape)
    if all(b == F2 for b in blocks):
        return True
    if len(blocks) == 1:
        return blocks[0][0] in (1, 2)
    return len(blocks) == 2 and blocks[0] == blocks[1] and blocks[0][0] == 1


def cohen_macaulay(facts: Facts) -> bool:
    """The unit graph of R is Cohen-Macaulay (equivalently shellable)
    iff R is a field of characteristic 2 or R is Boolean (R = GF(2)^k)."""
    if facts.radical_order != 1:
        return False
    field_char_two = len(facts.shape) == 1 and facts.shape[0][0] == 1 and (
        residue_char_two(facts.shape)
    )
    return field_char_two or all(b == F2 for b in facts.shape)


def gorenstein(facts: Facts) -> bool:
    """The unit graph of R is Gorenstein iff R is Boolean."""
    return facts.radical_order == 1 and all(b == F2 for b in facts.shape)


def expected_verdicts(facts: Facts) -> dict[str, bool]:
    """Keyed as in the program's reports (observed side)."""
    cm = cohen_macaulay(facts)
    return {
        "well_covered": well_covered(facts.shape),
        "cm_gf2": cm,
        "shellable": cm,
        "gorenstein_gf2": gorenstein(facts),
    }


def unit_degree_sum(facts: Facts) -> int:
    """deg(x) = |U| - [2x in U], and 2x is a unit iff 2 and x are."""
    twice_units = facts.units if two_is_unit(facts.shape) else 0
    return facts.order * facts.units - twice_units


def cayley_degree_sum(facts: Facts) -> int:
    return facts.order * facts.units
