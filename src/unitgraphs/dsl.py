"""Parser for the ring-expression language used on the command line.

Grammar (whitespace-insensitive, case-sensitive):

    ring    := atom ( 'x' atom )*
    atom    := 'Z' NAT | 'GF(' NAT ')' | 'M' NAT '(' ring ')'
             | 'GA(' field ',' group ')' | '(' ring ')'
    field   := 'GF(' NAT ')' | 'Z' PRIME
    group   := 'C' NAT | 'D4' | 'Q8'

NAT is a run of ASCII digits, at most MAX_DIGITS long, and brackets
nest at most MAX_DEPTH deep (``descriptors.MAX_DEPTH``).  Products
associate into a single flat Product node, so
``parse("Z2 x Z3 x Z5")`` and ``parse("(Z2 x Z3) x Z5")`` agree.
Errors carry the offset into the input where parsing failed; a node's
own DescriptorError is reported at the offset of its number.
"""

from __future__ import annotations

from .descriptors import (
    Cn,
    D4,
    MAX_DEPTH,
    DescriptorError,
    Gf,
    GroupAlgebra,
    Mat,
    Product,
    Q8,
    RingDescriptor,
    Zn,
    is_prime,
)


# Every supported modulus has at most 13 digits (descriptors.MAX_MODULUS);
# the bound keeps int() far below Python's 4300-digit conversion limit.
MAX_DIGITS = 40


class RingExprError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str, position: int | None = None):
        raise RingExprError(message, self.pos if position is None else position)

    def build(self, node, number: tuple[int, int], *fields):
        """node(n, *fields), its DescriptorError reported at n's offset."""
        try:
            return node(number[0], *fields)
        except DescriptorError as err:
            self.error(str(err), number[1])

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, s: str) -> None:
        self.skip_ws()
        if not self.text.startswith(s, self.pos):
            self.error(f"expected {s!r}")
        self.pos += len(s)

    def nat(self) -> tuple[int, int]:
        self.skip_ws()
        start = self.pos
        while "0" <= self.peek() <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        if self.pos - start > MAX_DIGITS:
            self.error(f"numbers are limited to {MAX_DIGITS} digits", start)
        return int(self.text[start : self.pos]), start

    def ring(self) -> RingDescriptor:
        factors = [self.atom()]
        self.skip_ws()
        while self.peek() == "x":
            self.pos += 1
            factors.append(self.atom())
            self.skip_ws()
        if len(factors) == 1:
            return factors[0]
        flat = [g for f in factors for g in (f.factors if isinstance(f, Product) else (f,))]
        return Product(tuple(flat))

    def inner_ring(self) -> RingDescriptor:
        """A ring inside one more pair of brackets."""
        if self.depth == MAX_DEPTH:
            self.error(f"brackets nest at most {MAX_DEPTH} deep")
        self.depth += 1
        inner = self.ring()
        self.depth -= 1
        return inner

    def atom(self) -> RingDescriptor:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.inner_ring()
            self.expect(")")
            return inner
        if ch == "Z":
            self.pos += 1
            return self.build(Zn, self.nat())
        if ch == "M":
            self.pos += 1
            k = self.nat()
            self.expect("(")
            base = self.inner_ring()
            self.expect(")")
            return self.build(Mat, k, base)
        if self.text.startswith("GF", self.pos):
            return self.gf()
        if self.text.startswith("GA", self.pos):
            self.pos += 2
            self.expect("(")
            q = self.field()
            self.expect(",")
            grp = self.group()
            self.expect(")")
            return GroupAlgebra(q, grp)
        self.error("expected a ring atom (Z.., GF(..), M..(..), GA(..), or parentheses)")

    def gf(self) -> Gf:
        """'GF(' q ')', read from its 'GF'."""
        self.pos += 2
        self.expect("(")
        q = self.nat()
        self.expect(")")
        return self.build(Gf, q)

    def field(self) -> int:
        self.skip_ws()
        if self.text.startswith("GF", self.pos):
            return self.gf().q
        if self.peek() == "Z":
            self.pos += 1
            p, at = self.nat()
            if not is_prime(p):
                self.error(f"Z{p} is not a field (modulus must be prime)", at)
            return p
        self.error("expected a coefficient field (GF(q) or Z<prime>)")

    def group(self) -> Cn | D4 | Q8:
        self.skip_ws()
        if self.text.startswith("D4", self.pos):
            self.pos += 2
            return D4()
        if self.text.startswith("Q8", self.pos):
            self.pos += 2
            return Q8()
        if self.peek() == "C":
            self.pos += 1
            return self.build(Cn, self.nat())
        self.error("expected a group (C<n>, D4, or Q8)")


def parse_ring_expr(text: str) -> RingDescriptor:
    parser = _Parser(text)
    descriptor = parser.ring()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("unexpected trailing input")
    return descriptor
