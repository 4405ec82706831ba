"""Parser for the ring-expression language used on the command line.

Grammar (whitespace-insensitive, case-sensitive):

    ring    := atom ( 'x' atom )*
    atom    := 'Z' NAT | 'GF(' NAT ')' | 'M' NAT '(' ring ')'
             | 'GA(' field ',' group ')' | '(' ring ')'
    field   := 'GF(' NAT ')' | 'Z' PRIME
    group   := 'C' NAT | 'D4' | 'Q8'

NAT is a run of ASCII digits, at most MAX_DIGITS long.  Products
associate into a single flat Product node, so
``parse("Z2 x Z3 x Z5")`` and ``parse("(Z2 x Z3) x Z5")`` agree.
Errors carry the offset into the input where parsing failed.
"""

from __future__ import annotations

from .descriptors import (
    Cn,
    D4,
    Gf,
    GroupAlgebra,
    Mat,
    Product,
    Q8,
    RingDescriptor,
    Zn,
    descriptor_expr,
    is_prime,
    prime_power,
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

    def error(self, message: str, position: int | None = None):
        raise RingExprError(message, self.pos if position is None else position)

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
        while True:
            self.skip_ws()
            if self.peek() == "x":
                self.pos += 1
                factors.append(self.atom())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        flat: list[RingDescriptor] = []
        for f in factors:
            flat.extend(f.factors if isinstance(f, Product) else (f,))
        return Product(tuple(flat))

    def atom(self) -> RingDescriptor:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.ring()
            self.expect(")")
            return inner
        if ch == "Z":
            self.pos += 1
            n, at = self.nat()
            if n < 2:
                self.error(f"Z{n}: modulus must be at least 2", at)
            return Zn(n)
        if ch == "M":
            self.pos += 1
            k, at = self.nat()
            if k < 1:
                self.error(f"M{k}: matrix size must be at least 1", at)
            self.expect("(")
            base = self.ring()
            self.expect(")")
            return Mat(k, base)
        if self.text.startswith("GF", self.pos):
            self.pos += 2
            self.expect("(")
            q, at = self.nat()
            self.expect(")")
            if prime_power(q) is None:
                self.error(f"{q} is not a prime power", at)
            return Gf(q)
        if self.text.startswith("GA", self.pos):
            self.pos += 2
            self.expect("(")
            q = self.field()
            self.expect(",")
            grp = self.group()
            self.expect(")")
            return GroupAlgebra(q, grp)
        self.error("expected a ring atom (Z.., GF(..), M..(..), GA(..), or parentheses)")

    def field(self) -> int:
        self.skip_ws()
        if self.text.startswith("GF", self.pos):
            self.pos += 2
            self.expect("(")
            q, at = self.nat()
            self.expect(")")
            if prime_power(q) is None:
                self.error(f"{q} is not a prime power", at)
            return q
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
            m, at = self.nat()
            if m < 1:
                self.error(f"C{m}: group order must be positive", at)
            return Cn(m)
        self.error("expected a group (C<n>, D4, or Q8)")


def parse_ring_expr(text: str) -> RingDescriptor:
    parser = _Parser(text)
    descriptor = parser.ring()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("unexpected trailing input")
    return descriptor


def print_ring_expr(descriptor: RingDescriptor) -> str:
    return descriptor_expr(descriptor)
