"""Symbolic group descriptions and exact element-order sums.

Groups are symbolic: cyclic, dihedral, the quaternion group of order 8, and
direct products of those. An order spectrum is the map "element order -> count".
order_spectrum is its one computation, for an atom and a product alike: it
counts, at each divisor d of the exponent, the solutions of x^d = 1 as the
product of the atoms' closed-form counts, and one Moebius inversion over that
divisor lattice (never element lists) turns the counts into the spectrum, so
huge cyclic factors stay cheap.

psi(G) is the sum of element orders.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from math import gcd, lcm, prod
from operator import mul, sub

from .arith import DomainError, Factorization, _coerce, factor

# Most divisors a group's exponent may have for its spectrum to be computed,
# so most entries a spectrum holds; read at call time, no option changes it.
SPECTRUM_LIMIT = 10_000_000


class SpectrumLimitError(DomainError):
    """The exponent has more divisors than SPECTRUM_LIMIT."""


class GroupSpecSyntaxError(DomainError):
    """Group DSL syntax error; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class GroupSpec:
    """A group family: each gives order, is_cyclic, is_nilpotent and its DSL
    text as str(g). Atoms carry a rank that orders equal-order atoms in
    products, their exponent, and solutions(d), the number of elements x with
    x^d = 1: all that order_spectrum reads of them."""


@dataclass(frozen=True)
class Cyclic(GroupSpec):
    n: int
    rank = 0
    is_cyclic = is_nilpotent = True

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"cyclic group order must be positive, got {self.n}")

    @property
    def order(self) -> int:
        return self.n

    @property
    def exponent(self) -> int:
        return self.n

    def solutions(self, d: int) -> int:
        return gcd(self.n, d)

    def __str__(self) -> str:
        return f"C{self.n}"


@dataclass(frozen=True)
class Dihedral(GroupSpec):
    """Dihedral group of the given (even) order 2m, acting on an m-gon.

    Order 6 is the symmetric group on 3 letters; order 4 is the Klein group.
    It is cyclic only at order 2, abelian up to order 4, and nilpotent iff it
    is a 2-group.
    """

    order2m: int
    rank = 1

    def __post_init__(self):
        if self.order2m < 2 or self.order2m % 2:
            raise DomainError(f"dihedral order must be even and >= 2, got {self.order2m}")

    @property
    def m(self) -> int:
        return self.order2m // 2

    @property
    def order(self) -> int:
        return self.order2m

    @property
    def is_cyclic(self) -> bool:
        return self.order2m == 2

    @property
    def is_nilpotent(self) -> bool:
        return self.order2m & (self.order2m - 1) == 0

    @property
    def exponent(self) -> int:
        return lcm(self.m, 2)

    def solutions(self, d: int) -> int:
        # the rotations with x^d = 1 form C_gcd(m, d); each reflection has order 2
        m = self.m
        return gcd(m, d) if d % 2 else gcd(m, d) + m

    def __str__(self) -> str:
        return f"D{self.order2m}"


@dataclass(frozen=True)
class Quaternion8(GroupSpec):
    rank = 2
    order = 8
    exponent = 4
    is_cyclic = False
    is_nilpotent = True

    def solutions(self, d: int) -> int:
        return 1 if d % 2 else 2 if d % 4 else 8

    def __str__(self) -> str:
        return "Q8"


@dataclass(frozen=True)
class Product(GroupSpec):
    """Direct product of atoms; nilpotent iff every factor is, and cyclic iff
    every factor is and the lcm of the factor orders equals the order
    (pairwise coprime factor orders). Its spectrum is order_spectrum's, over
    the factors.
    """

    factors: tuple[GroupSpec, ...]

    @property
    def order(self) -> int:
        return prod(f.order for f in self.factors)

    @property
    def is_cyclic(self) -> bool:
        cyclic = all(f.is_cyclic for f in self.factors)
        return cyclic and lcm(*(f.order for f in self.factors)) == self.order

    @property
    def is_nilpotent(self) -> bool:
        return all(f.is_nilpotent for f in self.factors)

    def __str__(self) -> str:
        return " x ".join(map(str, self.factors))


def _atoms(g: GroupSpec) -> tuple[GroupSpec, ...]:
    return g.factors if isinstance(g, Product) else (g,)


def product(factors) -> GroupSpec:
    """Canonical direct product: flattens nested products, drops trivial
    factors, sorts factors by (order, rank)."""
    flat = sorted((a for g in factors for a in _atoms(g) if a.order > 1),
                  key=lambda a: (a.order, a.rank))
    if not flat:
        return Cyclic(1)
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


# ---------------------------------------------------------------------------
# DSL: atoms C<n>, D<2m>, Q8; binary operator x; optional whitespace.
# str(g) is the canonical printer; parse_group_spec(str(g)) == g.

# An atom and what follows it: "x", the end of the text, or neither. \d takes
# the Unicode decimal digits that int() reads.
_ATOM = re.compile(r"\s*(?:([CDQ])(\d*)\s*(x|\Z)?)?")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the group DSL, e.g. "C2 x C2 x C15" or "Q8 x C3"."""
    factors = []
    pos = 0
    while True:
        m = _ATOM.match(text, pos)
        c, digits, sep = m.groups()
        start, pos = m.start(1), m.end()
        if c is None:
            if pos == len(text):
                raise GroupSpecSyntaxError("expected a group atom", pos)
            raise GroupSpecSyntaxError(f"expected C<n>, D<2m> or Q8, found {text[pos]!r}", pos)
        if not digits:
            raise GroupSpecSyntaxError(f"missing order after {c!r}", start + 1)
        try:
            value = int(digits)
            if c == "Q" and value != 8:
                raise DomainError(f"only Q8 is available, got Q{value}")
            factors.append(Quaternion8() if c == "Q" else (Cyclic if c == "C" else Dihedral)(value))
        except DomainError as exc:
            raise GroupSpecSyntaxError(str(exc), start) from None
        except ValueError:  # too many digits for int()
            message = f"cannot read the {len(digits)}-digit order after {c!r}"
            raise GroupSpecSyntaxError(message, start) from None
        if sep is None:
            raise GroupSpecSyntaxError(f"expected 'x' or end of input, found {text[pos]!r}", pos)
        if not sep:
            return product(factors)


# ---------------------------------------------------------------------------
# Order spectra

@dataclass(frozen=True)
class OrderSpectrum:
    """Multiset of element orders as a divisor-indexed count map."""

    entries: tuple[tuple[int, int], ...]

    def order_sum(self) -> int:
        return sum(d * c for d, c in self.entries)


def order_spectrum(g: GroupSpec) -> OrderSpectrum:
    """Exact element-order spectrum, by Moebius inversion over the divisors
    of the exponent L of g, the lcm of its atoms' exponents. The number d(L)
    of divisors is counted from the factorization of L, the highest power of
    each prime among the factored exponents, and checked against
    SPECTRUM_LIMIT before any divisor is built. count(d) = #{x : x^d = 1} is
    the product of the atoms' solutions(d), and subtracting count(d/p) from
    count(d), one prime p of L at a time, leaves the number of elements of
    order exactly d.

    This costs d(L) * (k + omega(L)) integer operations for k atoms. Atoms
    that share primes keep the lattice small: C720720 x C720720 fills 240
    entries. Coprime atoms with many primes cost the most, since the lattice
    is then the product of their supports: C223092870 x C2756205443 fills
    2^15. D<2m> with m > 1 odd has exponent 2m but only the d(m) divisors
    of m and 2 for orders, so its lattice of 2d(m) divisors is nearly twice
    its support.
    """
    atoms = _atoms(g)
    powers: dict[int, int] = {}
    # L is factored one distinct exponent at a time, so Brent rho never has
    # to split primes of two atoms
    for e in {a.exponent for a in atoms}:
        for p, a in factor(e):
            if powers.get(p, 0) < a:
                powers[p] = a
    size = prod([a + 1 for a in powers.values()])
    if size > SPECTRUM_LIMIT:
        raise SpectrumLimitError(f"the exponent's {size} divisors exceed the spectrum limit "
                                 f"of {SPECTRUM_LIMIT}")
    # mixed radix: the digit of each prime has for stride the product of the
    # earlier primes' a + 1
    divisors = [1]
    for p, a in powers.items():
        power = divisors
        for _ in range(a):
            power = [d * p for d in power]
            divisors += power
    first, *rest = atoms
    count = list(map(first.solutions, divisors))
    for f in rest:
        count = list(map(mul, count, map(f.solutions, divisors)))
    stride = 1
    for a in powers.values():
        block = stride * (a + 1)
        # each position whose digit j > 0 subtracts the count at digit j - 1
        # not yet inverted: a * stride slices of step `block` taken from the
        # highest digit down, or one slice a block, whose right side is
        # copied before it is written: take the fewer
        if a * stride < size // block:
            for lo in range(block - 1, stride - 1, -1):
                count[lo::block] = map(sub, count[lo::block], count[lo - stride::block])
        else:
            for lo in range(stride, size, block):
                hi = lo + block - stride
                count[lo:hi] = map(sub, count[lo:hi], count[lo - stride:hi - stride])
        stride = block
    return OrderSpectrum(tuple(sorted(compress(zip(divisors, count), count))))


def order_factorization(g: GroupSpec) -> Factorization:
    """The factorization of |g|, one distinct atom order factored at a time,
    so that Brent rho never has to split primes of two atoms."""
    powers: Counter[int] = Counter()
    for n, times in Counter(a.order for a in _atoms(g)).items():
        for p, a in factor(n):
            powers[p] += a * times
    return Factorization._proven(g.order, tuple(sorted(powers.items())))


def psi(g: GroupSpec) -> int:
    """Sum of the orders of all elements."""
    return order_spectrum(g).order_sum()


def psi_cyclic(f: Factorization | int) -> int:
    """psi of the cyclic group, by the multiplicative closed form
    prod (p**(2a+1) + 1) / (p + 1) over the factorization.
    """
    f = _coerce(f)
    r = 1
    for p, a in f:
        r *= (p ** (2 * a + 1) + 1) // (p + 1)
    return r

