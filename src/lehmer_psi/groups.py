"""Symbolic group descriptions and exact element-order sums.

Groups are symbolic: cyclic, dihedral, the quaternion group of order 8, and
direct products of those. An order spectrum is the map "element order -> count";
it is always computed over the divisor lattice (never element lists), so huge
cyclic factors stay cheap. A direct product counts, at each divisor d of its
exponent, the solutions of x^d = 1 as the product of its factors' counts, and
one Moebius inversion over that lattice turns the counts into the spectrum.

psi(G) is the sum of element orders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress
from math import gcd, lcm, prod
from operator import mul, sub

from .arith import (
    DomainError,
    Factorization,
    _coerce,
    divisor_totient_pairs,
    factor,
)

# Most entries a spectrum may hold; read at call time, no option changes it.
SPECTRUM_LIMIT = 10_000_000


class SpectrumLimitError(DomainError):
    """Spectrum support size would exceed SPECTRUM_LIMIT."""


class GroupSpecSyntaxError(DomainError):
    """Group DSL syntax error; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class GroupSpec:
    """A group family: each gives order, is_cyclic, is_nilpotent,
    spectrum_map() (element order -> count) and its DSL text as str(g).
    Atoms carry a rank that orders equal-order atoms in products, their
    exponent, and solutions(d), the number of elements x with x^d = 1."""


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

    def spectrum_map(self) -> dict[int, int]:
        f = factor(self.n)
        _within(prod(a + 1 for _, a in f))  # count the divisors before building them
        return dict(divisor_totient_pairs(f))

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

    def spectrum_map(self) -> dict[int, int]:
        spec = Cyclic(self.m).spectrum_map()
        spec[2] = spec.get(2, 0) + self.m  # the m reflections
        _within(len(spec))
        return spec

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

    def spectrum_map(self) -> dict[int, int]:
        return {1: 1, 2: 1, 4: 6}

    def __str__(self) -> str:
        return "Q8"


@dataclass(frozen=True)
class Product(GroupSpec):
    """Direct product; nilpotent iff every factor is, and cyclic iff every
    factor is and the lcm of the factor orders equals the order (pairwise
    coprime factor orders).
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

    def spectrum_map(self) -> dict[int, int]:
        """Orders by Moebius inversion over the divisors of the exponent L,
        the lcm of the factor exponents. The number d(L) of divisors is
        counted from the factorization of L, the highest power of each prime
        among the factored exponents, before any divisor is built. count(d) =
        #{x : x^d = 1} is the product of the factors' solutions(d), and
        subtracting count(d/p) from count(d), one prime p of L at a time,
        leaves the number of elements of order exactly d.

        This costs d(L) * (k + omega(L)) integer operations for k factors.
        Factors that share primes keep the lattice small: C720720 x C720720
        fills 240 entries. Coprime factors with many primes cost the most,
        since the lattice is then the product of their supports:
        C223092870 x C2756205443 fills 2^15.
        """
        powers: dict[int, int] = {}
        # L is factored one distinct exponent at a time, so Brent rho never
        # has to split primes of two factors
        for e in {f.exponent for f in self.factors}:
            for p, a in factor(e):
                if powers.get(p, 0) < a:
                    powers[p] = a
        _within(prod([a + 1 for a in powers.values()]))
        # mixed radix: the digit of each prime has for stride the product of
        # the earlier primes' a + 1
        divisors = [1]
        for p, a in powers.items():
            power = divisors
            for _ in range(a):
                power = [d * p for d in power]
                divisors += power
        first, *rest = self.factors
        count = list(map(first.solutions, divisors))
        for f in rest:
            count = list(map(mul, count, map(f.solutions, divisors)))
        size, stride = len(count), 1
        for a in powers.values():
            block = stride * (a + 1)
            # each position whose digit j > 0 subtracts the count at digit
            # j - 1 not yet inverted: a * stride slices of step `block` taken
            # from the highest digit down, or one slice a block, whose right
            # side is copied before it is written: take the fewer
            if a * stride < size // block:
                for lo in range(block - 1, stride - 1, -1):
                    count[lo::block] = map(sub, count[lo::block], count[lo - stride::block])
            else:
                for lo in range(stride, size, block):
                    hi = lo + block - stride
                    count[lo:hi] = map(sub, count[lo:hi], count[lo - stride:hi - stride])
            stride = block
        return dict(compress(zip(divisors, count), count))

    def __str__(self) -> str:
        return " x ".join(map(str, self.factors))


def product(factors) -> GroupSpec:
    """Canonical direct product: flattens nested products, drops trivial
    factors, sorts factors by (order, rank)."""
    atoms = (a for g in factors for a in (g.factors if isinstance(g, Product) else (g,)))
    flat = sorted((a for a in atoms if a.order > 1), key=lambda a: (a.order, a.rank))
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


def _within(support: int) -> None:
    """SpectrumLimitError when a support of this size exceeds SPECTRUM_LIMIT."""
    if support > SPECTRUM_LIMIT:
        raise SpectrumLimitError(f"spectrum support exceeds the limit of {SPECTRUM_LIMIT} entries")


def order_spectrum(g: GroupSpec) -> OrderSpectrum:
    """Exact element-order spectrum. Cyclic groups contribute phi(d) elements
    of order d per divisor d; a dihedral group adds m reflections of order 2;
    a product inverts, over the divisors d of its exponent, the count of
    solutions of x^d = 1, which is the product of its factors' counts.
    """
    return OrderSpectrum(tuple(sorted(g.spectrum_map().items())))


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

