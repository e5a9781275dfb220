"""Symbolic group descriptions and exact element-order sums.

Groups are symbolic: cyclic, dihedral, the quaternion group of order 8, and
direct products of those. An order spectrum is the map "element order -> count";
it is always computed over the divisor lattice (never element lists), so direct
products combine spectra by lcm-convolution and huge cyclic factors stay cheap.

psi(G) is the sum of element orders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm, prod

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
    Atoms carry a rank that orders equal-order atoms in products."""


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
    is_cyclic = False
    is_nilpotent = True

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
        acc = {1: 1}
        for f in self.factors:
            acc = _convolve(acc, f.spectrum_map())
        return acc

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


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = lcm(d1, d2)
            if d in out:
                out[d] += c1 * c2
            else:
                out[d] = c1 * c2
                _within(len(out))
    return out


def order_spectrum(g: GroupSpec) -> OrderSpectrum:
    """Exact element-order spectrum. Cyclic groups contribute phi(d) elements
    of order d per divisor d; a dihedral group adds m reflections of order 2;
    products convolve by "order of a tuple = lcm of component orders".
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

