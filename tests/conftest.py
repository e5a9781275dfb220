"""Shared independent oracles: naive arithmetic, the all-bases Fermat test,
the abelian groups of each order, and brute-force group element enumeration.
These deliberately avoid the package's divisor-lattice machinery so spectra
and psi values are checked against actual group multiplication.
"""

from __future__ import annotations

import itertools
from collections import Counter

from lehmer_psi.groups import Cyclic, Dihedral, GroupSpec, Product, Quaternion8, product


def naive_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_phi(n: int) -> int:
    from math import gcd

    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


def naive_sigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def naive_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_fermat(n: int) -> bool:
    """b**n = b (mod n) for every base b: Carmichael by definition for a
    composite n, independent of Korselt's criterion."""
    return all(pow(b, n, n) == b for b in range(n))


def _partitions(n: int, largest: int | None = None):
    """Partitions of n into parts of at most largest, each non-increasing."""
    if n == 0:
        yield ()
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def abelian_specs(n: int):
    """All abelian groups of order n, one spec per isomorphism type
    (every multi-partition across the Sylow components)."""
    per_prime = [[[p**part for part in lam] for lam in _partitions(a)] for p, a in naive_factor(n)]
    for combo in itertools.product(*per_prime):
        yield product([Cyclic(k) for block in combo for k in block])


# --- brute-force groups: (elements, multiply, identity) per atom -----------

def _cyclic_table(n: int):
    return list(range(n)), (lambda a, b: (a + b) % n), 0


def _dihedral_table(m: int):
    # (rotation index, flip); r^m = s^2 = 1 and s r s = r^-1
    elements = [(i, f) for f in (0, 1) for i in range(m)]

    def mul(a, b):
        i1, f1 = a
        i2, f2 = b
        return ((i1 + (i2 if not f1 else -i2)) % m, f1 ^ f2)

    return elements, mul, (0, 0)


def _quaternion_table():
    units = []
    for axis in range(4):
        for sign in (1, -1):
            q = [0, 0, 0, 0]
            q[axis] = sign
            units.append(tuple(q))

    def mul(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    return units, mul, (1, 0, 0, 0)


def _atom_table(g: GroupSpec):
    if isinstance(g, Cyclic):
        return _cyclic_table(g.n)
    if isinstance(g, Dihedral):
        return _dihedral_table(g.m)
    if isinstance(g, Quaternion8):
        return _quaternion_table()
    raise TypeError(g)


def group_table(g: GroupSpec):
    """elements, multiply, identity for any spec (products combined
    componentwise)."""
    if not isinstance(g, Product):
        return _atom_table(g)
    tables = [_atom_table(f) for f in g.factors]
    elements = [tuple(combo) for combo in itertools.product(*(t[0] for t in tables))]

    def mul(a, b):
        return tuple(t[1](x, y) for t, x, y in zip(tables, a, b))

    identity = tuple(t[2] for t in tables)
    return elements, mul, identity


def element_order(x, mul, identity) -> int:
    order = 1
    acc = x
    while acc != identity:
        acc = mul(acc, x)
        order += 1
    return order


def brute_spectrum(g: GroupSpec) -> Counter:
    """Element-order multiset by actual group multiplication."""
    elements, mul, identity = group_table(g)
    return Counter(element_order(x, mul, identity) for x in elements)


def brute_psi(g: GroupSpec) -> int:
    return sum(order * count for order, count in brute_spectrum(g).items())
