"""Shared independent oracles: naive arithmetic, the all-bases Fermat test,
a numpy Korselt sieve, the abelian groups of each order, and brute-force
group element enumeration. These deliberately avoid the package's
divisor-lattice machinery so spectra and psi values are checked against
actual group multiplication. psi_prime and psi_double_prime are the
normalized order sums psi' and psi'', by their definitions over the
package's psi.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import isqrt

import numpy as np

from lehmer_psi.groups import (
    Cyclic,
    Dihedral,
    GroupSpec,
    Product,
    Quaternion8,
    product,
    psi,
    psi_cyclic,
)
from lehmer_psi.sieve import primes_upto


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


KORSELT_SEGMENT = 1 << 16  # the oracle's window; its memory is 5 B per integer


def korselt_sieve(lo: int, hi: int) -> list[int]:
    """Carmichael numbers in [lo, hi] by sieving every integer: odd
    squarefree composites with (p - 1) | (n - 1) for every prime p | n,
    one window of KORSELT_SEGMENT integers at a time. Independent of the
    construction in carmichael.korselt_range, which it checks for completeness.
    Needs hi < 2^31 (int32 smooth parts)."""
    primes = primes_upto(isqrt(hi))[1:].tolist()
    found = []
    for start in range(lo, hi + 1, KORSELT_SEGMENT):
        found += _korselt_window(start, min(start + KORSELT_SEGMENT - 1, hi), primes)
    return found


def _korselt_window(lo: int, hi: int, primes: list[int]) -> list[int]:
    # such an n has no prime factor r > sqrt(hi): n = m*r with m < r and
    # (r - 1) | (n - 1) = m(r - 1) + m - 1 forces m = 1, so n is the product
    # of the odd primes <= sqrt(hi) it is a multiple of
    size = hi - lo + 1
    ok = np.ones(size, dtype=bool)
    ok[lo & 1 :: 2] = False  # even
    smooth = np.ones(size, dtype=np.int32)
    for p in primes:
        if p * p > hi:
            break
        # n = lo + f + p*j = lo + f + j (mod p - 1), so (p - 1) | (n - 1)
        # exactly on every (p - 1)-th multiple of p, from index c on
        f = -lo % p
        c = f + (1 - lo - f) % (p - 1) * p
        keep = ok[c :: p * (p - 1)].copy()
        ok[f::p] = False
        ok[c :: p * (p - 1)] = keep
        ok[-lo % (p * p) :: p * p] = False  # not squarefree
        smooth[f::p] *= p
        if p >= lo:
            ok[p - lo] = False  # prime
    idx = np.nonzero(ok)[0]
    return (idx[smooth[idx] == idx + lo] + lo).tolist()


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


def psi_prime(g: GroupSpec) -> Fraction:
    """psi(G) / psi(C_|G|), in lowest terms; equals 1 exactly for cyclic specs."""
    return Fraction(psi(g), psi_cyclic(g.order))


def psi_double_prime(g: GroupSpec) -> Fraction:
    """psi(G) / |G|**2, in lowest terms; always in (0, 1]."""
    return Fraction(psi(g), g.order**2)


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

