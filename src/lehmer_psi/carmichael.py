"""Carmichael numbers: Korselt certificates for one n, the construction for a range."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm

# is_prime is not called here; bench/tracing.py PATCHES rebinds it in this module
from .arith import DomainError, Factorization, factor, is_prime, is_squarefree
from .sieve import _base_primes

# The only cap on carmichael_in_range, so on `carmichael --from/--to` and batch_verdicts.
# Building every Carmichael number up to it takes about 15 ms and holds the primes <= 3162.
RANGE_LIMIT = 10**7


@dataclass(frozen=True)
class CarmichaelCertificate:
    n: int
    is_carmichael: bool
    squarefree: bool
    korselt_failures: tuple[int, ...]
    composite: bool

    def __post_init__(self):
        expected = self.composite and self.squarefree and not self.korselt_failures
        if self.is_carmichael != expected:
            raise DomainError("inconsistent certificate")
        if self.is_carmichael and self.n % 2 == 0:
            raise DomainError(f"{self.n} certified Carmichael but even")


def korselt_check(n: Factorization | int) -> CarmichaelCertificate:
    """Certificate for n >= 2, given as an integer or its factorization;
    korselt_failures lists every prime p | n with (p - 1) not dividing
    (n - 1), not just the first.
    """
    f = n if isinstance(n, Factorization) else factor(n)
    n = f.value
    if n < 2:
        raise DomainError(f"korselt_check needs n >= 2, got {n}")
    composite = f.omega > 1 or f.factors[0][1] > 1
    squarefree = is_squarefree(f)
    failures = tuple(p for p, _ in f if (n - 1) % (p - 1) != 0)
    return CarmichaelCertificate(
        n=n,
        is_carmichael=composite and squarefree and not failures,
        squarefree=squarefree,
        korselt_failures=failures,
        composite=composite,
    )


def korselt_range(lo: int, hi: int) -> list[int]:
    """Carmichael numbers in [lo, hi], ascending: odd squarefree composites
    with (p - 1) | (n - 1) for every prime p | n, built rather than sieved
    (the largest-prime split of Pinch's enumeration). carmichael_in_range
    checks the range.

    Write n = a*P with P its largest prime. Then n - 1 = a(P - 1) + a - 1, so
    (P - 1) | (a - 1): P <= a, hence P <= sqrt(hi), and the primes of a are
    smaller still, so every prime of n is a base prime <= isqrt(hi).

    A depth-first search grows odd prefixes a over the base primes in
    increasing order. It skips p when gcd(a, p - 1) > 1, since a prime
    dividing both would divide n and n - 1, and it stops once
    a*p*(p + 2) > hi, since a larger prime must still follow p. For each
    prefix of two or more primes, the criterion for the primes of a is
    P = a^-1 (mod L), L = lcm(p - 1 : p | a), so P walks that progression
    from above a's largest prime up to min(a, hi // a).
    """
    primes = _base_primes(isqrt(hi))[1:].tolist()
    prime_set = set(primes)
    found = []

    def grow(a: int, mod_a: int, first: int) -> None:
        for i in range(first, len(primes)):
            p = primes[i]
            if a * p * (p + 2) > hi:
                break
            if gcd(a, p - 1) > 1:
                continue
            b, mod = a * p, lcm(mod_a, p - 1)
            if a > 1:  # b has two or more primes, the largest p
                start = p + 1 + (pow(b, -1, mod) - p - 1) % mod
                for P in range(start, min(b, hi // b) + 1, mod):
                    if P in prime_set and (b - 1) % (P - 1) == 0 and b * P >= lo:
                        found.append(b * P)
            grow(b, mod, i + 1)

    grow(1, 1, 0)
    return sorted(found)


def carmichael_in_range(lo: int, hi: int) -> list[int]:
    """Exactly the Carmichael numbers in [lo, hi], ascending."""
    if not 2 <= lo <= hi <= RANGE_LIMIT:
        raise DomainError(f"need 2 <= lo <= hi <= {RANGE_LIMIT}, got [{lo}, {hi}]")
    return korselt_range(lo, hi)
