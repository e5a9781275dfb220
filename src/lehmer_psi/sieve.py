"""numpy sieves shared by range enumeration and scanning.

All arrays are int64 and all arithmetic is exact; floats never appear.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .arith import DomainError


def primes_upto(n: int, lo: int = 2) -> np.ndarray:
    """Ascending primes in [lo, n]: a segmented sieve of Eratosthenes over
    that window, crossed off with the primes <= isqrt(n)."""
    lo = max(lo, 2)
    if n < lo:
        return np.array([], dtype=np.int64)
    sieve = np.ones(n - lo + 1, dtype=bool)
    for p in primes_upto(isqrt(n)).tolist():
        sieve[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64) + lo


def _strip_primes(lo: int, hi: int, rem: np.ndarray):
    """For each prime p <= sqrt(hi) with a multiple in [lo, hi], divide every
    power of p out of rem (indexed from lo) at those multiples and yield
    (p, idx, square): idx indexes the multiples, square marks those p**2 divides.
    Afterwards rem holds 1 or the single prime factor above sqrt(hi).
    """
    size = hi - lo + 1
    for p in primes_upto(isqrt(hi)).tolist():
        first = -lo % p
        if first >= size:
            continue
        idx = np.arange(first, size, p)
        sub = rem[idx] // p
        square = sub % p == 0
        div = square
        while div.any():
            sub[div] //= p
            div = sub % p == 0
        rem[idx] = sub
        yield p, idx, square


def totient_range(lo: int, hi: int) -> np.ndarray:
    """phi(n) for n in [lo, hi], computed segment-wise from prime marks."""
    if lo < 1 or lo > hi:
        raise DomainError(f"bad range [{lo}, {hi}]")
    phi = np.arange(lo, hi + 1, dtype=np.int64)
    rem = phi.copy()
    for p, idx, _ in _strip_primes(lo, hi, rem):
        phi[idx] = phi[idx] // p * (p - 1)
    left = rem > 1
    phi[left] = phi[left] // rem[left] * (rem[left] - 1)
    return phi


def korselt_range(lo: int, hi: int) -> list[int]:
    """Carmichael numbers in [lo, hi]: squarefree composites with
    (p - 1) | (n - 1) for every prime factor p, found by stripping the
    range arrays prime by prime.
    """
    if lo < 2 or lo > hi:
        raise DomainError(f"bad range [{lo}, {hi}]")
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    rem = ns.copy()
    ok = ns > 2
    nfac = np.zeros(ns.size, dtype=np.int8)  # distinct prime factors seen
    for p, idx, square in _strip_primes(lo, hi, rem):
        nfac[idx] += 1
        ok[idx[square]] = False  # not squarefree
        if p > 2:
            ok[idx[(ns[idx] - 1) % (p - 1) != 0]] = False
    left = rem > 1
    nfac[left] += 1
    sel = np.nonzero(ok & left)[0]
    ok[sel[(ns[sel] - 1) % (rem[sel] - 1) != 0]] = False
    ok &= nfac >= 2  # squarefree composites have at least two prime factors
    return ns[ok].tolist()
