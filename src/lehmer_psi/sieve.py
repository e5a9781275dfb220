"""Prime and totient sieves for scanning.
The numpy kernels sieve one window (see `segments`), reaching the multiples of
every base prime p <= isqrt(hi) through strided slices; the base primes up to
10^4, the root of scan.SCAN_LIMIT, are sieved once. Kernel arrays are int32,
exact for hi < 2^31: each value held for n is n, a divisor of n or phi of one,
all <= n.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .arith import DomainError

_BASE_PRIMES = np.array([2], dtype=np.int64)  # grown below to the primes <= 10^4
_BASE_BOUND = 2  # the table holds every prime up to this bound, not only its last prime


def _base_primes(root: int) -> np.ndarray:
    """Primes <= root: a prefix of the table, or a fresh sieve above its bound."""
    if root > _BASE_BOUND:
        return primes_upto(root)
    return _BASE_PRIMES[: np.searchsorted(_BASE_PRIMES, root, side="right")]


def segments(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """[lo, hi] cut into consecutive windows of at most size integers."""
    return [(s, min(s + size - 1, hi)) for s in range(lo, hi + 1, size)]


def primes_upto(n: int, lo: int = 2) -> np.ndarray:
    """Ascending primes in [lo, n]: a segmented sieve of Eratosthenes over
    that window, crossed off with the primes <= isqrt(n)."""
    lo = max(lo, 2)
    if n < lo:
        return np.array([], dtype=np.int64)
    sieve = np.ones(n - lo + 1, dtype=bool)
    for p in _base_primes(isqrt(n)).tolist():
        sieve[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64) + lo


_BASE_PRIMES, _BASE_BOUND = primes_upto(10**4), 10**4


def totient_range(lo: int, hi: int) -> np.ndarray:
    """phi(n) for n in [lo, hi]. Each p^e || n with p <= sqrt(hi) multiplies
    the p-part of n into smooth and phi(p^e) into phi; what n // smooth
    leaves is 1 or one prime r, which multiplies phi by r - 1."""
    if not 1 <= lo <= hi < 2**31:
        raise DomainError(f"need 1 <= lo <= hi < 2^31, got [{lo}, {hi}]")
    size = hi - lo + 1
    phi = np.ones(size, dtype=np.int32)
    smooth = np.ones(size, dtype=np.int32)
    for p in _base_primes(isqrt(hi)).tolist():
        phi[-lo % p :: p] *= p - 1
        smooth[-lo % p :: p] *= p
        q = p * p
        while q <= hi and -lo % q < size:
            phi[-lo % q :: q] *= p
            smooth[-lo % q :: q] *= p
            q *= p
    rem = np.arange(lo, hi + 1, dtype=np.int32)
    rem //= smooth  # in place: each new window-sized array costs page faults
    rem -= 1
    phi *= np.maximum(rem, 1, out=rem)
    return phi
