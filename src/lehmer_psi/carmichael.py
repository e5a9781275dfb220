"""Carmichael certification: squarefree + (p-1) | (n-1) for every prime p | n."""

from __future__ import annotations

from dataclasses import dataclass

# is_prime is not called here; bench/tracing.py PATCHES rebinds it in this module
from .arith import DomainError, Factorization, factor, is_prime, is_squarefree
from .sieve import korselt_range, segments

RANGE_LIMIT = 10**7  # a runtime cap (about 0.3 s); memory is one segment


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


def carmichael_in_range(lo: int, hi: int) -> list[int]:
    """Exactly the Carmichael numbers in [lo, hi], ascending."""
    if not 2 <= lo <= hi <= RANGE_LIMIT:
        raise DomainError(f"need 2 <= lo <= hi <= {RANGE_LIMIT}, got [{lo}, {hi}]")
    return [n for start, end in segments(lo, hi) for n in korselt_range(start, end)]
