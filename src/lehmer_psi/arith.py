"""Exact integer arithmetic: factorization, primality, multiplicative functions.

Everything here is pure and deterministic. All rational values in the package
are `fractions.Fraction`, which keeps every threshold comparison exact;
decimals appear only at the display boundary.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal, localcontext
from fractions import Fraction
from math import gcd

# Witness floors at n > 10**8171 are ratios of 8172-digit integers; the
# default int/str conversion cap (4300 digits) would make them unprintable.
if sys.get_int_max_str_digits() < 100_000:
    sys.set_int_max_str_digits(100_000)

# Miller-Rabin with the first 12 prime bases is a proven primality test below
# this bound (far above 2**64); beyond it extra bases make the error < 2**-128.
_MR_PROVEN_LIMIT = 318_665_857_834_031_151_167_461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA_ROUNDS = 52  # 12 + 52 = 64 rounds, error < 4**-64

_TRIAL_DIVISION_LIMIT = 10_000
# Brent rho steps one factor call may take in all: about 1.7 s at 59 digits,
# over 100 times the most any benchmark query or test needs
_RHO_STEP_LIMIT = 1 << 21


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


@dataclass(frozen=True)
class PrimalityResult:
    n: int
    probable_prime: bool
    deterministic: bool


def _miller_rabin_round(n: int, d: int, s: int, base: int) -> bool:
    if base % n == 0:
        return True
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def primality(n: int) -> PrimalityResult:
    """Primality with metadata: deterministic below the proven base-set bound,
    error < 2**-128 above it (extra bases seeded by n, so still a pure function).
    """
    if n < 0:
        raise DomainError(f"primality is defined for nonnegative integers, got {n}")
    if n < 2:
        return PrimalityResult(n, False, True)
    for p in _MR_BASES:
        if n % p == 0:
            return PrimalityResult(n, n == p, True)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        if not _miller_rabin_round(n, d, s, base):
            return PrimalityResult(n, False, True)
    if n < _MR_PROVEN_LIMIT:
        return PrimalityResult(n, True, True)
    rng = random.Random(n)
    for _ in range(_MR_EXTRA_ROUNDS):
        base = rng.randrange(2, n - 1)
        if not _miller_rabin_round(n, d, s, base):
            return PrimalityResult(n, False, True)
    return PrimalityResult(n, True, False)


def is_prime(n: int) -> bool:
    return primality(n).probable_prime


@dataclass(frozen=True)
class Factorization:
    """Prime-exponent form of a positive integer; factors sorted by prime."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise DomainError(f"factorization needs a positive integer, got {self.value}")
        prod = 1
        last = 1
        for p, a in self.factors:
            if p <= last:
                raise DomainError(f"primes not strictly increasing: {self.factors}")
            if a < 1:
                raise DomainError(f"exponent {a} < 1 for prime {p}")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            prod *= p**a
            last = p
        if prod != self.value:
            raise DomainError(f"factors multiply to {prod}, not {self.value}")

    @classmethod
    def _proven(cls, value: int, factors: tuple[tuple[int, int], ...]) -> "Factorization":
        """A factorization whose primes the caller has just tested, by trial
        division or is_prime; skips the checks of __post_init__, which would
        run Miller-Rabin on them again. A prime from is_prime at or above
        _MR_PROVEN_LIMIT (about 3.19 * 10**23) is a probable prime, one that
        passed 64 Miller-Rabin rounds, not a proved one."""
        f = object.__new__(cls)
        object.__setattr__(f, "value", value)
        object.__setattr__(f, "factors", factors)
        return f

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __iter__(self):
        return iter(self.factors)


def _brent_rho(n: int, rng: random.Random, left: int) -> tuple[int, int]:
    """One nontrivial factor of composite n (Brent cycle detection, batched
    gcd) and the rho steps left of `left`; DomainError rather than overrun it."""
    if n % 2 == 0:
        return 2, left
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            left -= 2 * r  # r steps to x, then batches of at most r more
            if left < 0:
                raise DomainError(f"no factor of a {len(str(n))}-digit cofactor "
                                  f"within {_RHO_STEP_LIMIT} Brent rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, left
        # cycle degenerated; retry with new parameters


def _factor_large(n: int, out: dict[int, int], left: int) -> int:
    """Add the prime factors of n to out; returns the rho steps still left."""
    if n == 1:
        return left
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return left
    d, left = _brent_rho(n, random.Random(n), left)
    return _factor_large(n // d, out, _factor_large(d, out, left))


def factor(n: int) -> Factorization:
    """Factor a positive integer: a 6k+-1 trial-division wheel up to
    min(sqrt(n), 10**4), then Brent rho on a composite cofactor, which raises
    DomainError past _RHO_STEP_LIMIT steps in all."""
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    out: dict[int, int] = {}
    rem = n
    for p in (2, 3):
        while rem % p == 0:
            out[p] = out.get(p, 0) + 1
            rem //= p
    d = 5
    while d * d <= rem and d < _TRIAL_DIVISION_LIMIT:
        for p in (d, d + 2):
            while rem % p == 0:
                out[p] = out.get(p, 0) + 1
                rem //= p
        d += 6
    if d * d <= rem:  # stopped at the limit: Brent rho takes the cofactor
        _factor_large(rem, out, _RHO_STEP_LIMIT)
    elif rem > 1:  # no factor below d remains, so rem is prime
        out[rem] = 1
    return Factorization._proven(n, tuple(sorted(out.items())))


def _coerce(f: Factorization | int) -> Factorization:
    return f if isinstance(f, Factorization) else factor(f)


def euler_phi(f: Factorization | int) -> int:
    """Euler totient from the factorization: product of p**(a-1) * (p-1)."""
    f = _coerce(f)
    r = 1
    for p, a in f:
        r *= p ** (a - 1) * (p - 1)
    return r


def sigma(f: Factorization | int) -> int:
    """Sum of divisors: product of (p**(a+1) - 1) / (p - 1)."""
    f = _coerce(f)
    r = 1
    for p, a in f:
        r *= (p ** (a + 1) - 1) // (p - 1)
    return r


def is_squarefree(f: Factorization | int) -> bool:
    f = _coerce(f)
    return all(a == 1 for _, a in f)


def ratio_str(num: int, den: int) -> str:
    """The report schema's "p/q" text of a pair in lowest terms; bounds and
    verify-constants print str(Fraction), which writes an integer without "/1"."""
    return f"{num}/{den}"


def fraction_str(x: Fraction | int) -> str:
    """ratio_str of x in lowest terms."""
    return ratio_str(*Fraction(x).as_integer_ratio())


def approx_str(x: Fraction | int, significant: int = 10) -> str:
    """Display-only decimal with explicit precision, e.g. '≈ 0.2431708056'.
    Verdict-deciding comparisons never touch this path. One correctly rounded
    division under a context of its own, so the caller's decimal settings
    cannot change the text and no magnitude underflows.
    """
    num, den = Fraction(x).as_integer_ratio()
    if num == 0:
        return "≈ 0"
    sign = "-" if num < 0 else ""
    ctx = Context(prec=significant, rounding=ROUND_HALF_UP, Emin=MIN_EMIN, Emax=MAX_EMAX)
    with localcontext(ctx):
        d = Decimal(abs(num)) / den
    mag = d.adjusted()
    text = "".join(map(str, d.as_tuple().digits)).ljust(significant, "0")
    if 0 <= mag < significant:
        intpart = text[: mag + 1]
        frac = text[mag + 1 :].rstrip("0")
        return f"≈ {sign}{intpart}" + (f".{frac}" if frac else "")
    if -4 <= mag < 0:
        body = "0." + "0" * (-mag - 1) + text.rstrip("0")
        return f"≈ {sign}{body.rstrip('.')}"
    return f"≈ {sign}{text[0]}.{text[1:].rstrip('0') or '0'}e{mag}"
