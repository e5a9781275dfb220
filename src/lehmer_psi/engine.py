"""Exclusion machinery for the multiplier k in k*phi(n) = n - 1.

Any composite solution must be Carmichael, so odd and squarefree. For odd n
there is a noncyclic nilpotent group of order 4n (the witness C2 x C2 x C_n)
whose psi'' is at most 7/16 * (S*(1 - 1/P)/k + 1/P) for a divisor-split chain
(S, P) valid for n's divisibility pattern, and the stated witness floor puts
psi'' above phi(n)/(2n) = (n-1)/(2kn). Whenever the floor L/k meets or
exceeds the chain bound A/k + B, that k is excluded: exactly k <= K* =
floor((L - A)/B). With the classical congruence "3 | n forces k = 1 (mod 3)"
each world solves for its floor, and min_k is the least of them, taken at
n > 10**8171 for a symbolic profile once the universal floor k >= 3 holds.
min_k then records why each k below its floor is excluded in one sweep: every
world walks the whole k range once into integer columns (ExclusionColumns),
from which the JSON and the chain queries are read; exclude_k is the sweep's
one-k case.
For q >= 17 the k ladder's top rung is R = ceil(q/c - q) for its coefficient c.

Caveat, surfaced in every trace that leans on a chain: the stated witness
floor is an overstatement (psi'' of the Klein group is 7/16, not >= 1/2) and
actually holds iff 3 | n; the independently provable floor 7*phi(n)/(16n) is
too weak to drive any chain exclusion. The exclusions reproduce the stated
results; bounds.witness_lower_bound documents both constants.

Every comparison is an exact rational; the only irrational constant, pi**2,
enters through a hard-coded certified sandwich (width 1e-40, derived ahead of
the build from the central-binomial series for zeta(2) with a geometric tail
bound) and is used solely for the abundancy statements.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .arith import (
    DomainError,
    Factorization,
    _coerce,
    euler_phi,
    factor,
    is_prime,
    is_squarefree,
    ratio_str,
)
from .carmichael import korselt_check
from .groups import Cyclic, GroupSpec, product, psi_cyclic

SMALL_PRIMES = (3, 5, 7, 11, 13)
N_FLOOR_BASE = 10**30
N_FLOOR_RAISED = 10**8171
_SWEEP_GUARD = 100_000

# Certified rational sandwich for pi**2: PI2_LOW < pi**2 < PI2_HIGH, width 1e-40.
# Derived before the build from zeta(2) = 3 * sum 1/(n^2 binom(2n,n)) with the
# term ratio < 1/4 giving tail < 4*t_{N+1}, N = 80; endpoints are the decimal
# truncation / rounding-up at 40 digits.
PI2_LOW = Fraction(98696044010893586188344909998761511353136, 10**40)
PI2_HIGH = Fraction(98696044010893586188344909998761511353137, 10**40)


def certified_close(c: int | Fraction, printed: Fraction, tolerance: Fraction) -> bool:
    """Certified |c/pi**2 - printed| < tolerance."""
    c = Fraction(c)
    lo, hi = c / PI2_HIGH, c / PI2_LOW
    return printed - tolerance < lo and hi < printed + tolerance


# ---------------------------------------------------------------------------
# Threshold functions

def two_power_threshold(alpha: int) -> Fraction:
    """The psi'' exclusion threshold for witness groups of order 2**alpha * n."""
    if alpha < 1:
        raise DomainError(f"alpha must be >= 1, got {alpha}")
    if alpha == 1:
        return Fraction(13, 42)
    if alpha == 2:
        return Fraction(7, 24)
    if alpha == 3:
        return Fraction(9, 32)
    return Fraction(16, 63) + Fraction(1, 9 * 2 ** (2 * alpha - 1))


def chain_upper(split: tuple[int, ...], tail: int, k: int) -> Fraction:
    """Upper bound for psi'' of a witness group of order 4n under the
    hypothesis k*phi(n) = n - 1, splitting the divisors n and n/p for the
    given primes p (each exactly dividing squarefree n) and bounding every
    remaining proper divisor by n/tail:

        7/16 * ( S * (1 - 1/tail) / k  +  1/tail ),   S = 1 + sum 1/(p*(p-1)).
    """
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    if tail < 3:
        raise DomainError(f"tail bound must be >= 3, got {tail}")
    s = 1 + sum(Fraction(1, p * (p - 1)) for p in split)
    return Fraction(7, 16) * (s * (1 - Fraction(1, tail)) / k + Fraction(1, tail))


# ---------------------------------------------------------------------------
# Profiles

@dataclass(frozen=True)
class LehmerProfile:
    """Divisibility knowledge about a candidate n: either a concrete odd
    squarefree composite with its factorization, or a symbolic candidate
    known only through which of 3, 5, 7, 11, 13 divide it (plus a floor
    n > n_floor and optionally its smallest prime factor q).
    """

    n: int | None = None
    factorization: Factorization | None = None
    q: int | None = None
    divides: frozenset[int] = frozenset()
    not_divides: frozenset[int] = frozenset()
    n_floor: int = N_FLOOR_BASE

    def describe(self) -> str:
        if self.n is not None:
            return f"n={self.n}"
        parts = []
        if self.q is not None:
            parts.append(f"q={self.q}")
        for p in SMALL_PRIMES:
            if p in self.divides:
                parts.append(f"{p}|n")
            elif p in self.not_divides:
                parts.append(f"{p}!|n")
        return ", ".join(parts) if parts else "generic"

    @cached_property
    def worlds(self) -> tuple[_World, ...]:
        """The divisibility worlds of enumerate_worlds, built once per profile."""
        return tuple(enumerate_worlds(self))

    @cached_property
    def witness_floor(self) -> Fraction:
        """L such that the stated witness floor at multiplier k is L/k."""
        if self.n is not None:
            return Fraction(self.n - 1, 2 * self.n)
        return (1 - Fraction(1, self.n_floor)) / 2


def make_profile(
    q: int | None = None,
    divides=(),
    not_divides=(),
) -> LehmerProfile:
    """Build and normalize a symbolic profile; raises on inconsistency.

    Normalization: a stated q fixes the status of every smaller listed prime;
    a Carmichael multiple of 5 is never a multiple of 11, so 5|n adds 11 to
    the non-divisors (stating both 5|n and 11|n is inconsistent).
    """
    div = set(divides)
    ndiv = set(not_divides)
    for p in div | ndiv:
        if p not in SMALL_PRIMES:
            raise DomainError(f"only {SMALL_PRIMES} may be constrained, got {p}")
    if q is not None:
        if q < 3 or not is_prime(q):
            raise DomainError(f"q must be an odd prime >= 3, got {q}")
        if q <= 13:
            if q in ndiv:
                raise DomainError(f"q={q} contradicts {q} not dividing n")
            div.add(q)
        for p in SMALL_PRIMES:
            if p < q or q > 13:
                if p in div:
                    raise DomainError(f"{p}|n contradicts smallest prime factor q={q}")
                ndiv.add(p)
    if 5 in div:
        if 11 in div:
            raise DomainError("a Carmichael multiple of 5 is never a multiple of 11")
        ndiv.add(11)
    if div & ndiv:
        raise DomainError(f"contradictory constraints on {sorted(div & ndiv)}")
    if q is None and div:
        smallest = min(div)
        if all(p in ndiv for p in SMALL_PRIMES if p < smallest):
            q = smallest
    return LehmerProfile(q=q, divides=frozenset(div), not_divides=frozenset(ndiv))


GENERIC_PROFILE = make_profile()

_PROFILE_TOKEN = re.compile(r"q=(\d+)|(\d+)(!?)\|n|(?:generic)?")


def parse_profile_spec(text: str) -> LehmerProfile:
    """Parse the comma-separated tokens that describe() prints, q=<p>, <p>|n,
    <p>!|n ("∤" may stand for "!|") and generic, so that
    parse_profile_spec(p.describe()) == p; an empty token is skipped, and empty
    input means the generic profile. A q may be repeated, but not with two values."""
    qs: set[int] = set()
    divides: list[int] = []
    not_divides: list[int] = []
    for raw in text.split(","):
        token = raw.strip()
        m = _PROFILE_TOKEN.fullmatch(token.replace("∤", "!|"))
        try:
            if m is None:
                raise ValueError
            q, p, bang = m.groups()
            if q:
                qs.add(int(q))
            elif p:
                (not_divides if bang else divides).append(int(p))
        except ValueError:  # not a token, or more digits than int() reads
            raise DomainError(f"bad profile token {token!r}") from None
    if len(qs) > 1:
        raise DomainError(f"conflicting q values {sorted(qs)} in profile {text!r}")
    return make_profile(q=next(iter(qs), None), divides=divides, not_divides=not_divides)


def profile_from_factorization(f: Factorization | int) -> LehmerProfile:
    """Concrete profile for an odd squarefree composite."""
    f = _coerce(f)
    n = f.value
    if n < 3 or n % 2 == 0:
        raise DomainError(f"profiles need odd n >= 3, got {n}")
    if f.omega < 2:
        raise DomainError(f"{n} is not composite")
    if not is_squarefree(f):
        raise DomainError(f"{n} is not squarefree")
    primes = set(f.primes)
    return LehmerProfile(
        n=n,
        factorization=f,
        q=f.factors[0][0],
        divides=frozenset(p for p in SMALL_PRIMES if p in primes),
        not_divides=frozenset(p for p in SMALL_PRIMES if p not in primes),
    )


# ---------------------------------------------------------------------------
# Worlds: complete divisibility assignments consistent with a profile

# The kinds of rule a world excludes k by.
CHAIN = "order-sum-chain"
CONGRUENCE = "k-congruence-3"


@dataclass(frozen=True)
class _World:
    divides: tuple[int, ...]
    q_eval: int            # smallest admissible prime factor
    q_exact: bool          # False: chain evaluated at the worst case q >= q_eval
    tail: int

    @cached_property
    def _chain(self) -> tuple[str, str, str, int, int]:
        """The world's label, the chain rule's text before and after k, and
        S*(tail - 1) = a/d for S = 1 + sum 1/(p(p - 1)) over the split."""
        bits = [f"{p}|n" for p in self.divides]
        bits += [f"{p}!|n" for p in SMALL_PRIMES if p not in self.divides]
        qs = f"q={self.q_eval}" if self.q_exact else f"q>={self.q_eval}"
        rule = f"{CHAIN} split={list(self.divides)} tail={self.tail} k="
        covers = "" if self.q_exact else f" (covers all q >= {self.q_eval})"
        s = (1 + sum(Fraction(1, p * (p - 1)) for p in self.divides)) * (self.tail - 1)
        return f"{qs}; " + ", ".join(bits), rule, covers, s.numerator, s.denominator

    def k_floor(self, lower: Fraction) -> int:
        """Least k >= 2 not excluded under the witness floor lower/k: the chain
        excludes k <= K* = floor((16*d*tail*lower - 7a)/(7d)), the congruence
        every k that is not 1 mod 3 when 3 | n."""
        a, d = self._chain[3:]
        num, den = lower.numerator, lower.denominator
        k = max(2, (16 * d * self.tail * num - 7 * a * den) // (7 * d * den) + 1)
        return k + (1 - k) % 3 if 3 in self.divides else k

    def sweep(
        self, ks: range, floor: Fraction
    ) -> tuple[list[tuple[int, int] | None], list[int]]:
        """This world's column over ks: None where the congruence rule excludes
        k (3 | n and k not 1 mod 3), else chain_upper(divides, tail, k) =
        7(a + d*k)/(16*d*tail*k) as a pair in lowest terms, which excludes k
        when the witness floor at k, floor/k, meets it by one
        cross-multiplication. Also returns the k it does not exclude."""
        a, d = self._chain[3:]
        m = 16 * d * self.tail
        three = 3 in self.divides
        low, high = floor.numerator, floor.denominator
        column, misses = [], []
        for k in ks:
            if three and k % 3 != 1:
                column.append(None)
                continue
            num, den = 7 * (a + d * k), m * k
            g = math.gcd(num, den)
            num, den = num // g, den // g
            column.append((num, den))
            if low * den < num * k * high:
                misses.append(k)
        return column, misses


def _make_world(
    divides: set[int] | frozenset[int], q_eval: int, q_exact: bool, non_split_floor: int | None
) -> _World:
    """Split every known small divisor; bound the remaining proper divisors by
    n/tail where tail is the least factor a remaining divisor can have: either
    a prime not in the split (>= non_split_floor, None when there is none) or
    a product of two split primes. Monotone in q for an empty split, so
    evaluating at the least admissible prime covers the whole symbolic tail.
    """
    split = tuple(sorted(divides))
    candidates = [] if non_split_floor is None else [non_split_floor]
    if len(split) >= 2:
        candidates.append(split[0] * split[1])
    return _World(split, q_eval, q_exact, min(candidates))


def enumerate_worlds(profile: LehmerProfile) -> list[_World]:
    if profile.n is not None:
        f = profile.factorization
        non_split = min((p for p in f.primes if p not in profile.divides), default=None)
        return [_make_world(profile.divides, f.factors[0][0], True, non_split)]
    worlds = []
    unknown = [p for p in SMALL_PRIMES if p not in profile.divides | profile.not_divides]
    for picks in itertools.product((True, False), repeat=len(unknown)):
        div = set(profile.divides)
        div.update(p for p, take in zip(unknown, picks) if take)
        if 5 in div and 11 in div:
            continue  # impossible for a Carmichael candidate
        if div:
            q_eval, q_exact = min(div), True
        elif profile.q is not None and profile.q > 13:
            q_eval, q_exact = profile.q, True
        else:
            q_eval, q_exact = 17, False
        worlds.append(_make_world(div, q_eval, q_exact, 17 if div else q_eval))
    return worlds


# ---------------------------------------------------------------------------
# Per-k exclusion

class ExclusionColumns(NamedTuple):
    """The verdicts of a profile's worlds on each k of ks, as integer columns.
    floor is the profile's witness floor L, so the floor at k is L/k. rhs
    holds one column per world: the chain bound pair at each k in lowest
    terms, or None where the congruence rule excludes k. misses holds, per
    world, the k of ks it does not exclude. The JSON and the chain queries
    are read from these columns."""

    worlds: tuple[_World, ...]
    floor: Fraction
    ks: range
    rhs: tuple[tuple[tuple[int, int] | None, ...], ...]
    misses: tuple[frozenset[int], ...]

    def to_json(self) -> str:
        """The columns as the JSON array json.dumps writes (default separators,
        ASCII only, "p/q" sides): [{"k", "justifications": [{"world", "rule",
        "lhs", "rhs", "excluded"}, ...]}, ...]. Each world's escaped label and
        rule text are rendered once. The floor L/k is reduced by g, the gcd of
        k with L's numerator top (L is in lowest terms): top // g is rendered
        once per g, and the denominator bottom * (k // g), with bottom =
        cofactor * 10**z, as the small product cofactor * (k // g) followed by
        z zeros."""
        esc = encode_basestring_ascii
        top, bottom = self.floor.numerator, self.floor.denominator
        tops = {1: str(top)}  # top // g in decimal, per gcd class g
        bottom_text = str(bottom)
        digits = bottom_text.rstrip("0")
        cofactor, zeros = int(digits), "0" * (len(bottom_text) - len(digits))
        worlds = []
        for world, column, missed in zip(self.worlds, self.rhs, self.misses):
            label, prefix, suffix = world._chain[:3]
            head = f'{{"world": {esc(label)}, "rule": '
            congruence = head + esc(f"{CONGRUENCE}: k=")[:-1]
            worlds.append((head + esc(prefix)[:-1], esc(suffix)[1:], congruence, column, missed))
        docs, sep = [], "["  # the brackets go into the items: join makes the one copy
        for i, k in enumerate(self.ks):
            g = math.gcd(top, k)
            if g not in tops:
                tops[g] = str(top // g)
            lhs = f"{tops[g]}/{cofactor * (k // g)}{zeros}"
            rows = []
            for chain, tail, congruence, column, missed in worlds:
                rhs = column[i]
                if rhs is None:
                    r = k % 3
                    rows.append(f'{congruence}{k} is {r} (mod 3), 1 required", "lhs": "{ratio_str(r, 1)}", '
                                f'"rhs": "{ratio_str(1, 1)}", "excluded": true}}')
                else:
                    rows.append(f'{chain}{k}{tail}, "lhs": "{lhs}", "rhs": "{ratio_str(*rhs)}", '
                                f'"excluded": {"false" if k in missed else "true"}}}')
            docs.append(f'{sep}{{"k": {k}, "justifications": [{", ".join(rows)}]}}')
            sep = ", "
        docs.append("]" if docs else "[]")
        return "".join(docs)

    def uses_chain(self) -> bool:
        """Whether some world excludes some k by the chain rule, and so rests
        on the stated witness floor phi(n)/(2n), which holds only when 3 | n."""
        return any(
            rhs is not None and k not in missed
            for column, missed in zip(self.rhs, self.misses)
            for k, rhs in zip(self.ks, column)
        )

    def binding(self) -> tuple[str, str] | None:
        """lhs/rhs strings of the tightest chain exclusion (the largest bound)
        of the last k that some world excludes by the chain rule."""
        for i in reversed(range(len(self.ks))):
            chains = [column[i] for column, missed in zip(self.rhs, self.misses)
                      if column[i] is not None and self.ks[i] not in missed]
            if chains:
                tightest = max(chains, key=lambda pair: Fraction(*pair))
                num, den, k = self.floor.numerator, self.floor.denominator, self.ks[i]
                g = math.gcd(num, k)
                return ratio_str(num // g, den * (k // g)), ratio_str(*tightest)
        return None


def _exclusions(profile: LehmerProfile, ks: range) -> ExclusionColumns:
    """The columns of the profile's worlds over ks, one pass (_World.sweep)
    per world against the profile's witness floor."""
    floor = profile.witness_floor
    columns, misses = zip(*(world.sweep(ks, floor) for world in profile.worlds))
    columns, misses = tuple(map(tuple, columns)), tuple(map(frozenset, misses))
    return ExclusionColumns(profile.worlds, floor, ks, columns, misses)


def exclude_k(profile: LehmerProfile, k: int) -> ExclusionColumns:
    """Decide whether k*phi(n) = n - 1 is impossible for every candidate
    matching the profile: each world judges k against the witness floor at k,
    and k is excluded when no world misses it. This is the one-k case of the
    sweep min_k makes over every k below its floor."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    return _exclusions(profile, range(k, k + 1))


@dataclass(frozen=True)
class MinKResult:
    """The floor k and the exclusion columns of every k below it."""

    k: int
    columns: ExclusionColumns
    applied_rules: tuple[str, ...]
    n_floor_used: int


def _k_floor(profile: LehmerProfile) -> int:
    """Smallest k >= 2 that some world of the profile does not exclude."""
    return min(world.k_floor(profile.witness_floor) for world in profile.worlds)


@lru_cache(maxsize=1)
def universal_k_floor() -> int:
    """The floor provable with no divisibility knowledge at the base n-floor."""
    return _k_floor(GENERIC_PROFILE)


def min_k(profile: LehmerProfile) -> MinKResult:
    """Smallest k >= 2 not excluded for the profile, with the rule trace:
    one sweep over the worlds, kept as integer columns, must exclude each k
    below the closed-form floor, and exclude_k must not exclude the floor. A
    symbolic profile is solved at n > 10**8171 alone once the universal floor
    reaches 3; a higher n_floor only excludes more k."""
    rules = []
    if profile.n is None and profile.n_floor < N_FLOOR_RAISED and universal_k_floor() >= 3:
        profile = dataclasses.replace(profile, n_floor=N_FLOOR_RAISED)
        # the "swept again" wording is kept: the min-k reference digests pin it
        rules.append("n-floor-escalation: universal k >= 3 implies n > 10^8171; swept again")
    floor_k = _k_floor(profile)
    if floor_k >= _SWEEP_GUARD:
        raise DomainError(f"k floor {floor_k} lies past the exclusion sweep's guard of k < {_SWEEP_GUARD}")
    columns = _exclusions(profile, range(2, floor_k))
    if any(columns.misses) or not any(exclude_k(profile, floor_k).misses):
        raise AssertionError(f"closed-form k floor {floor_k} is wrong for {profile.describe()}")
    # a world's rule kind depends on k only through k mod 3, so the first three
    # k give the suffix of every rule line
    suffixes = {}
    for k, *column in zip(columns.ks[:3], *columns.rhs):
        kinds = sorted({CONGRUENCE if rhs is None else CHAIN for rhs in column})
        suffixes[k % 3] = f" excluded in all {len(column)} worlds via {', '.join(kinds)}"
    rules += [f"k={k}{suffixes[k % 3]}" for k in columns.ks]
    if columns.uses_chain():
        rules.append(
            "caveat: chain exclusions assume the stated witness floor phi(n)/(2n); "
            "the independently provable floor is 7*phi(n)/(16n), which does not "
            "support these exclusions (see witness-floor checks)"
        )
    if profile.q is not None and profile.q >= 17:
        ladder = k_ladder(profile.q, mode="strict")
        rules.append(f"ladder(strict) at q={profile.q}: k >= {ladder.k_floor} (R={ladder.R})")
        printed = k_ladder(profile.q, mode="as-printed", R=4)
        if printed.k_floor is not None and printed.k_floor != ladder.k_floor:
            rules.append(f"ladder(as-printed, R=4) would claim k >= {printed.k_floor}; not applied")
    return MinKResult(floor_k, columns, tuple(rules), profile.n_floor)


# ---------------------------------------------------------------------------
# The k ladder for q >= 17

@dataclass(frozen=True)
class LadderResult:
    q: int
    mode: str
    R: int
    condition: Fraction
    k_floor: int | None


def _ladder_coefficient(mode: str) -> Fraction:
    """7/8 in strict mode, which is what actually follows from the witness
    bounds; 1/2 as printed, which is weaker and kept only for comparison."""
    if mode not in ("strict", "as-printed"):
        raise DomainError(f"unknown ladder mode {mode!r}")
    return Fraction(7, 8) if mode == "strict" else Fraction(1, 2)


def ladder_condition(q: int, R: int, mode: str = "strict") -> Fraction:
    """Condition value c*(q - 1 + R)/q, with c the mode's coefficient, whose
    being < 1 yields k >= R + 1."""
    coefficient = _ladder_coefficient(mode)
    if R < 2:
        raise DomainError(f"R must be >= 2, got {R}")
    return coefficient * R * (Fraction(q - 1, R * q) + Fraction(1, q))


def k_ladder(q: int, mode: str = "strict", R: int | None = None) -> LadderResult:
    """Largest floor k >= R + 1 derivable for smallest prime factor q >= 17.

    With R given, evaluates that rung only (k_floor None when inconclusive).
    Otherwise takes the top rung: the condition c*(q - 1 + R)/q rises with R,
    so the last R with condition < 1 is ceil(q/c - q), that is (q + 6)//7 in
    strict mode and q as printed.
    """
    if q < 17 or not is_prime(q):
        raise DomainError(f"the ladder needs a prime q >= 17, got {q}")
    if R is not None:
        cond = ladder_condition(q, R, mode)
        return LadderResult(q, mode, R, cond, R + 1 if cond < 1 else None)
    top = math.ceil(q / _ladder_coefficient(mode) - q)
    cond = ladder_condition(q, top, mode)
    if not cond < 1 <= ladder_condition(q, top + 1, mode):
        raise AssertionError(f"ladder top rung R={top} is not the last for q={q}")
    return LadderResult(q, mode, top, cond, top + 1)


# ---------------------------------------------------------------------------
# Abundancy

def abundancy_bound(profile: LehmerProfile, k_floor: int) -> Fraction:
    """Coefficient c such that sigma(n)/n > c/pi**2 for any solution matching
    the profile with multiplier at least k_floor; at its min_k the generic
    profile gives 24 and the 3,5,7,11,13-free profile gives 715715/18432.
    It is k_floor times the c of phi(n)*sigma(n)/n**2 > c/pi**2 for odd n: 6
    with the factor for p=2 removed (giving 8), then one factor
    p**2/(p**2 - 1) per excluded small prime.
    """
    c = Fraction(8)
    for p in SMALL_PRIMES:
        if p in profile.not_divides:
            c *= Fraction(p * p, p * p - 1)
    return c * k_floor


# ---------------------------------------------------------------------------
# Witness construction and the full per-n verdict

def witness_group(f: Factorization | int) -> GroupSpec:
    """The noncyclic nilpotent group C2 x C2 x C_n of order 4n, n odd >= 3."""
    f = _coerce(f)
    if f.value < 3 or f.value % 2 == 0:
        raise DomainError(f"witness construction needs odd n >= 3, got {f.value}")
    return product([Cyclic(2), Cyclic(2), Cyclic(f.value)])


def witness_double_prime(f: Factorization | int) -> Fraction:
    """psi''(C2 x C2 x C_n) = 7 psi(C_n) / (16 n**2), via the closed form so
    that astronomically large squarefree n with known factorization stay cheap.
    """
    f = _coerce(f)
    if f.value < 3 or f.value % 2 == 0:
        raise DomainError(f"witness needs odd n >= 3, got {f.value}")
    return Fraction(7 * psi_cyclic(f), 16 * f.value**2)


@dataclass(frozen=True)
class LehmerVerdict:
    n: int
    prime: bool
    factors: tuple[tuple[int, int], ...]
    is_carmichael: bool | None
    phi: int
    phi_divides: bool
    exact_k: int | None
    counterexample: bool
    min_k: int | None
    columns: ExclusionColumns | None
    abundancy_coefficient: Fraction | None
    witness: str | None
    applied_rules: tuple[str, ...]
    notes: tuple[str, ...]

    def uses_stated_floor(self) -> bool:
        """Whether min_k rests on a chain exclusion, and so on the stated
        witness floor phi(n)/(2n), which holds only when 3 | n."""
        return self.columns is not None and self.columns.uses_chain()

    def binding_inequality(self) -> tuple[str, str] | None:
        """lhs/rhs strings of the tightest chain exclusion of the last
        excluded k, for the report schema."""
        return None if self.columns is None else self.columns.binding()

    def to_json(self) -> str:
        """The verdict as json.dumps writes its fields in declaration order, the
        abundancy coefficient as "p/q" and the columns as the excluded_k array."""
        c = self.abundancy_coefficient
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        fields["abundancy_coefficient"] = None if c is None else ratio_str(c.numerator, c.denominator)
        fields["columns"] = None
        # no field before columns holds a string, so its key is the first match
        head, _, tail = json.dumps(fields).partition('"columns": null')
        excluded = "[]" if self.columns is None else self.columns.to_json()
        return f'{head}"excluded_k": {excluded}{tail}'


def lehmer_check(n: int) -> LehmerVerdict:
    """Full analysis of a candidate: divisibility facts, Carmichael status,
    witness group, k floor with justifications, abundancy bound.

    The k floor is proven when it comes from the congruence rule alone. When
    a chain exclusion was used it assumes the stated witness floor
    phi(n)/(2n), which holds only when 3 | n (see
    bounds.witness_lower_bound); uses_stated_floor() tells the two apart.
    """
    if n < 2:
        raise DomainError(f"lehmer_check needs n >= 2, got {n}")
    f = factor(n)
    phi = euler_phi(f)
    phi_divides = (n - 1) % phi == 0
    exact_k = (n - 1) // phi if phi_divides else None
    prime = f.factors == ((n, 1),)
    cert = None if prime else korselt_check(f)
    floor_k = abundancy = witness = columns = None
    rules: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    if prime:
        floor_k, rules = 1, ("prime: phi(n) = n - 1 with k = 1",)
    elif n % 2 == 0 or not cert.squarefree:
        notes = (
            "exclusion machinery applies to odd squarefree candidates only; "
            "any actual counterexample is Carmichael, hence odd and squarefree",
        )
    else:
        profile = profile_from_factorization(f)
        result = min_k(profile)
        floor_k, columns, rules = result.k, result.columns, result.applied_rules
        if phi_divides and exact_k < floor_k:
            raise AssertionError(
                f"n={n}: exact multiplier {exact_k} violates the k floor {floor_k}"
            )
        abundancy = abundancy_bound(profile, floor_k)
        witness = str(witness_group(f))
    return LehmerVerdict(
        n=n,
        prime=prime,
        factors=f.factors,
        is_carmichael=cert.is_carmichael if cert else None,
        phi=phi,
        phi_divides=phi_divides,
        exact_k=exact_k,
        counterexample=phi_divides and not prime,
        min_k=floor_k,
        columns=columns,
        abundancy_coefficient=abundancy,
        witness=witness,
        applied_rules=rules,
        notes=notes,
    )
