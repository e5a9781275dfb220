"""Range scanning for composite solutions of phi(n) | (n - 1), batch verdicts
over Carmichael numbers, the constants regression suite, and persistence.

Checkpoints are single JSON documents with a CRC32 over the canonical payload,
written atomically (temp file, fsync, rename), so an interrupted scan resumes
to byte-identical results. A checkpoint holds only the range and the resume
point: a composite hit aborts the scan before the resume point passes its
segment, so every hit of a finished scan is a prime, rebuilt from the sieve,
and every run that reaches a composite hit aborts at the same n.

A checkpointed scan writes at most once per CHECKPOINT_INTERVAL seconds, and
always at the end and when any exception (an interrupt or a composite abort
included) leaves the loop. So after an exception the file holds the last
completed segment; only a kill or a power loss loses work, at most one
interval of it.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .arith import DomainError
from .bounds import upper_coefficient
from .carmichael import carmichael_in_range
from .engine import (
    GENERIC_PROFILE,
    N_FLOOR_BASE,
    abundancy_bound,
    certified_close,
    chain_upper,
    k_ladder,
    lehmer_check,
    make_profile,
    min_k,
    two_power_threshold,
    witness_double_prime,
)
from .groups import parse_group_spec, psi, psi_cyclic
from .sieve import primes_upto, segments, totient_range

SCAN_LIMIT = 10**8
SCHEMA_VERSION = 3
DEFAULT_SEGMENT = 1 << 18  # integers per segment of a scan; no option sets it
MAX_SEGMENT = 1 << 22  # each segment holds three int32 arrays of this length
HIT_WINDOW = 1 << 20  # integers per prime sieve when hit rows are rebuilt
CHECKPOINT_INTERVAL = 1.0  # seconds between checkpoint writes inside a scan
CHECKPOINT_MAX_BYTES = 1 << 20  # most a checkpoint is read; the scan writes about 100
_clock = time.monotonic  # the clock the scan loop reads; tests replace it

# a report row is a tuple of these seven values, in this order
REPORT_KEYS = ("type", "n", "exact_k", "min_k", "rules", "lhs", "rhs")


class CheckpointError(DomainError):
    """Corrupt or mismatched checkpoint (schema or CRC failure)."""


class CounterexampleFound(RuntimeError):
    """A composite n with phi(n) | (n - 1) turned up; this contradicts all
    known results and aborts the scan loudly, verdict attached."""

    def __init__(self, n: int, verdict):
        self.n = n
        self.verdict = verdict
        super().__init__(
            f"COMPOSITE SOLUTION OF phi(n) | (n-1) AT n={n}; "
            f"this contradicts known results, verify immediately: {verdict.to_json()}"
        )


@dataclass(frozen=True)
class ScanCheckpoint:
    lo: int
    hi: int
    next: int

    def __post_init__(self):
        if not (self.lo <= self.next <= self.hi + 1):
            raise CheckpointError(f"next={self.next} outside [{self.lo}, {self.hi + 1}]")

    def _window_arrays(self):
        """The primes of [lo, next), one array per HIT_WINDOW integers."""
        windows = segments(self.lo, self.next - 1, HIT_WINDOW)
        return (primes_upto(end, start) for start, end in windows)

    def prime_windows(self):
        """The primes of [lo, next), ascending, one list per HIT_WINDOW
        integers; each window's array is freed once listed."""
        return map(np.ndarray.tolist, self._window_arrays())

    def iter_hits(self):
        """(n, exact_k, is_composite) for every n in [lo, next) with
        phi(n) | (n - 1), ascending: each prime p as (p, 1, False), sieved one
        window at a time; a scan aborts on any composite hit."""
        # a window's list is freed once iterated, so at most one is alive
        return zip(chain.from_iterable(self.prime_windows()), repeat(1), repeat(False))

    def hit_count(self) -> int:
        """len(hits), counted one prime window at a time."""
        return sum(len(window) for window in self._window_arrays())

    @cached_property
    def hits(self) -> tuple[tuple[int, int, bool], ...]:
        """Every hit of iter_hits, held at once."""
        return tuple(self.iter_hits())

    def payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "lo": self.lo,
            "hi": self.hi,
            "next": self.next,
        }

    def to_json(self) -> str:
        payload = self.payload()
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        crc = zlib.crc32(blob.encode("ascii"))
        return json.dumps({"payload": payload, "crc32": crc}, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScanCheckpoint":
        try:
            # ValueError also covers an integer past the digit limit set in arith
            doc = json.loads(text)
            payload = doc["payload"]
            crc = doc["crc32"]
            blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
        if zlib.crc32(blob.encode("ascii")) != crc:
            raise CheckpointError("checkpoint CRC mismatch")
        if not isinstance(payload, dict):
            raise CheckpointError("checkpoint payload is not an object")
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise CheckpointError(f"unsupported schema_version {payload.get('schema_version')}")
        if set(payload) != {"schema_version", "lo", "hi", "next"}:
            raise CheckpointError(f"malformed checkpoint payload: keys {sorted(payload)}")
        if not all(type(v) is int for v in payload.values()):
            raise CheckpointError("checkpoint fields must be integers")
        return cls(lo=payload["lo"], hi=payload["hi"], next=payload["next"])


def write_checkpoint(cp: ScanCheckpoint, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".checkpoint-", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(cp.to_json())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write checkpoint to {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def read_checkpoint(path: str) -> ScanCheckpoint:
    try:
        with open(path) as handle:
            text = handle.read(CHECKPOINT_MAX_BYTES + 1)
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
    except OSError as exc:
        raise OSError(f"cannot read checkpoint from {path}: {exc}") from exc
    if len(text) > CHECKPOINT_MAX_BYTES:
        raise CheckpointError(f"unreadable checkpoint: longer than {CHECKPOINT_MAX_BYTES} bytes")
    return ScanCheckpoint.from_json(text)


def _segment_hits(bounds: tuple[int, int]) -> list[int]:
    """The composite n in [lo, hi] with phi(n) | (n - 1), ascending.
    phi(n) = n - 1 holds exactly for primes, and the prime rows of
    ScanCheckpoint.hits come from the sieve, so the two must agree here."""
    lo, hi = bounds
    phis = totient_range(lo, hi)
    m = np.arange(lo - 1, hi, dtype=np.int32)  # n - 1
    prime = phis == m
    if not np.array_equal(np.flatnonzero(prime) + lo, primes_upto(hi, lo)):
        raise RuntimeError(f"totient kernel and prime sieve disagree on [{lo}, {hi}]")
    m %= phis  # in place: each new window-sized array costs page faults
    return (np.flatnonzero((m == 0) & ~prime) + lo).tolist()


def scan_totient_divisibility(
    lo: int,
    hi: int,
    checkpoint: ScanCheckpoint | None = None,
    *,
    segment_size: int = DEFAULT_SEGMENT,
    checkpoint_path: str | None = None,
    on_segment=None,
) -> ScanCheckpoint:
    """Scan [lo, hi] for n with phi(n) | (n - 1). Every prime appears as a hit
    with exact_k = 1; a composite hit raises CounterexampleFound with its
    lehmer_check verdict before cp passes its segment, so the result holds
    primes only, and a rerun from any checkpoint aborts at the same n.
    Results are independent of segmentation and interruptions.

    With checkpoint_path, the checkpoint is written when CHECKPOINT_INTERVAL
    seconds have passed since the last write (or the start), and on leaving
    the loop, normally or by any exception (a composite abort included), if
    the last completed segment is not yet on disk. A write that raised is not
    retried. When on_segment(cp) runs, the file may still hold an earlier
    checkpoint than cp.
    """
    if not 2 <= lo <= hi <= SCAN_LIMIT:
        raise DomainError(f"need 2 <= lo <= hi <= {SCAN_LIMIT}, got [{lo}, {hi}]")
    if not 1 <= segment_size <= MAX_SEGMENT:
        raise DomainError(f"need 1 <= segment_size <= {MAX_SEGMENT}, got {segment_size}")
    cp = checkpoint or ScanCheckpoint(lo=lo, hi=hi, next=lo)
    if (cp.lo, cp.hi) != (lo, hi):
        raise CheckpointError(f"checkpoint covers [{cp.lo}, {cp.hi}], not [{lo}, {hi}]")

    windows = segments(cp.next, hi, segment_size)
    # saved is the last cp a write was tried for: set first, so a failed write is not retried
    saved, last_write = cp, _clock()
    try:
        for (_, seg_end), found in zip(windows, map(_segment_hits, windows)):
            if found:
                raise CounterexampleFound(found[0], lehmer_check(found[0]))
            cp = replace(cp, next=seg_end + 1)
            if checkpoint_path and _clock() - last_write >= CHECKPOINT_INTERVAL:
                saved = cp
                write_checkpoint(cp, checkpoint_path)
                last_write = _clock()
            if on_segment is not None:
                on_segment(cp)
    finally:
        if checkpoint_path and cp is not saved:
            write_checkpoint(cp, checkpoint_path)
    return cp


# ---------------------------------------------------------------------------
# Report emission (JSON Lines; CSV mirrors the same columns)

def hit_row(hit: tuple[int, int, bool]) -> tuple:
    """The row of a hit of iter_hits, each a prime (p, 1, False)."""
    n, k, _ = hit
    return ("hit", n, k, None, ("prime",), None, None)


def verdict_row(verdict) -> tuple:
    lhs, rhs = verdict.binding_inequality() or (None, None)
    return ("verdict", verdict.n, verdict.exact_k, verdict.min_k, verdict.applied_rules, lhs, rhs)


# A report has few row shapes (every field but n: one for all hits, 41 among
# the 43 verdicts to 10^6), so the text of a row on either side of its n is
# rendered once per shape and format; the cap bounds the memory. Shapes are
# compared by value, so each field must be of its schema type (True would
# take the entry of 1).
RULES_CACHE_SIZE = 256
# the JSON text of a row after its n, REPORT_KEYS[1]; %s is a cell
_JSON_POST = "".join(f',"{key}":%s' for key in REPORT_KEYS[2:]) + "}"


@lru_cache(maxsize=RULES_CACHE_SIZE)
def _affixes(fmt: str, type_, exact_k, min_k, rules, lhs, rhs) -> tuple[str, str]:
    """The text of a row of this shape in fmt ("json" or "csv") before and
    after its n, built from the cells on each side, each by its type."""
    if fmt == "json":
        esc = encode_basestring_ascii
        return '{"type":' + ("null" if type_ is None else esc(type_)) + ',"n":', _JSON_POST % (
            "null" if exact_k is None else exact_k,
            "null" if min_k is None else min_k,
            "null" if rules is None else "[" + ",".join(map(esc, rules)) + "]",
            "null" if lhs is None else esc(lhs),
            "null" if rhs is None else esc(rhs),
        )
    return ("" if type_ is None else str(type_)) + ",", "," + ",".join((
        "" if exact_k is None else str(exact_k),
        "" if min_k is None else str(min_k),
        "" if rules is None else '"' + ";".join(rules).replace('"', '""') + '"',
        "" if lhs is None else str(lhs),
        "" if rhs is None else str(rhs),
    ))


def row_affixes(row: tuple, fmt: str) -> tuple[str, str]:
    """The text of row in fmt ("json" or "csv") before and after its n cell.
    A JSON line is row as json.dumps(dict(zip(REPORT_KEYS, row)),
    separators=(",", ":")) gives it; a CSV line holds the same cells, None
    empty and only rules quoted, its entries joined by ";". Each value is
    rendered by its schema type: type, lhs and rhs are str, n, exact_k and
    min_k int (which %s passes to str), rules a sequence of str; any may be
    None."""
    type_, _, exact_k, min_k, rules, lhs, rhs = row
    return _affixes(fmt, type_, exact_k, min_k, None if rules is None else tuple(rules), lhs, rhs)


def jsonl_line(row: tuple) -> str:
    """row as one JSON line (row_affixes): one cache lookup, then n."""
    type_, n, exact_k, min_k, rules, lhs, rhs = row
    pre, post = _affixes(
        "json", type_, exact_k, min_k, None if rules is None else tuple(rules), lhs, rhs
    )
    return pre + ("null" if n is None else str(n)) + post


CSV_HEADER = ",".join(REPORT_KEYS)


def write_report(rows, path: str) -> None:
    """One JSON Lines row per report row of the iterable rows."""
    try:
        with open(path, "w") as handle:
            for row in rows:
                handle.write(jsonl_line(row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def batch_verdicts(bound: int, path: str | None = None):
    """lehmer_check for every Carmichael number <= bound; returns the verdicts
    and the min_k distribution, optionally writing one JSONL row per verdict."""
    verdicts = [lehmer_check(n) for n in carmichael_in_range(2, bound)]
    distribution: dict[int, int] = {}
    for verdict in verdicts:
        distribution[verdict.min_k] = distribution.get(verdict.min_k, 0) + 1
    if path is not None:
        write_report(map(verdict_row, verdicts), path)
    return verdicts, dict(sorted(distribution.items()))


# ---------------------------------------------------------------------------
# Constants regression suite

@dataclass(frozen=True)
class ConstantCheck:
    check_id: str
    description: str
    computed: str
    expected: str
    passed: bool
    expected_failure: bool = False

    def row(self) -> tuple:
        rules = (self.check_id, "expected-failure") if self.expected_failure else (self.check_id,)
        return ("constant-check", None, None, None, rules, self.computed, self.expected)


def verify_constants() -> list[ConstantCheck]:
    """Recompute every pinned constant from its defining route and compare
    exactly (decimal claims via the certified pi**2 sandwich)."""
    checks: list[ConstantCheck] = []

    def exact(check_id: str, description: str, computed, expected) -> None:
        checks.append(
            ConstantCheck(
                check_id,
                description,
                str(computed),
                str(expected),
                Fraction(computed) == Fraction(expected),
            )
        )

    exact(
        "ratio-7-11",
        "psi(C2 x C2) / psi(C4)",
        Fraction(psi(parse_group_spec("C2 x C2")), psi_cyclic(4)),
        Fraction(7, 11),
    )
    exact(
        "ratio-13-21",
        "psi(D6) / psi(C6)",
        Fraction(psi(parse_group_spec("D6")), psi_cyclic(6)),
        Fraction(13, 21),
    )
    exact(
        "ratio-27-43",
        "psi(Q8) / psi(C8)",
        Fraction(psi(parse_group_spec("Q8")), psi_cyclic(8)),
        Fraction(27, 43),
    )
    exact(
        "upper-ii-at-2",
        "smallest-prime upper coefficient at q=2 collapses to the general one",
        upper_coefficient("ii", q=2),
        Fraction(7, 11),
    )
    expected_alpha = {1: Fraction(13, 42), 2: Fraction(7, 24), 3: Fraction(9, 32), 4: Fraction(2055, 8064)}
    for alpha, expect in expected_alpha.items():
        exact(
            f"two-power-threshold-{alpha}",
            f"witness exclusion threshold at 2-adic valuation {alpha}",
            two_power_threshold(alpha),
            expect,
        )
    exact(
        "exclusion-threshold-3-2",
        "base exclusion threshold at q=3, R=2",
        chain_upper((), 3, 2),
        Fraction(7, 24),
    )
    exact(
        "refined-5",
        "divisor-split chain {5}, tail 11, k=2",
        chain_upper((5,), 11, 2),
        Fraction(175, 704),
    )
    exact(
        "refined-5-7",
        "divisor-split chain {5,7}, tail 17, k=2",
        chain_upper((5, 7), 17, 2),
        Fraction(1007, 4080),
    )
    for check_id, profile, printed, tolerance, expected in (
        ("abundancy-24", GENERIC_PROFILE, Fraction(2431708, 10**6), Fraction(5, 10**7),
         "2.431708 +- 5e-7"),
        ("abundancy-715715", make_profile(not_divides=[3, 5, 7, 11, 13]),
         Fraction(39343, 10**4), Fraction(5, 10**5), "3.9343 +- 5e-5"),
    ):
        c = abundancy_bound(profile, min_k(profile).k)
        checks.append(
            ConstantCheck(
                check_id,
                f"c/pi^2 at min_k of the profile {profile.describe()} matches {expected}",
                f"{c}/pi^2",
                expected,
                certified_close(c, printed, tolerance),
            )
        )
    as_printed = upper_coefficient("vi", l=3, mode="as-printed") * psi_cyclic(6)
    actual = psi(parse_group_spec("D6"))
    checks.append(
        ConstantCheck(
            "upper-vi-as-printed-l3",
            "as-printed variant vi claim at l=3 must fail against D6 (pinned misprint)",
            str(as_printed),
            f"{actual} (claim must not match)",
            as_printed != actual and as_printed == 25 and actual == 13,
            expected_failure=True,
        )
    )
    witness5 = witness_double_prime(5)
    checks.append(
        ConstantCheck(
            "witness-floor-as-stated-5",
            "the stated witness floor phi(n)/(2n) fails at n=5: psi'' of the order-20 "
            "witness is 147/400 < 2/5 (floor holds iff 3 | n; provable floor is "
            "7*phi(n)/(16n))",
            str(witness5),
            "2/5 (claim must not hold)",
            witness5 < Fraction(2, 5) and witness5 == Fraction(147, 400),
            expected_failure=True,
        )
    )
    strict = k_ladder(17, mode="strict")
    printed = k_ladder(17, mode="as-printed", R=4)
    checks.append(
        ConstantCheck(
            "ladder-divergence-17",
            "at q=17 the as-printed ladder claims k >= 5 at R=4; strict stops at k >= 4",
            f"strict k>={strict.k_floor}, as-printed(R=4) k>={printed.k_floor}",
            "strict 4, as-printed 5",
            strict.k_floor == 4 and printed.k_floor == 5,
        )
    )
    quarter = Fraction(1, 4) * (1 - Fraction(1, N_FLOOR_BASE))
    small_fail = all(quarter <= chain_upper((), q, 2) for q in (3, 5, 7))
    big_ok = all(
        quarter > chain_upper((), int(q), 2) for q in primes_upto(10000) if q >= 11
    )
    checks.append(
        ConstantCheck(
            "k2-exclusion-range",
            "(1/4)(1 - 10^-30) beats the k=2 threshold exactly for primes 11..10^4 "
            "and for no smaller q",
            f"11..10^4: {big_ok}, 3/5/7 fail: {small_fail}",
            "both true",
            big_ok and small_fail,
        )
    )
    return checks
