"""Range scanning for composite solutions of phi(n) | (n - 1), batch verdicts
over Carmichael numbers, the constants regression suite, and persistence.

Checkpoints are single JSON documents with a CRC32 over the canonical payload,
written atomically (temp file, fsync, rename), so an interrupted scan resumes
to byte-identical results. A checkpoint holds the range, the resume point and
the composite hits; the prime hits are rebuilt from the sieve.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import os
import tempfile
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arith import DomainError
from .bounds import upper_coefficient
from .carmichael import RANGE_LIMIT, carmichael_in_range
from .engine import (
    N_FLOOR_BASE,
    certified_close,
    chain_upper,
    exclusion_threshold,
    k_ladder,
    lehmer_check,
    two_power_threshold,
    witness_double_prime,
)
from .groups import parse_group_spec, psi, psi_cyclic
from .sieve import DEFAULT_SEGMENT, primes_upto, segments, totient_range

SCAN_LIMIT = 10**8
SCHEMA_VERSION = 2
MAX_SEGMENT = 1 << 22  # each segment holds several int64 arrays of this length

REPORT_KEYS = ("type", "n", "exact_k", "min_k", "rules", "lhs", "rhs")
_ROW_ENCODER = json.JSONEncoder(separators=(",", ":"))


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
            f"this contradicts known results, verify immediately: {verdict.as_dict()}"
        )


@dataclass(frozen=True)
class ScanCheckpoint:
    lo: int
    hi: int
    next: int
    composites: tuple[tuple[int, int, bool], ...] = ()  # (n, exact_k, True)

    def __post_init__(self):
        if not (self.lo <= self.next <= self.hi + 1):
            raise CheckpointError(f"next={self.next} outside [{self.lo}, {self.hi + 1}]")
        if list(self.composites) != sorted(self.composites):
            raise CheckpointError("composites not sorted")

    @cached_property
    def hits(self) -> tuple[tuple[int, int, bool], ...]:
        """(n, exact_k, is_composite) for every n in [lo, next) with
        phi(n) | (n - 1): each prime p as (p, 1, False), merged in ascending
        order with the composite hits."""
        primes = ((p, 1, False) for p in primes_upto(self.next - 1, self.lo).tolist())
        return tuple(heapq.merge(primes, self.composites))

    def payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "lo": self.lo,
            "hi": self.hi,
            "next": self.next,
            "composites": [[n, k, bool(c)] for n, k, c in self.composites],
        }

    def to_json(self) -> str:
        payload = self.payload()
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        crc = zlib.crc32(blob.encode("ascii"))
        return json.dumps({"payload": payload, "crc32": crc}, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScanCheckpoint":
        try:
            doc = json.loads(text)
            payload = doc["payload"]
            crc = doc["crc32"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        if zlib.crc32(blob.encode("ascii")) != crc:
            raise CheckpointError("checkpoint CRC mismatch")
        if not isinstance(payload, dict):
            raise CheckpointError("checkpoint payload is not an object")
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise CheckpointError(f"unsupported schema_version {payload.get('schema_version')}")
        try:
            lo, hi, next_ = (payload[key] for key in ("lo", "hi", "next"))
            composites = tuple((int(n), int(k), bool(c)) for n, k, c in payload["composites"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint payload: {exc!r}") from exc
        if not all(type(v) is int for v in (lo, hi, next_)):
            raise CheckpointError(f"checkpoint bounds must be integers: {lo}, {hi}, {next_}")
        return cls(lo=lo, hi=hi, next=next_, composites=composites)


def write_checkpoint(cp: ScanCheckpoint, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".checkpoint-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(cp.to_json())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write checkpoint to {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_checkpoint(path: str) -> ScanCheckpoint:
    try:
        with open(path) as handle:
            return ScanCheckpoint.from_json(handle.read())
    except OSError as exc:
        raise OSError(f"cannot read checkpoint from {path}: {exc}") from exc


def _segment_hits(bounds: tuple[int, int]) -> list[tuple[int, int, bool]]:
    """The composite n in [lo, hi] with phi(n) | (n - 1), as (n, k, True).
    phi(n) = n - 1 holds exactly for primes, and the prime rows of
    ScanCheckpoint.hits come from the sieve, so the two must agree here."""
    lo, hi = bounds
    phis = totient_range(lo, hi)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    prime = phis == ns - 1
    if not np.array_equal(ns[prime], primes_upto(hi, lo)):
        raise RuntimeError(f"totient kernel and prime sieve disagree on [{lo}, {hi}]")
    mask = ((ns - 1) % phis == 0) & ~prime
    return [(n, (n - 1) // phi, True) for n, phi in zip(ns[mask].tolist(), phis[mask].tolist())]


def scan_totient_divisibility(
    lo: int,
    hi: int,
    checkpoint: ScanCheckpoint | None = None,
    *,
    segment_size: int = DEFAULT_SEGMENT,
    checkpoint_path: str | None = None,
    jobs: int = 1,
    on_segment=None,
) -> ScanCheckpoint:
    """Scan [lo, hi] for n with phi(n) | (n - 1). Every prime appears as a hit
    with exact_k = 1; a composite hit runs lehmer_check and aborts loudly.
    Results are independent of segmentation, job count, and interruptions.
    """
    if not 2 <= lo <= hi <= SCAN_LIMIT:
        raise DomainError(f"need 2 <= lo <= hi <= {SCAN_LIMIT}, got [{lo}, {hi}]")
    if jobs < 1 or not 1 <= segment_size <= MAX_SEGMENT:
        raise DomainError(
            f"need jobs >= 1 and 1 <= segment_size <= {MAX_SEGMENT}, "
            f"got jobs={jobs}, segment_size={segment_size}"
        )
    if checkpoint is not None:
        if (checkpoint.lo, checkpoint.hi) != (lo, hi):
            raise CheckpointError(
                f"checkpoint covers [{checkpoint.lo}, {checkpoint.hi}], not [{lo}, {hi}]"
            )
        cp = checkpoint
    else:
        cp = ScanCheckpoint(lo=lo, hi=hi, next=lo)

    windows = segments(cp.next, hi, segment_size)
    # with fork, the pool starts every worker up front: never more than can run
    workers = min(jobs, len(windows), os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()
    with pool:
        mapper = pool.map if workers > 1 else map
        for (_, seg_end), composites in zip(windows, mapper(_segment_hits, windows)):
            cp = replace(cp, next=seg_end + 1, composites=cp.composites + tuple(composites))
            if checkpoint_path:
                write_checkpoint(cp, checkpoint_path)
            if composites:
                n = composites[0][0]
                raise CounterexampleFound(n, lehmer_check(n))
            if on_segment is not None:
                on_segment(cp)
    return cp


# ---------------------------------------------------------------------------
# Report emission (JSON Lines; CSV mirrors the same columns)

def report_row(
    type_: str,
    n: int | None = None,
    exact_k: int | None = None,
    min_k: int | None = None,
    rules: list[str] | None = None,
    lhs: str | None = None,
    rhs: str | None = None,
) -> dict:
    return {
        "type": type_,
        "n": n,
        "exact_k": exact_k,
        "min_k": min_k,
        "rules": rules or [],
        "lhs": lhs,
        "rhs": rhs,
    }


def hit_row(hit: tuple[int, int, bool]) -> dict:
    n, k, composite = hit
    return report_row("hit", n=n, exact_k=k, rules=["composite" if composite else "prime"])


def verdict_row(verdict) -> dict:
    binding = verdict.binding_inequality()
    return report_row(
        "verdict",
        n=verdict.n,
        exact_k=verdict.exact_k,
        min_k=verdict.min_k,
        rules=list(verdict.applied_rules),
        lhs=binding[0] if binding else None,
        rhs=binding[1] if binding else None,
    )


def jsonl_line(row: dict) -> str:
    return _ROW_ENCODER.encode({key: row.get(key) for key in REPORT_KEYS})


def csv_line(row: dict) -> str:
    cells = []
    for key in REPORT_KEYS:
        value = row.get(key)
        if value is None:
            cells.append("")
        elif key == "rules":
            cells.append('"' + ";".join(value).replace('"', '""') + '"')
        else:
            cells.append(str(value))
    return ",".join(cells)


CSV_HEADER = ",".join(REPORT_KEYS)


def write_report(rows: list[dict], path: str) -> None:
    """One JSON Lines row per entry of rows."""
    try:
        with open(path, "w") as handle:
            for row in rows:
                handle.write(jsonl_line(row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def batch_verdicts(bound: int, path: str | None = None):
    """lehmer_check for every Carmichael number <= bound; returns the verdicts
    and the min_k distribution, optionally writing one JSONL row per verdict."""
    if not 2 <= bound <= RANGE_LIMIT:
        raise DomainError(f"need 2 <= bound <= {RANGE_LIMIT}, got {bound}")
    verdicts = [lehmer_check(n) for n in carmichael_in_range(2, bound)]
    distribution: dict[int, int] = {}
    for verdict in verdicts:
        distribution[verdict.min_k] = distribution.get(verdict.min_k, 0) + 1
    if path is not None:
        write_report([verdict_row(v) for v in verdicts], path)
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

    def row(self) -> dict:
        return report_row(
            "constant-check",
            rules=[self.check_id] + (["expected-failure"] if self.expected_failure else []),
            lhs=self.computed,
            rhs=self.expected,
            min_k=None,
            exact_k=None,
        )


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
        exclusion_threshold(3, 2),
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
    checks.append(
        ConstantCheck(
            "abundancy-24",
            "24/pi^2 matches 2.431708 within 5e-7",
            "24/pi^2",
            "2.431708 +- 5e-7",
            certified_close(24, Fraction(2431708, 10**6), Fraction(5, 10**7)),
        )
    )
    checks.append(
        ConstantCheck(
            "abundancy-715715",
            "715715/(18432 pi^2) matches 3.9343 within 5e-5",
            "715715/18432/pi^2",
            "3.9343 +- 5e-5",
            certified_close(Fraction(715715, 18432), Fraction(39343, 10**4), Fraction(5, 10**5)),
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
    small_fail = all(quarter <= exclusion_threshold(q, 2) for q in (3, 5, 7))
    big_ok = all(
        quarter > exclusion_threshold(int(q), 2) for q in primes_upto(10000) if q >= 11
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
