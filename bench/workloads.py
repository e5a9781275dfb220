"""The four benchmark workloads: seeded inputs, the timed operations, and the
checks of every output against references the program does not compute.

A workload runs in units. A unit is one scan or batch on the range workloads
and one round of the query mix on `queries`. `setup` generates the inputs
(timed as set-up), `prepare` computes the references (untimed), `run` times
a unit and returns one `Request` per request the program served, and `check`
compares the outputs afterwards, outside the timed and traced code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

# The count of Carmichael numbers below 10^6 (Pinch, "The Carmichael numbers
# up to 10^21", 2006).
PINCH_COUNT_1E6 = 43

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Group specs whose psi and bounds outputs are pinned by digest in
# reference.json, in three size classes by the support of their order
# spectrum: a few entries (2-12), tens (24-60), and C720720's 240.
PSI_SPECS_FEW = ("C2 x C2", "Q8", "D6", "Q8 x C3", "C2 x C2 x C15", "D10 x C3",
                 "C4 x C6 x C9", "D30 x Q8")
PSI_SPECS_TENS = ("C360 x C12", "C5040", "C2 x C2 x C5005", "D2520 x C2",
                  "C5040 x C5040 x C12")
PSI_SPECS_240 = ("C720720", "C720720 x C2", "D1441440", "Q8 x C720720 x C3",
                 "C720720 x C720720")
PSI_SPECS = PSI_SPECS_FEW + PSI_SPECS_TENS + PSI_SPECS_240
# Symbolic min-k profiles, pinned the same way.
PROFILES = (
    "3|n", "q=5", "q=5, 7|n", "5|n, 7|n", "3!|n, 5!|n", "q=7", "q=11", "q=13",
    "q=17", "q=101", "3!|n, 5!|n, 7!|n, 11!|n, 13!|n", "3|n, 5|n", "7|n", "q=3, 5!|n",
)
GENERIC_PROFILE = ""  # the empty profile is the generic one; its JSON is 208 KB

# Small Carmichael numbers outside the Chernick family, with their primes.
KNOWN_CARMICHAEL = ((561, (3, 11, 17)), (1105, (5, 13, 17)), (2465, (5, 17, 29)),
                    (2821, (7, 13, 31)), (6601, (7, 23, 41)), (8911, (7, 19, 67)))


class Interrupted(Exception):
    """Raised from on_segment to cut a checkpointed scan short."""


@dataclass
class Request:
    seconds: float
    output: object = None
    segments: list = field(default_factory=list)  # per-segment seconds (scans)
    error: str | None = None
    digest: str | None = None


# ---------------------------------------------------------------------------
# Independent references


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases, a proof below 3.3 * 10^24,
    written here so input generation does not trust lehmer_psi.arith."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def window_primes(np, lo: int, hi: int, small_primes):
    """Primes in [lo, hi] by crossing off multiples of the primes up to
    sqrt(hi); independent of the totient code under test."""
    alive = np.ones(hi - lo + 1, dtype=bool)
    for p in small_primes.tolist():
        start = max(p * p, (lo + p - 1) // p * p)
        alive[start - lo :: p] = False
    if lo < 2:
        alive[: 2 - lo] = False
    return np.nonzero(alive)[0] + lo


def random_prime(rng, digits: int) -> int:
    while True:
        n = rng.randrange(10 ** (digits - 1), 10**digits) | 1
        if is_probable_prime(n):
            return n


def chernick_primes(decade: int, count: int = 8) -> list[tuple[int, int, int]]:
    """The first `count` triples (6k+1, 12k+1, 18k+1) of primes with
    6k+1 >= 10^decade and below 10^(decade+1); their product is Carmichael."""
    found = []
    k = (10**decade + 4) // 6
    while len(found) < count and 6 * k + 1 < 10 ** (decade + 1):
        triple = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(is_probable_prime(p) for p in triple):
            found.append(triple)
        k += 1
    return found


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def _timed(tracer, name, fn, *args, **kwargs):
    return tracer.call(name, fn, *args, **kwargs) if tracer else fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Range workloads


class ScanCheckpoint:
    """scan_totient_divisibility over [2, HI] in 2^14 segments with a
    checkpoint file, interrupted once at a seeded segment and resumed through
    read_checkpoint; the hits are rendered as the CLI's JSON rows."""

    name = "scan-checkpoint"
    HI = 3 << 16  # 12 segments
    SEGMENT = 1 << 14
    POOL = 8
    tail_percentile = 75
    segment_tail_percentile = 95
    range_len = HI - 1

    def setup(self, lp, rng, workdir: str) -> None:
        self.lp = lp
        self.nseg = math.ceil(self.range_len / self.SEGMENT)
        self.cuts = [rng.randrange(1, self.nseg - 1) for _ in range(self.POOL)]
        self.path = os.path.join(workdir, "scan.checkpoint")

    def prepare(self) -> None:
        primes = self.lp.sieve.primes_upto(self.HI).tolist()
        self.expected = tuple((p, 1, False) for p in primes)
        self.reference = self.lp.scan.scan_totient_divisibility(
            2, self.HI, segment_size=self.SEGMENT
        ).hits

    def render(self, hits) -> str:
        scan = self.lp.scan
        return "".join(scan.jsonl_line(scan.hit_row(h)) + "\n" for h in hits)

    def run(self, unit: int, tracer) -> list[Request]:
        scan = self.lp.scan
        cut = self.cuts[unit % self.POOL]
        if os.path.exists(self.path):
            os.unlink(self.path)
        stamps: list[float] = []

        def on_segment(_cp):
            stamps.append(time.perf_counter())
            if len(stamps) == cut:
                raise Interrupted

        start = time.perf_counter()
        interrupted = False
        try:
            _timed(tracer, "scan.scan_totient_divisibility", scan.scan_totient_divisibility,
                   2, self.HI, segment_size=self.SEGMENT, checkpoint_path=self.path,
                   on_segment=on_segment)
        except Interrupted:
            interrupted = True
        checkpoint = _timed(tracer, "scan.read_checkpoint", scan.read_checkpoint, self.path)
        resumed = time.perf_counter()
        cp = _timed(tracer, "scan.scan_totient_divisibility", scan.scan_totient_divisibility,
                    2, self.HI, checkpoint, segment_size=self.SEGMENT,
                    checkpoint_path=self.path, on_segment=on_segment)
        text = _timed(tracer, "scan.render_rows", self.render, cp.hits)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.counters["scan.report_bytes"] += len(text)
        firsts = {0: start, cut: resumed}
        segments = [stamps[i] - firsts.get(i, stamps[i - 1]) for i in range(len(stamps))]
        output = (interrupted, cp.hits, digest(text))
        return [Request(seconds, output, segments)]

    def check(self, requests: list[Request], unit: int) -> list[bool]:
        interrupted, hits, _ = requests[0].output
        return [interrupted and hits == self.expected and hits == self.reference]

    def request_digest(self, request: Request) -> str:
        return request.output[2]


class ScanWindow:
    """scan_totient_divisibility over a seeded window just below SCAN_LIMIT in
    2^20 segments, with no checkpoint and no rendering."""

    name = "scan-window"
    WINDOW = 5 << 18  # one full 2^20 segment and one quarter segment
    SEGMENT = 1 << 20
    POOL = 8
    tail_percentile = 75
    segment_tail_percentile = 75
    range_len = WINDOW

    def setup(self, lp, rng, workdir: str) -> None:
        self.lp = lp
        top = lp.scan.SCAN_LIMIT
        self.windows = []
        for _ in range(self.POOL):
            hi = top - rng.randrange(0, 1 << 24)
            self.windows.append((hi - self.WINDOW + 1, hi))
        self.expected: dict[int, object] = {}

    def prepare(self) -> None:
        np = self.lp.sieve.np
        small = self.lp.sieve.primes_upto(math.isqrt(self.lp.scan.SCAN_LIMIT))
        for i, (lo, hi) in enumerate(self.windows):
            self.expected[i] = window_primes(np, lo, hi, small)

    def run(self, unit: int, tracer) -> list[Request]:
        lo, hi = self.windows[unit % self.POOL]
        stamps: list[float] = []
        start = time.perf_counter()
        cp = _timed(tracer, "scan.scan_totient_divisibility",
                    self.lp.scan.scan_totient_divisibility, lo, hi,
                    segment_size=self.SEGMENT, on_segment=lambda _cp: stamps.append(time.perf_counter()))
        seconds = time.perf_counter() - start
        segments = [b - a for a, b in zip([start] + stamps, stamps)]
        return [Request(seconds, cp.hits, segments)]

    def check(self, requests: list[Request], unit: int) -> list[bool]:
        hits = requests[0].output
        expected = self.expected[unit % self.POOL]
        return [
            len(hits) == len(expected)
            and all(k == 1 and not composite for _, k, composite in hits)
            and [n for n, _, _ in hits] == expected.tolist()
        ]

    def request_digest(self, request: Request) -> str:
        return digest(repr(request.output))


class CarmichaelBatch:
    """batch_verdicts(BOUND, path): the Korselt sieve, then lehmer_check for
    every Carmichael number found, written as a JSONL report."""

    name = "carmichael-batch"
    BOUND = 10**6
    tail_percentile = 75
    segment_tail_percentile = None  # no segments
    range_len = BOUND - 1

    def setup(self, lp, rng, workdir: str) -> None:
        # The bound is the whole input; it has a published reference count,
        # so the seed changes nothing here.
        self.lp = lp
        self.path = os.path.join(workdir, "verdicts.jsonl")
        self.korselt_check = lp.carmichael.korselt_check

    def prepare(self) -> None:
        pass

    def run(self, unit: int, tracer) -> list[Request]:
        if os.path.exists(self.path):
            os.unlink(self.path)
        start = time.perf_counter()
        verdicts, _ = _timed(tracer, "scan.batch_verdicts", self.lp.scan.batch_verdicts,
                             self.BOUND, self.path)
        seconds = time.perf_counter() - start
        with open(self.path) as handle:
            report = handle.read()
        return [Request(seconds, (verdicts, report))]

    def check(self, requests: list[Request], unit: int) -> list[bool]:
        verdicts, report = requests[0].output
        rows = [json.loads(line) for line in report.splitlines()]
        ns = [v.n for v in verdicts]
        ok = (
            len(verdicts) == PINCH_COUNT_1E6
            and ns == sorted(set(ns))
            and all(self.korselt_check(n).is_carmichael for n in ns)
            and all(v.is_carmichael and not v.counterexample and v.min_k >= 2 for v in verdicts)
            and [row["n"] for row in rows] == ns
            and all(row["type"] == "verdict" for row in rows)
        )
        return [ok]

    def request_digest(self, request: Request) -> str:
        return digest(request.output[1])


# ---------------------------------------------------------------------------
# Queries


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    expect: tuple  # ("text", stdout) | ("sha256", hex) | ("lehmer", primes)


def _factor_query(primes) -> Query:
    n = math.prod(primes)
    out = json.dumps({"n": n, "factors": [[p, 1] for p in sorted(primes)]}) + "\n"
    return Query(("factor", str(n), "--format", "json"), ("text", out))


def _carmichael_query(primes) -> Query:
    n = math.prod(primes)
    failures = [p for p in sorted(primes) if (n - 1) % (p - 1)]
    out = json.dumps({"n": n, "is_carmichael": not failures, "composite": True,
                      "squarefree": True, "korselt_failures": failures}) + "\n"
    return Query(("carmichael", str(n), "--format", "json"), ("text", out))


def balanced(rng, items, count: int) -> list:
    """count draws in seeded order, each item equally often give or take one."""
    draws: list = []
    while len(draws) < count:
        block = list(items)
        rng.shuffle(block)
        draws += block
    return draws[:count]


def _distinct_primes(rng, digit_counts) -> tuple[int, ...]:
    while True:
        primes = tuple(random_prime(rng, d) for d in digit_counts)
        if len(set(primes)) == len(primes):
            return primes


class Queries:
    """A single closed-loop client making in-process cli.main(argv) calls with
    stdout captured, a researcher's shell session without interpreter start-up.

    The mix is synthetic: no record of real use exists. Its rule is one call
    per command and size class of its input, so each round holds 17 calls in
    seeded order:

    - lehmer-check on a Chernick number (6k+1)(12k+1)(18k+1), one for each
      decade of its smallest prime q from 10 to 10^5;
    - factor on a semiprime and on a 3-prime product, 18-30 digits each, so
      Brent rho runs;
    - carmichael on a Carmichael number and on a product of three random
      primes;
    - psi and bounds on a spec from each spectrum size class: a few entries,
      tens, and C720720's 240;
    - min-k on the generic profile and on a symbolic one.

    The seed picks the values, each pool entry equally often.
    """

    name = "queries"
    POOL = 16  # rounds generated at set-up; later rounds reuse them in turn
    DECADES = (1, 2, 3, 4, 5)
    DEFECT_DECADE = 6  # lehmer-check fails here today; run once, outside timing
    tail_percentile = 95
    segment_tail_percentile = None
    range_len = None

    def setup(self, lp, rng, workdir: str) -> None:
        self.lp = lp
        reference = load_reference()
        n = self.POOL
        chernick = {d: chernick_primes(d) for d in self.DECADES + (self.DEFECT_DECADE,)}
        lehmer = {d: balanced(rng, chernick[d], n) for d in self.DECADES}
        carmichael_pool = [p for d in self.DECADES[:4] for p in chernick[d]]
        carmichael_pool += [primes for _, primes in KNOWN_CARMICHAEL]
        carmichael = balanced(rng, carmichael_pool, n)
        semiprime_digits = balanced(rng, range(18, 31), n)
        triple_digits = balanced(rng, range(18, 31), n)
        classes = (PSI_SPECS_FEW, PSI_SPECS_TENS, PSI_SPECS_240)
        psi_specs = [balanced(rng, specs, n) for specs in classes]
        bounds_specs = [balanced(rng, specs, n) for specs in classes]
        profiles = balanced(rng, PROFILES, n)

        def group_query(command, spec):
            return Query((command, "--group", spec, "--format", "json"),
                         ("sha256", reference[command][spec]))

        def min_k_query(profile):
            return Query(("min-k", "--profile", profile, "--format", "json"),
                         ("sha256", reference["min-k"][profile]))

        self.rounds = []
        for i in range(n):
            queries = [
                Query(("lehmer-check", str(math.prod(lehmer[d][i]))), ("lehmer", lehmer[d][i]))
                for d in self.DECADES
            ]
            queries.append(_factor_query(_distinct_primes(rng, (7, semiprime_digits[i] - 7))))
            queries.append(_factor_query(_distinct_primes(rng, (6, 7, triple_digits[i] - 13))))
            queries.append(_carmichael_query(carmichael[i]))
            queries.append(_carmichael_query(_distinct_primes(rng, (4, 5, 6))))
            queries += [group_query("psi", specs[i]) for specs in psi_specs]
            queries += [group_query("bounds", specs[i]) for specs in bounds_specs]
            queries += [min_k_query(GENERIC_PROFILE), min_k_query(profiles[i])]
            rng.shuffle(queries)
            self.rounds.append(queries)
        primes = rng.choice(chernick[self.DEFECT_DECADE])
        self.defect_query = Query(("lehmer-check", str(math.prod(primes))), ("lehmer", primes))

    def prepare(self) -> None:
        pass

    def call(self, query: Query, tracer) -> Request:
        cli = self.lp.cli
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = _timed(tracer, "cli.main", cli.main, list(query.argv))
            except (Exception, SystemExit) as exc:  # a crash is a failed request
                rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        text = out.getvalue()
        if tracer:
            tracer.counters["cli.output_bytes"] += len(text)
            if rc != 0:
                tracer.counters["cli.errors"] += 1
        if rc not in (0, None) and error is None:
            error = f"exit {rc}: {err.getvalue().strip()}"
        return Request(seconds, text, error=error)

    def run(self, unit: int, tracer) -> list[Request]:
        return [self.call(q, tracer) for q in self.rounds[unit % self.POOL]]

    def check(self, requests: list[Request], unit: int) -> list[bool]:
        queries = self.rounds[unit % self.POOL]
        return [check_query(q, r) for q, r in zip(queries, requests)]

    def request_digest(self, request: Request) -> str:
        return digest(request.output)

    def known_defect(self) -> dict:
        """lehmer-check on a Chernick number whose q is past 10^6. The
        exclusion sweep stops at _SWEEP_GUARD and the call raises today; that
        is reported, not counted. An answer that comes back is checked, and
        ok is False when it is wrong."""
        request = self.call(self.defect_query, None)
        report = {"argv": list(self.defect_query.argv), "seconds": request.seconds}
        if request.error is not None:
            return {**report, "error": request.error, "ok": None}
        return {**report, "ok": check_query(self.defect_query, request)}


def check_query(query: Query, request: Request) -> bool:
    if request.error is not None:
        return False
    kind, value = query.expect
    if kind == "text":
        return request.output == value
    if kind == "sha256":
        return digest(request.output) == value
    return check_lehmer(request.output, value)


def check_lehmer(text: str, primes) -> bool:
    """A Chernick number must come back Carmichael, composite, with the
    primes it was built from, and not as a counterexample."""
    try:
        verdict = json.loads(text)
    except json.JSONDecodeError:
        return False
    n = math.prod(primes)
    return (
        verdict["n"] == n
        and verdict["prime"] is False
        and verdict["factors"] == [[p, 1] for p in sorted(primes)]
        and verdict["is_carmichael"] is True
        and verdict["phi"] == math.prod(p - 1 for p in primes)
        and verdict["phi_divides"] is False
        and verdict["counterexample"] is False
        and isinstance(verdict["min_k"], int)
        and verdict["min_k"] >= 2
    )


WORKLOADS = {w.name: w for w in (ScanCheckpoint, ScanWindow, CarmichaelBatch, Queries)}
