import contextlib
import itertools
import json
import os
import tempfile
import tracemalloc
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lehmer_psi.scan as scan_module
from conftest import csv_row, json_row
from lehmer_psi import cli
from lehmer_psi.arith import DomainError, euler_phi, factor
from lehmer_psi.scan import (
    CSV_HEADER,
    CheckpointError,
    CounterexampleFound,
    REPORT_KEYS,
    SCAN_LIMIT,
    ScanCheckpoint,
    batch_verdicts,
    hit_row,
    jsonl_line,
    read_checkpoint,
    row_affixes,
    scan_totient_divisibility,
    verdict_row,
    verify_constants,
    write_checkpoint,
)
from lehmer_psi.sieve import primes_upto


def _with_crc(payload) -> str:
    """A checkpoint document for payload with a CRC that matches it."""
    import zlib

    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return json.dumps({"payload": payload, "crc32": zlib.crc32(blob.encode())})


@cache
def _brute_force_hits(hi: int) -> tuple:
    """(n, k, k != 1) for every n in [2, hi] with phi(n) | (n - 1), k = (n - 1) / phi(n)."""
    hits = []
    for n in range(2, hi + 1):
        phi = euler_phi(factor(n))
        if (n - 1) % phi == 0:
            hits.append((n, (n - 1) // phi, (n - 1) // phi != 1))
    return tuple(hits)


_real_segment_hits = scan_module._segment_hits


class _SegmentFailsAt:
    """_segment_hits, except that it raises on one window."""

    def __init__(self, bounds):
        self.bounds = bounds

    def __call__(self, bounds):
        if bounds == self.bounds:
            raise RuntimeError("segment failed")
        return _real_segment_hits(bounds)


def _hit_at(n):
    """A _segment_hits that reports n as a composite hit, and nothing else."""
    return lambda bounds: [n] if bounds[0] <= n <= bounds[1] else []


class TestScan:
    def test_primes_to_100(self):
        cp = scan_totient_divisibility(2, 100)
        assert len(cp.hits) == 25
        assert all(not composite for _, _, composite in cp.hits)
        assert all(k == 1 for _, k, _ in cp.hits)
        assert [n for n, _, _ in cp.hits][:5] == [2, 3, 5, 7, 11]

    def test_561_not_a_hit(self):
        cp = scan_totient_divisibility(561, 561)
        assert cp.hits == ()

    def test_hits_match_direct_totient_divisibility(self):
        cp = scan_totient_divisibility(2, 3000, segment_size=257)
        assert list(cp.hits) == list(_brute_force_hits(3000))

    def test_partition_and_job_independence(self):
        whole = scan_totient_divisibility(2, 20_000)  # one segment
        small = scan_totient_divisibility(2, 20_000, segment_size=997)
        larger = scan_totient_divisibility(2, 20_000, segment_size=4096)
        assert whole.hits == small.hits == larger.hits

    def test_the_scan_starts_no_process(self, monkeypatch, capsys):
        import multiprocessing.process

        def refuse(*args, **kwargs):
            raise AssertionError("the scan started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        hi = 1 << 23  # 32 segments
        primes = len(primes_upto(hi))
        assert scan_totient_divisibility(2, hi).hit_count() == primes == 564_163
        assert cli.main(["scan", "--from", "2", "--to", str(hi)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"scanned [2, {hi}]: {primes} hits, 0 composite\n")
        assert out.count("\n") == 1 + primes

    def test_range_validation(self):
        with pytest.raises(DomainError):
            scan_totient_divisibility(1, 10)
        with pytest.raises(DomainError):
            scan_totient_divisibility(50, 10)
        with pytest.raises(DomainError):
            scan_totient_divisibility(SCAN_LIMIT, SCAN_LIMIT + 1)

    @pytest.mark.parametrize(
        "options",
        [
            {"segment_size": 0},
            {"segment_size": -5},
            {"segment_size": 1 << 30},
            {"segment_size": (1 << 22) + 1},
        ],
    )
    def test_job_and_segment_counts_validated(self, options):
        with pytest.raises(DomainError):
            scan_totient_divisibility(2, 100, **options)

    def test_segment_memory_at_the_scan_limit(self):
        # a 2^20 window below SCAN_LIMIT; the int32 totient kernel holds phi,
        # smooth and rem at once, 12 MiB
        tracemalloc.start()
        try:
            scan_module._segment_hits((SCAN_LIMIT - (1 << 20) + 1, SCAN_LIMIT))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak

    def test_cli_scan_memory_does_not_grow_with_the_range(self):
        # cli scan writes the rows of one HIT_WINDOW prime window at a time,
        # in chunks, and frees its list before the next window is sieved;
        # printing from the hits tuple peaked at 8.6 MiB at 10^6 and at
        # 30 MiB at 4*10^6, one Python tuple per prime
        class LineCount:
            lines = 0

            def write(self, text):
                self.lines += text.count("\n")

        peaks = {}
        for hi, primes in ((10**6, 78_498), (4 * 10**6, 283_146)):
            sink = LineCount()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(sink):
                    assert cli.main(["scan", "--from", "2", "--to", str(hi), "--format", "json"]) == 0
                peaks[hi] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sink.lines == primes
        assert max(peaks.values()) < 8 << 20, peaks
        assert peaks[4 * 10**6] <= 1.5 * peaks[10**6], peaks

    def test_cli_large_verdict_memory(self):
        # lehmer-check states one binding inequality per world and one range
        # line for the 14 425 excluded k; a JSON row per k, built as a dict
        # and passed to json.dumps, peaked at 26.2 MiB for 4.18 MB, and a rule
        # line per k took 0.80 MB under a 20 MiB gate
        class ByteCount:
            size = 0

            def write(self, text):
                self.size += len(text)

        sink = ByteCount()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert cli.main(["lehmer-check", "6178246534322281"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size == 942
        assert peak < 1 << 20, peak

    def test_cli_symbolic_min_k_memory(self):
        # the witness floor of q = 10007 is a ratio of two integers of about
        # 8 172 digits; its 1 429 excluded k are decided against it by
        # cross-multiplication, so no floor pair of that size is kept per k
        class ByteCount:
            size = 0

            def write(self, text):
                self.size += len(text)

        sink = ByteCount()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert cli.main(["min-k", "--profile", "q=10007"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size == 76_493
        assert peak < 2 << 20, peak

    def test_prime_rows_cross_checked_against_the_totient_kernel(self, monkeypatch):
        original = scan_module.totient_range

        def corrupted(lo, hi):
            phi = original(lo, hi)
            if lo <= 97 <= hi:
                phi[97 - lo] += 2  # the prime 97 is no longer a hit
            return phi

        monkeypatch.setattr(scan_module, "totient_range", corrupted)
        assert scan_totient_divisibility(2, 96).hits == _brute_force_hits(96)
        with pytest.raises(RuntimeError, match="disagree"):
            scan_totient_divisibility(2, 200, segment_size=50)


class TestScanProperties:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        bounds=st.lists(st.integers(2, 5000), min_size=2, max_size=2, unique=True).map(sorted),
        segment_size=st.integers(1, 600),
        cut=st.integers(1, 10**6),
    )
    def test_resume_at_any_segment_matches_brute_force(self, bounds, segment_size, cut):
        lo, hi = bounds
        whole = scan_totient_divisibility(lo, hi, segment_size=segment_size)
        nseg = -(-(hi - lo + 1) // segment_size)
        cut = cut % nseg + 1  # interrupt after this many segments, 1..nseg

        class Stop(Exception):
            pass

        done = 0

        def interrupt(cp):
            nonlocal done
            done += 1
            if done == cut:
                raise Stop

        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "cp.json")
            with pytest.raises(Stop):
                scan_totient_divisibility(
                    lo, hi, segment_size=segment_size, checkpoint_path=path, on_segment=interrupt
                )
            resumed = scan_totient_divisibility(
                lo, hi, read_checkpoint(path), segment_size=segment_size
            )
        assert resumed.hits == whole.hits
        assert resumed.to_json() == whole.to_json()
        assert whole.hits == tuple(h for h in _brute_force_hits(hi) if h[0] >= lo)


class TestCheckpoint:
    def test_roundtrip_identity(self):
        cp = ScanCheckpoint(lo=2, hi=100, next=50)
        assert ScanCheckpoint.from_json(cp.to_json()) == cp

    def test_crc_corruption_detected(self):
        cp = ScanCheckpoint(lo=2, hi=100, next=50)
        doc = json.loads(cp.to_json())
        doc["payload"]["next"] = 51
        with pytest.raises(CheckpointError):
            ScanCheckpoint.from_json(json.dumps(doc))

    def test_schema_version_checked(self):
        cp = ScanCheckpoint(lo=2, hi=100, next=50)
        doc = json.loads(cp.to_json())
        doc["payload"]["schema_version"] = 99
        import zlib

        blob = json.dumps(doc["payload"], separators=(",", ":"), sort_keys=True)
        doc["crc32"] = zlib.crc32(blob.encode())
        with pytest.raises(CheckpointError):
            ScanCheckpoint.from_json(json.dumps(doc))

    def test_unreadable_document(self):
        with pytest.raises(CheckpointError):
            ScanCheckpoint.from_json("{not json")

    def test_version_1_document_rejected(self):
        payload = {"schema_version": 1, "lo": 2, "hi": 10, "next": 11,
                   "hits": [[2, 1, False], [3, 1, False], [5, 1, False], [7, 1, False]]}
        with pytest.raises(CheckpointError, match="schema_version 1"):
            ScanCheckpoint.from_json(_with_crc(payload))

    def test_version_2_document_rejected(self):
        # schema 2 added composite hits, which a scan now never records
        payload = {"schema_version": 2, "lo": 2, "hi": 10, "next": 11, "composites": []}
        with pytest.raises(CheckpointError, match="schema_version 2"):
            ScanCheckpoint.from_json(_with_crc(payload))

    @pytest.mark.parametrize("key", ["lo", "hi", "next"])
    def test_missing_key_with_valid_crc(self, key):
        cp = ScanCheckpoint(lo=2, hi=100, next=50)
        assert ScanCheckpoint.from_json(_with_crc(cp.payload())) == cp
        payload = cp.payload()
        del payload[key]
        with pytest.raises(CheckpointError):
            ScanCheckpoint.from_json(_with_crc(payload))

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"schema_version": 3, "lo": 2, "hi": 9, "next": 2, "composites": [[4, 3]]},
            {"schema_version": 3, "lo": 2, "hi": 100, "next": 50.5},
            {"schema_version": 3, "lo": "2", "hi": 100, "next": 50},
            {"schema_version": 3, "lo": 2, "hi": 1000.0, "next": 1000},
            {"schema_version": 3, "lo": 2, "hi": 1000, "next": True},
        ],
    )
    def test_malformed_payload_with_valid_crc(self, payload):
        with pytest.raises(CheckpointError) as err:
            ScanCheckpoint.from_json(_with_crc(payload))
        assert "unsupported schema_version" not in str(err.value)  # past the schema check

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        bounds=st.lists(st.integers(2, 10**9), min_size=3, max_size=3).map(sorted),
    )
    def test_altered_payload_raises_only_checkpoint_error(self, data, bounds):
        lo, next_, hi = bounds
        payload = ScanCheckpoint(lo=lo, hi=hi, next=next_).payload()
        key = data.draw(st.sampled_from(sorted(payload)))
        change = data.draw(st.sampled_from(["drop", "retype", "extra"]))
        if change == "drop":
            del payload[key]
        elif change == "retype":
            payload[key] = data.draw(
                st.none() | st.booleans() | st.text(max_size=3)
                | st.lists(st.integers(), max_size=2) | st.floats(allow_nan=False)
                | st.dictionaries(st.text(max_size=2), st.integers())
            )
        else:
            extra = data.draw(st.dictionaries(st.text(max_size=8), st.integers() | st.none(),
                                              min_size=1))
            payload.update({k: v for k, v in extra.items() if k not in payload}
                           or {"composites": []})
        with pytest.raises(CheckpointError):
            ScanCheckpoint.from_json(_with_crc(payload))

    def test_field_invariants(self):
        with pytest.raises(CheckpointError):
            ScanCheckpoint(lo=10, hi=20, next=5)
        with pytest.raises(CheckpointError):
            ScanCheckpoint(lo=2, hi=20, next=22)

    def test_write_failure_names_the_checkpoint_path(self, tmp_path):
        path = str(tmp_path / "missing-dir" / "cp.json")
        with pytest.raises(OSError) as err:
            write_checkpoint(ScanCheckpoint(lo=2, hi=10, next=2), path)
        assert str(err.value).startswith(f"cannot write checkpoint to {path}: ")

    def test_file_roundtrip(self, tmp_path):
        cp = ScanCheckpoint(lo=2, hi=10, next=11)
        path = str(tmp_path / "cp.json")
        write_checkpoint(cp, path)
        assert read_checkpoint(path) == cp

    def test_iter_hits_across_windows_from_lo_above_2(self, monkeypatch):
        lo = 1001
        edge = lo + scan_module.HIT_WINDOW  # the first integer of the second window
        cp = ScanCheckpoint(lo=lo, hi=edge + 5000, next=edge + 5001)
        reference = [(p, 1, False) for p in primes_upto(edge + 5000, lo).tolist()]
        assert list(cp.iter_hits()) == list(cp.hits) == reference
        assert cp.hit_count() == len(reference)
        monkeypatch.setattr(scan_module, "HIT_WINDOW", 97)
        cp = ScanCheckpoint(lo=3, hi=5000, next=4001)
        assert list(cp.iter_hits()) == [h for h in _brute_force_hits(4000) if h[0] >= 3]
        assert cp.hit_count() == len(list(cp.iter_hits()))

    def test_prime_counts_through_the_hit_windows(self):
        # pi(10^k) for k = 1..8 (OEIS A006880): the prime rows of a finished
        # scan, counted from the same HIT_WINDOW sieves that render them
        counts = [ScanCheckpoint(lo=2, hi=10**k, next=10**k + 1).hit_count() for k in range(1, 9)]
        assert counts == [4, 25, 168, 1_229, 9_592, 78_498, 664_579, 5_761_455]

    def test_finished_checkpoint_size_is_constant(self, tmp_path):
        sizes = {}
        for hi in (10**3, 10**6):
            path = str(tmp_path / f"cp{hi}.json")
            scan_totient_divisibility(2, hi, checkpoint_path=path)
            cp = read_checkpoint(path)
            assert cp.next == hi + 1
            crc_digits = len(str(json.loads(Path(path).read_text())["crc32"]))
            sizes[hi] = os.path.getsize(path) - crc_digits
        assert sizes[10**6] - sizes[10**3] == 6  # three more digits in each of hi and next
        assert sizes[10**6] + 10 <= 200

    def test_resume_range_mismatch_rejected(self):
        cp = ScanCheckpoint(lo=2, hi=100, next=50)
        with pytest.raises(CheckpointError):
            scan_totient_divisibility(2, 200, cp)

    def test_interrupt_resume_identical(self, tmp_path):
        path = str(tmp_path / "cp.json")
        uninterrupted = scan_totient_divisibility(2, 10_000, segment_size=512)

        class Stop(Exception):
            pass

        segments_done = 0

        def interrupt(cp):
            nonlocal segments_done
            segments_done += 1
            if segments_done == 7:
                raise Stop

        with pytest.raises(Stop):
            scan_totient_divisibility(
                2, 10_000, segment_size=512, checkpoint_path=path, on_segment=interrupt
            )
        partial = read_checkpoint(path)
        assert partial.next < 10_001
        resumed = scan_totient_divisibility(
            2, 10_000, partial, segment_size=512, checkpoint_path=path
        )
        assert resumed.hits == uninterrupted.hits
        assert resumed.to_json() == uninterrupted.to_json()
        assert read_checkpoint(path) == resumed


class TestCheckpointWritePolicy:
    """Writes happen at most once per CHECKPOINT_INTERVAL of the loop's
    clock, at the end, and whenever an exception leaves the loop. The clock is
    replaced, so no test sleeps."""

    LO, HI, SEGMENT = 2, 6145, 512  # 12 segments
    FINISHED = (
        '{"crc32":2073854070,"payload":{"hi":6145,"lo":2,"next":6146,"schema_version":3}}'
    )

    @pytest.fixture
    def writes(self, monkeypatch):
        """The checkpoints passed to write_checkpoint, in order."""
        calls = []

        def counting(cp, path):
            calls.append(cp)
            write(cp, path)

        write = scan_module.write_checkpoint
        monkeypatch.setattr(scan_module, "write_checkpoint", counting)
        return calls

    @pytest.fixture
    def clock(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(scan_module, "_clock", lambda: now[0])
        return now

    def scan(self, path, **kwargs):
        return scan_totient_divisibility(
            self.LO, self.HI, segment_size=self.SEGMENT, checkpoint_path=path, **kwargs
        )

    def test_scan_within_the_interval_writes_once_at_the_end(self, tmp_path, writes, clock):
        path = tmp_path / "cp.json"
        cp = self.scan(str(path))
        assert writes == [cp] and cp.next == self.HI + 1
        assert path.read_text() == self.FINISHED

    def test_one_write_per_segment_when_each_takes_an_interval(
        self, tmp_path, monkeypatch, writes
    ):
        ticks = itertools.count()  # an interval passes between any two readings
        monkeypatch.setattr(
            scan_module, "_clock", lambda: next(ticks) * scan_module.CHECKPOINT_INTERVAL
        )
        path = tmp_path / "cp.json"
        self.scan(str(path))
        ends = [end for _, end in scan_module.segments(self.LO, self.HI, self.SEGMENT)]
        assert [cp.next for cp in writes] == [end + 1 for end in ends]
        assert path.read_text() == self.FINISHED

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_exception_from_on_segment_leaves_its_cp_on_disk(self, tmp_path, writes, clock, error):
        seen = []

        def interrupt(cp):
            seen.append(cp)
            if len(seen) == 5:
                raise error

        path = tmp_path / "cp.json"
        with pytest.raises(error):
            self.scan(str(path), on_segment=interrupt)
        assert writes == [seen[-1]]
        assert path.read_text() == seen[-1].to_json()

    @pytest.mark.parametrize("j", [1, 2, 7])
    def test_exception_from_segment_j_leaves_segment_j_minus_1(
        self, tmp_path, monkeypatch, writes, clock, j
    ):
        failed = scan_module.segments(self.LO, self.HI, self.SEGMENT)[j - 1]
        monkeypatch.setattr(scan_module, "_segment_hits", _SegmentFailsAt(failed))
        path = tmp_path / "cp.json"
        with pytest.raises(RuntimeError, match="segment failed"):
            self.scan(str(path))
        if j == 1:  # no segment completed: nothing to write
            assert writes == [] and not path.exists()
        else:
            assert read_checkpoint(str(path)).next == failed[0]
            assert len(writes) == 1

    def test_a_failed_write_is_not_retried(self, tmp_path, monkeypatch):
        attempts = []

        def failing(cp, path):
            attempts.append(cp)
            raise OSError(f"cannot write checkpoint to {path}: disk full")

        monkeypatch.setattr(scan_module, "write_checkpoint", failing)
        ticks = itertools.count()  # an interval passes between any two readings
        monkeypatch.setattr(
            scan_module, "_clock", lambda: next(ticks) * scan_module.CHECKPOINT_INTERVAL
        )
        with pytest.raises(OSError, match="disk full"):
            self.scan(str(tmp_path / "cp.json"))
        assert len(attempts) == 1


class TestCounterexampleAbort:
    def test_composite_hit_aborts_loudly(self, tmp_path, monkeypatch):
        # impossible in reality; injected
        monkeypatch.setattr(scan_module, "_segment_hits", _hit_at(561))
        path = str(tmp_path / "cp.json")
        with pytest.raises(CounterexampleFound) as err:
            scan_totient_divisibility(2, 1000, segment_size=100, checkpoint_path=path)
        assert err.value.n == 561
        assert err.value.verdict.is_carmichael
        # the segments before the hit were persisted before the abort, and no more
        cp = read_checkpoint(path)
        assert cp.next == 502 and cp.hits == _brute_force_hits(501)


# report rows of the schema's types: strings with quotes, backslashes, control
# characters and non-ASCII text, ints of up to 3001 digits, and None anywhere
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t;,') | st.characters(), max_size=12)
_INT = st.integers(-(10**3000), 10**3000) | st.integers(-(10**6), 10**6)
_ROWS = st.tuples(
    st.none() | _TEXT,  # type
    st.none() | _INT,  # n
    st.none() | _INT,  # exact_k
    st.none() | _INT,  # min_k
    st.none() | st.lists(_TEXT, max_size=4),  # rules
    st.none() | _TEXT,  # lhs
    st.none() | _TEXT,  # rhs
)


def _csv_line(row: tuple) -> str:
    """row as CSV from its cached affixes, as cli scan writes a prime row."""
    pre, post = row_affixes(row, "csv")
    return pre + ("" if row[1] is None else str(row[1])) + post


# a renderer that fills a rendered placeholder n (a NUL, a digit run) and
# splits there breaks on a cell that holds the same text
_SPLIT_TRAPS = [
    ("a\x00b", 0, 1, None, ["\x00", "0"], "1,2", '"x"'),
    ("123456789", 123456789, 123456789, 123, ("123456789", "9;8"), "123456789", "0"),
    ("0123456789" * 3, 0, 9, 99, ["-1"], "-1", "1" * 30),
    ('"', None, 0, None, [], ",", "\x00\x00"),
    ("", -1, None, -1, ['a"b', ","], "", None),
    ("\x00", 10**40, 10**40, 10**40, None, "\x00" + "1" * 40, "10" * 20),
]


class TestReports:
    @settings(max_examples=300, deadline=None)
    @given(row=_ROWS)
    def test_jsonl_line_matches_json_dumps(self, row):
        assert jsonl_line(row) == json_row(row)

    @settings(max_examples=300, deadline=None)
    @given(row=_ROWS)
    def test_csv_affixes_match_the_untyped_renderer(self, row):
        assert _csv_line(row) == csv_row(row)

    @pytest.mark.parametrize("row", _SPLIT_TRAPS, ids=range(len(_SPLIT_TRAPS)))
    def test_affixes_hold_cells_that_look_like_a_placeholder(self, row):
        pre, post = row_affixes(row, "json")
        assert jsonl_line(row) == json_row(row)
        assert pre + ("null" if row[1] is None else str(row[1])) + post == json_row(row)
        assert _csv_line(row) == csv_row(row)

    def test_rules_cache_is_bounded_and_changes_no_output(self):
        cap = scan_module.RULES_CACHE_SIZE
        scan_module._affixes.cache_clear()
        rows = [("verdict", i, None, i, [f"rule-{i}", 'q"' + str(i)], None, None)
                for i in range(cap + 50)]
        for _ in range(2):  # the second pass renders shapes the cache evicted
            for row in rows:
                as_tuple = row[:4] + (tuple(row[4]),) + row[5:]
                assert jsonl_line(row) == jsonl_line(as_tuple) == json_row(row)
                assert _csv_line(row) == _csv_line(as_tuple) == csv_row(row)
        assert scan_module._affixes.cache_info().currsize == cap

    def test_jsonl_key_order(self):
        row = hit_row((7, 1, False))
        line = jsonl_line(row)
        assert list(json.loads(line).keys()) == list(REPORT_KEYS)

    def test_csv_mirrors_columns(self):
        assert CSV_HEADER.split(",") == list(REPORT_KEYS)
        row = hit_row((7, 1, False))
        cells = _csv_line(row).split(",")
        assert cells[0] == "hit" and cells[1] == "7"

    def test_verdict_row(self):
        from lehmer_psi.engine import lehmer_check

        row = verdict_row(lehmer_check(2465))
        assert len(row) == len(REPORT_KEYS)
        row = dict(zip(REPORT_KEYS, row))
        assert row["type"] == "verdict"
        assert row["n"] == 2465
        assert row["min_k"] == 3
        assert row["exact_k"] is None
        assert "/" in row["lhs"] and "/" in row["rhs"]


class TestBatchVerdicts:
    def test_single_carmichael(self, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        verdicts, distribution = batch_verdicts(561, path=path)
        assert [v.n for v in verdicts] == [561]
        assert distribution == {4: 1}
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["n"] == 561

    def test_empty_below_561(self):
        verdicts, distribution = batch_verdicts(500)
        assert verdicts == [] and distribution == {}

    def test_sixteen_verdict_lines_to_1e5(self, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        verdicts, distribution = batch_verdicts(100_000, path=path)
        assert len(verdicts) == 16
        assert all(v.min_k >= 3 for v in verdicts)
        # concrete chains use the candidate's actual divisor structure, so
        # floors sharpen beyond the profile-level guarantees (the k=2..6
        # exclusions for 29341 = 13*37*61 reproduce by hand with split {13}
        # and tail 37); frozen from the engine after that hand check
        assert distribution == {3: 2, 4: 8, 5: 2, 6: 1, 7: 2, 10: 1}
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 16
        assert json.loads(lines[0])["n"] == 561
        assert json.loads(lines[0])["min_k"] == 4

    def test_bound_validation(self):
        with pytest.raises(DomainError):
            batch_verdicts(1)
        with pytest.raises(DomainError):
            batch_verdicts(10**8)

    def test_io_failure_carries_path(self, tmp_path):
        bad = str(tmp_path / "missing-dir" / "out.jsonl")
        with pytest.raises(OSError) as err:
            batch_verdicts(561, path=bad)
        assert "out.jsonl" in str(err.value)


class TestVerifyConstants:
    def test_all_pass(self):
        checks = verify_constants()
        failed = [c.check_id for c in checks if not c.passed]
        assert failed == []

    def test_expected_failures_pinned(self):
        by_id = {c.check_id: c for c in verify_constants()}
        assert by_id["upper-vi-as-printed-l3"].expected_failure
        assert by_id["upper-vi-as-printed-l3"].passed
        assert by_id["witness-floor-as-stated-5"].expected_failure
        assert by_id["witness-floor-as-stated-5"].passed

    def test_check_ids_cover_the_catalog(self):
        ids = {c.check_id for c in verify_constants()}
        assert {
            "ratio-7-11",
            "ratio-13-21",
            "ratio-27-43",
            "upper-ii-at-2",
            "two-power-threshold-1",
            "two-power-threshold-2",
            "two-power-threshold-3",
            "two-power-threshold-4",
            "exclusion-threshold-3-2",
            "refined-5",
            "refined-5-7",
            "abundancy-24",
            "abundancy-715715",
            "ladder-divergence-17",
            "k2-exclusion-range",
        } <= ids

    def test_rows_serialize(self):
        for check in verify_constants():
            row = check.row()
            assert len(row) == len(REPORT_KEYS)
            assert dict(zip(REPORT_KEYS, row))["type"] == "constant-check"
            json.loads(jsonl_line(row))
