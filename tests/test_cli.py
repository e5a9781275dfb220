import argparse
import functools
import gc
import json
import time
import tracemalloc

import pytest

from conftest import csv_row, json_row
from lehmer_psi import bounds, cli, engine, groups
from lehmer_psi.scan import CSV_HEADER, ConstantCheck, hit_row, jsonl_line


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "561")
        assert code == 0
        assert out.strip() == "561 = 3 * 11 * 17"

    def test_factor_json(self, capsys):
        code, out, _ = run(capsys, "factor", "12", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 12, "factors": [[2, 2], [3, 1]]}

    def test_phi_sigma(self, capsys):
        assert run(capsys, "phi", "561")[1].strip() == "320"
        assert run(capsys, "sigma", "561")[1].strip() == "864"

    # two primes near 10^29: far past what Brent rho finds within its step budget
    HARD_SEMIPRIME = "10000000000000000000000000069800000000000000000000000120901"

    @pytest.mark.parametrize(
        "argv",
        [["factor", HARD_SEMIPRIME], ["psi", "--group", "C" + HARD_SEMIPRIME]],
        ids=["factor", "psi"],
    )
    def test_factoring_past_the_rho_budget_exits_2(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 10
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Brent rho steps" in err and "Traceback" not in err

    def test_psi_group(self, capsys):
        code, out, _ = run(capsys, "psi", "--group", "Q8 x C3")
        assert code == 0
        assert out.strip() == "189"

    def test_psi_json_has_exact_ratios(self, capsys):
        _, out, _ = run(capsys, "psi", "--group", "Q8", "--format", "json")
        doc = json.loads(out)
        assert doc["psi"] == 27
        assert doc["psi_prime"] == "27/43"
        assert doc["spectrum"] == {"1": 1, "2": 1, "4": 6}

    def test_carmichael_single(self, capsys):
        code, out, _ = run(capsys, "carmichael", "561")
        assert code == 0 and "carmichael" in out

    def test_carmichael_range_past_limit_exits_2(self, capsys):
        code, out, err = run(capsys, "carmichael", "--from", "9999990", "--to", "10000001")
        assert code == 2
        assert err.startswith("error:") and "10000000" in err
        assert out == ""

    @pytest.mark.parametrize(
        "bounds", [("--from", "2", "--to", "2000"), ("--from", "2"), ("--to", "2000")],
        ids=["both", "from", "to"],
    )
    def test_carmichael_n_with_a_range_exits_2(self, capsys, bounds):
        code, out, err = run(capsys, "carmichael", "561", *bounds)
        assert code == 2
        assert err.startswith("error:") and "not both" in err
        assert out == ""

    def test_carmichael_range(self, capsys):
        code, out, _ = run(capsys, "carmichael", "--from", "2", "--to", "2000")
        assert code == 0
        assert out.split() == ["561", "1105", "1729"]

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "--group", "C2 x C2 x C3")
        assert code == 0
        assert "upper-i" in out

    def test_bounds_json(self, capsys):
        _, out, _ = run(capsys, "bounds", "--group", "Q8 x C5", "--format", "json")
        doc = json.loads(out)
        by_id = {b["bound_id"]: b for b in doc["bounds"]}
        assert by_id["upper-iv"]["equality"] is True

    @pytest.mark.parametrize("command", ["psi", "bounds"])
    def test_json_query_walks_the_spectrum_once(self, capsys, monkeypatch, command):
        walks = []
        walk = groups.Product.spectrum_map

        def counted(self):
            walks.append(self)
            return walk(self)

        monkeypatch.setattr(groups.Product, "spectrum_map", counted)
        code, _, _ = run(capsys, command, "--group", "C2 x C2 x C15", "--format", "json")
        assert code == 0
        assert len(walks) == 1

    def test_bounds_factors_the_order_once(self, capsys, monkeypatch):
        # the odd part's factorization comes from the order's
        calls = []
        factor = bounds.factor

        def counted(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(bounds, "factor", counted)
        code, _, _ = run(capsys, "bounds", "--group", "C2 x C2 x C15", "--format", "json")
        assert code == 0
        assert calls == [60]


class TestLehmerCommands:
    def test_lehmer_check_defaults_to_json(self, capsys):
        code, out, _ = run(capsys, "lehmer-check", "561")
        assert code == 0
        doc = json.loads(out)
        assert doc["min_k"] == 4
        assert doc["is_carmichael"] is True

    def test_lehmer_check_text(self, capsys):
        code, out, _ = run(capsys, "lehmer-check", "561", "--format", "text")
        assert code == 0
        assert "proven k floor: 4" in out
        # 3 does not divide 1105, so its k floor rests on a chain exclusion
        # under the stated witness floor, which fails for 1105
        code, out, _ = run(capsys, "lehmer-check", "1105", "--format", "text")
        assert code == 0
        assert "proven" not in out
        assert "k floor (assumes stated witness floor phi(n)/(2n)): 3" in out
        # no floor is derived for a composite that is not squarefree or even
        for n, why in (("9", "not squarefree"), ("12", "even")):
            code, out, _ = run(capsys, "lehmer-check", n, "--format", "text")
            assert code == 0
            assert "proven" not in out and "None" not in out.splitlines()[3]
            assert f"no k floor derived: n is {why}" in out

    def test_sweep_guard_exits_2(self, capsys, monkeypatch):
        # 211 * 421 * 631 has min_k 32, past a guard of 5
        monkeypatch.setattr(engine, "_SWEEP_GUARD", 5)
        code, out, err = run(capsys, "lehmer-check", "56052361")
        assert code == 2
        assert err.startswith("error:") and "guard" in err and "Traceback" not in err
        assert out == ""

    def test_floor_past_guard_exits_2_fast(self, capsys):
        # 702067 * 1404133 * 2106199: its k floor (100297) lies past the
        # guard, which the closed form sees without sweeping up to it
        start = time.perf_counter()
        code, out, err = run(capsys, "lehmer-check", "2076281376063705289")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        guard = engine._SWEEP_GUARD
        assert err == f"error: k floor 100297 lies past the exclusion sweep's guard of k < {guard}\n"

    def test_precision_option_is_gone(self, capsys):
        for argv in (
            ["lehmer-check", "561", "--format", "text", "--precision", "3"],
            ["psi", "--group", "C4", "--precision", "3"],
        ):
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
            assert err.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "lehmer-check", "561", "--format", "text")
        assert code == 0
        assert "/pi^2 ≈ 3.468256952\n" in out

    def test_min_k_profile(self, capsys):
        code, out, _ = run(capsys, "min-k", "--profile", "q=5, 7|n, 13|n")
        assert code == 0
        assert "min_k = 3" in out

    def test_min_k_generic_json(self, capsys):
        code, out, _ = run(capsys, "min-k", "--format", "json")
        doc = json.loads(out)
        assert doc["min_k"] == 3
        assert doc["profile"] == "generic"

    def test_min_k_unicode_not_divides(self, capsys):
        code, out, _ = run(capsys, "min-k", "--profile", "3∤n")
        assert code == 0
        assert "min_k = 3" in out

    def test_min_k_bad_profile(self, capsys):
        code, _, err = run(capsys, "min-k", "--profile", "wat")
        assert code == 2
        assert "wat" in err

    def test_min_k_conflicting_q_exits_2(self, capsys):
        code, out, err = run(capsys, "min-k", "--profile", "q=19, q=23")
        assert (code, out) == (2, "")
        assert err.startswith("error: conflicting q") and "Traceback" not in err
        repeated = run(capsys, "min-k", "--profile", "q=19, q=19")
        assert repeated == run(capsys, "min-k", "--profile", "q=19")
        assert repeated[0] == 0

    # a number is plain digits: int() read the last five, describe() never prints them
    @pytest.mark.parametrize("spec", ["q=abc", "x|n", "q=", "q=+5", "q= 5", "3 |n", "+3|n", "q=1_7"])
    def test_min_k_non_numeric_profile_token_exits_2(self, capsys, spec):
        code, out, err = run(capsys, "min-k", "--profile", f"3!|n, {spec}")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and repr(spec) in err and "Traceback" not in err


class TestScanCommand:
    def test_scan_text(self, capsys):
        code, out, _ = run(capsys, "scan", "--from", "2", "--to", "100")
        assert code == 0
        assert out.splitlines()[0] == "scanned [2, 100]: 25 hits, 0 composite"

    def test_scan_jsonl(self, capsys):
        code, out, _ = run(capsys, "scan", "--from", "2", "--to", "30", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in rows] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert all(list(r.keys()) == ["type", "n", "exact_k", "min_k", "rules", "lhs", "rhs"] for r in rows)

    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "scan", "--from", "2", "--to", "10", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "type,n,exact_k,min_k,rules,lhs,rhs"
        assert len(lines) == 5  # header + 2,3,5,7

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_scan_rows_are_rendered_as_printed(self, capsys, monkeypatch, fmt):
        # each prime window's rows are written before the next window is
        # sieved, and no list of an earlier window is still alive then
        import lehmer_psi.scan as scan_module

        argv = ["scan", "--from", "2", "--to", "5000", "--format", fmt]
        whole = run(capsys, *argv)
        monkeypatch.setattr(scan_module, "HIT_WINDOW", 700)  # rows from 8 prime windows
        events = []
        scan, sieve, emit = cli.scan_totient_divisibility, scan_module.primes_upto, cli._emit

        def scanned(*args, **kwargs):
            cp = scan(*args, **kwargs)
            events.append("scanned")
            return cp

        def sieved(hi, lo=2):
            if "scanned" in events:
                windows = [e for e in events if isinstance(e, tuple)]
                if windows:
                    previous = sieve(windows[-1][2], windows[-1][1]).tolist()
                    alive = [o for o in gc.get_objects()
                             if type(o) is list and o is not previous and o == previous]
                    assert alive == []
                events.append(("sieve", lo, hi))
            return sieve(hi, lo)

        def emitted(line=""):
            events.append(line)
            emit(line)

        monkeypatch.setattr(cli, "scan_totient_divisibility", scanned)
        monkeypatch.setattr(scan_module, "primes_upto", sieved)
        monkeypatch.setattr(cli, "_emit", emitted)
        assert run(capsys, *argv) == whole
        rows = events[events.index("scanned") + 1 + (fmt == "csv"):]
        windows = []
        for event in rows:
            if isinstance(event, tuple):
                windows.append((event, []))
            else:
                windows[-1][1].extend(event.split("\n"))
        assert [w[0] for w in windows] == [("sieve", lo, min(lo + 699, 5000))
                                           for lo in range(2, 5001, 700)]
        for (_, lo, hi), lines in windows:
            ns = [json.loads(line)["n"] if fmt == "json" else int(line.split(",")[1])
                  for line in lines]
            assert ns == sieve(hi, lo).tolist()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("span", ["0", "1", "chunk-1", "chunk", "chunk+1", "window-edge"])
    def test_scan_chunks_match_the_per_row_renderers(self, capsys, fmt, span):
        # 0, 1 and ROW_CHUNK +- 1 primes, or a range across the first
        # HIT_WINDOW edge: the joined chunks are the per-row lines joined
        import lehmer_psi.scan as scan_module

        chunk = cli.ROW_CHUNK
        count = {"0": 0, "1": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}
        if span == "window-edge":
            lo, hi = 1000, 1000 + scan_module.HIT_WINDOW + 5000
        elif count[span] == 0:
            lo, hi = 24, 28
        else:
            lo, hi = 2, scan_module.primes_upto(50_000)[count[span] - 1]
        code, out, _ = run(capsys, "scan", "--from", str(lo), "--to", str(hi), "--format", fmt)
        rows = [hit_row((p, 1, False)) for p in scan_module.primes_upto(hi, lo).tolist()]
        assert len(rows) == count.get(span, len(rows))
        if fmt == "json":
            expected = "".join(jsonl_line(row) + "\n" for row in rows)
            assert expected == "".join(json_row(row) + "\n" for row in rows)
        else:
            expected = "".join(line + "\n" for line in [CSV_HEADER] + list(map(csv_row, rows)))
        assert (code, out) == (0, expected)

    @staticmethod
    def _segments_of_700(monkeypatch):
        # the CLI always scans in DEFAULT_SEGMENT windows; these tests need many segments
        import lehmer_psi.scan as scan_module

        scan = functools.partial(scan_module.scan_totient_divisibility, segment_size=700)
        monkeypatch.setattr(cli, "scan_totient_divisibility", scan)

    def test_scan_checkpoint_resume(self, capsys, monkeypatch, tmp_path):
        self._segments_of_700(monkeypatch)
        path = str(tmp_path / "cp.json")
        code1, out1, _ = run(capsys, "scan", "--from", "2", "--to", "5000", "--checkpoint", path)
        code2, out2, _ = run(capsys, "scan", "--from", "2", "--to", "5000", "--checkpoint", path)
        assert code1 == code2 == 0
        assert out1 == out2  # resume from a completed checkpoint is a no-op

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_scan_resumed_mid_range_prints_the_same_bytes(
        self, capsys, monkeypatch, tmp_path, fmt
    ):
        import lehmer_psi.scan as scan_module

        monkeypatch.setattr(scan_module, "HIT_WINDOW", 1000)  # rows from 20 prime windows
        self._segments_of_700(monkeypatch)
        argv = ["scan", "--from", "3", "--to", "20000", "--format", fmt]
        whole = run(capsys, *argv)
        path = str(tmp_path / "cp.json")

        class Stop(Exception):
            pass

        def cut(cp):
            if cp.next > 9000:
                raise Stop

        with pytest.raises(Stop):
            scan_module.scan_totient_divisibility(
                3, 20000, segment_size=700, checkpoint_path=path, on_segment=cut
            )
        assert scan_module.read_checkpoint(path).next == 9103  # 13 of 29 segments
        assert run(capsys, *argv, "--checkpoint", path) == whole
        code, out, _ = whole
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2261 + (fmt != "json")  # pi(20000) - 1 rows
        if fmt == "text":
            assert lines[0] == "scanned [3, 20000]: 2261 hits, 0 composite"

    def test_scan_composite_hit_exits_3(self, capsys, monkeypatch, tmp_path):
        import lehmer_psi.scan as scan_module

        monkeypatch.setattr(scan_module, "_segment_hits", lambda bounds: [561])
        code, _, err = run(capsys, "scan", "--from", "2", "--to", "600",
                           "--checkpoint", str(tmp_path / "cp.json"))
        assert code == 3
        assert "COMPOSITE" in err
        # the verdict is the JSON document lehmer-check prints, parseable as is
        verdict = err.split("verify immediately: ", 1)[1]
        assert verdict == run(capsys, "lehmer-check", "561")[1]
        assert json.loads(verdict)["n"] == 561

    def test_scan_composite_hit_exits_3_on_every_rerun(self, capsys, monkeypatch, tmp_path):
        import lehmer_psi.scan as scan_module

        self._segments_of_700(monkeypatch)
        # 2821 = 7 * 13 * 31 lies in the fifth segment, [2802, 3501]; injected
        monkeypatch.setattr(
            scan_module, "_segment_hits", lambda b: [2821] if b[0] <= 2821 <= b[1] else []
        )
        path = str(tmp_path / "cp.json")
        for _ in range(3):
            code, out, err = run(capsys, "scan", "--from", "2", "--to", "5000",
                                 "--checkpoint", path)
            assert (code, out) == (3, "")
            assert "AT n=2821;" in err
            assert scan_module.read_checkpoint(path).next == 2802

    @staticmethod
    def _checkpoint_with_crc(path, payload):
        import zlib

        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        path.write_text(json.dumps({"payload": payload, "crc32": zlib.crc32(blob.encode())}))

    def test_scan_checkpoint_missing_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        self._checkpoint_with_crc(path, {"schema_version": 3, "lo": 2, "hi": 100})
        code, out, err = run(capsys, "scan", "--from", "2", "--to", "100",
                             "--checkpoint", str(path))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert "unsupported schema_version" not in err  # past the schema check
        assert out == ""

    def test_scan_checkpoint_version_1_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        self._checkpoint_with_crc(
            path, {"schema_version": 1, "lo": 2, "hi": 100, "next": 50, "hits": [[2, 1, False]]}
        )
        code, out, err = run(capsys, "scan", "--from", "2", "--to", "100",
                             "--checkpoint", str(path))
        assert code == 2
        assert err.startswith("error:") and "schema_version 1" in err and "Traceback" not in err
        assert out == ""

    def test_scan_checkpoint_version_2_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        self._checkpoint_with_crc(
            path, {"schema_version": 2, "lo": 2, "hi": 100, "next": 50, "composites": []}
        )
        code, out, err = run(capsys, "scan", "--from", "2", "--to", "100",
                             "--checkpoint", str(path))
        assert code == 2
        assert err.startswith("error:") and "schema_version 2" in err and "Traceback" not in err
        assert out == ""

    def test_scan_checkpoint_write_failure_names_the_path(self, capsys, tmp_path):
        path = str(tmp_path / "missing-dir" / "cp.json")
        code, out, err = run(capsys, "scan", "--from", "2", "--to", "10", "--checkpoint", path)
        assert code == 2
        assert err.startswith(f"io error: cannot write checkpoint to {path}: ")
        assert out == ""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_scan_checkpoint_write_failure_over_many_segments_prints_no_row(
        self, capsys, monkeypatch, tmp_path, fmt
    ):
        self._segments_of_700(monkeypatch)
        path = str(tmp_path / "missing-dir" / "cp.json")
        code, out, err = run(capsys, "scan", "--from", "2", "--to", "5000",
                             "--format", fmt, "--checkpoint", path)
        assert code == 2
        assert err.startswith(f"io error: cannot write checkpoint to {path}: ")
        assert out == ""

    def test_scan_segment_size_above_bound_exits_2(self, capsys):
        # scan has no --segment-size: argparse rejects any value, in bound or not
        for size in (str((1 << 22) + 1), "700"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["scan", "--from", "2", "--to", "30", "--segment-size", size])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert "error:" in err and "--segment-size" in err and "Traceback" not in err
            assert out == ""

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{not utf-8", b"[" * 200_000, b"9" * 200_001],
        ids=["not-utf8", "nested-too-deep", "integer-too-long"],
    )
    def test_scan_unreadable_checkpoint_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "cp.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "scan", "--from", "2", "--to", "100",
                             "--checkpoint", str(path))
        assert code == 2
        assert err.startswith("error: unreadable checkpoint:") and "Traceback" not in err
        assert out == ""

    def test_scan_checkpoint_past_the_size_cap_exits_2(self, capsys, tmp_path):
        # a 64 MiB sparse file: read whole, it would hold 64 MiB in memory
        path = tmp_path / "cp.json"
        with open(path, "wb") as handle:
            handle.truncate(64 << 20)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "scan", "--from", "2", "--to", "10",
                                 "--checkpoint", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert err.startswith("error: unreadable checkpoint:") and "Traceback" not in err
        assert out == ""
        assert peak < 8 << 20, peak

    def test_scan_has_no_jobs_option(self, capsys):
        # the scan runs in one process, in segments it sizes itself
        with pytest.raises(SystemExit) as err:
            cli.main(["scan", "--from", "2", "--to", "30", "--jobs", "2"])
        assert err.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--jobs" in err

    def test_scan_bad_range(self, capsys):
        code, _, err = run(capsys, "scan", "--from", "50", "--to", "10")
        assert code == 2


class TestVerifyConstantsCommand:
    def test_all_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify-constants")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out.replace("expected failure", "")

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "verify-constants", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(r["type"] == "constant-check" for r in rows)

    def test_broken_check_exits_3(self, capsys, monkeypatch):
        broken = [
            ConstantCheck("demo", "always wrong", "1", "2", False),
        ]
        monkeypatch.setattr(cli, "verify_constants", lambda: broken)
        code, out, _ = run(capsys, "verify-constants")
        assert code == 3
        assert "FAIL" in out


class TestCliContract:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["no-such-command"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["factor", "12", "--bogus"])
        assert err.value.code == 2

    def test_domain_error_exits_2(self, capsys):
        # factor, not argparse, rejects 0
        code, out, message = run(capsys, "factor", "0")
        assert (code, out, message) == (2, "", "error: cannot factor 0\n")
        # a domain error raised past argparse also maps to 2
        code, _, message = run(capsys, "psi", "--group", "D5")
        assert code == 2
        assert "D5" in message or "dihedral" in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "{}"],
            ["phi", "{}"],
            ["sigma", "{}"],
            ["carmichael", "{}"],
            ["lehmer-check", "{}"],
            ["carmichael", "--from", "{}", "--to", "100"],
            ["carmichael", "--from", "2", "--to", "{}"],
            ["scan", "--from", "{}", "--to", "100"],
            ["scan", "--from", "2", "--to", "{}"],
        ],
        ids=["factor", "phi", "sigma", "carmichael-N", "lehmer-check", "carmichael-from",
             "carmichael-to", "scan-from", "scan-to"],
    )
    @pytest.mark.parametrize(
        "value", ["0", "-5", "x", "1.5", "9" * 100_001],
        ids=["zero", "negative", "word", "fraction", "past-int-limit"],
    )
    def test_bad_integer_exits_2(self, capsys, argv, value):
        # argparse reads the integer; the command's own check takes its domain
        try:
            code = cli.main([a.replace("{}", value) for a in argv])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("spec", ["C14", "D14"])
    def test_spectrum_past_limit_exits_2(self, capsys, monkeypatch, spec):
        # C14 has 4 orders and D14 has 3 (1, 2, 7): both exceed a limit of 2
        monkeypatch.setattr(groups, "SPECTRUM_LIMIT", 2)
        code, out, err = run(capsys, "psi", "--group", spec)
        assert code == 2
        assert err.startswith("error:") and "limit" in err
        assert out == ""

    def test_option_surface_is_pinned(self):
        # every subcommand's options; a new knob must be added here on purpose
        expected = {
            "factor": ["--format"],
            "phi": ["--format"],
            "sigma": ["--format"],
            "carmichael": ["--from", "--to", "--format"],
            "psi": ["--group", "--format"],
            "bounds": ["--group", "--format"],
            "lehmer-check": ["--format"],
            "min-k": ["--profile", "--format"],
            "scan": ["--from", "--to", "--checkpoint", "--format"],
            "verify-constants": ["--format"],
        }
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        surface = {
            name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
            for name, p in sub.choices.items()
        }
        assert surface == expected

    def test_machine_output_is_deterministic(self, capsys):
        runs = [run(capsys, "lehmer-check", "2465")[1] for _ in range(2)]
        assert runs[0] == runs[1]
        doc = json.loads(runs[0])
        assert doc["min_k"] == 3


class TestEnvironment:
    @pytest.mark.parametrize("env, flags", [(None, ["--jobs", "-5"]), ("4", ["--jobs", "0"])])
    def test_job_count_below_one_exits_2(self, capsys, monkeypatch, env, flags):
        # scan has no --jobs, and LEHMER_PSI_JOBS does not bring one back
        if env is None:
            monkeypatch.delenv("LEHMER_PSI_JOBS", raising=False)
        else:
            monkeypatch.setenv("LEHMER_PSI_JOBS", env)
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--from", "2", "--to", "30", *flags])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "error:" in err and "--jobs" in err and "Traceback" not in err
        assert out == ""
