import argparse
import functools
import json
import time

import pytest

from lehmer_psi import bounds, cli, engine, groups
from lehmer_psi.scan import ConstantCheck


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
        assert err == f"error: exclusion sweep reached its guard of k < {guard} without a floor\n"

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

    @pytest.mark.parametrize("spec", ["q=abc", "x|n", "q="])
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

    @pytest.mark.parametrize(
        "fmt, header", [("json", []), ("csv", ["emit"])], ids=["json", "csv"]
    )
    def test_scan_rows_are_rendered_as_printed(self, capsys, monkeypatch, fmt, header):
        events = []
        hit_row, emit = cli.hit_row, cli._emit
        monkeypatch.setattr(cli, "hit_row", lambda hit: events.append("row") or hit_row(hit))
        monkeypatch.setattr(cli, "_emit", lambda line="": events.append("emit") or emit(line))
        code, _, _ = run(capsys, "scan", "--from", "2", "--to", "30", "--format", fmt)
        assert code == 0
        assert events == header + ["row", "emit"] * 10

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

    @pytest.mark.parametrize(
        "fmt, pool",
        [(fmt, pool) for pool in (False, True) for fmt in ("text", "json", "csv")],
        ids=["text", "json", "csv", "text-pool", "json-pool", "csv-pool"],
    )
    def test_scan_resumed_mid_range_prints_the_same_bytes(
        self, capsys, monkeypatch, request, tmp_path, fmt, pool
    ):
        import lehmer_psi.scan as scan_module

        monkeypatch.setattr(scan_module, "HIT_WINDOW", 1000)  # rows from 20 prime windows
        self._segments_of_700(monkeypatch)
        argv = ["scan", "--from", "3", "--to", "20000", "--format", fmt]
        whole = run(capsys, *argv)
        if pool:  # the interrupted and the resumed scan run in worker processes
            pools = request.getfixturevalue("scan_pool")
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
        if pool:
            assert pools == [2, 2]
        code, out, _ = whole
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2261 + (fmt != "json")  # pi(20000) - 1 rows
        if fmt == "text":
            assert lines[0] == "scanned [3, 20000]: 2261 hits, 0 composite"

    def test_scan_composite_hit_exits_3(self, capsys, monkeypatch, tmp_path):
        import lehmer_psi.scan as scan_module

        monkeypatch.setattr(
            scan_module, "_segment_hits", lambda bounds: [(561, 2, True)]
        )
        code, _, err = run(capsys, "scan", "--from", "2", "--to", "600",
                           "--checkpoint", str(tmp_path / "cp.json"))
        assert code == 3
        assert "COMPOSITE" in err

    @staticmethod
    def _checkpoint_with_crc(path, payload):
        import zlib

        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        path.write_text(json.dumps({"payload": payload, "crc32": zlib.crc32(blob.encode())}))

    def test_scan_checkpoint_missing_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        self._checkpoint_with_crc(path, {"schema_version": 2, "lo": 2, "hi": 100, "next": 50})
        code, out, err = run(capsys, "scan", "--from", "2", "--to", "100",
                             "--checkpoint", str(path))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
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

    def test_scan_checkpoint_composite_outside_its_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        self._checkpoint_with_crc(
            path,
            {"schema_version": 2, "lo": 2, "hi": 100, "next": 101,
             "composites": [[10**9, 7, True]]},
        )
        code, out, err = run(capsys, "scan", "--from", "2", "--to", "100",
                             "--checkpoint", str(path))
        assert code == 2
        assert err.startswith("error:") and "1000000000" in err and "Traceback" not in err
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

    def test_scan_has_no_jobs_option(self, capsys):
        # the scan sizes its own process pool
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
        # argparse rejects 0 at the type level
        with pytest.raises(SystemExit) as err:
            cli.main(["factor", "0"])
        assert err.value.code == 2
        # a domain error raised past argparse also maps to 2
        code, _, message = run(capsys, "psi", "--group", "D5")
        assert code == 2
        assert "D5" in message or "dihedral" in message

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
