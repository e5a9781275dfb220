"""Machine output pinned by digest. bench/reference.json holds the sha256 of
the stdout of every psi, bounds and min-k query the benchmark draws; checking
them here catches a change to that output without a benchmark run. Regenerate
the file with bench/record_reference.py only when the change is intended.

The lehmer-check verdicts carry the excluded k as range lines of their rule
trace and, per world, K* and the binding inequality; they, the batch_verdicts
report, and both as they were when a verdict carried a rule line (and before
that a row) per excluded k, are pinned here as well, as are the
verify-constants table and the scan hit rows. Their digests are the sha256 of
the output and change only with an intended change to it."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from lehmer_psi import cli
from lehmer_psi.arith import approx_str
from lehmer_psi.engine import (
    PI2_HIGH, PI2_LOW, lehmer_check, min_k, profile_from_factorization,
)
from lehmer_psi.scan import batch_verdicts, verdict_row, write_report

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
FLAG = {"psi": "--group", "bounds": "--group", "min-k": "--profile"}


def _cases():
    reference = json.loads(REFERENCE.read_text())
    return [
        pytest.param(command, key, digest, id=f"{command}:{key or 'generic'}")
        for command, digests in sorted(reference.items())
        for key, digest in sorted(digests.items())
    ]


@pytest.mark.parametrize("command, key, digest", _cases())
def test_json_stdout_matches_recorded_digest(capsys, command, key, digest):
    assert cli.main([command, FLAG[command], key, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _per_k_verdict(n):
    """lehmer_check(n) with its range lines expanded to the rule line per
    excluded k that verdicts carried before (MinKResult.rule_lines)."""
    verdict = lehmer_check(n)
    if not verdict.worlds:
        return verdict
    return dataclasses.replace(verdict, applied_rules=min_k(profile_from_factorization(n)).rule_lines())


# sha256 of `lehmer-check N --format json` stdout when a verdict carried a
# rule line per excluded k: the Carmichael numbers 561, 1105, 2465,
# 29341 = 13*37*61 (min_k 7), 41041 = 7*11*13*41 (min_k 6) and
# 62745 = 3*5*47*89, and the Chernick numbers with q = 1171, q = 10177 and
# q = 100981, whose floors are k = 169, 1455 and 14427. The last is the
# largest verdict the benchmark draws; it was 0.80 MB of JSON, nearly all of
# it the 14 425 rule lines. Each is checked on today's verdict with its range
# lines expanded.
LEHMER_CHECK_DIGESTS = {
    561: "d3856566e3b93d8e2de76618c21e037d8eb8e49a894f20f54751439c6f014af1",
    1105: "794078a47f608cd1272ad777e9818f802b97699680714f2638b7447e4cd0c9a9",
    2465: "228d7146ddf625c72f31e4acc35504fbd89666522f4cac53d3cc09e2a2c9fe75",
    29341: "8bea78b947d9353486a0bdef6c1ae67f9bf7de96274136679a57aa1e06016a38",
    41041: "25e238d538d8d962984047a40be6a7ee5c91d97c501c535f0d195d2dcfc25471",
    62745: "47f609e28f9a0517ff85e2d371e907ff44368dec566562bc6b8203b220ee1ff2",
    9624742921: "2de0691bb6a38a13cdb2c591ae4c5cf653fe87f445f4ad7b2c92890babe861a1",
    6323547512449: "63ee2867d638bfa7806e46fddcfcf641df7cba9777c5b3c55a6d44bcc9e71b75",
    6178246534322281: "c67543d959ecbd138d3715c4d3018b5e1d6cbb6bcc1a3b2e5ed7e5290d3580ba",
}
BATCH_1E5_DIGEST = "d85dd3cadd76304c5f8791b5fd07b008788e059801f4f9bb5ffa74080e50acf3"


@pytest.mark.parametrize("n, digest", sorted(LEHMER_CHECK_DIGESTS.items()))
def test_lehmer_check_worlds_json_matches_recorded_digest(capsys, monkeypatch, n, digest):
    monkeypatch.setattr(cli, "lehmer_check", _per_k_verdict)
    assert cli.main(["lehmer-check", str(n), "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of `lehmer-check N --format json` stdout, the excluded k as range
# lines: the numbers above and 2076281376063705289 = 702067 * 1404133 *
# 2106199, whose floor 100297 lay past the guard of the rule line per k.
# 1105 and 2465 exclude k = 2 alone, so their digests are the ones above.
LEHMER_CHECK_RANGE_DIGESTS = {
    561: "d367243a62027d3acb545c3d8efb2d004870af499687cdd0696314465243f587",
    1105: "794078a47f608cd1272ad777e9818f802b97699680714f2638b7447e4cd0c9a9",
    2465: "228d7146ddf625c72f31e4acc35504fbd89666522f4cac53d3cc09e2a2c9fe75",
    29341: "4b989033093ad77b216890c6eb37274c0b0f3ec7bab1d261eeb6f6f6e5cb5187",
    41041: "314515ae8807a3e283165dc81936886180bd13718e77cc08cd2b4f2bf83600da",
    62745: "0cc9282f6c1df5db878ae2b77bdb7f1709aaea7e0b7d6cd005b9654e8bd8d88a",
    9624742921: "c39c49c0a09c3e81a2d7a317ee4310ead4426eb527cacef79595984d2d999c7d",
    6323547512449: "cdd1cd82e98c3371f1f89a4cdc2ba00346aef781a4bcbd51e7b2c196f7b66569",
    6178246534322281: "440a2695aede915320af7e70e9289777737eb69a5457ff76511e6b1ddbcee10c",
    2076281376063705289: "a9ce1e00ceba45ff2ff896a860c4851171f949a84ac377631aa8e1143eb70970",
}
BATCH_1E5_RANGE_DIGEST = "1b3eda1a641c07e569429986a417500927bb66913c12328ffe0b0677bb36985e"


@pytest.mark.parametrize("n, digest", sorted(LEHMER_CHECK_RANGE_DIGESTS.items()))
def test_lehmer_check_range_json_matches_recorded_digest(capsys, n, digest):
    assert cli.main(["lehmer-check", str(n), "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of `lehmer-check N --format json` stdout when a verdict carried, in
# place of "worlds", an "excluded_k" array: a row for every k below the floor,
# as min-k --format json still renders them (MinKResult.excluded_json).
# Rebuilding that document from today's verdict and its profile's rows checks
# that moving the per-k rows out of the verdict changed none of them.
PER_K_VERDICT_DIGESTS = {
    561: "3b5dc46ce7b35561413d7b8b473746f3be764d026653da745085a18845d5a205",
    1105: "ab2b9a20b1b174b07d2de731cf4596eaf37530fef87e1b8e149106e21149592c",
    2465: "129f5603825e882721da32c06f1e747bf12ce30da0b0885ef1df28b7e0f83b4b",
    29341: "6ef24a59c1de69f9717d5652fee109c10bad82068511f0efd633090e44693aae",
    41041: "6e96079de2f67b0cda44c0d844dbd1d84cc1c2094d9107f224078b3ef94410b7",
    62745: "2b96233f2640e8de3dfba1db7118e9f00ad684b8c66fa51113b29cc2e221a0f3",
    9624742921: "cc4555fdf071b845812e471f27b892b0ebb14ea2a0104d64cc902de6ca961723",
    6323547512449: "700de0eacfb003078b7021dc2ae09c0e411c55f4d811433348dba9328995a820",
    6178246534322281: "be6391eb3e24d3882e0ca6b508a3fd5daf3783743f25fbb3e793c88b72020ddf",
}


@pytest.mark.parametrize("n, digest", sorted(PER_K_VERDICT_DIGESTS.items()))
def test_lehmer_check_json_matches_recorded_digest(n, digest):
    verdict = _per_k_verdict(n)
    worlds = json.dumps([bound.as_dict() for bound in verdict.worlds])
    head, sep, tail = verdict.to_json().partition(f'"worlds": {worlds}')
    assert sep
    excluded = min_k(profile_from_factorization(n)).excluded_json()
    document = f'{head}"excluded_k": {excluded}{tail}\n'
    assert hashlib.sha256(document.encode()).hexdigest() == digest


# sha256 of `lehmer-check N --format text` stdout, which the JSON digests do
# not cover: the floor label and the abundancy decimal c/pi^2; as above, with
# a rule line per excluded k
LEHMER_CHECK_TEXT_DIGESTS = {
    561: "ec9f0a9b1c717e6b528d04690612757c17231585233d8000de869060294dffae",
    1105: "0b48e4551fc40cf62aefa0b484e96b024ac94b32b71ca8d449ae4e5c822a7ae3",
    2465: "4602422f77c9c8b8a60613e4ed8f01e01bd6e2d13051b99b70a5b392354b9843",
    29341: "e9dda0f13bf3dec4e830ac53801833784d6a01a21725d9be73b4df833e8b427f",
    41041: "4b8d926006896d71722a09cc2f0e6e05f5b0f4e364844031e3c67bf2a607ed66",
    62745: "fd9b7cb1794a1396354e134cbbf05335a762f89073e75df16c9933745206aaf0",
    9624742921: "690b9e82d64bc283fa611dcee57e5276c6fe1475bdf30423a288bb8bcacff07b",
}


@pytest.mark.parametrize("n, digest", sorted(LEHMER_CHECK_TEXT_DIGESTS.items()))
def test_lehmer_check_text_matches_recorded_digest(capsys, monkeypatch, n, digest):
    monkeypatch.setattr(cli, "lehmer_check", _per_k_verdict)
    assert cli.main(["lehmer-check", str(n), "--format", "text"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of `lehmer-check N --format text` stdout, the excluded k as range
# lines, for the numbers of LEHMER_CHECK_RANGE_DIGESTS
LEHMER_CHECK_TEXT_RANGE_DIGESTS = {
    561: "4980eb9467cd3db64a6104f64ecf13f6ace897c896723b0753ba524a1e8fe819",
    1105: "0b48e4551fc40cf62aefa0b484e96b024ac94b32b71ca8d449ae4e5c822a7ae3",
    2465: "4602422f77c9c8b8a60613e4ed8f01e01bd6e2d13051b99b70a5b392354b9843",
    29341: "6998642b6f55bade5db3855b19a45af1bae18e3dcbd4e79746a02b979749e508",
    41041: "21618e51ca36ca41312e634a0da335d058772e53a06ca42e2aa1b701451c4b62",
    62745: "e0d936f707f08875a2fe0097f10cf43e02867071b383e044e4e77bc0b999838d",
    9624742921: "5f12c8f16459c8de020e68d91b133683d68d58dc59e34875e4f941b0d948383e",
    6323547512449: "4e4f0f1db1b12f8b4f90684ce7699d720a6140c02717ece496d0c944df20b098",
    6178246534322281: "a0103fa2c1f8b42f1858166d7cb95674dc6cac008ae64cca546ab83188856c6f",
    2076281376063705289: "ae18fe6968c1e7b81c129cdc4c44990f5c727b7be282aa25a479bbcc92568b7f",
}


@pytest.mark.parametrize("n, digest", sorted(LEHMER_CHECK_TEXT_RANGE_DIGESTS.items()))
def test_lehmer_check_range_text_matches_recorded_digest(capsys, n, digest):
    assert cli.main(["lehmer-check", str(n), "--format", "text"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_abundancy_decimal_is_certified_to_the_printed_digits():
    # `lehmer-check --format text` prints c/pi^2 from PI2_LOW at approx_str's
    # default width; the upper end of the sandwich prints alike
    for n in LEHMER_CHECK_DIGESTS:
        c = lehmer_check(n).abundancy_coefficient
        low, high = (approx_str(c / pi2) for pi2 in (PI2_LOW, PI2_HIGH))
        assert low == high, n


# sha256 of `scan --from 2 --to 100000` stdout: 9592 prime hit rows, in each
# format
SCAN_DIGESTS = {
    ("text",): "ce1a1ebe74c9d78e49af253ff3371b4112c80a26000d662a6b3c28b72292c18b",
    ("json",): "22b08bc243e9e5053b28d6007d34a6abebf472394d2e18bf87a491848e191a1c",
    ("csv",): "be96fdb3c1568a7c5ae144b2c6d4170f4df6ae4f0a0e772b0209c56276f0914c",
}


@pytest.mark.parametrize(
    "flags, digest",
    [pytest.param(flags, digest, id=" ".join(flags))
     for flags, digest in sorted(SCAN_DIGESTS.items())],
)
def test_scan_stdout_matches_recorded_digest(capsys, flags, digest):
    fmt, *rest = flags
    assert cli.main(["scan", "--from", "2", "--to", "100000", "--format", fmt, *rest]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of `scan --from 2 --to 1000000` stdout: 78498 prime hit rows, in
# each format; the scan crosses three edges of its DEFAULT_SEGMENT windows
SCAN_1E6_DIGESTS = {
    "text": "9755d4e984bdc5b871709c2fc41542b6c3b74c8eda9a2bd376d25d37f736cc67",
    "json": "7a85136c764158605a63920cf7a0e8e387be4e14141fd12fc5921b39f14a9492",
    "csv": "1bee59a1546b0d6b4814a80b35b0bcdddd80c05192244f5c33a5bf97ec1c6dc2",
}


@pytest.mark.parametrize("fmt, digest", sorted(SCAN_1E6_DIGESTS.items()))
def test_scan_to_1e6_matches_recorded_digest(capsys, fmt, digest):
    assert cli.main(["scan", "--from", "2", "--to", "1000000", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_batch_verdicts_report_matches_recorded_digest(tmp_path):
    # the report as it was with a rule line per excluded k
    path = tmp_path / "verdicts.jsonl"
    verdicts, _ = batch_verdicts(10**5)
    write_report((verdict_row(_per_k_verdict(v.n)) for v in verdicts), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BATCH_1E5_DIGEST


def test_batch_verdicts_range_report_matches_recorded_digest(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    batch_verdicts(10**5, path=str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BATCH_1E5_RANGE_DIGEST


# sha256 of `verify-constants` stdout in each format.
VERIFY_CONSTANTS_DIGESTS = {
    "text": "422b9f73877fc0215a0bbda7f192437a35580f528d8f7f70a06b50a60239d0c7",
    "json": "6785275e359793c45ab30aeab5bbcc7130218a5169503abeed0b951a14f57d7a",
}


@pytest.mark.parametrize("fmt, digest", sorted(VERIFY_CONSTANTS_DIGESTS.items()))
def test_verify_constants_matches_recorded_digest(capsys, fmt, digest):
    assert cli.main(["verify-constants", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
