"""Machine output pinned by digest. bench/reference.json holds the sha256 of
the stdout of every psi, bounds and min-k query the benchmark draws; checking
them here catches a change to that output without a benchmark run. Regenerate
the file with bench/record_reference.py only when the change is intended.

The lehmer-check verdicts and the batch_verdicts report carry every excluded
k with its per-world rules, so they are pinned here as well, as are the
verify-constants table and the scan hit rows; their digests are the sha256
of the output and change only with an intended change to it."""

import hashlib
import json
from pathlib import Path

import pytest

from lehmer_psi import cli
from lehmer_psi.arith import approx_str
from lehmer_psi.engine import PI2_HIGH, PI2_LOW, lehmer_check
from lehmer_psi.scan import batch_verdicts

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


# sha256 of `lehmer-check N --format json` stdout: the Carmichael numbers
# 561, 1105, 2465, 29341 = 13*37*61 (min_k 7), 41041 = 7*11*13*41 (min_k 6)
# and 62745 = 3*5*47*89, and the Chernick numbers with q = 1171, q = 10177 and
# q = 100981, whose floors are k = 169, 1455 and 14427. The last is the
# largest verdict the benchmark draws (4.18 MB of JSON).
LEHMER_CHECK_DIGESTS = {
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
BATCH_1E5_DIGEST = "d85dd3cadd76304c5f8791b5fd07b008788e059801f4f9bb5ffa74080e50acf3"


@pytest.mark.parametrize("n, digest", sorted(LEHMER_CHECK_DIGESTS.items()))
def test_lehmer_check_json_matches_recorded_digest(capsys, n, digest):
    assert cli.main(["lehmer-check", str(n), "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of `lehmer-check N --format text` stdout, which the JSON digests do
# not cover: the floor label and the abundancy decimal c/pi^2
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
def test_lehmer_check_text_matches_recorded_digest(capsys, n, digest):
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
    path = tmp_path / "verdicts.jsonl"
    batch_verdicts(10**5, path=str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BATCH_1E5_DIGEST


# sha256 of `verify-constants` stdout in each format.
VERIFY_CONSTANTS_DIGESTS = {
    "text": "422b9f73877fc0215a0bbda7f192437a35580f528d8f7f70a06b50a60239d0c7",
    "json": "6785275e359793c45ab30aeab5bbcc7130218a5169503abeed0b951a14f57d7a",
}


@pytest.mark.parametrize("fmt, digest", sorted(VERIFY_CONSTANTS_DIGESTS.items()))
def test_verify_constants_matches_recorded_digest(capsys, fmt, digest):
    assert cli.main(["verify-constants", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
