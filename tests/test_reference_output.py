"""Machine output pinned by digest. bench/reference.json holds the sha256 of
the stdout of every psi, bounds and min-k query the benchmark draws; checking
them here catches a change to that output without a benchmark run. Regenerate
the file with bench/record_reference.py only when the change is intended."""

import hashlib
import json
from pathlib import Path

import pytest

from lehmer_psi import cli

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
