"""The committed benchmark records, BENCH_*.json at the root of the
repository. Each says on what machine, by what command and with what runs
and summary it was made. A record that claims a gain names a workload and an
end-to-end metric that BENCHMARK.json declares, holds at least ten untraced
runs a side of that metric on that workload, and states its result. The
files are read, never written."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
PAIRS = 10  # the fewest pairs of runs a claimed gain rests on


def _claimed():
    return [path for path in RECORDS if "claim" in json.loads(path.read_text())]


def test_records_are_found():
    # the checks below are parametrized over these lists: none may be empty
    assert RECORDS and _claimed()


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_says_how_it_was_made(path):
    record = json.loads(path.read_text())
    assert {"machine", "command", "runs", "summary"} <= record.keys()
    assert record["machine"] and record["command"] and record["summary"]
    for run in record["runs"]:
        assert run["side"] in ("parent", "change") and run["trace"] in (0, 1), run


@pytest.mark.parametrize("path", _claimed(), ids=lambda path: path.name)
def test_claim_names_a_declared_metric_with_ten_runs_a_side(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    assert claim["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert claim["metric"] in {m["name"] for m in BENCHMARK["end_to_end"]}
    assert isinstance(claim.get("result"), str) and claim["result"]
    values = {"parent": [], "change": []}
    for run in record["runs"]:
        if run["workload"] == claim["workload"] and run["trace"] == 0 and run["result"]:
            values[run["side"]].append(run["result"]["metrics"][claim["metric"]]["value"])
    assert min(map(len, values.values())) >= PAIRS, {side: len(v) for side, v in values.items()}
