"""Self-test of the benchmark: a corrupted result must count as a failure.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os

import pytest

import run
from workloads import Query, Request, check_lehmer, check_query


@pytest.fixture
def set_up(tmp_path):
    def make(name):
        package, workload, _ = run.set_up(name, 1, str(tmp_path))
        workload.prepare()
        return package, workload

    return make


def test_corrupted_totient_fails_the_scan_check(set_up, monkeypatch):
    package, workload = set_up("scan-window")
    np = package.sieve.np
    original = package.scan.totient_range

    def corrupted(lo, hi):
        phi = original(lo, hi)
        primes = np.nonzero(phi == np.arange(lo, hi + 1) - 1)[0]
        phi[primes[0]] += 2  # the first prime of the segment is no longer a hit
        return phi

    assert run.attempt(workload, 0)[1] == [True]
    monkeypatch.setattr(package.scan, "totient_range", corrupted)
    requests, oks = run.attempt(workload, 0)
    assert len(requests) == 1 and oks == [False]


def test_raising_scan_counts_as_one_failed_request(set_up, monkeypatch):
    package, workload = set_up("scan-checkpoint")
    original = package.scan.totient_range

    def corrupted(lo, hi):
        phi = original(lo, hi)
        phi[-1] = 1  # 1 divides n - 1: a composite hit, which aborts the scan
        return phi

    monkeypatch.setattr(package.scan, "totient_range", corrupted)
    requests, oks = run.attempt(workload, 0)
    assert oks == [False]
    assert requests[0].error.startswith("CounterexampleFound")


def test_dropped_carmichael_number_fails_the_batch_check(set_up, monkeypatch):
    package, workload = set_up("carmichael-batch")
    original = package.carmichael.korselt_range
    monkeypatch.setattr(package.carmichael, "korselt_range", lambda lo, hi: original(lo, hi)[:-1])
    _, oks = run.attempt(workload, 0)
    assert oks == [False]


def test_wrong_and_crashing_queries_are_counted(set_up, monkeypatch):
    package, workload = set_up("queries")
    original = package.cli.main

    def faulty(argv):
        if argv[0] == "factor":
            print('{"n": 1, "factors": []}')
            return 0
        if argv[0] == "bounds":
            raise AssertionError("crash")
        return original(argv)

    monkeypatch.setattr(package.cli, "main", faulty)
    requests, oks = run.attempt(workload, 0)
    kinds = [q.argv[0] for q in workload.rounds[0]]
    assert len(oks) == len(requests) == len(kinds) == 17
    assert [k for k, ok in zip(kinds, oks) if not ok] == [k for k in kinds if k in ("factor", "bounds")]


def test_lehmer_check_verdicts_are_checked_against_the_built_primes():
    primes = (7, 13, 19)
    verdict = {
        "n": 1729, "prime": False, "factors": [[7, 1], [13, 1], [19, 1]],
        "is_carmichael": True, "phi": 6 * 12 * 18, "phi_divides": False,
        "counterexample": False, "min_k": 3,
    }
    assert check_lehmer(json.dumps(verdict), primes)
    assert not check_lehmer(json.dumps({**verdict, "factors": [[7, 1], [247, 1]]}), primes)
    assert not check_lehmer(json.dumps({**verdict, "counterexample": True}), primes)


def test_a_crashed_request_fails_even_with_the_expected_output():
    expected = Query(("factor", "6"), ("text", "x\n"))
    assert check_query(expected, Request(0.0, "x\n"))
    assert not check_query(expected, Request(0.0, "x\n", error="AssertionError: crash"))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_gated_times_cancel_a_uniform_slowdown():
    requests = [Request(s) for s in (0.2, 0.3, 0.4)]
    kernels = [0.05, 0.06, 0.07]
    slow = [Request(2 * r.seconds) for r in requests]
    a = run.end_to_end(requests, kernels, 0.2, 50.0)
    b = run.end_to_end(slow, [2 * k for k in kernels], 0.2, 50.0)
    assert a["queries_per_kt"] == pytest.approx(b["queries_per_kt"])
    assert a["query_p50_kt"] == pytest.approx(b["query_p50_kt"])
    assert a["query_p50_kt"] == pytest.approx(0.3 / 0.06)
    assert a["queries_per_kt"] == pytest.approx(3 * 0.06 / 0.9)
