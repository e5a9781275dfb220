"""lehmer-psi benchmark: one workload per process, end-to-end metrics with
tracing off, per-layer metrics with tracing on.

    python3 bench/run.py --workload queries --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's src/ and nowhere else. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
are a readable summary. Workloads, metrics and known defects are described
in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

from kernel import kernel
from tracing import Tracer
from workloads import WORKLOADS, Request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median of 5
LAYER_MODULES = ("arith", "sieve", "groups", "bounds", "carmichael", "engine", "scan", "cli")

# Bytes per integer of the range arrays each sieve kernel allocates (the dtypes
# in lehmer_psi.sieve): totient_range holds ns, rem and phi as int64;
# korselt_range holds ns and rem as int64, ok as bool and nfac as int8.
TOTIENT_BYTES_PER_INT = 8 * 3
KORSELT_BYTES_PER_INT = 8 * 2 + 1 + 1

# Request times are gated in kt, the mean time of the reference kernel
# (kernel.py) run before every unit of the same run: a spell of contention on
# the shared host slows the kernel and the requests alike.
END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_kt": "1/kt",
    "query_p50_kt": "kt",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sieve.totient_range.calls": "calls/req",
    "sieve.totient_range.self_s": "s/req",
    "sieve.totient_range.ns_per_int": "ns/int",
    "sieve.primes_upto.calls": "calls/req",
    "sieve.primes_upto.self_s": "s/req",
    "sieve.korselt_range.self_s": "s/req",
    "sieve.korselt_range.ns_per_int": "ns/int",
    "sieve.korselt_range.bytes_computed": "B/req",
    "scan.segments": "segments/req",
    "scan.segment_p50_ms": "ms/segment",
    "scan.segment_tail_ms": "ms/segment",
    "scan.segment_growth": "ratio",
    "scan.self_s": "s/req",
    "scan.checkpoint_writes": "writes/req",
    "scan.checkpoint_bytes": "B/req",
    "scan.checkpoint_write_s": "s/req",
    "scan.checkpoint_read_s": "s/req",
    "scan.report_s": "s/req",
    "scan.report_bytes": "B/req",
    "scan.batch_verdicts.self_s": "s/req",
    "carmichael.found": "numbers/req",
    "carmichael.korselt_check.calls": "calls/req",
    "carmichael.korselt_check.self_s": "s/req",
    "engine.lehmer_check.calls": "calls/req",
    "engine.lehmer_check.self_s": "s/req",
    "engine.lehmer_check.errors": "errors/req",
    "engine.min_k.calls": "calls/req",
    "engine.min_k.self_s": "s/req",
    "engine.exclude_k.calls": "calls/req",
    "engine.exclude_k.self_s": "s/req",
    "engine.exclude_k.per_min_k": "calls/min_k",
    "arith.factor.calls": "calls/req",
    "arith.factor.self_s": "s/req",
    "arith.factor.per_lehmer_check": "calls/check",
    "arith.is_prime.calls": "calls/req",
    "arith.is_prime.self_s": "s/req",
    "groups.psi.calls": "calls/req",
    "groups.psi.self_s": "s/req",
    "groups.spectrum_entries": "entries/req",
    "bounds.check_bounds.calls": "calls/req",
    "bounds.check_bounds.self_s": "s/req",
    "cli.main.calls": "calls/req",
    "cli.main.self_s": "s/req",
    "cli.output_bytes": "B/req",
    "cli.errors": "errors/req",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


def import_package():
    """Import lehmer_psi from this checkout's src/ and refuse any other copy."""
    if not os.path.isdir(os.path.join(SRC, "lehmer_psi")):
        raise BenchError(f"no package at {os.path.join(SRC, 'lehmer_psi')}")
    sys.path.insert(0, SRC)
    package = importlib.import_module("lehmer_psi")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise BenchError(f"lehmer_psi imported from {package.__file__}, not {SRC}")
    for name in LAYER_MODULES:
        importlib.import_module(f"lehmer_psi.{name}")
    return package


def set_up(workload_name: str, seed: int, workdir: str):
    """Import the package and generate the workload's inputs: what setup_s times."""
    start = time.perf_counter()
    package = import_package()
    workload = WORKLOADS[workload_name]()
    workload.setup(package, random.Random(f"{workload_name}:{seed}"), workdir)
    return package, workload, time.perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def growth(segments: list[float]) -> float:
    """Mean of the last tenth of segments over the mean of the first tenth."""
    k = max(1, len(segments) // 10)
    return statistics.fmean(segments[-k:]) / statistics.fmean(segments[:k])


# ---------------------------------------------------------------------------
# Runs


def attempt(workload, unit: int, tracer=None, package=None, digests: bool = False):
    """Run one unit, traced when a tracer is given, then check it untraced.
    A unit that raises counts as one failed request. Outputs are dropped once
    checked (after taking their digests when asked), so that the benchmark's
    own memory does not grow with the run. The collection before the run
    keeps the garbage of earlier checks from being collected inside timed
    calls."""
    gc.collect()
    start = time.perf_counter()
    if tracer:
        tracer.op = unit
        tracer.install(package)
    try:
        batch = workload.run(unit, tracer)
    except Exception as exc:
        return [Request(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")], [False]
    finally:
        if tracer:
            tracer.uninstall()
    oks = workload.check(batch, unit)
    for request in batch:
        if digests and request.error is None:
            request.digest = workload.request_digest(request)
        request.output = None
    return batch, oks


def run_plain(workload, seconds: float, first_unit: int):
    """Units back to back for `seconds`, tracing off, each one after a run of
    the reference kernel."""
    requests, oks, kernels = [], [], []
    unit = first_unit
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        kernels.append(kernel())
        batch, batch_oks = attempt(workload, unit)
        requests += batch
        oks += batch_oks
        unit += 1
    return requests, oks, kernels


def run_traced(package, workload, seconds: float, first_unit: int, tracer: Tracer):
    """Each unit twice, untraced then traced, for `seconds`. The traced
    outputs must match the untraced ones digest for digest."""
    plain, traced, oks = [], [], []
    unit = first_unit
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        untraced_batch, untraced_oks = attempt(workload, unit, digests=True)
        traced_batch, traced_oks = attempt(workload, unit, tracer, package, digests=True)
        if len(traced_batch) == len(untraced_batch):
            traced_oks = [
                ok and a.digest == b.digest
                for ok, a, b in zip(traced_oks, untraced_batch, traced_batch)
            ]
        plain += untraced_batch
        traced += traced_batch
        oks += untraced_oks + traced_oks
        unit += 1
    return plain, traced, oks


def end_to_end(requests, kernels, setup_s: float, peak_rss_mb: float) -> dict:
    seconds = [r.seconds for r in requests]
    kt = statistics.fmean(kernels)
    return {
        "setup_s": setup_s,
        "queries_per_kt": len(seconds) * kt / sum(seconds),
        "query_p50_kt": statistics.median(seconds) / kt,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer: Tracer, workload, plain, traced) -> dict:
    n = len(traced)
    t = tracer

    def per(value):
        return value / n

    def ratio(a, b):
        return a / b if b else 0.0

    segments = [s for r in traced for s in r.segments]
    growths = [growth(r.segments) for r in traced if r.segments]
    totient_self = t.self_s("sieve.totient_range")
    korselt_self = t.self_s("sieve.korselt_range")
    korselt_ints = t.counters["sieve.korselt_range.ints"]
    lehmer_calls = t.calls("engine.lehmer_check")
    return {
        "sieve.totient_range.calls": per(t.calls("sieve.totient_range")),
        "sieve.totient_range.self_s": per(totient_self),
        "sieve.totient_range.ns_per_int": ratio(totient_self * 1e9, t.counters["sieve.totient_range.ints"]),
        "sieve.primes_upto.calls": per(t.calls("sieve.primes_upto")),
        "sieve.primes_upto.self_s": per(t.self_s("sieve.primes_upto")),
        "sieve.korselt_range.self_s": per(korselt_self),
        "sieve.korselt_range.ns_per_int": ratio(korselt_self * 1e9, korselt_ints),
        "sieve.korselt_range.bytes_computed": per(korselt_ints * KORSELT_BYTES_PER_INT),
        "scan.segments": per(len(segments)),
        "scan.segment_p50_ms": statistics.median(segments) * 1e3 if segments else 0.0,
        "scan.segment_tail_ms": (
            percentile(segments, workload.segment_tail_percentile) * 1e3 if segments else 0.0
        ),
        "scan.segment_growth": statistics.median(growths) if growths else 0.0,
        "scan.self_s": per(t.self_s("scan.scan_totient_divisibility")),
        "scan.checkpoint_writes": per(t.calls("scan.write_checkpoint")),
        "scan.checkpoint_bytes": per(t.counters["scan.checkpoint_bytes"]),
        "scan.checkpoint_write_s": per(t.self_s("scan.write_checkpoint")),
        "scan.checkpoint_read_s": per(t.self_s("scan.read_checkpoint")),
        "scan.report_s": per(t.self_s("scan.render_rows") + t.self_s("scan.write_report")),
        "scan.report_bytes": per(t.counters["scan.report_bytes"]),
        "scan.batch_verdicts.self_s": per(t.self_s("scan.batch_verdicts")),
        "carmichael.found": per(t.counters["carmichael.found"]),
        "carmichael.korselt_check.calls": per(t.calls("carmichael.korselt_check")),
        "carmichael.korselt_check.self_s": per(t.self_s("carmichael.korselt_check")),
        "engine.lehmer_check.calls": per(lehmer_calls),
        "engine.lehmer_check.self_s": per(t.self_s("engine.lehmer_check")),
        "engine.lehmer_check.errors": per(t.errors("engine.lehmer_check")),
        "engine.min_k.calls": per(t.calls("engine.min_k")),
        "engine.min_k.self_s": per(t.self_s("engine.min_k")),
        "engine.exclude_k.calls": per(t.calls("engine.exclude_k")),
        "engine.exclude_k.self_s": per(t.self_s("engine.exclude_k")),
        "engine.exclude_k.per_min_k": ratio(t.calls("engine.exclude_k"), t.calls("engine.min_k")),
        "arith.factor.calls": per(t.calls("arith.factor")),
        "arith.factor.self_s": per(t.self_s("arith.factor")),
        "arith.factor.per_lehmer_check": ratio(
            t.count_under("arith.factor", "engine.lehmer_check"), lehmer_calls
        ),
        "arith.is_prime.calls": per(t.calls("arith.is_prime")),
        "arith.is_prime.self_s": per(t.self_s("arith.is_prime")),
        "groups.psi.calls": per(t.calls("groups.psi")),
        "groups.psi.self_s": per(t.self_s("groups.psi") + t.self_s("groups.order_spectrum")),
        "groups.spectrum_entries": per(t.counters["groups.spectrum_entries"]),
        "bounds.check_bounds.calls": per(t.calls("bounds.check_bounds")),
        "bounds.check_bounds.self_s": per(t.self_s("bounds.check_bounds")),
        "cli.main.calls": per(t.calls("cli.main")),
        "cli.main.self_s": per(t.self_s("cli.main")),
        "cli.output_bytes": per(t.counters["cli.output_bytes"]),
        "cli.errors": per(t.counters["cli.errors"]),
        "trace.overhead_pct": (
            sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1
        ) * 100,
    }


def cache_bytes() -> dict:
    """L2 and last-level cache sizes per instance as getconf reports them."""
    sizes = {}
    for key, name in (("l2_bytes", "LEVEL2_CACHE_SIZE"), ("llc_bytes", "LEVEL3_CACHE_SIZE")):
        try:
            done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            sizes[key] = int(done.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            sizes[key] = None
    return sizes


def metadata(args, workload, package) -> dict:
    np = package.sieve.np
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "jobs": 1,
        **cache_bytes(),
    }
    segment = getattr(workload, "SEGMENT", None)
    if segment:
        meta["totient_range_array_bytes"] = segment * TOTIENT_BYTES_PER_INT
    bound = getattr(workload, "BOUND", None)
    if bound:
        meta["korselt_range_array_bytes"] = bound * KORSELT_BYTES_PER_INT
    return meta


def summary_lines(workload, metrics, requests, kernels, attempted, failed) -> list[str]:
    """The end-to-end metrics, and beside them the figures the JSON line does
    not gate: the request times in seconds, ints_per_s, query_tail_ms and
    fail_ratio."""
    seconds = [r.seconds for r in requests]
    n = len(seconds)
    p = workload.tail_percentile
    queries_per_s = n / sum(seconds)
    tail_ms = percentile(seconds, p) * 1e3
    lines = [
        f"setup_s        {metrics['setup_s']:.4f} s",
        f"kt             {statistics.fmean(kernels) * 1e3:.4f} ms mean, "
        f"{statistics.median(kernels) * 1e3:.4f} ms median ({len(kernels)} kernel runs)",
        f"queries_per_kt {metrics['queries_per_kt']:.4f} 1/kt ({n} requests)",
        f"query_p50_kt   {metrics['query_p50_kt']:.4f} kt",
        f"queries_per_s  {queries_per_s:.4f} 1/s",
        f"query_p50_ms   {statistics.median(seconds) * 1e3:.4f} ms",
        f"query_tail_ms  {tail_ms:.4f} ms (p{p} of {n}; "
        f"{n * (1 - p / 100):.1f} samples beyond)",
        f"peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB",
        f"fail_ratio     {failed / attempted:.4f} ({failed} of {attempted})",
    ]
    if workload.range_len:
        ints = workload.range_len * queries_per_s
        lines.insert(6, f"ints_per_s     {ints:.0f} integers/s ({workload.range_len} per request)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    if args.setup_probe:
        print(set_up(args.workload, args.seed, workdir)[2])
        return 0

    os.makedirs(workdir)
    try:
        package, workload, own_setup = set_up(args.workload, args.seed, workdir)
        workload.prepare()
        kernel()
        oks = attempt(workload, 0)[1]  # warm-up, untimed
        tracer = Tracer() if args.trace else None
        if tracer:
            requests, traced, timed_oks = run_traced(package, workload, args.seconds, 1, tracer)
            kernels = [kernel() for _ in range(5)]
        else:
            requests, timed_oks, kernels = run_plain(workload, args.seconds, 1)
        oks += timed_oks
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # The probes follow the timed section, so that they all start on a
        # busy processor rather than one waking from idle.
        setups = [own_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(setups)
        known_defect = getattr(workload, "known_defect", None)
        defect = known_defect() if known_defect else None
        if defect is not None and defect["ok"] is False:
            oks.append(False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(oks), oks.count(False)
    meta = metadata(args, workload, package)
    meta["setup_samples_s"] = setups
    if defect is not None:
        meta["known_defect"] = defect
    print(f"# {workload.name} seed={args.seed} trace={args.trace}")
    print("# meta " + json.dumps(meta))
    e2e = end_to_end(requests, kernels, setup_s, peak_rss_mb)  # untraced requests only
    for line in summary_lines(workload, e2e, requests, kernels, attempted, failed):
        print("# " + line)
    if tracer:
        metrics = per_layer(tracer, workload, requests, traced)
        units = PER_LAYER_UNITS
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.jsonl")
        tracer.write(trace_path, meta)
        print(f"# spans {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
        for name, value in metrics.items():
            print(f"# {name:36s} {value:.6g} {units[name]}")
    else:
        metrics = e2e
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        sys.exit(2)
