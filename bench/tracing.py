"""In-memory span tracer that times calls into lehmer_psi from outside.

Each traced function is rebound where its caller looks the name up (for
example ``lehmer_psi.engine.factor``), so the package itself is unchanged.
A span is (id, op, name, start, end, parent, error); the self time of a span
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

# span name -> (attribute, modules of lehmer_psi whose global is rebound).
# The benchmark's own entry points (cli.main, scan_totient_divisibility,
# read_checkpoint, batch_verdicts, report rendering) are timed at the call
# site with Tracer.call instead.
PATCHES = {
    "sieve.totient_range": ("totient_range", ("scan",)),
    "sieve.primes_upto": ("primes_upto", ("sieve", "scan")),
    "sieve.korselt_range": ("korselt_range", ("carmichael",)),
    "scan.write_checkpoint": ("write_checkpoint", ("scan",)),
    "scan.write_report": ("write_report", ("scan",)),
    "carmichael.korselt_check": ("korselt_check", ("engine", "cli")),
    "engine.lehmer_check": ("lehmer_check", ("scan", "cli")),
    "engine.min_k": ("min_k", ("engine", "cli")),
    "engine.exclude_k": ("exclude_k", ("engine",)),
    "arith.factor": ("factor", ("arith", "engine", "carmichael", "cli", "groups", "bounds")),
    "arith.is_prime": ("is_prime", ("arith", "engine", "carmichael", "bounds")),
    "groups.psi": ("psi", ("groups", "cli", "bounds", "scan")),
    "groups.order_spectrum": ("order_spectrum", ("groups", "cli")),
    "bounds.check_bounds": ("check_bounds", ("cli",)),
}


def _range_len(args, _result) -> int:
    return args[1] - args[0] + 1


def _file_size(args, _result) -> int:
    return os.path.getsize(args[1])


# span name -> ((counter, function of (args, result) giving the increment), ...)
COUNTERS = {
    "sieve.totient_range": (("sieve.totient_range.ints", _range_len),),
    "sieve.korselt_range": (
        ("sieve.korselt_range.ints", _range_len),
        ("carmichael.found", lambda _a, result: len(result)),
    ),
    "scan.write_checkpoint": (("scan.checkpoint_bytes", _file_size),),
    "scan.write_report": (("scan.report_bytes", _file_size),),
    "groups.order_spectrum": (("groups.spectrum_entries", lambda _a, result: len(result.entries)),),
}


class Tracer:
    """Records spans for one benchmark run; install() rebinds the PATCHES.

    A span is stored as a tuple when it closes, so that the garbage collector
    does not keep walking the spans already recorded."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, op, name, start, end, parent id, error)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [id, name, start, time covered by children]
        self._next_id = 0
        self._self: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        self._errors: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self, error: bool) -> None:
        end = time.perf_counter()
        span_id, name, start, children = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (span_id, self.op, name, start, end, parent[0] if parent else -1, error)
        )
        self._self[name] += duration - children
        self._calls[name] += 1
        if error:
            self._errors[name] += 1

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(True)
            raise
        self._close(False)
        for counter, increment in COUNTERS.get(name, ()):
            self.counters[counter] += increment(args, result)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- patching -----------------------------------------------------------

    def install(self, package) -> None:
        for name, (attr, modules) in PATCHES.items():
            for module_name in modules:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def self_s(self, name: str) -> float:
        return self._self.get(name, 0.0)

    def errors(self, name: str) -> int:
        return self._errors.get(name, 0)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called name that have a span called ancestor above them."""
        spans = {span[0]: (span[2], span[5]) for span in self.spans}
        total = 0
        for span_name, parent in spans.values():
            if span_name != name:
                continue
            while parent >= 0:
                parent_name, parent = spans[parent]
                if parent_name == ancestor:
                    total += 1
                    break
        return total

    def write(self, path: str, meta: dict) -> None:
        """Spans as JSON lines [id, op, name, start, end, parent, error] in
        order of opening, after one line of run metadata; times in seconds
        from the first span."""
        spans = sorted(self.spans)
        origin = spans[0][3] if spans else 0.0
        with open(path, "w") as handle:
            handle.write(json.dumps({"meta": meta}) + "\n")
            for span_id, op, name, start, end, parent, error in spans:
                handle.write(
                    json.dumps([span_id, op, name, round(start - origin, 7),
                                round(end - origin, 7), parent, error]) + "\n"
                )
