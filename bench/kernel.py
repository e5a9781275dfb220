"""A fixed reference kernel, timed next to every unit, that tracks how fast
the shared machine runs at that moment.

It uses no lehmer_psi code, so no change to the program moves it. It does the
kind of work the program's time goes to: Fraction comparisons, big-integer
modular powers, dict inserts, f-strings, and about 600 KB of JSON built
from many small objects, as a verdict's rule trace is rendered. The gated
time metrics are request times divided by this kernel's mean time in the
same run, so a slow spell on the host slows both and cancels out.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

_MERSENNE_521 = (1 << 521) - 1


def kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for k in range(1, 1250):
        acc += Fraction(k % 7 + 1, k * k + 1)
        if acc >= Fraction(k, 3 * k + 1):
            acc -= 1
        table[k * 2654435761 % 1000003] = f"k={k} rule={k % 3} lower={acc.numerator % 1000}"
    x = 3
    for _ in range(75):
        x = pow(x, 65537, _MERSENNE_521)
    rows = [
        {
            "k": k,
            "rule": f"order-sum-chain split=[{k % 5}] tail={k % 11} k={k}",
            "lower": str(Fraction(k, 2 * k + 1)),
            "excluded": k % 3 == 1,
        }
        for k in range(2, 6000)
    ]
    json.dumps(rows)
    return time.perf_counter() - start
