"""Command-line frontend. Every run is a pure function of argv:
no prompts, no timestamps, machine formats free of decorative text.

Exit codes: 0 success, 2 usage or domain error, 3 failed verification
(a constant check that should pass, or a composite scan hit).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from .arith import DomainError, approx_str, euler_phi, factor, fraction_str, sigma
from .bounds import check_bounds
from .carmichael import carmichael_in_range, korselt_check
from .engine import PI2_LOW, lehmer_check, min_k, parse_profile_spec
from .groups import order_spectrum, parse_group_spec, psi, psi_cyclic
from .scan import (
    CounterexampleFound,
    CSV_HEADER,
    hit_row,
    jsonl_line,
    read_checkpoint,
    row_affixes,
    scan_totient_divisibility,
    verify_constants,
)

USAGE_ERROR = 2
VERIFICATION_ERROR = 3
ROW_CHUNK = 1 << 12  # prime rows per write of scan; bounds the text held at once


def _emit(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def cmd_factor(args) -> int:
    f = factor(args.n)
    if args.format == "json":
        _emit(json.dumps({"n": f.value, "factors": [list(pa) for pa in f.factors]}))
    else:
        text = " * ".join(f"{p}^{a}" if a > 1 else str(p) for p, a in f.factors) or "1"
        _emit(f"{f.value} = {text}")
    return 0


def cmd_phi(args) -> int:
    value = euler_phi(factor(args.n))
    _emit(json.dumps({"n": args.n, "phi": value}) if args.format == "json" else str(value))
    return 0


def cmd_sigma(args) -> int:
    value = sigma(factor(args.n))
    _emit(json.dumps({"n": args.n, "sigma": value}) if args.format == "json" else str(value))
    return 0


def cmd_carmichael(args) -> int:
    if args.n is not None and (args.start, args.end) != (None, None):
        raise DomainError("carmichael takes either N or --from and --to, not both")
    if args.n is not None:
        cert = korselt_check(args.n)
        if args.format == "json":
            _emit(
                json.dumps(
                    {
                        "n": cert.n,
                        "is_carmichael": cert.is_carmichael,
                        "composite": cert.composite,
                        "squarefree": cert.squarefree,
                        "korselt_failures": list(cert.korselt_failures),
                    }
                )
            )
        else:
            verdict = "carmichael" if cert.is_carmichael else "not carmichael"
            detail = []
            if not cert.composite:
                detail.append("prime")
            if not cert.squarefree:
                detail.append("not squarefree")
            if cert.korselt_failures:
                detail.append(
                    "divisibility fails at " + ", ".join(map(str, cert.korselt_failures))
                )
            suffix = f" ({'; '.join(detail)})" if detail else ""
            _emit(f"{cert.n}: {verdict}{suffix}")
        return 0
    if args.start is None or args.end is None:
        raise DomainError("carmichael needs either N or both --from and --to")
    found = carmichael_in_range(args.start, args.end)
    if args.format == "json":
        _emit(json.dumps({"from": args.start, "to": args.end, "carmichael": found}))
    else:
        for n in found:
            _emit(str(n))
    return 0


def cmd_psi(args) -> int:
    g = parse_group_spec(args.group)
    if args.format == "json":
        spectrum = order_spectrum(g)
        value = spectrum.order_sum()
        _emit(
            json.dumps(
                {
                    "group": str(g),
                    "order": g.order,
                    "psi": value,
                    "psi_prime": fraction_str(Fraction(value, psi_cyclic(g.order))),
                    "psi_double_prime": fraction_str(Fraction(value, g.order**2)),
                    "spectrum": {str(d): c for d, c in spectrum.entries},
                }
            )
        )
    else:
        _emit(str(psi(g)))
    return 0


def cmd_bounds(args) -> int:
    g = parse_group_spec(args.group)
    reports = check_bounds(g)
    if args.format == "json":
        _emit(
            json.dumps(
                {"group": str(g), "bounds": [r.as_dict() for r in reports]}
            )
        )
    else:
        _emit(f"group {g} of order {g.order}")
        for r in reports:
            if not r.applicable:
                _emit(f"{r.bound_id:16s} not applicable")
                continue
            mark = "=" if r.equality else ("ok" if r.holds else "VIOLATED")
            _emit(f"{r.bound_id:16s} {mark:8s} lhs={r.lhs} rhs={r.rhs}")
    return 0


def cmd_lehmer_check(args) -> int:
    verdict = lehmer_check(args.n)
    if args.format == "text":
        _emit(f"n = {verdict.n}" + (" (prime)" if verdict.prime else ""))
        _emit(f"carmichael: {verdict.is_carmichael}")
        _emit(f"phi = {verdict.phi}, divides n-1: {verdict.phi_divides}, exact k: {verdict.exact_k}")
        if verdict.min_k is None:
            why = "even" if verdict.n % 2 == 0 else "not squarefree"
            _emit(f"no k floor derived: n is {why}, but any counterexample is odd and squarefree")
        elif verdict.uses_stated_floor():
            _emit(f"k floor (assumes stated witness floor phi(n)/(2n)): {verdict.min_k}")
        else:
            _emit(f"proven k floor: {verdict.min_k}")
        if verdict.witness:
            _emit(f"witness group: {verdict.witness}")
        if verdict.abundancy_coefficient is not None:
            c = verdict.abundancy_coefficient
            _emit(
                f"abundancy: sigma(n)/n > {fraction_str(c)}/pi^2 "
                f"{approx_str(c / PI2_LOW)}"
            )
        for rule in verdict.applied_rules:
            _emit(f"  rule: {rule}")
        for note in verdict.notes:
            _emit(f"  note: {note}")
    else:
        _emit(verdict.to_json())
    return 0


def cmd_min_k(args) -> int:
    profile = parse_profile_spec(args.profile)
    result = min_k(profile)
    if args.format == "json":
        head = json.dumps(
            {
                "profile": profile.describe(),
                "min_k": result.k,
                "n_floor": str(result.n_floor_used),
                "rules": list(result.applied_rules),
            }
        )
        _emit(f'{head[:-1]}, "excluded": {result.columns.to_json()}}}')
    else:
        _emit(f"profile: {profile.describe()}")
        _emit(f"min_k = {result.k}")
        for rule in result.applied_rules:
            _emit(f"  {rule}")
    return 0


def cmd_scan(args) -> int:
    checkpoint = None
    if args.checkpoint and os.path.exists(args.checkpoint):
        checkpoint = read_checkpoint(args.checkpoint)
    try:
        cp = scan_totient_divisibility(
            args.start, args.end, checkpoint, checkpoint_path=args.checkpoint
        )
    except CounterexampleFound as exc:
        sys.stderr.write(str(exc) + "\n")
        return VERIFICATION_ERROR
    if args.format == "text":
        # a finished scan holds no composite: the first one aborts it above
        _emit(f"scanned [{cp.lo}, {cp.hi}]: {cp.hit_count()} hits, 0 composite")
        pre, post = "", " k=1 prime"
    else:
        if args.format == "csv":
            _emit(CSV_HEADER)
        pre, post = row_affixes(hit_row((cp.lo, 1, False)), args.format)
    # every row is a prime's, the same text around its n: each window of
    # primes is written ROW_CHUNK rows at a time and its list freed before
    # the next window is sieved, so memory stays one window
    sep = post + "\n" + pre
    for primes in cp.prime_windows():
        for start in range(0, len(primes), ROW_CHUNK):
            _emit(pre + sep.join(map(str, primes[start:start + ROW_CHUNK])) + post)
        del primes
    return 0


def cmd_verify_constants(args) -> int:
    checks = verify_constants()
    ok = all(c.passed for c in checks)
    if args.format == "json":
        for c in checks:
            _emit(jsonl_line(c.row()))
    else:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            tag = " (expected failure pinned)" if c.expected_failure else ""
            _emit(f"{status} {c.check_id:28s} computed {c.computed} vs {c.expected}{tag}")
        _emit(f"{'all checks passed' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else VERIFICATION_ERROR


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and kept: building
    it takes about 2 ms, more than many requests. It binds each subcommand to
    its cmd_* function as it was then; those look up their helpers at call
    time."""
    parser = argparse.ArgumentParser(
        prog="lehmer-psi",
        description="Exact order-sum toolkit for Lehmer's totient problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="text", choices=("text", "json")):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("factor", help="prime factorization")
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("phi", help="Euler totient")
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("sigma", help="sum of divisors")
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("carmichael", help="Carmichael certificate or range enumeration")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--from", dest="start", type=int)
    p.add_argument("--to", dest="end", type=int)
    add_format(p)
    p.set_defaults(func=cmd_carmichael)

    p = sub.add_parser("psi", help="sum of element orders of a group spec")
    p.add_argument("--group", required=True, help='e.g. "C2 x C2 x C15", "Q8 x C3", "D6"')
    add_format(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("bounds", help="evaluate the inequality catalog for a group spec")
    p.add_argument("--group", required=True)
    add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("lehmer-check", help="full verdict for a candidate n")
    p.add_argument("n", type=int)
    add_format(p, default="json")
    p.set_defaults(func=cmd_lehmer_check)

    p = sub.add_parser("min-k", help="multiplier floor for a divisibility profile")
    p.add_argument("--profile", default="", help='e.g. "q=5, 7|n, 13!|n" (empty = generic)')
    add_format(p)
    p.set_defaults(func=cmd_min_k)

    p = sub.add_parser("scan", help="scan a range for phi(n) | (n-1)")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.add_argument("--checkpoint", help="checkpoint file; resumed when present")
    add_format(p, choices=("text", "json", "csv"))
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-constants", help="recompute and check every pinned constant")
    add_format(p, choices=("text", "json"))
    p.set_defaults(func=cmd_verify_constants)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
