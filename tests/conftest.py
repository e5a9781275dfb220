"""Shared independent oracles: naive arithmetic, the all-bases Fermat test,
a numpy Korselt sieve, the abelian groups of each order, and brute-force
group element enumeration. These deliberately avoid the package's
divisor-lattice machinery so spectra and psi values are checked against
actual group multiplication; divisor_totient_pairs lists (d, phi(d)) from a
factorization, atom_spectrum gives an atom's spectrum by its closed form,
and lcm_convolution combines the atoms' spectra pairwise by "order of a
tuple = lcm of component orders", sharing no code with the Moebius
inversion of order_spectrum. psi_prime and psi_double_prime are the
normalized order sums psi' and psi'', by their definitions over the
package's psi. exclusion_oracle rebuilds each excluded k's entry by the
Fraction route, sharing no code with _World.chain_pair; swept_exclusions
walks it up to the k floor, world_entries reads each world's K* and binding
inequality from that walk, as_json_dicts and verdict_as_dict give the dicts
whose json.dumps the engine's JSON renderers must equal byte for byte, and
chain_justification, uses_stated_floor and binding_inequality read an
exclusion trace from its entries, as the engine's verdicts must.
summarised_rules folds a trace's line per excluded k into the range lines a
verdict carries, by listing the k of each kind of rule.
json_row and csv_row render a report row cell by cell, as the cached row
text of the scan's reports must.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from fractions import Fraction
from math import floor, isqrt, lcm

import numpy as np

from lehmer_psi.arith import ratio_str
from lehmer_psi.engine import (
    CHAIN,
    CONGRUENCE,
    SMALL_PRIMES,
    chain_upper,
    enumerate_worlds,
    profile_from_factorization,
)
from lehmer_psi.groups import (
    Cyclic,
    Dihedral,
    GroupSpec,
    Product,
    Quaternion8,
    product,
    psi,
    psi_cyclic,
)
from lehmer_psi.scan import REPORT_KEYS
from lehmer_psi.sieve import primes_upto


def naive_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_phi(n: int) -> int:
    from math import gcd

    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


def naive_sigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def naive_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def divisor_totient_pairs(f) -> list[tuple[int, int]]:
    """(d, phi(d)) for every divisor d, sorted, built from the (p, a) pairs
    of a factorization."""
    pairs = [(1, 1)]
    for p, a in f:
        pairs += [(d * p**e, ph * p ** (e - 1) * (p - 1))
                  for d, ph in pairs for e in range(1, a + 1)]
    return sorted(pairs)


def naive_fermat(n: int) -> bool:
    """b**n = b (mod n) for every base b: Carmichael by definition for a
    composite n, independent of Korselt's criterion."""
    return all(pow(b, n, n) == b for b in range(n))


KORSELT_SEGMENT = 1 << 16  # the oracle's window; its memory is 5 B per integer


def korselt_sieve(lo: int, hi: int) -> list[int]:
    """Carmichael numbers in [lo, hi] by sieving every integer: odd
    squarefree composites with (p - 1) | (n - 1) for every prime p | n,
    one window of KORSELT_SEGMENT integers at a time. Independent of the
    construction in carmichael.korselt_range, which it checks for completeness.
    Needs hi < 2^31 (int32 smooth parts)."""
    primes = primes_upto(isqrt(hi))[1:].tolist()
    found = []
    for start in range(lo, hi + 1, KORSELT_SEGMENT):
        found += _korselt_window(start, min(start + KORSELT_SEGMENT - 1, hi), primes)
    return found


def _korselt_window(lo: int, hi: int, primes: list[int]) -> list[int]:
    # such an n has no prime factor r > sqrt(hi): n = m*r with m < r and
    # (r - 1) | (n - 1) = m(r - 1) + m - 1 forces m = 1, so n is the product
    # of the odd primes <= sqrt(hi) it is a multiple of
    size = hi - lo + 1
    ok = np.ones(size, dtype=bool)
    ok[lo & 1 :: 2] = False  # even
    smooth = np.ones(size, dtype=np.int32)
    for p in primes:
        if p * p > hi:
            break
        # n = lo + f + p*j = lo + f + j (mod p - 1), so (p - 1) | (n - 1)
        # exactly on every (p - 1)-th multiple of p, from index c on
        f = -lo % p
        c = f + (1 - lo - f) % (p - 1) * p
        keep = ok[c :: p * (p - 1)].copy()
        ok[f::p] = False
        ok[c :: p * (p - 1)] = keep
        ok[-lo % (p * p) :: p * p] = False  # not squarefree
        smooth[f::p] *= p
        if p >= lo:
            ok[p - lo] = False  # prime
    idx = np.nonzero(ok)[0]
    return (idx[smooth[idx] == idx + lo] + lo).tolist()


def _partitions(n: int, largest: int | None = None):
    """Partitions of n into parts of at most largest, each non-increasing."""
    if n == 0:
        yield ()
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def abelian_specs(n: int):
    """All abelian groups of order n, one spec per isomorphism type
    (every multi-partition across the Sylow components)."""
    per_prime = [[[p**part for part in lam] for lam in _partitions(a)] for p, a in naive_factor(n)]
    for combo in itertools.product(*per_prime):
        yield product([Cyclic(k) for block in combo for k in block])


def psi_prime(g: GroupSpec) -> Fraction:
    """psi(G) / psi(C_|G|), in lowest terms; equals 1 exactly for cyclic specs."""
    return Fraction(psi(g), psi_cyclic(g.order))


def psi_double_prime(g: GroupSpec) -> Fraction:
    """psi(G) / |G|**2, in lowest terms; always in (0, 1]."""
    return Fraction(psi(g), g.order**2)


# --- brute-force groups: (elements, multiply, identity) per atom -----------

def _cyclic_table(n: int):
    return list(range(n)), (lambda a, b: (a + b) % n), 0


def _dihedral_table(m: int):
    # (rotation index, flip); r^m = s^2 = 1 and s r s = r^-1
    elements = [(i, f) for f in (0, 1) for i in range(m)]

    def mul(a, b):
        i1, f1 = a
        i2, f2 = b
        return ((i1 + (i2 if not f1 else -i2)) % m, f1 ^ f2)

    return elements, mul, (0, 0)


def _quaternion_table():
    units = []
    for axis in range(4):
        for sign in (1, -1):
            q = [0, 0, 0, 0]
            q[axis] = sign
            units.append(tuple(q))

    def mul(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    return units, mul, (1, 0, 0, 0)


def _atom_table(g: GroupSpec):
    if isinstance(g, Cyclic):
        return _cyclic_table(g.n)
    if isinstance(g, Dihedral):
        return _dihedral_table(g.m)
    if isinstance(g, Quaternion8):
        return _quaternion_table()
    raise TypeError(g)


def group_table(g: GroupSpec):
    """elements, multiply, identity for any spec (products combined
    componentwise)."""
    if not isinstance(g, Product):
        return _atom_table(g)
    tables = [_atom_table(f) for f in g.factors]
    elements = [tuple(combo) for combo in itertools.product(*(t[0] for t in tables))]

    def mul(a, b):
        return tuple(t[1](x, y) for t, x, y in zip(tables, a, b))

    identity = tuple(t[2] for t in tables)
    return elements, mul, identity


def element_order(x, mul, identity) -> int:
    order = 1
    acc = x
    while acc != identity:
        acc = mul(acc, x)
        order += 1
    return order


def brute_spectrum(g: GroupSpec) -> Counter:
    """Element-order multiset by actual group multiplication."""
    elements, mul, identity = group_table(g)
    return Counter(element_order(x, mul, identity) for x in elements)


def brute_psi(g: GroupSpec) -> int:
    return sum(order * count for order, count in brute_spectrum(g).items())


def atom_spectrum(a: GroupSpec) -> dict[int, int]:
    """An atom's order spectrum by its closed form: phi(d) elements of order d
    for each divisor d of n in C_n; the rotations' C_m spectrum plus m
    reflections of order 2 in D_2m; and Q8's {1: 1, 2: 1, 4: 6}."""
    if isinstance(a, Quaternion8):
        return {1: 1, 2: 1, 4: 6}
    if isinstance(a, Dihedral):
        spec = atom_spectrum(Cyclic(a.m))
        spec[2] = spec.get(2, 0) + a.m
        return spec
    return dict(divisor_totient_pairs(naive_factor(a.n)))


def lcm_convolution(g: GroupSpec) -> dict[int, int]:
    """Order spectrum of a product from each atom's atom_spectrum: an
    element is a tuple whose order is the lcm of its components' orders."""
    acc = {1: 1}
    for f in getattr(g, "factors", (g,)):
        out: dict[int, int] = {}
        for d1, c1 in acc.items():
            for d2, c2 in atom_spectrum(f).items():
                d = lcm(d1, d2)
                out[d] = out.get(d, 0) + c1 * c2
        acc = out
    return acc



# --- the exclusion trace, rebuilt by the Fraction route ---------------------

def exclusion_oracle(profile, k) -> dict:
    """The excluded_k entry of k for the profile, {"k", "justifications":
    [{"world", "rule", "lhs", "rhs", "excluded"}, ...]} with "lhs" and "rhs"
    as Fractions: per world of enumerate_worlds, k mod 3 against 1 when 3 | n
    and k is not 1 mod 3, else the witness floor L/k against chain_upper,
    excluded when it meets it. Labels and rules are rebuilt from the world's
    fields."""
    lhs = profile.witness_floor / k
    rows = []
    for world in enumerate_worlds(profile):
        label, (chain, covers) = _world_label(world), _chain_rule(world)
        if 3 in world.divides and k % 3 != 1:
            rule = f"{CONGRUENCE}: k={k} is {k % 3} (mod 3), 1 required"
            rows.append({"world": label, "rule": rule, "lhs": Fraction(k % 3), "rhs": Fraction(1), "excluded": True})
        else:
            rhs = chain_upper(world.divides, world.tail, k)
            rows.append({"world": label, "rule": f"{chain} k={k}{covers}", "lhs": lhs, "rhs": rhs, "excluded": lhs >= rhs})
    return {"k": k, "justifications": rows}


def _world_label(world) -> str:
    q = f"q={world.q_eval}" if world.q_exact else f"q>={world.q_eval}"
    bits = [f"{p}|n" for p in world.divides]
    bits += [f"{p}!|n" for p in SMALL_PRIMES if p not in world.divides]
    return f"{q}; " + ", ".join(bits)


def _chain_rule(world) -> tuple[str, str]:
    """A world's chain rule text, and the q it covers, rebuilt from its fields."""
    covers = "" if world.q_exact else f" (covers all q >= {world.q_eval})"
    return f"{CHAIN} split={list(world.divides)} tail={world.tail}", covers


def chain_k_star(world, floor_l: Fraction) -> int:
    """K* by the Fraction route: the chain bound of chain_upper's docstring is
    A/k + B, A = 7/16 * S * (1 - 1/tail) and B = 7/(16 tail), and the witness
    floor L/k meets it exactly for k <= (L - A)/B."""
    s = 1 + sum(Fraction(1, p * (p - 1)) for p in world.divides)
    a, b = Fraction(7, 16) * s * (1 - Fraction(1, world.tail)), Fraction(7, 16 * world.tail)
    return floor((floor_l - a) / b)


def excluded(entry) -> bool:
    """Whether every world of an entry excludes its k."""
    return all(j["excluded"] for j in entry["justifications"])


def swept_exclusions(profile) -> tuple[int, list[dict]]:
    """(floor, entries): the oracle entries of k = 2, 3, ... while every world
    excludes k; the floor is the first k that some world does not."""
    entries, k = [], 2
    while excluded(entry := exclusion_oracle(profile, k)):
        entries.append(entry)
        k += 1
    return k, entries


def _pq(x: Fraction) -> str:
    return ratio_str(x.numerator, x.denominator)


def as_json_dicts(entries) -> list[dict]:
    """Oracle entries as the dicts to_json renders, "lhs" and "rhs" as "p/q"."""
    return [
        {"k": entry["k"], "justifications": [
            {**j, "lhs": _pq(j["lhs"]), "rhs": _pq(j["rhs"])} for j in entry["justifications"]]}
        for entry in entries
    ]


def world_entries(profile) -> list[dict]:
    """Each world's entry of the profile's verdict, {"world", "rule", "k_star",
    "congruence", "k", "lhs", "rhs"}: k is the last k of the swept trace whose
    row for the world is a chain row, "lhs" and "rhs" are that row's sides as
    "p/q" (None, None and None without one), and K* is chain_k_star's."""
    entries = swept_exclusions(profile)[1]
    out = []
    for i, world in enumerate(enumerate_worlds(profile)):
        chains = [(e["k"], e["justifications"][i]) for e in entries
                  if e["justifications"][i]["rule"].startswith(CHAIN)]
        k, row = chains[-1] if chains else (None, None)
        chain, covers = _chain_rule(world)
        out.append({
            "world": _world_label(world),
            "rule": chain + covers,
            "k_star": chain_k_star(world, profile.witness_floor),
            "congruence": 3 in world.divides,
            "k": k,
            "lhs": row and _pq(row["lhs"]),
            "rhs": row and _pq(row["rhs"]),
        })
    return out


def verdict_as_dict(v) -> dict:
    """A LehmerVerdict as the dict its to_json() renders, its worlds from the
    oracle for an odd squarefree composite n."""
    c = v.abundancy_coefficient
    applies = not v.prime and v.n % 2 == 1 and all(a == 1 for _, a in v.factors)
    return {
        "n": v.n,
        "prime": v.prime,
        "factors": [list(pa) for pa in v.factors],
        "is_carmichael": v.is_carmichael,
        "phi": v.phi,
        "phi_divides": v.phi_divides,
        "exact_k": v.exact_k,
        "counterexample": v.counterexample,
        "min_k": v.min_k,
        "worlds": world_entries(profile_from_factorization(v.n)) if applies else [],
        "abundancy_coefficient": None if c is None else ratio_str(c.numerator, c.denominator),
        "witness": v.witness,
        "applied_rules": list(v.applied_rules),
        "notes": list(v.notes),
    }


# --- the chain queries of an exclusion trace, read from its entries ---------

def chain_justification(entry):
    """The tightest chain row (largest upper bound) of an entry that excludes
    its k, or None; "lhs" and "rhs" are Fractions."""
    chains = [j for j in entry["justifications"] if j["rule"].startswith(CHAIN) and j["excluded"]]
    return max(chains, key=lambda j: j["rhs"], default=None)


def uses_stated_floor(entries) -> bool:
    """Whether some excluded k rests on a chain exclusion: what
    LehmerVerdict.uses_stated_floor answers and when min_k adds its caveat."""
    return any(chain_justification(entry) is not None for entry in entries)


def binding_inequality(entries) -> tuple[str, str] | None:
    """lhs/rhs strings of the tightest chain exclusion of the last excluded k."""
    for entry in reversed(entries):
        j = chain_justification(entry)
        if j is not None:
            return _pq(j["lhs"]), _pq(j["rhs"])
    return None


# --- the range lines of a rule trace ----------------------------------------

_PER_K_RULE = re.compile(r"k=(\d+) (excluded in all \d+ worlds via .+)")


def summarised_rules(rules) -> list[str]:
    """rules with its lines "k=<k> excluded in all <n> worlds via <kinds>"
    (one run of them) replaced by one line per distinct text after k, in the
    order each first appears: "k=<lo>..<hi>" over the least and the greatest
    of its k ("k=<lo>" when they are one), then, when some k between them
    takes another text, the residues mod 3 of its k: " (k = r mod 3)" for one
    residue, " (k != r mod 3)" for two, r the one left out."""
    found = [(i, _PER_K_RULE.fullmatch(rule)) for i, rule in enumerate(rules)]
    found = [(i, int(m[1]), m[2]) for i, m in found if m]
    if not found:
        return list(rules)
    groups: dict[str, list[int]] = {}
    for _, k, text in found:
        groups.setdefault(text, []).append(k)
    lines = []
    for text, ks in groups.items():
        lo, hi = min(ks), max(ks)
        span = f"k={lo}" if lo == hi else f"k={lo}..{hi}"
        if set(ks) != set(range(lo, hi + 1)):
            residues = {k % 3 for k in ks}
            if len(residues) == 1:
                span += f" (k = {residues.pop()} mod 3)"
            else:
                (left_out,) = {0, 1, 2} - residues
                span += f" (k != {left_out} mod 3)"
        lines.append(f"{span} {text}")
    first, last = found[0][0], found[-1][0]
    assert last - first + 1 == len(found), "the per-k lines are one run"
    return [*rules[:first], *lines, *rules[last + 1:]]


# --- report rows, one cell at a time ----------------------------------------

def json_row(row: tuple) -> str:
    """A report row as json.dumps gives it, keys in schema order."""
    return json.dumps(dict(zip(REPORT_KEYS, row)), separators=(",", ":"))


def csv_row(row: tuple) -> str:
    """A report row as CSV: one loop over the keys, None empty, and only rules
    quoted, its entries joined by ";"."""
    cells = []
    for key, value in zip(REPORT_KEYS, row, strict=True):
        if value is None:
            cells.append("")
        elif key == "rules":
            cells.append('"' + ";".join(value).replace('"', '""') + '"')
        else:
            cells.append(str(value))
    return ",".join(cells)
