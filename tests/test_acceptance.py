"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget.

Every comparison is exact rational arithmetic unless the criterion itself
states a decimal tolerance (then the certified pi**2 sandwich decides).
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest

from conftest import abelian_specs, naive_fermat
from lehmer_psi.arith import factor, fraction_str, is_squarefree
from lehmer_psi.bounds import (
    nilpotent_lower_bound,
    upper_coefficient,
    witness_lower_bound,
)
from lehmer_psi.carmichael import korselt_check
from lehmer_psi.engine import (
    certified_close,
    chain_upper,
    k_ladder,
    make_profile,
    min_k,
    two_power_threshold,
    witness_double_prime,
    GENERIC_PROFILE,
)
from lehmer_psi.groups import (
    Cyclic,
    Dihedral,
    Quaternion8,
    parse_group_spec,
    product,
    psi,
    psi_cyclic,
)
from lehmer_psi.scan import (
    read_checkpoint,
    scan_totient_divisibility,
    verify_constants,
)
from lehmer_psi.sieve import primes_upto


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_constant_reproduction_exact():
    with criterion("constant-reproduction", 1.0):
        assert Fraction(psi(parse_group_spec("C2 x C2")), psi_cyclic(4)) == Fraction(7, 11)
        assert Fraction(psi(Dihedral(6)), psi_cyclic(6)) == Fraction(13, 21)
        assert Fraction(psi(Quaternion8()), psi_cyclic(8)) == Fraction(27, 43)
        assert upper_coefficient("ii", q=2) == Fraction(7, 11)
        assert two_power_threshold(1) == Fraction(13, 42)
        assert two_power_threshold(2) == Fraction(7, 24)
        assert two_power_threshold(3) == Fraction(9, 32)
        assert two_power_threshold(4) == Fraction(2055, 8064)
        assert chain_upper((), 3, 2) == Fraction(7, 24)
        # the refined thresholds must come out of their derivation chains
        assert chain_upper((5,), 11, 2) == Fraction(175, 704)
        assert chain_upper((5,), 11, 2) == Fraction(7, 16) * (
            Fraction(21, 22 * 2) + Fraction(1, 11)
        )
        assert chain_upper((5, 7), 17, 2) == Fraction(1007, 4080)
        assert chain_upper((5, 7), 17, 2) == Fraction(7, 16) * (
            Fraction(1804, 3570) + Fraction(1, 17)
        )


def test_abundancy_constants_to_printed_digits():
    with criterion("abundancy-constants", 1.0):
        assert certified_close(24, Fraction(2431708, 10**6), Fraction(5, 10**7))
        assert certified_close(
            Fraction(715715, 18432), Fraction(39343, 10**4), Fraction(5, 10**5)
        )


def test_equality_families_exact_to_1e4():
    with criterion("equality-families", 10.0):
        checked = 0
        for m in range(1, 2500, 2):  # orders 4m <= 1e4
            fam = product([Cyclic(2), Cyclic(2), Cyclic(m)])
            assert psi(fam) == upper_coefficient("i") * psi_cyclic(factor(4 * m))
            checked += 1
        for m in range(1, 1250, 2):  # orders 8m <= 1e4
            fam = product([Quaternion8(), Cyclic(m)])
            assert psi(fam) == upper_coefficient("iv") * psi_cyclic(factor(8 * m))
            checked += 1
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            small = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97) if p <= q]
            for r in range(1, 10**4 // (q * q) + 1):
                if any(r % p == 0 for p in small):
                    continue
                fam = product([Cyclic(q), Cyclic(q), Cyclic(r)])
                assert psi(fam) == upper_coefficient("ii", q=q) * psi_cyclic(factor(q * q * r))
                checked += 1
        for m in range(3, 5000, 2):  # orders 2m <= 1e4
            f = factor(m)
            l = min(p**a for p, a in f)
            fam = product([Dihedral(2 * l), Cyclic(m // l)])
            assert psi(fam) == upper_coefficient("vi", l=l) * psi_cyclic(factor(2 * m))
            checked += 1
        assert checked > 5000


def test_pinned_misprint_variant_vi():
    with criterion("pinned-discrepancy", 1.0):
        claimed = upper_coefficient("vi", l=3, mode="as-printed") * psi_cyclic(factor(6))
        actual = psi(Dihedral(6))
        assert claimed == 25
        assert actual == 13
        assert claimed != actual


def test_oracle_equivalence_to_1e5():
    with criterion("oracle-equivalence", 120.0):
        limit = 100_000
        primes = set(primes_upto(limit).tolist())
        carmichael_by_oracle = []
        for n in range(4, limit + 1):
            if n in primes:
                continue
            korselt = korselt_check(n).is_carmichael
            fermat = naive_fermat(n)
            assert korselt == fermat, n
            if fermat:
                carmichael_by_oracle.append(n)
        assert len(carmichael_by_oracle) == 16
        assert carmichael_by_oracle[:3] == [561, 1105, 1729]


def _structure_universe():
    specs = []
    for n in range(1, 513):
        specs.extend(abelian_specs(n))
    specs.extend(Dihedral(2 * m) for m in range(1, 1001))
    specs.extend(product([Quaternion8(), Cyclic(m)]) for m in range(1, 251))
    return specs


def test_structure_property_suite():
    with criterion("structure-properties", 60.0):
        for g in _structure_universe():
            n = g.order
            value = psi(g)
            ceiling = psi_cyclic(factor(n))
            assert value <= ceiling, str(g)
            assert (value == ceiling) == g.is_cyclic, str(g)
            assert value <= n * n, str(g)
        rng = random.Random(97)
        pool = [g for g in _structure_universe() if g.order <= 500]
        checked = 0
        while checked < 200:
            a, b = rng.choice(pool), rng.choice(pool)
            if gcd(a.order, b.order) != 1:
                continue
            assert psi(product([a, b])) == psi(a) * psi(b)
            checked += 1


def test_nilpotent_floor_suite():
    # equality is attained exactly by elementary abelian p-groups; for two or
    # more primes the floor's "+1 outside the product" keeps it strictly below
    # psi of every nilpotent group
    with criterion("nilpotent-floor", 60.0):
        for n in range(2, 513):
            f = factor(n)
            floor = nilpotent_lower_bound(f)
            for g in abelian_specs(n):
                value = psi(g)
                assert value >= floor, str(g)
                factors = [g] if isinstance(g, Cyclic) else list(g.factors)
                elementary_p_group = f.omega == 1 and all(
                    factor(c.n).factors[0][1] == 1 for c in factors
                )
                assert (value == floor) == elementary_p_group, str(g)


def test_witness_floor_strictness_as_stated():
    # The paper's stated floor psi''(C2 x C2 x C_n) > phi(n)/(2n) is checked
    # here in the form that is true. For odd squarefree n,
    # psi(C_n) = prod (p^2 - p + 1), so
    #     psi'' / (phi(n)/(2n)) = (7/8) * prod_{p | n} (1 + 1/(p(p-1))).
    # The 7/8 is psi''(C2 x C2) = 7/16 against the 1/2 the stated floor needs.
    # - 3 | n: the p = 3 factor alone is 7/6, so the ratio is >= 49/48, with
    #   equality only at n = 3. The stated floor holds strictly.
    # - 3 does not divide n: the product over all primes p >= 5 is
    #   zeta(2)zeta(3)/zeta(6) / (3/2 * 7/6) ~ 1.1106 < 8/7, so the ratio
    #   stays below 0.972 and the stated floor fails (first at n = 5:
    #   147/400 < 2/5; also at the Carmichael number 1105).
    # Against the provable floor 7*phi(n)/(16n) the ratio is the bare product,
    # always above 1. psi'' never equals either floor.
    with criterion("witness-floor-strictness", 10.0):
        for n in range(3, 10_001, 2):
            f = factor(n)
            if not is_squarefree(f):
                continue
            lhs = witness_double_prime(f)
            stated = witness_lower_bound(f)
            provable = witness_lower_bound(f, mode="provable")
            excess = Fraction(1)
            for p, _ in f:
                excess *= 1 + Fraction(1, p * (p - 1))
            assert lhs == Fraction(7, 8) * excess * stated, (
                f"n={n}: psi'' = {fraction_str(lhs)} breaks the product identity"
            )
            assert lhs > provable, (
                f"n={n}: psi'' = {fraction_str(lhs)} is not above the provable "
                f"floor {fraction_str(provable)}"
            )
            assert lhs != stated, f"n={n}: psi'' meets the stated floor exactly"
            assert (lhs > stated) == (n % 3 == 0), (
                f"n={n}: psi'' = {fraction_str(lhs)} against the stated floor "
                f"{fraction_str(stated)}; it must be above it exactly when 3 | n"
            )
            if n % 3 == 0:
                floor = Fraction(49, 48) * stated
                assert lhs >= floor, f"n={n}: psi'' below 49/48 of the stated floor"
                assert (lhs == floor) == (n == 3), (
                    f"n={n}: psi'' = 49/48 of the stated floor only at n = 3"
                )


def test_min_k_matrix():
    with criterion("min-k-matrix", 30.0):
        three = min_k(make_profile(divides=[3]))
        assert three.k == 4
        assert any(
            "k-congruence-3" in j["rule"]
            for res in json.loads(three.columns.to_json())
            for j in res["justifications"]
        )
        assert min_k(make_profile(not_divides=[3])).k >= 3
        assert min_k(make_profile(not_divides=[3, 5, 7, 11, 13])).k >= 4
        assert min_k(make_profile(q=3)).k >= 4
        for q in (17, 19, 23):
            assert min_k(make_profile(q=q)).k >= 4
        assert min_k(GENERIC_PROFILE).k >= 3


def test_desk_scale_scan(tmp_path):
    with criterion("desk-scale-scan", 60.0):
        limit = 10**6
        full = scan_totient_divisibility(2, limit, segment_size=1 << 16)
        assert all(not composite for _, _, composite in full.hits)

        path = str(tmp_path / "scan.json")

        class Stop(Exception):
            pass

        count = 0

        def interrupt(cp):
            nonlocal count
            count += 1
            if count == 5:
                raise Stop

        with pytest.raises(Stop):
            scan_totient_divisibility(
                2, limit, segment_size=1 << 16, checkpoint_path=path, on_segment=interrupt
            )
        partial = read_checkpoint(path)
        assert 2 < partial.next <= limit
        resumed = scan_totient_divisibility(
            2, limit, partial, segment_size=1 << 16, checkpoint_path=path
        )
        assert resumed.hits == full.hits
        assert resumed.to_json() == full.to_json()


def test_ladder_dual_mode_divergence():
    with criterion("ladder-divergence", 5.0):
        printed = k_ladder(17, mode="as-printed", R=4)
        strict = k_ladder(17, mode="strict")
        assert printed.k_floor == 5
        assert printed.condition == Fraction(10, 17)
        assert strict.k_floor == 4
        assert strict.R == 3
        assert k_ladder(17, mode="strict", R=4).k_floor is None
        by_id = {c.check_id: c for c in verify_constants()}
        assert by_id["ladder-divergence-17"].passed
