from fractions import Fraction

import pytest

from conftest import abelian_specs, brute_psi, psi_double_prime
from lehmer_psi.arith import DomainError, factor
from lehmer_psi.bounds import (
    check_bounds,
    nilpotent_lower_bound,
    upper_coefficient,
    witness_lower_bound,
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

ALL_BOUND_IDS = {
    "cyclic-maximum",
    "order-square",
    "upper-i",
    "upper-ii",
    "upper-iii",
    "upper-iv",
    "upper-v",
    "upper-vi",
    "nilpotent-floor",
    "witness-floor",
    "witness-floor-provable",
}


class TestUpperCoefficients:
    def test_general_constant(self):
        assert upper_coefficient("i") == Fraction(7, 11)

    def test_smallest_prime_variant_at_two_collapses(self):
        assert upper_coefficient("ii", q=2) == Fraction(7, 11)

    def test_smallest_prime_variant_q3(self):
        assert upper_coefficient("ii", q=3) == Fraction(((9 - 1) * 3 + 1) * 4, 3**5 + 1)

    def test_two_odd_constant(self):
        assert upper_coefficient("iii") == Fraction(13, 21)

    def test_eight_odd_constant(self):
        assert upper_coefficient("iv") == Fraction(27, 43)

    def test_high_two_power(self):
        assert upper_coefficient("v", alpha=4) == Fraction(2055, 3591)

    def test_dihedral_variant_corrected_equals_two_odd_constant_at_3(self):
        assert upper_coefficient("vi", l=3) == Fraction(1, 3) + Fraction(6, 21)
        assert upper_coefficient("vi", l=3) == Fraction(13, 21)

    def test_dihedral_variant_as_printed_exceeds_one(self):
        value = upper_coefficient("vi", l=3, mode="as-printed")
        assert value == Fraction(25, 21)
        assert value > 1

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            upper_coefficient("ii", q=4)
        with pytest.raises(DomainError):
            upper_coefficient("v", alpha=3)
        with pytest.raises(DomainError):
            upper_coefficient("vi", l=6)  # not a prime power
        with pytest.raises(DomainError):
            upper_coefficient("vi", l=3, mode="bogus")
        with pytest.raises(DomainError):
            upper_coefficient("vii")


class TestEqualityFamilies:
    def test_sharpness_small_grid(self):
        for m in (1, 3, 5, 9, 15, 21):
            fam = product([Cyclic(2), Cyclic(2), Cyclic(m)])
            assert psi(fam) == upper_coefficient("i") * psi_cyclic(factor(4 * m))
        for m in (1, 3, 5, 15):
            fam = product([Quaternion8(), Cyclic(m)])
            assert psi(fam) == upper_coefficient("iv") * psi_cyclic(factor(8 * m))
        for q, r in ((2, 1), (2, 3), (3, 5), (5, 7), (3, 35)):
            fam = product([Cyclic(q), Cyclic(q), Cyclic(r)])
            assert psi(fam) == upper_coefficient("ii", q=q) * psi_cyclic(factor(q * q * r))
        # l is the least prime-power component of m
        for m, l in ((3, 3), (15, 3), (45, 5), (105, 3), (75, 3)):
            fam = product([Dihedral(2 * l), Cyclic(m // l)])
            assert psi(fam) == upper_coefficient("vi", l=l) * psi_cyclic(factor(2 * m))

    def test_pinned_as_printed_mismatch_at_l3(self):
        claimed = upper_coefficient("vi", l=3, mode="as-printed") * psi_cyclic(factor(6))
        actual = psi(Dihedral(6))
        assert claimed == 25
        assert actual == 13
        assert claimed != actual

    def test_families_against_brute_psi(self):
        for text in ("C2 x C2 x C5", "Q8 x C3", "C3 x C3 x C5", "D6 x C5"):
            fam = parse_group_spec(text)
            assert psi(fam) == brute_psi(fam)


class TestLowerBounds:
    def test_nilpotent_floor_examples(self):
        assert nilpotent_lower_bound(factor(9)) == 25
        assert nilpotent_lower_bound(factor(12)) == 37
        for p in (2, 3, 5, 7, 11):
            assert nilpotent_lower_bound(factor(p)) == p * p - p + 1

    def test_nilpotent_floor_rejects_one(self):
        with pytest.raises(DomainError):
            nilpotent_lower_bound(factor(1))

    def test_elementary_abelian_attains(self):
        assert psi(parse_group_spec("C3 x C3")) == 25

    def test_witness_floor_examples(self):
        assert witness_lower_bound(factor(15)) == Fraction(4, 15)
        assert witness_lower_bound(factor(3)) == Fraction(1, 3)
        assert witness_lower_bound(factor(105)) == Fraction(8, 35)

    def test_witness_floor_domain(self):
        with pytest.raises(DomainError):
            witness_lower_bound(factor(10))  # even
        with pytest.raises(DomainError):
            witness_lower_bound(factor(9))  # not squarefree
        with pytest.raises(DomainError):
            witness_lower_bound(factor(1))

    def test_witness_floor_as_stated_holds_exactly_when_3_divides(self):
        # the stated floor phi(n)/(2n) is an overstatement: it holds iff 3 | n
        for n in range(3, 500, 2):
            f = factor(n)
            if any(a > 1 for _, a in f):
                continue
            g = product([Cyclic(2), Cyclic(2), Cyclic(n)])
            holds = psi_double_prime(g) > witness_lower_bound(f)
            assert holds == (n % 3 == 0), n

    def test_witness_floor_counterexample_pinned(self):
        g = product([Cyclic(2), Cyclic(2), Cyclic(5)])
        assert psi_double_prime(g) == Fraction(147, 400)
        assert witness_lower_bound(factor(5)) == Fraction(2, 5)
        assert psi_double_prime(g) < witness_lower_bound(factor(5))

    def test_witness_floor_provable_mode_always_holds(self):
        for n in range(3, 2000, 2):
            f = factor(n)
            if any(a > 1 for _, a in f):
                continue
            g = product([Cyclic(2), Cyclic(2), Cyclic(n)])
            assert psi_double_prime(g) > witness_lower_bound(f, mode="provable")
        assert witness_lower_bound(factor(15), mode="provable") == Fraction(7 * 8, 16 * 15)


class TestCheckBounds:
    def test_nothing_skipped(self):
        for g in (Cyclic(30), parse_group_spec("C2 x C2 x C3"), Quaternion8(), Dihedral(6)):
            ids = {r.bound_id for r in check_bounds(g)}
            assert ids == ALL_BOUND_IDS

    def test_klein_c3_equality_on_variant_i(self):
        reports = {r.bound_id: r for r in check_bounds(parse_group_spec("C2 x C2 x C3"))}
        r = reports["upper-i"]
        assert r.applicable and r.holds and r.equality
        assert r.lhs == 49 and r.rhs == Fraction(49)

    def test_quaternion_c5_equality_on_variant_iv(self):
        reports = {r.bound_id: r for r in check_bounds(parse_group_spec("Q8 x C5"))}
        r = reports["upper-iv"]
        assert r.applicable and r.equality
        assert r.lhs == 567

    def test_cyclic_30_maximum_equality(self):
        reports = {r.bound_id: r for r in check_bounds(Cyclic(30))}
        assert reports["cyclic-maximum"].equality
        assert not reports["upper-i"].applicable
        assert reports["nilpotent-floor"].holds

    def test_exclusive_two_adic_applicability(self):
        cases = {
            "D6": "upper-iii",        # order 2 * odd
            "C2 x C2 x C3": "upper-i",  # order 4 * odd
            "Q8 x C3": "upper-iv",    # order 8 * odd
            "C2 x C2 x C2 x C2 x C3": "upper-v",  # order 16 * odd
        }
        exclusive = {"upper-i", "upper-iii", "upper-iv", "upper-v"}
        for text, expected in cases.items():
            reports = {r.bound_id: r for r in check_bounds(parse_group_spec(text))}
            for bound_id in exclusive:
                assert reports[bound_id].applicable == (bound_id == expected), (text, bound_id)

    def test_dihedral_bounds_hold(self):
        reports = {r.bound_id: r for r in check_bounds(Dihedral(6))}
        assert reports["upper-iii"].equality  # D6 attains 13/21
        assert reports["upper-vi"].equality   # and the corrected variant vi
        assert not reports["nilpotent-floor"].applicable  # D6 is not nilpotent

    def test_witness_floor_report(self):
        reports = {r.bound_id: r for r in check_bounds(parse_group_spec("C2 x C2 x C15"))}
        r = reports["witness-floor"]
        assert r.applicable and r.holds and not r.equality
        assert r.lhs == Fraction(1029, 3600)
        assert r.rhs == Fraction(4, 15)
        assert reports["witness-floor-provable"].holds

    def test_witness_floor_report_is_honest_where_the_claim_fails(self):
        reports = {r.bound_id: r for r in check_bounds(parse_group_spec("C2 x C2 x C5"))}
        assert reports["witness-floor"].applicable
        assert not reports["witness-floor"].holds
        assert reports["witness-floor-provable"].holds

    def test_all_bounds_hold_across_universe(self):
        # witness-floor is excepted: the as-stated claim fails off the 3|n class
        specs = []
        for n in range(1, 129):
            specs.extend(abelian_specs(n))
        specs.extend(Dihedral(2 * m) for m in range(1, 30))
        specs.extend(product([Quaternion8(), Cyclic(m)]) for m in (1, 3, 5, 7, 9, 15))
        for g in specs:
            for r in check_bounds(g):
                if not r.applicable:
                    continue
                if r.bound_id == "witness-floor":
                    odd_part = g.order
                    while odd_part % 2 == 0:
                        odd_part //= 2
                    assert r.holds == (odd_part % 3 == 0), str(g)
                    continue
                assert r.holds, (str(g), r.bound_id)
