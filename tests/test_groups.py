import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    abelian_specs,
    brute_psi,
    brute_spectrum,
    element_order,
    group_table,
    lcm_convolution,
    psi_double_prime,
    psi_prime,
)
from lehmer_psi import groups
from lehmer_psi.arith import Factorization, divisor_totient_pairs, factor
from lehmer_psi.groups import (
    Cyclic,
    Dihedral,
    GroupSpec,
    GroupSpecSyntaxError,
    Product,
    Quaternion8,
    SpectrumLimitError,
    order_spectrum,
    parse_group_spec,
    product,
    psi,
    psi_cyclic,
)


def psi_cyclic_divisor_sum(f: Factorization) -> int:
    """psi of the cyclic group as the sum of d*phi(d) over divisors: the
    cross-check of the closed form psi_cyclic."""
    return sum(d * ph for d, ph in divisor_totient_pairs(f))


class TestParser:
    def test_product_atoms(self):
        g = parse_group_spec("Q8 x C3")
        assert g == Product((Cyclic(3), Quaternion8()))

    def test_single_cyclic(self):
        assert parse_group_spec("C4") == Cyclic(4)

    def test_dihedral(self):
        assert parse_group_spec("D6") == Dihedral(6)
        assert parse_group_spec("D6").m == 3

    def test_whitespace_optional(self):
        assert parse_group_spec("C2xC3") == parse_group_spec("  C2  x  C3 ")

    def test_canonical_ordering(self):
        assert parse_group_spec("C3 x C2") == parse_group_spec("C2 x C3")

    def test_errors_carry_position(self):
        with pytest.raises(GroupSpecSyntaxError) as err:
            parse_group_spec("C2 y C3")
        assert err.value.position == 3
        with pytest.raises(GroupSpecSyntaxError):
            parse_group_spec("C0")
        with pytest.raises(GroupSpecSyntaxError):
            parse_group_spec("D5")
        with pytest.raises(GroupSpecSyntaxError):
            parse_group_spec("Q9")
        with pytest.raises(GroupSpecSyntaxError):
            parse_group_spec("")
        with pytest.raises(GroupSpecSyntaxError):
            parse_group_spec("C2 x")
        with pytest.raises(GroupSpecSyntaxError):
            parse_group_spec("C")

    @pytest.mark.parametrize(
        "spec, message, position",
        [
            ("", "expected a group atom", 0),
            ("C2 x", "expected a group atom", 4),
            ("c2", "expected C<n>, D<2m> or Q8, found 'c'", 0),
            ("C", "missing order after 'C'", 1),
            ("Q9", "only Q8 is available, got Q9", 0),
            ("D5", "dihedral order must be even and >= 2, got 5", 0),
            ("C0", "cyclic group order must be positive, got 0", 0),
            ("C2 y C3", "expected 'x' or end of input, found 'y'", 3),
            ("C" + "9" * 100_001, "cannot read the 100001-digit order after 'C'", 0),
        ],
        ids=["empty", "trailing-x", "lowercase", "no-order", "Q9", "D5", "C0", "bad-operator",
             "past-int-limit"],
    )
    def test_error_table(self, spec, message, position):
        with pytest.raises(GroupSpecSyntaxError) as err:
            parse_group_spec(spec)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_roundtrip_examples(self):
        for text in ("C1", "C15", "D6", "Q8", "C2 x C2 x C15", "C3 x D6 x Q8"):
            g = parse_group_spec(text)
            assert parse_group_spec(str(g)) == g

    @given(
        st.lists(
            st.one_of(
                st.integers(1, 50).map(Cyclic),
                st.integers(1, 25).map(lambda m: Dihedral(2 * m)),
                st.just(Quaternion8()),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_roundtrip_random_products(self, factors):
        g = product(factors)
        assert parse_group_spec(str(g)) == g

    # the DSL alphabet plus one stray character ("²" is a digit int() cannot read)
    @given(st.text(alphabet="CDQx0123456789 ²", max_size=20))
    @example("C" + "9" * 100_001)  # past the int-string limit
    def test_any_text_parses_or_raises_syntax_error(self, text):
        try:
            g = parse_group_spec(text)
        except GroupSpecSyntaxError:
            return
        assert isinstance(g, GroupSpec)

    def test_product_flattens(self):
        nested = product([Product((Cyclic(2), Cyclic(3))), Cyclic(5)])
        assert nested == product([Cyclic(2), Cyclic(3), Cyclic(5)])

    def test_trivial_factor_dropped(self):
        assert product([Cyclic(1), Cyclic(4)]) == Cyclic(4)
        assert product([Cyclic(1)]) == Cyclic(1)


class TestSpectra:
    def test_quaternion_frozen(self):
        assert dict(order_spectrum(Quaternion8()).entries) == {1: 1, 2: 1, 4: 6}

    def test_quaternion_matches_unit_multiplication(self):
        assert dict(brute_spectrum(Quaternion8())) == {1: 1, 2: 1, 4: 6}

    def test_cyclic6(self):
        assert dict(order_spectrum(Cyclic(6)).entries) == {1: 1, 2: 1, 3: 2, 6: 2}

    def test_klein_times_c3(self):
        g = parse_group_spec("C2 x C2 x C3")
        assert dict(order_spectrum(g).entries) == {1: 1, 2: 3, 3: 2, 6: 6}

    def test_dihedral6(self):
        assert dict(order_spectrum(Dihedral(6)).entries) == {1: 1, 2: 3, 3: 2}

    def test_against_element_enumeration(self):
        rng = random.Random(5)
        specs = [
            Cyclic(1), Cyclic(12), Cyclic(36), Dihedral(2), Dihedral(4), Dihedral(14),
            Quaternion8(),
            parse_group_spec("C2 x C2 x C15"),
            parse_group_spec("Q8 x C3"),
            parse_group_spec("D6 x C5"),
            parse_group_spec("D10 x Q8"),
            parse_group_spec("C4 x C6"),
            parse_group_spec("C2 x C2 x C2 x C2"),
        ]
        for _ in range(15):
            factors = [
                rng.choice([Cyclic(rng.randrange(1, 13)), Dihedral(2 * rng.randrange(1, 7)), Quaternion8()])
                for _ in range(rng.randrange(1, 4))
            ]
            g = product(factors)
            if g.order <= 250:
                specs.append(g)
        for g in specs:
            assert dict(order_spectrum(g).entries) == dict(brute_spectrum(g)), str(g)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(2, 120).map(Cyclic),
                st.integers(1, 60).map(lambda m: Dihedral(2 * m)),
                st.just(Quaternion8()),
            ),
            min_size=2,
            max_size=4,
        )
    )
    @example([Cyclic(12), Cyclic(12)])
    @example([Dihedral(6), Dihedral(6), Quaternion8()])  # m odd, repeated
    @example([Dihedral(12), Cyclic(9), Quaternion8(), Quaternion8()])  # m even
    @example([Dihedral(30), Cyclic(7)])
    @example([Cyclic(720720), Cyclic(720720)])
    def test_product_spectrum_matches_lcm_convolution(self, factors):
        g = product(factors)
        assert isinstance(g, Product)
        assert g.spectrum_map() == lcm_convolution(g), str(g)

    def test_product_of_big_prime_cyclics_factors_each_exponent(self):
        # Brent rho cannot split the product of two 20-digit primes within
        # its step budget, so the exponent L = p*q is factored factor by factor
        p, q = 10000000000000000051, 10000000000000000087
        g = product([Cyclic(p), Cyclic(q)])
        assert g.spectrum_map() == {1: 1, p: p - 1, q: q - 1, p * q: (p - 1) * (q - 1)}

    def test_solutions_count_the_atom_spectrum(self):
        # solutions(d) counts the elements whose order divides d; the
        # exponent is the lcm of the orders
        atoms = [Cyclic(n) for n in range(1, 130)]
        atoms += [Dihedral(2 * m) for m in range(1, 130)] + [Quaternion8()]
        for a in atoms:
            spec = a.spectrum_map()
            assert a.exponent == lcm(*spec), str(a)
            twice = 2 * a.exponent
            for d in (d for d in range(1, twice + 1) if twice % d == 0):
                assert a.solutions(d) == sum(c for o, c in spec.items() if d % o == 0), (str(a), d)

    def test_spectrum_invariants(self):
        for n in range(1, 65):
            for g in abelian_specs(n):
                spec = dict(order_spectrum(g).entries)
                assert sum(spec.values()) == g.order
                assert spec[1] == 1
                # an abelian group has an element of order its exponent, the
                # lcm of its cyclic factors' orders, and every order divides it
                e = lcm(*(a.order for a in getattr(g, "factors", (g,))))
                assert e in spec and all(e % d == 0 for d in spec)

    def test_support_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(groups, "SPECTRUM_LIMIT", 10)
        with pytest.raises(SpectrumLimitError):
            order_spectrum(Cyclic(720720))

    def test_cyclic_support_counted_before_it_is_built(self, monkeypatch):
        # the product of the first 16 primes has 2^16 divisors: none is built
        n = prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53))
        monkeypatch.setattr(groups, "SPECTRUM_LIMIT", 1000)
        tracemalloc.start()
        try:
            with pytest.raises(SpectrumLimitError):
                order_spectrum(Cyclic(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_product_lattice_counted_before_it_is_built(self, monkeypatch):
        # two factors of 2^9 divisors each that share no prime: the product's
        # lattice has 2^18 divisors, and none is built
        g = parse_group_spec("C223092870 x C525737919635921")
        monkeypatch.setattr(groups, "SPECTRUM_LIMIT", 10**5)
        tracemalloc.start()
        try:
            with pytest.raises(SpectrumLimitError):
                order_spectrum(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_limit_counts_the_lattice_of_an_odd_dihedral_product(self, monkeypatch):
        # D6 x C5 has 6 orders (1, 2, 3, 5, 10, 15) but 8 divisors of its
        # exponent 30: the limit counts the lattice
        g = parse_group_spec("D6 x C5")
        assert len(order_spectrum(g).entries) == 6
        monkeypatch.setattr(groups, "SPECTRUM_LIMIT", 7)
        with pytest.raises(SpectrumLimitError):
            order_spectrum(g)


class TestPsi:
    def test_examples(self):
        assert psi(Cyclic(1)) == 1
        assert psi(Quaternion8()) == 27
        assert psi(Dihedral(6)) == 13

    def test_cyclic_closed_form_examples(self):
        assert psi_cyclic(factor(4)) == 11
        assert psi_cyclic(factor(8)) == 43
        assert psi_cyclic(factor(15)) == 147
        assert psi_cyclic(factor(1)) == 1

    def test_closed_form_equals_divisor_sum_to_1e4(self):
        for n in range(1, 10_001):
            f = factor(n)
            assert psi_cyclic(f) == psi_cyclic_divisor_sum(f)

    def test_closed_form_equals_spectrum_to_1e4(self):
        for n in range(1, 10_001):
            assert psi_cyclic(factor(n)) == psi(Cyclic(n))

    def test_psi_against_brute_sample(self):
        for g in (Cyclic(24), Dihedral(20), parse_group_spec("Q8 x C5"), parse_group_spec("C6 x C10")):
            assert psi(g) == brute_psi(g)

    def test_psi_prime_examples(self):
        assert psi_prime(Quaternion8()) == Fraction(27, 43)
        assert psi_prime(parse_group_spec("C2 x C2")) == Fraction(7, 11)
        for n in (1, 4, 12, 100, 561):
            assert psi_prime(Cyclic(n)) == 1

    def test_psi_prime_is_one_iff_cyclic(self):
        for n in range(1, 129):
            for g in abelian_specs(n):
                assert (psi_prime(g) == 1) == g.is_cyclic

    def test_psi_double_prime_examples(self):
        assert psi_double_prime(Cyclic(1)) == 1
        assert psi_double_prime(parse_group_spec("C2 x C2 x C15")) == Fraction(1029, 3600)
        assert psi_double_prime(Cyclic(3)) == Fraction(7, 9)

    def test_psi_double_prime_in_unit_interval(self):
        for n in range(1, 100):
            for g in abelian_specs(n):
                value = psi_double_prime(g)
                assert 0 < value <= 1

    def test_multiplicative_on_coprime_random_pairs(self):
        rng = random.Random(17)

        def random_spec(max_order):
            while True:
                kind = rng.randrange(3)
                if kind == 0:
                    g = Cyclic(rng.randrange(1, max_order + 1))
                elif kind == 1:
                    g = Dihedral(2 * rng.randrange(1, max_order // 2 + 1))
                else:
                    g = product([Quaternion8(), Cyclic(rng.randrange(1, 8))])
                if g.order <= max_order:
                    return g

        checked = 0
        while checked < 60:
            a, b = random_spec(500), random_spec(500)
            if gcd(a.order, b.order) != 1:
                continue
            assert psi(product([a, b])) == psi(a) * psi(b)
            checked += 1

    def test_huge_squarefree_cyclic_factor_stays_cheap(self):
        n = 1
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
            n *= p
        g = product([Cyclic(2), Cyclic(2), Cyclic(n)])
        assert n > 10**16
        assert psi(g) == 7 * psi_cyclic(factor(n))
        assert psi_double_prime(g) == Fraction(7 * psi_cyclic(factor(n)), 16 * n * n)


class TestStructureFlags:
    def test_cyclic_detection(self):
        assert Cyclic(12).is_cyclic
        assert parse_group_spec("C3 x C4").is_cyclic
        assert not parse_group_spec("C2 x C2").is_cyclic
        assert Dihedral(2).is_cyclic
        assert not Dihedral(4).is_cyclic
        assert not Quaternion8().is_cyclic


    def test_cyclic_flag_matches_full_order_element(self):
        import random as _random

        rng = _random.Random(31)
        specs = [Cyclic(1), Cyclic(8), Dihedral(2), Dihedral(6), Dihedral(4), Quaternion8(),
                 parse_group_spec("C3 x C4"), parse_group_spec("C2 x C2"),
                 parse_group_spec("D6 x C5"), parse_group_spec("Q8 x C3")]
        for _ in range(20):
            factors = [rng.choice([Cyclic(rng.randrange(1, 16)),
                                   Dihedral(2 * rng.randrange(1, 8)),
                                   Quaternion8()])
                       for _ in range(rng.randrange(1, 4))]
            g = product(factors)
            if g.order <= 300:
                specs.append(g)
        for g in specs:
            has_full_order = g.order in dict(order_spectrum(g).entries)
            assert g.is_cyclic == has_full_order, str(g)

    def test_nilpotent_detection(self):
        assert Quaternion8().is_nilpotent
        assert Dihedral(8).is_nilpotent
        assert not Dihedral(6).is_nilpotent
        assert parse_group_spec("Q8 x C3").is_nilpotent
        assert not parse_group_spec("D6 x C5").is_nilpotent

    def test_flags_and_exponent_match_multiplication_table(self):
        # A finite group is nilpotent exactly when any two elements of
        # coprime order commute.
        rng = random.Random(43)
        specs = set()
        while len(specs) < 60:
            factors = [
                rng.choice([Cyclic(rng.randrange(1, 17)), Dihedral(2 * rng.randrange(1, 9)), Quaternion8()])
                for _ in range(rng.randrange(1, 4))
            ]
            g = product(factors)
            if g.order <= 64:
                specs.add(g)
        seen = set()
        for g in sorted(specs, key=str):
            elements, mul, identity = group_table(g)
            orders = {x: element_order(x, mul, identity) for x in elements}
            pairs = list(itertools.combinations(elements, 2))
            abelian = all(mul(a, b) == mul(b, a) for a, b in pairs)
            nilpotent = all(
                mul(a, b) == mul(b, a) for a, b in pairs if gcd(orders[a], orders[b]) == 1
            )
            assert g.is_nilpotent == nilpotent, str(g)
            seen.add((abelian, nilpotent))
        assert seen == {(True, True), (False, True), (False, False)}


class TestAbelianEnumeration:
    def test_counts_are_partition_products(self):
        assert len(list(abelian_specs(512))) == 30  # partitions of 9
        assert len(list(abelian_specs(36))) == 4
        assert len(list(abelian_specs(1))) == 1
        assert len(list(abelian_specs(30))) == 1  # squarefree: cyclic only

    def test_every_spec_has_right_order(self):
        for n in (8, 16, 36, 72, 360):
            specs = list(abelian_specs(n))
            assert len(set(specs)) == len(specs)
            for g in specs:
                assert g.order == n
