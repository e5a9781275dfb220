import random
from decimal import Context, Inexact, Overflow, localcontext
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st

import lehmer_psi.sieve as sieve_module
from conftest import divisor_totient_pairs, naive_divisors, naive_factor, naive_phi, naive_sigma
from lehmer_psi.arith import (
    DomainError,
    approx_str,
    Factorization,
    euler_phi,
    factor,
    fraction_str,
    is_prime,
    is_squarefree,
    primality,
    sigma,
)
from lehmer_psi.scan import SCAN_LIMIT
from lehmer_psi.sieve import totient_range


class TestFactor:
    def test_one_has_empty_factorization(self):
        assert factor(1) == Factorization(1, ())

    def test_561(self):
        assert factor(561).factors == ((3, 1), (11, 1), (17, 1))

    def test_prime_square(self):
        assert factor(4).factors == ((2, 2),)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            factor(0)

    def test_against_naive_oracle(self):
        for n in range(1, 5000):
            assert list(factor(n).factors) == naive_factor(n)

    def test_left_inverse_dense(self):
        for n in range(1, 100_001):
            f = factor(n)
            prod = 1
            for p, a in f:
                prod *= p**a
            assert prod == n

    def test_left_inverse_sampled_to_1e6(self):
        rng = random.Random(7)
        for _ in range(5000):
            n = rng.randrange(100_001, 1_000_001)
            f = factor(n)
            prod = 1
            for p, a in f:
                prod *= p**a
            assert prod == n

    def test_against_sympy_around_1e7(self):
        # factor once switched trial-division loops at 10^7
        for n in range(10**7 - 2000, 10**7 + 2001):
            assert dict(factor(n).factors) == sympy.factorint(n), n

    def test_cofactors_at_the_trial_limit(self):
        # 9973 is the last prime below the 10^4 wheel limit, 10007 and 10009
        # the first above it; beyond 10^8 the cofactor goes to Brent rho
        for n in (
            9973 * 10007,
            10007**2,
            10007 * 10009,
            9973 * 10007 * 10009,
            2**3 * 3 * 10007 * 10009,
            10007**3,
        ):
            assert dict(factor(n).factors) == sympy.factorint(n), n

    def test_large_semiprime_uses_rho_path(self):
        p, q = 1_000_003, 1_000_033
        assert factor(p * q).factors == ((p, 1), (q, 1))

    def test_large_mixed(self):
        n = 2**5 * 3**2 * 999_999_937  # prime cofactor above the trial range
        assert factor(n).factors == ((2, 5), (3, 2), (999_999_937, 1))
        assert dict(sympy.factorint(n)) == dict(factor(n).factors)

    def test_deterministic(self):
        n = 600_851_475_143 * 97
        assert factor(n) == factor(n)

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            Factorization(12, ((3, 1), (2, 2)))  # primes out of order
        with pytest.raises(DomainError):
            Factorization(12, ((2, 2), (3, 0)))
        with pytest.raises(DomainError):
            Factorization(8, ((2, 2),))  # product mismatch
        with pytest.raises(DomainError):
            Factorization(15, ((15, 1),))  # 15 is not prime
        for n in (1, 561, 2**5 * 3**2 * 999_999_937):
            assert Factorization(n, factor(n).factors) == factor(n)


class TestPrimality:
    def test_examples(self):
        assert is_prime(2)
        assert not is_prime(561)
        assert is_prime(7919)

    def test_7919_by_trial_division(self):
        assert all(7919 % d for d in range(2, 90))

    def test_small_range_against_sympy(self):
        for n in range(0, 20_000):
            assert is_prime(n) == sympy.isprime(n)

    def test_random_64bit_against_sympy(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(2**62, 2**64)
            assert is_prime(n) == sympy.isprime(n)

    def test_metadata_flags(self):
        assert primality(2**61 - 1).deterministic
        assert primality(2**61 - 1).probable_prime
        big = 10**24 + 7
        res = primality(big)
        assert not res.deterministic
        assert res.probable_prime == sympy.isprime(big)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            primality(-1)


class TestMultiplicativeFunctions:
    def test_phi_examples(self):
        assert euler_phi(factor(1)) == 1
        assert euler_phi(factor(561)) == 320
        for p in (2, 3, 5, 7919):
            assert euler_phi(factor(p)) == p - 1

    def test_phi_against_gcd_count(self):
        for n in range(1, 2000):
            assert euler_phi(factor(n)) == naive_phi(n)

    def test_sigma_examples(self):
        assert sigma(factor(1)) == 1
        assert sigma(factor(6)) == 12  # perfect
        assert sigma(factor(561)) == 864

    def test_sigma_against_divisor_loop(self):
        for n in range(1, 2000):
            assert sigma(factor(n)) == naive_sigma(n)

    def test_divisor_count(self):
        for n in range(1, 3000):
            f = factor(n)
            expected = 1
            for _, a in f:
                expected *= a + 1
            ds = [d for d, _ in divisor_totient_pairs(f)]
            assert len(ds) == expected
            assert ds == naive_divisors(n)
            assert ds == sorted(ds)

    def test_divisor_totient_pairs(self):
        for n in (1, 12, 60, 561, 1024):
            pairs = divisor_totient_pairs(factor(n))
            assert [d for d, _ in pairs] == naive_divisors(n)
            for d, ph in pairs:
                assert ph == naive_phi(d)

    def test_squarefree(self):
        assert is_squarefree(factor(561))
        assert not is_squarefree(factor(12))
        assert is_squarefree(factor(1))

    def test_gauss_identity_to_1e5(self):
        # sum of phi over the divisors of n gives n back
        limit = 100_000
        phis = totient_range(1, limit)
        acc = [0] * (limit + 1)
        for d in range(1, limit + 1):
            ph = int(phis[d - 1])
            for m in range(d, limit + 1, d):
                acc[m] += ph
        assert all(acc[n] == n for n in range(1, limit + 1))

    def test_sieve_totient_matches_factored_phi(self):
        phis = totient_range(1, 5000)
        for n in range(1, 5001):
            assert int(phis[n - 1]) == euler_phi(factor(n))

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (999_000, 1_001_000),
            (SCAN_LIMIT - 5000, SCAN_LIMIT - 1),
            (3**9, 3**9 + 3000),
            (3**9 - 3000, 3**9),
            (2**20 - 3000, 2**20 - 1),
            (2**20 + 1, 2**20 + 3000),
            (2**20, 2**20),
            (2**31 - 3000, 2**31 - 1),  # the top of the int32 kernel
        ],
    )
    def test_sieve_totient_windows_off_one(self, lo, hi):
        # windows that start past 1, so most primes first strike past index 0,
        # some starting or ending at a prime power; all hold prime powers and
        # numbers with a prime factor above sqrt(hi)
        phis = totient_range(lo, hi)
        assert phis.size == hi - lo + 1
        for n in range(lo, hi + 1):
            assert int(phis[n - lo]) == euler_phi(factor(n)), n

    def test_base_primes_are_sieved_once_up_to_the_scan_limit(self, monkeypatch):
        # the table holds the primes <= 10^4 = isqrt(SCAN_LIMIT), the last of
        # them 9973, so a window with hi >= 9974^2 needs no sieve of its own
        calls = []
        original = sieve_module.primes_upto

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sieve_module, "primes_upto", counting)
        totient_range(SCAN_LIMIT - 2**16 + 1, SCAN_LIMIT)
        assert calls == []

    def test_sieve_totient_refuses_hi_past_int32(self):
        with pytest.raises(DomainError):
            totient_range(2**31 - 10, 2**31)

    def test_phi_multiplicative_all_coprime_pairs_to_1000(self):
        import numpy as np

        phis = totient_range(1, 1_000_000)
        b = np.arange(1, 1001, dtype=np.int64)
        for a in range(1, 1001):
            mask = np.gcd(a, b) == 1
            lhs = phis[a * b[mask] - 1]
            rhs = phis[a - 1] * phis[b[mask] - 1]
            assert (lhs == rhs).all()

    def test_sigma_multiplicative_sampled_coprime_pairs(self):
        from math import gcd

        rng = random.Random(23)
        table = {n: sigma(factor(n)) for n in range(1, 1001)}
        checked = 0
        while checked < 5000:
            a, b = rng.randrange(1, 1001), rng.randrange(1, 1001)
            if gcd(a, b) != 1:
                continue
            assert sigma(factor(a * b)) == table[a] * table[b]
            checked += 1


class TestExactRational:
    @given(
        st.integers(-10**12, 10**12),
        st.integers(1, 10**12),
        st.integers(-10**12, 10**12),
        st.integers(1, 10**12),
    )
    def test_comparison_matches_cross_multiplication(self, a, b, c, d):
        assert (Fraction(a, b) < Fraction(c, d)) == (a * d < c * b)
        assert (Fraction(a, b) == Fraction(c, d)) == (a * d == c * b)

    @given(
        st.integers(-10**9, 10**9),
        st.integers(1, 10**9),
        st.integers(-10**9, 10**9),
        st.integers(1, 10**9),
    )
    def test_arithmetic_matches_integer_formulas(self, a, b, c, d):
        x, y = Fraction(a, b), Fraction(c, d)
        assert x + y == Fraction(a * d + c * b, b * d)
        assert x * y == Fraction(a * c, b * d)
        assert x - y == Fraction(a * d - c * b, b * d)

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_lowest_terms(self, a, b):
        from math import gcd

        x = Fraction(a, b)
        assert gcd(x.numerator, x.denominator) == 1 or x.numerator == 0
        assert x.denominator > 0

    def test_fraction_str_literals(self):
        assert fraction_str(Fraction(14, 48)) == "7/24"
        assert fraction_str(Fraction(-3, 4)) == "-3/4"
        assert fraction_str(5) == "5/1"
        assert fraction_str(0) == "0/1"


def _approx_reference(x: Fraction | int, significant: int = 10) -> str:
    """approx_str by exact Fraction scaling and half-up rounding, no decimal."""
    x = Fraction(x)
    if x == 0:
        return "\u2248 0"
    sign = "-" if x < 0 else ""
    x = abs(x)
    mag = 0
    while x >= 10:
        x /= 10
        mag += 1
    while x < 1:
        x *= 10
        mag -= 1
    scaled = x * 10 ** (significant - 1)
    digits = scaled.numerator // scaled.denominator
    if 2 * (scaled - digits) >= 1:
        digits += 1
        if digits == 10**significant:
            digits //= 10
            mag += 1
    text = str(digits)
    if 0 <= mag < significant:
        intpart = text[: mag + 1]
        frac = text[mag + 1 :].rstrip("0")
        return f"\u2248 {sign}{intpart}" + (f".{frac}" if frac else "")
    if -4 <= mag < 0:
        body = "0." + "0" * (-mag - 1) + text.rstrip("0")
        return f"\u2248 {sign}{body.rstrip('.')}"
    return f"\u2248 {sign}{text[0]}.{text[1:].rstrip('0') or '0'}e{mag}"


class TestApproxDisplay:
    def test_ten_significant_digits_default(self):
        assert approx_str(Fraction(7, 24)) == "\u2248 0.2916666667"

    def test_precision_parameter(self):
        assert approx_str(Fraction(1, 3), significant=4) == "\u2248 0.3333"

    def test_integers_and_magnitudes(self):
        assert approx_str(Fraction(24)) == "\u2248 24"
        assert approx_str(Fraction(0)) == "\u2248 0"
        assert approx_str(Fraction(-1, 4), significant=3) == "\u2248 -0.25"

    @given(
        st.integers(1, 10**40),
        st.integers(1, 10**40),
        st.booleans(),
        st.integers(1, 30),
    )
    @example(99999999995, 10**10, False, 10)  # rounds up to "10"
    @example(1, 8, True, 2)  # a tie: half-up gives "-0.13", half-even "-0.12"
    def test_matches_the_fraction_reference(self, num, den, negative, significant):
        x = Fraction(-num if negative else num, den)
        assert approx_str(x, significant) == _approx_reference(x, significant)

    def test_ignores_the_callers_decimal_context(self):
        cases = (Fraction(1, 3), Fraction(10**9, 7))
        outside = [approx_str(x) for x in cases]
        with localcontext(Context(prec=2, Emin=-3, Emax=3, traps=[Inexact, Overflow])):
            assert [approx_str(x) for x in cases] == outside

    def test_large_magnitude_uses_exponent(self):
        out = approx_str(Fraction(10**30, 7), significant=5)
        assert "e" in out and out.startswith("\u2248 1.4286")
