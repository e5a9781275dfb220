import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import korselt_sieve, naive_fermat
from lehmer_psi.arith import DomainError, factor, is_prime
from lehmer_psi.carmichael import (
    RANGE_LIMIT,
    CarmichaelCertificate,
    carmichael_in_range,
    korselt_check,
    korselt_range,
)
from lehmer_psi.sieve import primes_upto

SEGMENT = 1 << 16  # the window carmichael_in_range sieved before the construction
ORACLE_HI = 2 * SEGMENT + 5000
INT32_WINDOWS = [  # the korselt_sieve oracle holds int32 smooth parts, so hi < 2^31
    (2**31 - 3000, 2**31 - 1),  # the last 3000 integers it can check
    (2_140_698_181, 2_140_701_181),  # 127 * 631 * 26713, the last below 2^31
]


@cache
def _korselt_range_cached(lo: int, hi: int) -> tuple[int, ...]:
    """korselt_range(lo, hi), computed once: near 2^31 each call takes about
    a second whatever the window, and two tests check the same windows."""
    return tuple(korselt_range(lo, hi))


@cache
def _scalar_carmichael() -> frozenset:
    """Every n in [2, ORACLE_HI] that the scalar korselt_check certifies."""
    return frozenset(n for n in range(2, ORACLE_HI + 1) if korselt_check(n).is_carmichael)


def _oracle(lo: int, hi: int) -> list[int]:
    return sorted(n for n in _scalar_carmichael() if lo <= n <= hi)


class TestKorseltCheck:
    def test_561_is_carmichael_and_fermat_agrees(self):
        cert = korselt_check(561)
        assert cert.is_carmichael
        assert cert.composite and cert.squarefree and not cert.korselt_failures
        assert naive_fermat(561)

    def test_9_fails_squarefree(self):
        cert = korselt_check(9)
        assert not cert.is_carmichael
        assert not cert.squarefree

    def test_15_failure_list(self):
        cert = korselt_check(15)
        assert not cert.is_carmichael
        assert cert.korselt_failures == (5,)  # 4 does not divide 14

    def test_all_failures_listed(self):
        # 35 = 5 * 7: both 4 and 6 fail to divide 34
        assert korselt_check(35).korselt_failures == (5, 7)

    def test_prime_is_not_carmichael(self):
        cert = korselt_check(13)
        assert not cert.composite
        assert not cert.is_carmichael

    def test_rejects_below_two(self):
        with pytest.raises(DomainError):
            korselt_check(1)
        with pytest.raises(DomainError):
            korselt_check(factor(1))

    def test_accepts_a_factorization(self):
        for n in (9, 15, 35, 561, 1105, 1729, 13):
            assert korselt_check(factor(n)) == korselt_check(n)

    def test_certificate_consistency_enforced(self):
        with pytest.raises(DomainError):
            CarmichaelCertificate(
                n=15, is_carmichael=True, squarefree=True, korselt_failures=(5,), composite=True
            )  # failure list contradicts the flag
        with pytest.raises(DomainError):
            CarmichaelCertificate(
                n=16, is_carmichael=True, squarefree=True, korselt_failures=(), composite=True
            )  # an even Carmichael certificate is impossible


class TestFermatOracle:
    def test_equivalence_with_korselt_on_small_composites(self):
        primes = set(primes_upto(20_000).tolist())
        for n in range(4, 20_001):
            if n in primes:
                continue
            assert korselt_check(n).is_carmichael == naive_fermat(n), n


class TestRangeEnumeration:
    def test_first_three(self):
        assert carmichael_in_range(2, 2000) == [561, 1105, 1729]

    def test_empty_below_561(self):
        assert carmichael_in_range(2, 500) == []

    def test_singleton(self):
        assert carmichael_in_range(561, 561) == [561]

    def test_rejects_inverted_or_low(self):
        with pytest.raises(DomainError):
            carmichael_in_range(100, 10)
        with pytest.raises(DomainError):
            carmichael_in_range(1, 10)

    def test_matches_scalar_korselt_over_range(self):
        expected = [
            n
            for n in range(2, 10_001)
            if korselt_check(n).is_carmichael
        ]
        assert carmichael_in_range(2, 10_000) == expected

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (562, 20_000),
            (1105, 1729),
            (100_001, 130_000),
            *INT32_WINDOWS,
        ],
    )
    def test_kernel_matches_scalar_korselt_off_561(self, lo, hi):
        # windows that start past 561, so most primes first strike past index 0
        expected = [n for n in range(lo, hi + 1) if korselt_check(n).is_carmichael]
        assert list(_korselt_range_cached(lo, hi)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30_000), st.integers(0, 30_000))
    def test_matches_scalar_korselt_on_random_windows(self, lo, width):
        hi = min(lo + width, 30_000)
        assert carmichael_in_range(lo, hi) == _oracle(lo, hi)

    def test_window_across_two_segment_boundaries(self):
        lo, hi = 1000, ORACLE_HI
        assert hi - lo + 1 > 2 * SEGMENT
        assert carmichael_in_range(lo, hi) == _oracle(lo, hi)

    def test_memory_flat_in_the_range_length(self):
        # the construction holds the base primes and the numbers it finds, not
        # the range; an unsegmented sieve of 2*10^6 held ~62 MiB
        tracemalloc.start()
        try:
            carmichael_in_range(2, 2 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak

    def test_rejects_range_past_limit(self):
        # checked just past the limit, where the kernel would still be cheap
        with pytest.raises(DomainError):
            carmichael_in_range(RANGE_LIMIT - 10, RANGE_LIMIT + 1)

    def test_partition_independent(self):
        whole = carmichael_in_range(2, 100_000)
        parts = (
            carmichael_in_range(2, 29_999)
            + carmichael_in_range(30_000, 69_999)
            + carmichael_in_range(70_000, 100_000)
        )
        assert whole == parts

    def test_certified_to_1e6_are_odd_squarefree_omega3(self):
        found = carmichael_in_range(2, 10**6)
        assert found[:3] == [561, 1105, 1729]
        for n in found:
            f = factor(n)
            assert n % 2 == 1
            assert all(a == 1 for _, a in f)
            assert f.omega >= 3
            assert not is_prime(n)
            cert = korselt_check(n)
            assert cert.is_carmichael


class TestConstruction:
    """korselt_range builds Carmichael numbers; the numpy sieve in conftest,
    which tests every integer, checks that the construction misses none."""

    def test_matches_the_sieve_to_the_range_limit(self):
        assert korselt_range(2, RANGE_LIMIT) == korselt_sieve(2, RANGE_LIMIT)

    def test_matches_the_sieve_across_former_segment_edges(self):
        # carmichael_in_range(2, hi) once sieved [2, 1 + 2^16], [2 + 2^16, ...]:
        # each window here is one of those shifted by half, across one edge
        half = SEGMENT // 2
        for edge in range(2 + SEGMENT, 10**6, SEGMENT):
            lo, hi = edge - half, edge + half - 1
            assert korselt_range(lo, hi) == korselt_sieve(lo, hi), (lo, hi)

    @pytest.mark.parametrize("lo, hi", INT32_WINDOWS)
    def test_matches_the_sieve_below_int32(self, lo, hi):
        assert list(_korselt_range_cached(lo, hi)) == korselt_sieve(lo, hi)

    def test_pinch_counts_per_decade(self):
        # Carmichael numbers up to 10^d for d = 3..9 (Pinch 1993; OEIS A055553)
        counts = [len(korselt_range(2, 10**d)) for d in range(3, 10)]
        assert counts == [1, 7, 16, 43, 105, 255, 646]
