import dataclasses
import itertools
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    as_json_dicts,
    binding_inequality,
    chain_justification,
    excluded,
    exclusion_oracle,
    psi_double_prime,
    swept_exclusions,
    uses_stated_floor,
    verdict_as_dict,
)
from test_reference_output import LEHMER_CHECK_DIGESTS
import lehmer_psi.engine as engine_module
from lehmer_psi import cli
from lehmer_psi.arith import DomainError, euler_phi, factor, is_prime, sigma
from lehmer_psi.bounds import witness_lower_bound
from lehmer_psi.carmichael import carmichael_in_range
from lehmer_psi.engine import (
    CONGRUENCE,
    GENERIC_PROFILE,
    ExclusionColumns,
    N_FLOOR_BASE,
    N_FLOOR_RAISED,
    PI2_HIGH,
    PI2_LOW,
    SMALL_PRIMES,
    abundancy_bound,
    certified_close,
    chain_upper,
    enumerate_worlds,
    exclude_k,
    k_ladder,
    ladder_condition,
    lehmer_check,
    make_profile,
    min_k,
    parse_profile_spec,
    profile_from_factorization,
    two_power_threshold,
    universal_k_floor,
    witness_double_prime,
    witness_group,
)


def _decisions(entries):
    """Per k, each world's chain bound pair (None for the congruence rule)
    and whether it excludes k, read from oracle entries."""
    return tuple(
        (entry["k"], tuple(
            (None if j["rule"].startswith(CONGRUENCE) else j["rhs"].as_integer_ratio(), j["excluded"])
            for j in entry["justifications"]))
        for entry in entries
    )


def _column_decisions(columns):
    """The same decisions read from exclusion columns."""
    return tuple(
        (k, tuple((column[i], k not in missed) for column, missed in zip(columns.rhs, columns.misses)))
        for i, k in enumerate(columns.ks)
    )


def _entries(columns):
    """columns.to_json() read back, "lhs" and "rhs" as Fractions."""
    entries = json.loads(columns.to_json())
    for entry in entries:
        for j in entry["justifications"]:
            j["lhs"], j["rhs"] = Fraction(j["lhs"]), Fraction(j["rhs"])
    return entries


def _swept_min_k(profile):
    """min_k built on the k-by-k sweep it used before its closed-form floor,
    kept as the oracle: (k, applied_rules, n_floor_used, decisions)."""
    rules = []
    if profile.n is None and profile.n_floor < N_FLOOR_RAISED and swept_exclusions(GENERIC_PROFILE)[0] >= 3:
        profile = dataclasses.replace(profile, n_floor=N_FLOOR_RAISED)
        rules.append("n-floor-escalation: universal k >= 3 implies n > 10^8171; swept again")
    floor_k, exclusions = swept_exclusions(profile)
    for entry in exclusions:
        rows = entry["justifications"]
        kinds = sorted({j["rule"].split(":")[0].split(" ")[0] for j in rows if j["excluded"]})
        rules.append(f"k={entry['k']} excluded in all {len(rows)} worlds via {', '.join(kinds)}")
    if uses_stated_floor(exclusions):
        rules.append(
            "caveat: chain exclusions assume the stated witness floor phi(n)/(2n); "
            "the independently provable floor is 7*phi(n)/(16n), which does not "
            "support these exclusions (see witness-floor checks)"
        )
    if profile.q is not None and profile.q >= 17:
        ladder = k_ladder(profile.q, mode="strict")
        rules.append(f"ladder(strict) at q={profile.q}: k >= {ladder.k_floor} (R={ladder.R})")
        printed = k_ladder(profile.q, mode="as-printed", R=4)
        if printed.k_floor is not None and printed.k_floor != ladder.k_floor:
            rules.append(f"ladder(as-printed, R=4) would claim k >= {printed.k_floor}; not applied")
    return floor_k, tuple(rules), profile.n_floor, _decisions(exclusions)


def _symbolic_profiles(qs, n_floor=N_FLOOR_BASE):
    """Every consistent profile over the states of 3, 5, 7, 11 and 13 (divides,
    does not divide, unknown) for each q in qs."""
    states = ("divides", "not_divides", None)
    profiles = set()
    for q in qs:
        for assignment in itertools.product(states, repeat=5):
            sets = {
                state: [p for p, s in zip((3, 5, 7, 11, 13), assignment) if s == state]
                for state in states[:2]
            }
            try:
                profile = make_profile(q=q, **sets)
                profiles.add(dataclasses.replace(profile, n_floor=n_floor))
            except DomainError:
                continue
    return profiles


def _carmichael_profiles(limit):
    return [profile_from_factorization(factor(n)) for n in carmichael_in_range(2, limit)]


class TestThresholds:
    def test_exclusion_threshold_values(self):
        assert chain_upper((), 3, 2) == Fraction(7, 24)
        assert chain_upper((), 11, 2) == Fraction(21, 88)
        assert chain_upper((), 17, 3) == Fraction(133, 816)

    def test_monotone_in_R_and_q(self):
        qs = [q for q in range(3, 98) if all(q % d for d in range(2, q))]
        for q in qs:
            for R in range(2, 10):
                assert chain_upper((), q, R + 1) < chain_upper((), q, R)
        for R in range(2, 11):
            for qa, qb in zip(qs, qs[1:]):
                assert chain_upper((), qb, R) < chain_upper((), qa, R)

    def test_two_power_threshold_values(self):
        assert two_power_threshold(1) == Fraction(13, 42)
        assert two_power_threshold(2) == Fraction(7, 24)
        assert two_power_threshold(3) == Fraction(9, 32)
        assert two_power_threshold(4) == Fraction(2055, 8064)
        assert two_power_threshold(5) == Fraction(16, 63) + Fraction(1, 9 * 2**9)
        with pytest.raises(DomainError):
            two_power_threshold(0)

    def test_refined_thresholds_reproduce_from_chains(self):
        assert chain_upper((5,), 11, 2) == Fraction(175, 704)
        assert chain_upper((5, 7), 17, 2) == Fraction(1007, 4080)
        assert chain_upper((5,), 11, 2) == Fraction(7, 16) * (Fraction(21, 44) + Fraction(1, 11))
        assert chain_upper((5, 7), 17, 2) == Fraction(7, 16) * (
            Fraction(1804, 3570) + Fraction(1, 17)
        )
        with pytest.raises(DomainError):
            chain_upper((5,), 2, 2)

    def test_chain_with_empty_split_is_the_generic_threshold(self):
        for q in (3, 5, 7, 11, 13, 17, 97):
            for k in range(2, 8):
                assert chain_upper((), q, k) == Fraction(7 * (q - 1 + k), 16 * k * q)


class TestProfiles:
    def test_generic(self):
        assert GENERIC_PROFILE.describe() == "generic"
        assert GENERIC_PROFILE.n_floor == N_FLOOR_BASE

    def test_q_fixes_smaller_primes(self):
        p = make_profile(q=5)
        assert 3 in p.not_divides and 5 in p.divides
        assert 11 in p.not_divides  # Carmichael multiples of 5 avoid 11

    def test_q_beyond_13_excludes_all(self):
        p = make_profile(q=17)
        assert p.not_divides == frozenset({3, 5, 7, 11, 13})

    def test_inconsistencies_rejected(self):
        with pytest.raises(DomainError):
            make_profile(q=5, divides=[3])
        with pytest.raises(DomainError):
            make_profile(q=4)
        with pytest.raises(DomainError):
            make_profile(divides=[5, 11])
        with pytest.raises(DomainError):
            make_profile(divides=[7], not_divides=[7])
        with pytest.raises(DomainError):
            make_profile(divides=[2])

    def test_describe_round_trips_through_the_profile_dsl(self):
        # every divides / does-not-divide / unknown assignment to the small
        # primes, under each q; the inconsistent ones are rejected by make_profile
        profiles = []
        for q in (None, 3, 5, 7, 11, 13, 17, 101, 10007):
            for marks in itertools.product("d!?", repeat=len(SMALL_PRIMES)):
                divides = [p for p, m in zip(SMALL_PRIMES, marks) if m == "d"]
                not_divides = [p for p, m in zip(SMALL_PRIMES, marks) if m == "!"]
                try:
                    profiles.append(make_profile(q=q, divides=divides, not_divides=not_divides))
                except DomainError:
                    pass
        assert len(profiles) == 680
        for p in profiles:
            assert parse_profile_spec(p.describe()) == p

    def test_q_derived_when_determined(self):
        assert make_profile(divides=[5], not_divides=[3]).q == 5
        assert make_profile(divides=[5]).q is None  # 3 still unknown

    def test_concrete_profile(self):
        p = profile_from_factorization(factor(561))
        assert p.n == 561 and p.q == 3
        assert p.divides == frozenset({3, 11})
        for bad in (9, 15 * 2, 7):
            with pytest.raises(DomainError):
                profile_from_factorization(factor(bad))

    def test_world_enumeration_counts(self):
        # five unknowns minus the impossible 5&11 assignments
        assert len(enumerate_worlds(GENERIC_PROFILE)) == 24
        assert len(enumerate_worlds(make_profile(q=17))) == 1
        assert len(enumerate_worlds(profile_from_factorization(factor(561)))) == 1


class TestExcludeK:
    def test_q3_k2_excluded_by_congruence(self):
        (res,) = _entries(exclude_k(make_profile(q=3), 2))
        assert excluded(res)
        assert all("k-congruence-3" in j["rule"] for j in res["justifications"] if j["excluded"])

    def test_q5_without_7_k2_excluded(self):
        (res,) = _entries(exclude_k(make_profile(q=5, not_divides=[7]), 2))
        assert excluded(res)
        for j in res["justifications"]:
            assert j["lhs"] >= j["rhs"]  # the recorded inequality reproduces

    def test_q17_k3_excluded_at_raised_floor(self):
        (res,) = _entries(exclude_k(dataclasses.replace(make_profile(q=17), n_floor=N_FLOOR_RAISED), 3))
        assert excluded(res)
        j = res["justifications"][0]
        assert j["rhs"] == Fraction(133, 816)
        assert j["lhs"] == Fraction(1, 6) * (1 - Fraction(1, N_FLOOR_RAISED))

    def test_q7_k2_excluded_via_divisor_split(self):
        res = exclude_k(make_profile(q=7), 2)
        assert not any(res.misses)

    def test_not_excluded_cases(self):
        assert any(exclude_k(make_profile(q=5, not_divides=[7]), 3).misses)
        raised = dataclasses.replace(make_profile(q=17), n_floor=N_FLOOR_RAISED)
        assert any(exclude_k(raised, 4).misses)

    @pytest.mark.parametrize("q, n_floor, k", [(23, 92, 4), (29, 232, 5), (43, 43, 6), (67, 134, 10)])
    def test_floor_meeting_the_chain_bound_excludes(self, q, n_floor, k):
        # (1 - 1/n_floor)/(2k) equals the one world's chain bound 7(q - 1 + k)/(16qk)
        # exactly, and a floor that meets the bound excludes k
        profile = dataclasses.replace(make_profile(q=q), n_floor=n_floor)
        (row,) = exclusion_oracle(profile, k)["justifications"]
        assert row["lhs"] == row["rhs"] and row["excluded"]
        ks = range(2, k + 2)
        oracle = [exclusion_oracle(profile, i) for i in ks]
        assert _column_decisions(engine_module._exclusions(profile, ks)) == _decisions(oracle)
        assert not any(exclude_k(profile, k).misses)

    def test_rejects_k_below_two(self):
        with pytest.raises(DomainError):
            exclude_k(GENERIC_PROFILE, 1)

    def test_concrete_uses_exact_n(self):
        profile = profile_from_factorization(factor(2465))  # 5 * 17 * 29
        (res,) = _entries(exclude_k(profile, 2))
        assert excluded(res)
        j = chain_justification(res)
        assert j["lhs"] == Fraction(2464, 2 * 2 * 2465)


class TestMinK:
    def test_universal_floor_is_three(self):
        assert universal_k_floor() == 3

    def test_matrix(self):
        assert min_k(make_profile(divides=[3])).k == 4
        assert min_k(make_profile(not_divides=[3])).k == 3
        assert min_k(make_profile(not_divides=[3, 5, 7, 11, 13])).k == 4
        assert min_k(make_profile(q=3)).k == 4
        assert min_k(make_profile(q=17)).k == 4
        assert min_k(GENERIC_PROFILE).k == 3

    def test_congruence_rule_in_trace(self):
        result = min_k(make_profile(divides=[3]))
        assert any("k-congruence-3" in j["rule"] for res in _entries(result.columns) for j in res["justifications"])

    def test_q5_exact_floors(self):
        assert min_k(make_profile(q=5, divides=[7, 13])).k == 3
        assert min_k(make_profile(q=5, divides=[7], not_divides=[13])).k == 3
        assert min_k(make_profile(q=5, not_divides=[7])).k == 3

    def test_floor_never_decreases_with_constraints(self):
        base = min_k(GENERIC_PROFILE).k
        assert min_k(make_profile(not_divides=[3])).k >= base
        assert min_k(make_profile(not_divides=[3, 5])).k >= min_k(make_profile(not_divides=[3])).k
        assert min_k(make_profile(q=17)).k >= min_k(make_profile(not_divides=[3, 5, 7, 11])).k

    def test_escalation_recorded(self):
        result = min_k(make_profile(q=17))
        assert result.n_floor_used == N_FLOOR_RAISED
        assert any("n-floor-escalation" in rule for rule in result.applied_rules)

    def test_ladder_consistency_for_large_q(self):
        for q in (17, 19, 23, 29, 97):
            assert min_k(make_profile(q=q)).k == k_ladder(q, mode="strict").k_floor

    def test_chain_caveat_surfaced(self):
        result = min_k(make_profile(q=5, not_divides=[7]))
        assert any("caveat" in rule for rule in result.applied_rules)

    def test_raised_floor_excludes_whatever_the_base_floor_does(self):
        # min_k solves a symbolic profile only at the raised floor; that is
        # sound because a higher n_floor can only exclude more k
        profiles = _symbolic_profiles((None, 17, 101))
        assert len(profiles) > 100
        for profile in profiles:
            raised = dataclasses.replace(profile, n_floor=N_FLOOR_RAISED)
            for k in range(2, 21):
                if not any(exclude_k(profile, k).misses):
                    assert not any(exclude_k(raised, k).misses), (profile.describe(), k)

    def test_worlds_built_and_swept_once_per_call(self, monkeypatch):
        # one world build, one closed-form floor, and the sweep receives each
        # k from 2 up to the floor once (the floor itself, through exclude_k,
        # is the surviving check)
        universal_k_floor()  # cached; its own floor is not counted
        builds, floors, swept = [], [], []
        enumerate_original = engine_module.enumerate_worlds
        floor_original, sweep_original = engine_module._k_floor, engine_module._exclusions

        def counting_enumerate(profile):
            builds.append(profile)
            return enumerate_original(profile)

        def counting_floor(profile):
            floors.append(profile)
            return floor_original(profile)

        def counting_sweep(profile, ks):
            swept.extend(ks)
            return sweep_original(profile, ks)

        monkeypatch.setattr(engine_module, "enumerate_worlds", counting_enumerate)
        monkeypatch.setattr(engine_module, "_k_floor", counting_floor)
        monkeypatch.setattr(engine_module, "_exclusions", counting_sweep)
        profiles = [profile_from_factorization(factor(n)) for n in (561, 2465, 29341, 41041)]
        for profile in profiles + [GENERIC_PROFILE, make_profile(q=5), make_profile(q=101)]:
            builds.clear()
            floors.clear()
            swept.clear()
            result = min_k(profile)
            assert len(result.columns.ks) >= 1
            assert (len(builds), len(floors)) == (1, 1), profile.describe()
            assert swept == list(range(2, result.k + 1)), profile.describe()
            if profile.n is None:
                assert result.n_floor_used == N_FLOOR_RAISED

    def test_carmichael_floors_match_the_sweep(self):
        profiles = _carmichael_profiles(10**7)
        assert len(profiles) == 105
        for profile in profiles:
            result = min_k(profile)
            got = (result.k, result.applied_rules, result.n_floor_used, _column_decisions(result.columns))
            assert got == _swept_min_k(profile), profile.n

    @pytest.mark.parametrize("n_floor", [N_FLOOR_BASE, N_FLOOR_RAISED], ids=["base", "raised"])
    def test_symbolic_floors_match_the_sweep(self, n_floor):
        profiles = _symbolic_profiles((None, 17, 101, 10007), n_floor)
        assert len(profiles) > 100
        for profile in profiles:
            result = min_k(profile)
            got = (result.k, result.applied_rules, result.n_floor_used, _column_decisions(result.columns))
            assert got == _swept_min_k(profile), profile.describe()

    @pytest.mark.parametrize("n_floor", [N_FLOOR_BASE, N_FLOOR_RAISED], ids=["base", "raised"])
    def test_exclude_k_is_the_one_k_case_of_the_sweep(self, n_floor):
        # min_k sweeps every world over all k below its floor at once; exclude_k
        # at each k, the floor included, must agree with it
        profiles = _carmichael_profiles(10**7) + sorted(
            _symbolic_profiles((None, 17, 101, 10007), n_floor), key=lambda p: p.describe())
        assert len(profiles) > 200
        for profile in profiles:
            result = min_k(profile)
            solved = dataclasses.replace(profile, n_floor=result.n_floor_used)
            at_floor = exclude_k(solved, result.k)
            assert any(at_floor.misses), profile.describe()
            columns = result.columns
            for i, k in enumerate(columns.ks):
                one = columns._replace(ks=range(k, k + 1), rhs=tuple(c[i:i + 1] for c in columns.rhs),
                                       misses=tuple(m & {k} for m in columns.misses))
                assert exclude_k(solved, k) == one, (profile.describe(), k)
            assert at_floor == engine_module._exclusions(solved, range(result.k, result.k + 1))

    def test_world_constants_give_the_chain_bound(self):
        # _World.sweep is the one home of the chain bound; every column entry
        # exclude_k returns, for each world and witness floor once, reproduces
        # the Fraction route: the chain bound as a pair in lowest terms and
        # excluded when the floor L/k meets it, None for the congruence rule
        symbolic = sorted(_symbolic_profiles((None, 17, 101, 10007)), key=lambda p: -len(p.worlds))
        profiles = _carmichael_profiles(10**7) + symbolic
        worlds = {world for profile in profiles for world in profile.worlds}
        assert len(worlds) > 50
        bounds = {(world, k): chain_upper(world.divides, world.tail, k) for world in worlds for k in range(2, 301)}
        seen = set()
        for profile in profiles:
            fresh = [i for i, world in enumerate(profile.worlds)
                     if (world, profile.witness_floor) not in seen]
            seen.update((world, profile.witness_floor) for world in profile.worlds)
            if not fresh:
                continue
            for k in range(2, 301):
                res, floor = exclude_k(profile, k), profile.witness_floor / k
                assert (res.floor, res.ks) == (profile.witness_floor, range(k, k + 1))
                for i in fresh:
                    world, (rhs,), missed = profile.worlds[i], res.rhs[i], res.misses[i]
                    if 3 in world.divides and k % 3 != 1:
                        assert (rhs, k in missed) == (None, False), (world, k)
                    else:
                        bound = bounds[world, k]
                        assert rhs == (bound.numerator, bound.denominator), (world, k)
                        assert (k not in missed) == (floor >= bound), (world, k)
        assert len(seen) > 100

    def test_min_k_builds_no_fraction_per_excluded_k(self, monkeypatch):
        # each excluded k is decided and rendered from integer pairs; a Fraction
        # per k (14 425 of them at q = 100981) is what this rules out
        built = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(engine_module, "Fraction", CountingFraction)
        profile = profile_from_factorization(factor(6178246534322281))
        result = min_k(profile)
        assert (profile.q, result.k, len(result.columns.ks)) == (100981, 14427, 14425)
        assert len(built) < 100

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_wrong_floor_is_caught(self, monkeypatch, shift):
        floor_original = engine_module._k_floor
        monkeypatch.setattr(engine_module, "_k_floor", lambda p: floor_original(p) + shift)
        with pytest.raises(AssertionError, match="closed-form k floor"):
            min_k(profile_from_factorization(factor(2465)))


class TestLadder:
    def test_strict_q17(self):
        res = k_ladder(17, mode="strict")
        assert res.R == 3 and res.k_floor == 4
        assert res.condition == Fraction(133, 136)

    def test_as_printed_q17_rung4(self):
        res = k_ladder(17, mode="as-printed", R=4)
        assert res.condition == Fraction(10, 17)
        assert res.k_floor == 5

    def test_strict_q17_rung4_inconclusive(self):
        res = k_ladder(17, mode="strict", R=4)
        assert res.condition == Fraction(35, 34)
        assert res.k_floor is None

    def test_condition_values(self):
        assert ladder_condition(17, 3, "strict") == Fraction(7, 8) * 3 * (
            Fraction(16, 51) + Fraction(1, 17)
        )
        with pytest.raises(DomainError):
            ladder_condition(17, 1)
        with pytest.raises(DomainError):
            ladder_condition(17, 3, "other")

    def test_domain(self):
        with pytest.raises(DomainError):
            k_ladder(13)
        with pytest.raises(DomainError):
            k_ladder(18)

    def test_strict_max_formula(self):
        # strict condition < 1 iff 7R < q + 7
        for q in (17, 19, 97, 101):
            expected = (q + 6) // 7
            assert k_ladder(q, mode="strict").R == expected

    @staticmethod
    def _climbed_ladder(q, mode):
        """The rung-by-rung climb: R = 2, 3, ... while the condition stays
        below 1; the last such rung gives the floor."""
        best = None
        r = 2
        while (cond := ladder_condition(q, r, mode)) < 1:
            best = (r, cond, r + 1)
            r += 1
        return best

    @pytest.mark.parametrize("mode", ["strict", "as-printed"])
    def test_closed_form_matches_climb(self, mode):
        for q in range(17, 1001):
            if not is_prime(q):
                continue
            res = k_ladder(q, mode=mode)
            assert (res.q, res.mode) == (q, mode)
            assert (res.R, res.condition, res.k_floor) == self._climbed_ladder(q, mode), q
        assert k_ladder(997, mode="as-printed").R == 997


class TestPiSquaredSandwich:
    def test_bracket_and_width(self):
        assert PI2_LOW < PI2_HIGH
        assert PI2_HIGH - PI2_LOW == Fraction(1, 10**40)

    def test_against_float_pi(self):
        # independent cross-check of the hard-coded sandwich against the
        # float libm value (display precision only; verdict paths never float)
        assert abs(float(PI2_LOW) - math.pi**2) < 1e-12
        assert abs(float(PI2_HIGH) - math.pi**2) < 1e-12

    def test_certified_close(self):
        assert certified_close(24, Fraction(2431708, 10**6), Fraction(5, 10**7))
        assert certified_close(
            Fraction(715715, 18432), Fraction(39343, 10**4), Fraction(5, 10**5)
        )
        assert not certified_close(24, Fraction(24318, 10**4), Fraction(1, 10**7))


class TestAbundancy:
    def test_ratio_window_for_squarefree_to_1e4(self):
        for n in range(2, 10_001):
            f = factor(n)
            if any(a > 1 for _, a in f):
                continue
            ratio = Fraction(euler_phi(f) * sigma(f), n * n)
            assert ratio < 1
            assert ratio >= 6 / PI2_LOW, n  # so above 6/pi^2, as PI2_LOW < pi^2

    def test_generic_coefficient(self):
        assert abundancy_bound(GENERIC_PROFILE, min_k(GENERIC_PROFILE).k) == 24

    def test_five_free_coefficient(self):
        profile = make_profile(not_divides=[3, 5, 7, 11, 13])
        assert abundancy_bound(profile, min_k(profile).k) == Fraction(715715, 18432)

    def test_lower_constant_correction(self):
        # the odd-n constant 8, and 9 = 8 * 9/8 once 3 does not divide n
        assert abundancy_bound(GENERIC_PROFILE, 1) == 8
        assert abundancy_bound(make_profile(not_divides=[3]), 1) == 9

    def test_three_divides_coefficient(self):
        profile = make_profile(divides=[3])
        assert abundancy_bound(profile, min_k(profile).k) == 32  # 8 * min_k 4


class TestWitness:
    def test_construction_examples(self):
        assert str(witness_group(factor(15))) == "C2 x C2 x C15"
        assert str(witness_group(factor(3))) == "C2 x C2 x C3"
        assert str(witness_group(factor(9))) == "C2 x C2 x C9"

    def test_witness_shape(self):
        for n in (3, 9, 15, 105):
            g = witness_group(factor(n))
            assert g.order == 4 * n
            assert not g.is_cyclic
            assert g.is_nilpotent

    def test_rejects_even(self):
        with pytest.raises(DomainError):
            witness_group(factor(10))

    def test_double_prime_closed_form_matches_spectrum(self):
        for n in (3, 9, 15, 105, 561, 999):
            f = factor(n)
            assert witness_double_prime(f) == psi_double_prime(witness_group(f))

    def test_witness_chain_holds_exactly_on_multiples_of_three(self):
        # the stated floor phi(n)/(2n) fails off 3|n (see the pinned
        # counterexamples); the provable floor holds everywhere
        for n in range(3, 2001, 2):
            f = factor(n)
            if any(a > 1 for _, a in f) or f.omega < 2:
                continue
            stated = witness_double_prime(f) > witness_lower_bound(f)
            assert stated == (n % 3 == 0), n
            assert witness_double_prime(f) > witness_lower_bound(f, mode="provable")

    def test_witness_chain_counterexamples_pinned(self):
        assert witness_double_prime(factor(35)) == Fraction(129, 400)
        assert witness_lower_bound(factor(35)) == Fraction(12, 35)
        assert witness_double_prime(factor(35)) < witness_lower_bound(factor(35))
        # 1105 is a genuine Carmichael number with 3 not dividing it
        assert witness_double_prime(factor(1105)) < witness_lower_bound(factor(1105))


class TestLehmerCheck:
    def test_561(self):
        v = lehmer_check(561)
        assert v.is_carmichael
        assert not v.phi_divides  # 320 does not divide 560
        assert v.exact_k is None
        assert v.min_k == 4  # 3 | 561
        assert v.witness == "C2 x C2 x C561"
        assert not v.counterexample

    def test_prime(self):
        v = lehmer_check(7)
        assert v.prime and v.exact_k == 1 and v.min_k == 1
        assert v.phi_divides

    def test_15(self):
        v = lehmer_check(15)
        assert not v.prime
        assert not v.is_carmichael
        assert not v.phi_divides  # phi(15) = 8 does not divide 14
        assert v.min_k == 4  # 3 | 15

    def test_2465_floor_three(self):
        v = lehmer_check(2465)  # 5 * 17 * 29, a Carmichael number
        assert v.is_carmichael
        assert v.min_k == 3
        binding = v.binding_inequality()
        assert binding is not None
        num, den = binding[0].split("/")
        assert int(num) > 0 and int(den) > 0

    def test_machinery_not_applied_off_domain(self):
        v9 = lehmer_check(9)
        assert v9.min_k is None and v9.notes
        v4 = lehmer_check(4)
        assert v4.min_k is None
        assert not v4.phi_divides

    def test_rejects_below_two(self):
        with pytest.raises(DomainError):
            lehmer_check(1)

    def test_factors_once(self, monkeypatch):
        import lehmer_psi.carmichael as carmichael_module
        import lehmer_psi.engine as engine_module

        calls = []

        def counting_factor(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(engine_module, "factor", counting_factor)
        monkeypatch.setattr(carmichael_module, "factor", counting_factor)
        for n in (7, 9, 12, 561, 1105):
            calls.clear()
            lehmer_check(n)
            assert calls == [n]

    def test_column_readers_match_the_record_oracle(self):
        # uses_stated_floor, binding_inequality and min_k's caveat read the
        # exclusion columns; conftest reads the same answers from the oracle
        def caveat(rules):
            return any(rule.startswith("caveat: ") for rule in rules)

        for n in [*range(2, 3000), *carmichael_in_range(2, 10**7)]:
            v = lehmer_check(n)
            if v.columns is None:
                assert (v.uses_stated_floor(), v.binding_inequality()) == (False, None), n
                continue
            entries = swept_exclusions(profile_from_factorization(factor(n)))[1]
            stated = uses_stated_floor(entries)
            assert (v.uses_stated_floor(), caveat(v.applied_rules)) == (stated, stated), n
            assert v.binding_inequality() == binding_inequality(entries), n
        for profile in _symbolic_profiles((None, 17, 101)):
            result = min_k(profile)
            solved = dataclasses.replace(profile, n_floor=result.n_floor_used)
            entries = swept_exclusions(solved)[1]
            assert caveat(result.applied_rules) == uses_stated_floor(entries), profile.describe()
            assert result.columns.binding() == binding_inequality(entries), profile.describe()
            # at the floor some world does not exclude k, and its chain row must not count
            at_floor = engine_module._exclusions(solved, range(result.k, result.k + 1))
            entry = [exclusion_oracle(solved, result.k)]
            got = (at_floor.uses_chain(), at_floor.binding())
            assert got == (uses_stated_floor(entry), binding_inequality(entry)), profile.describe()

    def test_verdict_serialization(self):
        d = json.loads(lehmer_check(561).to_json())
        assert d["n"] == 561
        assert d["min_k"] == 4
        assert d["excluded_k"][0]["k"] == 2
        assert isinstance(d["applied_rules"], list)


class TestJustificationReproducibility:
    def test_exclusions_recompute_identically(self):
        profile = make_profile(q=5, divides=[7], not_divides=[13])
        first = exclude_k(profile, 2)
        second = exclude_k(profile, 2)
        assert first == second and first.to_json() == second.to_json()
        for j in _entries(first)[0]["justifications"]:
            # the recorded inequality must hold as recorded
            assert (j["lhs"] >= j["rhs"]) == j["excluded"] or "congruence" in j["rule"]

    def test_chain_parameters_recorded(self):
        (res,) = _entries(exclude_k(make_profile(q=5, divides=[7], not_divides=[13]), 2))
        j = chain_justification(res)
        assert "split=[5, 7]" in j["rule"] and "tail=17" in j["rule"]
        assert j["rhs"] == Fraction(1007, 4080)


# exclusion columns whose world labels and rule texts hold quotes,
# backslashes, control characters and non-ASCII text, with ints of up to 3000
# digits; a floor's numerator may share a factor with k or be prime to it (the
# renderer then prints it from its one decimal text), and a world may leave
# some k unexcluded
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é∤') | st.characters(), max_size=12)
_INT = st.integers(-(10**3000) + 1, 10**3000 - 1) | st.integers(-(10**6), 10**6)
_PAIRS = st.tuples(_INT, _INT)


@st.composite
def _columns(draw):
    start = draw(st.integers(2, 10**6) | st.integers(2, 12))
    ks = range(start, start + draw(st.integers(0, 4)))
    floor = Fraction(draw(_INT) * draw(st.integers(1, 12)), draw(_INT.filter(bool)))
    # the columns read only the label and the rule text before and after k
    worlds = tuple(SimpleNamespace(_chain=(draw(_TEXT), draw(_TEXT), draw(_TEXT)))
                   for _ in range(draw(st.integers(1, 4))))
    rhs = tuple(tuple(draw(st.none() | _PAIRS) for _ in ks) for _ in worlds)
    misses = tuple(frozenset(k for k in ks if draw(st.booleans())) for _ in worlds)
    return ExclusionColumns(worlds, floor, ks, rhs, misses)


def _columns_as_dicts(columns):
    """The dicts whose json.dumps columns.to_json() must equal, read from the
    columns field by field: the floor at k as the Fraction floor/k."""
    docs = []
    for i, k in enumerate(columns.ks):
        lhs = columns.floor / k
        rows = []
        for world, column, missed in zip(columns.worlds, columns.rhs, columns.misses):
            label, prefix, suffix = world._chain[:3]
            if column[i] is None:
                rule = f"{CONGRUENCE}: k={k} is {k % 3} (mod 3), 1 required"
                rows.append({"world": label, "rule": rule, "lhs": f"{k % 3}/1", "rhs": "1/1", "excluded": True})
            else:
                rows.append({"world": label, "rule": f"{prefix}{k}{suffix}",
                             "lhs": f"{lhs.numerator}/{lhs.denominator}", "rhs": "{}/{}".format(*column[i]),
                             "excluded": k not in missed})
        docs.append({"k": k, "justifications": rows})
    return docs


class TestJsonRendering:
    """ExclusionColumns.to_json(), LehmerVerdict.to_json() and min-k JSON equal
    json.dumps of the dicts in conftest."""

    @settings(max_examples=300, deadline=None)
    @given(columns=_columns())
    def test_columns_json_matches_json_dumps(self, columns):
        assert columns.to_json() == json.dumps(_columns_as_dicts(columns))

    @settings(max_examples=100, deadline=None)
    @given(columns=_columns(), zeros=st.integers(0, 40) | st.integers(8000, 8200))
    def test_columns_json_with_trailing_zeros_in_the_floor(self, columns, zeros):
        # the denominator is written as cofactor * (k // g) and bottom's zeros
        floor = columns.floor / 10**zeros
        columns = columns._replace(floor=floor)
        assert columns.to_json() == json.dumps(_columns_as_dicts(columns))

    def test_verdict_json_matches_the_dict_oracle(self):
        # primes, even and non-squarefree n (no excluded k) and every branch
        # of the exclusion trace, up to the 14 425 k of q = 100981
        for n in [*range(2, 3000), *carmichael_in_range(2, 10**6), *LEHMER_CHECK_DIGESTS]:
            v = lehmer_check(n)
            assert v.to_json() == json.dumps(verdict_as_dict(v)), n

    def test_min_k_json_matches_the_dict_oracle(self, capsys):
        # congruence rows, k excluded in many worlds, and the floor, which
        # some world does not exclude
        for profile in _symbolic_profiles((None, 17, 101)):
            spec = profile.describe()
            assert cli.main(["min-k", "--profile", spec, "--format", "json"]) == 0
            result = min_k(profile)
            solved = dataclasses.replace(profile, n_floor=result.n_floor_used)
            doc = {
                "profile": spec,
                "min_k": result.k,
                "n_floor": str(result.n_floor_used),
                "rules": list(result.applied_rules),
                "excluded": as_json_dicts(swept_exclusions(solved)[1]),
            }
            assert capsys.readouterr().out == json.dumps(doc) + "\n", spec
            at_floor = engine_module._exclusions(solved, range(result.k, result.k + 1))
            assert any(at_floor.misses) and at_floor == exclude_k(solved, result.k), spec
            assert at_floor.to_json() == json.dumps(as_json_dicts([exclusion_oracle(solved, result.k)])), spec
