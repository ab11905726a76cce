"""Help sets, fiber labelling, self-coding sets, and the decoder."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genco import (
    EventuallyPeriodicSeq,
    Evens,
    ExplicitPeriodic,
    FuelExhausted,
    MalformedCodeElement,
    Primes,
    SelfCode,
    decode,
    difference_prefix,
    eta,
    eta_fiber_element,
    help_set_from_config,
    recover_from_subset,
    selfcode_element,
    theta,
    theta_fiber,
)
from genco.coding import prefix_code
from genco.primes import nth_prime
from genco.serialize import str_digit_limit
import oracles
from conftest import random_seq

EVENS = Evens()
PRIMES = Primes()


def builtin_help_sets():
    return [
        EVENS,
        PRIMES,
        SelfCode(EventuallyPeriodicSeq((2, 0, 1), (1,))),
        ExplicitPeriodic((1, 0, 0), (0, 1, 1, 0)),
    ]


class TestTheta:
    def test_values(self):
        assert theta(0) == 0
        assert theta(3) == 2
        assert theta(11) == 2  # trailing zeros of 12 in binary

    def test_fiber_examples(self):
        assert theta_fiber(0, 0) == 0
        assert theta_fiber(1, 0) == 1 and theta_fiber(1, 1) == 5
        assert theta_fiber(2, 1) == 11

    def test_fiber_matches_filter_oracle(self):
        by_filter = [n for n in range(200) if theta(n) == 1]
        assert by_filter[:5] == [theta_fiber(1, k) for k in range(5)]

    def test_fiber_round_trip_and_monotone(self):
        for m in range(9):
            prev = -1
            for k in range(65):
                z = theta_fiber(m, k)
                assert theta(z) == m
                assert z > prev
                prev = z


class TestEta:
    def test_evens(self):
        assert eta(EVENS, 0) == 0
        assert eta(EVENS, 2) == 1

    def test_primes(self):
        assert eta(PRIMES, 7) == 2  # index 3, two trailing zeros of 4

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            eta(EVENS, 3)

    def test_fiber_elements(self):
        assert eta_fiber_element(EVENS, 1, 0) == 2
        assert eta_fiber_element(EVENS, 1, 1) == 10
        assert eta_fiber_element(EVENS, 0, 0) == 0
        assert eta_fiber_element(PRIMES, 0, 1) == 5

    def test_label_round_trip(self):
        for A in builtin_help_sets():
            for m in range(6):
                for k in range(33):
                    assert eta(A, eta_fiber_element(A, m, k)) == m


class TestEnumeration:
    def test_strictly_increasing_members(self):
        for A in builtin_help_sets():
            # self-code elements grow multiplicatively, so factoring the
            # n-th one costs O(n) big-int divisions; spot-check those on
            # a shorter range and the cheap families deep
            bound, check = (300, 60) if isinstance(A, SelfCode) else (10_000, 10_000)
            prev = -1
            for n in range(bound):
                z = A.enumerate(n)
                assert z > prev
                if n < check:
                    assert A.member(z) and A.index_of(z) == n
                prev = z

    def test_primes_index_of_non_prime_raises(self):
        # small composites, ones with a factor among the Miller-Rabin
        # bases, a product of two primes near 10**6, and a strong
        # pseudoprime to the bases 2, 3, 5 and 7
        for z in (0, 1, 4, 9, 7917, 10**9 + 8, 1000003 * 1000033, 3215031751):
            with pytest.raises(ValueError, match=f"^{z} is not prime$"):
                PRIMES.index_of(z)

    def test_evens_are_the_pattern_1_0(self):
        # the explicit pattern [1,0] keeps the closed forms and the error
        # message of the even numbers
        for n in range(1000):
            assert EVENS.enumerate(n) == 2 * n
            assert EVENS.member(2 * n) and not EVENS.member(2 * n + 1)
            assert EVENS.index_of(2 * n) == n
        assert EVENS.enumerate(10**30) == 2 * 10**30
        assert EVENS.index_of(2 * 10**30 + 6) == 10**30 + 3
        for z in (1, 7, 10**30 + 1, -1, -2, -10**30):
            assert not EVENS.member(z)
            with pytest.raises(ValueError, match=f"^{z} is not a member$"):
                EVENS.index_of(z)
        assert EVENS.config() == {"kind": "evens"}

    def test_coinfinite(self):
        for A in builtin_help_sets():
            outside = [z for z in range(100_000) if not A.member(z)]
            assert len(outside) >= 1000


class TestSelfCode:
    def test_elements(self):
        abar = EventuallyPeriodicSeq((2, 0, 1), (1,))
        assert selfcode_element(abar, 0) == 8
        assert selfcode_element(abar, 1) == 24
        assert selfcode_element(abar, 2) == 600

    def test_zero_sequence(self):
        abar = EventuallyPeriodicSeq((), (0,))
        assert [selfcode_element(abar, n) for n in range(3)] == [2, 6, 30]

    def test_membership(self):
        A = SelfCode(EventuallyPeriodicSeq((2, 0, 1), (1,)))
        assert A.member(24)
        assert not A.member(12)  # valid code of (1,0), but not a prefix
        assert not A.member(9)  # 2 does not divide

    def test_index_of_decodes_nothing(self, monkeypatch):
        from genco import coding

        decoded = []
        real = coding.decode_prefix_code
        monkeypatch.setattr(coding, "decode_prefix_code", lambda z: decoded.append(z) or real(z))
        A = SelfCode(EventuallyPeriodicSeq((2, 0, 1), (1,)))
        assert A.index_of(600) == 2
        for z in (12, 9, 1):
            with pytest.raises(ValueError):
                A.index_of(z)
        assert decoded == []

    @pytest.mark.parametrize("warm", [False, True])
    def test_lookup_agrees_with_decoding(self, warm):
        rng = random.Random(31)
        for _ in range(6):
            abar, other = random_seq(rng, max_entry=3), random_seq(rng, max_entry=3)
            A = SelfCode(abar)
            if warm:
                A.enumerate(400)
            codes = [selfcode_element(abar, n) for n in range(80)]
            big, k = 1, 0
            while big <= 10**2999:
                big *= nth_prime(k) ** (abar.value(k) + 1)
                k += 1
            zs = [0, 1, 9, 12, 10**2999 + 7, big * 2, big * 3]
            zs += [c + d for c in codes for d in (-1, 0, 1)]
            zs += [selfcode_element(other, n) for n in range(80)]
            for z in zs:
                digits = oracles.selfcode_digits(A, z)
                assert A.member(z) == (digits is not None), z
                if digits is None:
                    with pytest.raises(ValueError):
                        A.index_of(z)
                else:
                    assert A.index_of(z) == len(digits) - 1

    def test_lookup_makes_no_code_past_z(self):
        A = SelfCode(EventuallyPeriodicSeq((), (10**9,)))
        start = time.perf_counter()
        for z in (0, 1, 2, 5, 3**40, 10**2999 + 7):
            assert not A.member(z)
            with pytest.raises(ValueError):
                A.index_of(z)
        assert A._codes == [1]
        assert time.perf_counter() - start < 0.5

    def test_huge_first_element_exhausts_fuel_at_once(self):
        # 2 ** (10**6 + 1) has about 301030 digits: no power is taken
        A = SelfCode(EventuallyPeriodicSeq((), (10**6,)))
        start = time.perf_counter()
        with pytest.raises(FuelExhausted) as info:
            A.enumerate(0)
        assert str(info.value) == (
            "selfcode element 0 has more than 100000 digits, past both the fuel "
            f"and the {str_digit_limit()}-digit limit of str(int)"
        )
        assert A._codes == [1]
        assert time.perf_counter() - start < 0.5

    def test_recover_every_second(self):
        abar = EventuallyPeriodicSeq((2, 0, 1, 1), (1,))
        stream = (selfcode_element(abar, n) for n in range(0, 100, 2))
        assert recover_from_subset(stream, 2) == (2, 0)

    def test_recover_full_first_entry(self):
        abar = EventuallyPeriodicSeq((3,), (0,))
        stream = (selfcode_element(abar, n) for n in range(10))
        assert recover_from_subset(stream, 1) == (3,)

    def test_malformed_element_reported(self):
        with pytest.raises(MalformedCodeElement) as info:
            recover_from_subset(iter([9]), 1)
        assert info.value.value == 9

    def test_stalling_stream_exhausts_fuel(self):
        for n, fuel in [(5, 10), (5, -1)]:
            with pytest.raises(FuelExhausted):
                recover_from_subset(iter([2, 6]), n, fuel=fuel)

    def test_negative_count_rejected(self):
        # 2 * 3**2 * 5 codes (0, 1, 0); a negative n must not cut it short
        for stream, fuel in [([2 * 3**2 * 5], 100), ([2, 6], -1)]:
            with pytest.raises(ValueError, match="entry count -1 is negative"):
                recover_from_subset(iter(stream), -1, fuel=fuel)

    def test_recovery_from_sparse_subsets(self):
        rng = random.Random(99)
        for _ in range(10):
            abar = random_seq(rng, max_entry=3)
            want = abar.values(32)
            for j in range(2, 6):
                stream = (selfcode_element(abar, n) for n in range(j - 1, 400, j))
                assert recover_from_subset(stream, 32) == want
            keep = random.Random(rng.randrange(10**6))
            stream = (
                selfcode_element(abar, n)
                for n in range(200)
                if n >= 40 or keep.random() < 0.5
            )
            assert recover_from_subset(stream, 32) == want

    def test_code_grows_along_prefixes(self):
        rng = random.Random(5)
        for _ in range(20):
            s = [rng.randrange(4) for _ in range(rng.randrange(1, 8))]
            assert prefix_code(s) < prefix_code(s + [rng.randrange(4)])


class TestDecode:
    def test_hits(self):
        assert decode(EVENS, (5, 2, 7, 6)) == (1, 2)

    def test_no_hits(self):
        assert decode(EVENS, (1, 3, 5)) == ()

    def test_single(self):
        assert decode(EVENS, (0,)) == (0,)

    @settings(max_examples=80)
    @given(
        st.sampled_from(["evens", "primes", "selfcode", "explicit"]),
        st.lists(st.integers(0, 5), max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_interleaving_round_trip(self, kind, xs, rng):
        A = {
            "evens": EVENS,
            "primes": PRIMES,
            "selfcode": SelfCode(EventuallyPeriodicSeq((1, 2), (0, 3))),
            "explicit": ExplicitPeriodic((0, 1), (1, 0, 0)),
        }[kind]
        g: list[int] = []
        for m in xs:
            # a little non-member padding, then a fiber element for m
            pad = 0
            while pad < rng.randrange(4):
                z = rng.randrange(50)
                if not A.member(z):
                    g.append(z)
                pad += 1
            g.append(eta_fiber_element(A, m, rng.randrange(4)))
        assert decode(A, g) == tuple(xs)


class TestDifference:
    class _Omega:
        @staticmethod
        def enumerate(n, fuel):
            return n

    def test_outside_elements_found(self):
        odds = ExplicitPeriodic((), (0, 1))
        scans = [
            (EVENS, PRIMES),
            (EVENS, odds),
            (odds, EVENS),
            (odds, PRIMES),
            (PRIMES, EVENS),
            (self._Omega, EVENS),
            (self._Omega, PRIMES),
            (self._Omega, odds),
        ]
        for A in (SelfCode(EventuallyPeriodicSeq((1,), (2,))),):
            scans += [(EVENS, A), (odds, A), (PRIMES, A), (self._Omega, A)]
        for B, A in scans:
            found = difference_prefix(B, A, 100, fuel=100_000)
            assert len(found) == 100
            assert all(not A.member(z) for z in found)

    def test_fuel_reported(self):
        for fuel in (500, -1):
            with pytest.raises(FuelExhausted):
                difference_prefix(EVENS, EVENS, 1, fuel=fuel)
            assert difference_prefix(EVENS, EVENS, -1, fuel=fuel) == []

    def test_fuel_reaches_the_enumeration(self):
        # B's lookups take the caller's fuel, not the default: prime
        # index 100000 lies within a fuel of 200000
        with pytest.raises(FuelExhausted) as info:
            difference_prefix(PRIMES, PRIMES, 1, fuel=200_000)
        assert str(info.value) == "found 0/1 elements outside A within 200000 probes"


class TestConfigs:
    def test_round_trip(self):
        for A in builtin_help_sets():
            B = help_set_from_config(A.config())
            assert B.config() == A.config()
            for n in range(20):
                assert B.enumerate(n) == A.enumerate(n)

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            ExplicitPeriodic((), (1, 1))  # cofinite
        with pytest.raises(ValueError):
            ExplicitPeriodic((1,), (0,))  # finite
        with pytest.raises(ValueError):
            ExplicitPeriodic((2,), (0, 1))
        with pytest.raises(ValueError, match="sequence entries must be naturals"):
            ExplicitPeriodic((-1,), (0, 1))

    @settings(max_examples=100)
    @given(
        st.lists(st.integers(0, 1), max_size=8),
        st.lists(st.integers(0, 1), min_size=2, max_size=8).filter(lambda c: 0 in c and 1 in c),
    )
    def test_explicit_member_reads_its_pattern(self, prefix, cycle):
        A = ExplicitPeriodic(prefix, cycle)
        for z in range(-3, 200):
            assert A.member(z) is oracles.explicit_member(tuple(prefix), tuple(cycle), z)

    def test_seq_validation(self):
        with pytest.raises(ValueError):
            EventuallyPeriodicSeq((), ())
        s = EventuallyPeriodicSeq((5,), (1, 2))
        assert [s.value(i) for i in range(6)] == [5, 1, 2, 1, 2, 1]
