"""Dense families, the rank engine, and the help-avoiding search."""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genco import (
    FULL_TREE,
    DominateSet,
    Evens,
    FloorRule,
    FuelExhausted,
    HechlerCondition,
    StemHitsSet,
    StemLengthSet,
    StemPattern,
    UserStemsSet,
    WitnessStemMismatch,
    code_step,
    dense_from_config,
    extend_in_A,
    extends,
    extends_A,
    eta,
    rank_bounded,
)
from genco.densesets import StemBasedDenseSet
from conftest import random_condition, random_dense, random_help
import oracles

EVENS = Evens()


def brute_rank(in_S, successors, t, max_rank):
    """Reference recursion: 0 on S, else 1 + min over listed successors."""
    if in_S(t):
        return 0
    if max_rank == 0:
        return None
    best = None
    for z in successors(t):
        r = brute_rank(in_S, successors, t + (z,), max_rank - 1)
        if r is not None:
            best = r + 1 if best is None else min(best, r + 1)
    return best


class TestRank:
    def test_stem_length_examples(self):
        assert rank_bounded(StemLengthSet(3), (7,), 16, 64) == 2
        assert rank_bounded(StemLengthSet(3), (1, 2, 3), 16, 64) == 0

    def test_stem_hits_example(self):
        assert rank_bounded(StemHitsSet(5), (), 16, 64) == 1

    def test_stem_length_exact_grid(self):
        for n in range(9):
            D = StemLengthSet(n)
            for length in range(9):
                t = tuple([3] * length)
                assert rank_bounded(D, t, 16, 64) == max(0, n - length)

    def test_matches_brute_force_recursion(self):
        # independent small-world oracle with all-of-omega successors
        for n in range(4):
            for t in [(), (1,), (0, 2), (3, 3, 3)]:
                want = brute_rank(lambda s: len(s) >= n, lambda s: range(4), t, 4)
                assert rank_bounded(StemLengthSet(n), t, 4, 4) == want
        for k in range(3):
            for t in [(), (k,), (0,)]:
                want = brute_rank(
                    lambda s: any(e >= k for e in s), lambda s: range(k, k + 4), t, 4
                )
                assert rank_bounded(StemHitsSet(k), t, 4, 4) == want

    def test_user_stems_matches_distance(self):
        rng = random.Random(71)
        for _ in range(40):
            pats = []
            for _ in range(rng.randrange(1, 3)):
                hits = tuple(
                    (rng.randrange(8), rng.randrange(1, 3))
                    for _ in range(rng.randrange(2))
                )
                min_len = rng.randrange(4) if not hits else rng.randrange(4)
                if min_len == 0 and not hits:
                    min_len = 1
                pats.append(StemPattern(min_len, hits))
            D = UserStemsSet(pats)
            t = tuple(rng.randrange(8) for _ in range(rng.randrange(4)))
            want = min(p.distance(t) for p in pats)
            assert rank_bounded(D, t, 16, 32) == want

    def test_every_node_reachable(self):
        rng = random.Random(3)
        dense_sets = [
            StemLengthSet(4),
            StemHitsSet(8),
            UserStemsSet([StemPattern(2, ((5, 2),))]),
        ]
        for D in dense_sets:
            for _ in range(30):
                t = tuple(rng.randrange(9) for _ in range(rng.randrange(5)))
                assert rank_bounded(D, t, 16, 32) is not None

    def test_pruning_sets_have_no_rank(self):
        with pytest.raises(TypeError):
            rank_bounded(DominateSet(FloorRule((), 0, 1)), (), 4, 4)


class TestExtendInA:
    def test_stem_length_descent(self):
        R = extend_in_A(FULL_TREE, StemLengthSet(2), EVENS)
        assert R.stem == (1, 1)
        assert StemLengthSet(2).member(R) is True

    def test_dominate_keeps_stem(self):
        D = DominateSet(FloorRule((), 0, 4))
        R = extend_in_A(FULL_TREE, D, EVENS)
        assert R.stem == ()
        assert R.floor is not None and R.floor.value(3) == 4
        assert D.member(R) is True

    def test_exclusion_is_dodged(self):
        T = HechlerCondition((), {(): (5,)})
        R = extend_in_A(T, StemHitsSet(4), EVENS)
        assert R.stem == (7,)

    def test_main_lemma_contract(self):
        rng = random.Random(2024)
        for _ in range(200):
            T = random_condition(rng)
            D = random_dense(rng)
            A = random_help(rng)
            R = extend_in_A(T, D, A, fuel=100_000)
            assert extends_A(R, T, A)
            assert D.member(R) is True

    def test_plain_mode_takes_least_steps(self):
        R = extend_in_A(FULL_TREE, StemLengthSet(2), None)
        assert R.stem == (0, 0)

    def test_dishonest_dense_set_exhausts_fuel(self):
        class Starving(StemBasedDenseSet):
            def member_witness(self, s):
                return None

            def good_successors(self, s):
                return iter(range(10**9))

            def member(self, T):
                return False

            def config(self):
                return {"type": "user_stems", "patterns": []}

        with pytest.raises(FuelExhausted):
            extend_in_A(FULL_TREE, Starving(), None, fuel=50)

    def test_bad_witness_reported(self):
        class Lying(StemBasedDenseSet):
            def member_witness(self, s):
                return HechlerCondition(s + (0,))

            def good_successors(self, s):
                return iter(range(10**9))

            def member(self, T):
                return True

            def config(self):
                return {"type": "user_stems", "patterns": []}

        with pytest.raises(WitnessStemMismatch):
            extend_in_A(FULL_TREE, Lying(), None)

    def test_concurrent_calls_agree(self):
        # StemLengthSet and EVENS keep no cache; the prime table and
        # SelfCode's code cache are single-threaded and not covered here
        T = HechlerCondition((), {(): (1,)})
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda _: extend_in_A(T, StemLengthSet(3), EVENS), range(32))
            )
        assert len(set(results)) == 1


class TestCodeStep:
    def test_least_fiber_element(self):
        assert code_step(FULL_TREE, EVENS, 1).stem == (2,)

    def test_skips_excluded(self):
        T = HechlerCondition((), {(): (2,)})
        assert code_step(T, EVENS, 1).stem == (10,)

    def test_label_zero(self):
        assert code_step(FULL_TREE, EVENS, 0).stem == (0,)

    def test_step_properties(self):
        rng = random.Random(77)
        for _ in range(60):
            T = random_condition(rng)
            A = random_help(rng)
            m = rng.randrange(5)
            R = code_step(T, A, m)
            assert R.stem[:-1] == T.stem and len(R.stem) == len(T.stem) + 1
            z = R.stem[-1]
            assert A.member(z) and eta(A, z) == m
            assert extends(R, T)
            ans = extends_A(R, T, A)
            assert not ans and ans.reason == "stem-avoidance"


class TestMember:
    def test_stem_length(self):
        assert StemLengthSet(2).member(HechlerCondition((1, 1))) is True
        assert StemLengthSet(2).member(HechlerCondition((1,))) is False

    def test_dominate_dominated(self):
        D = DominateSet(FloorRule((), 0, 4))
        T = HechlerCondition((), {}, FloorRule((), 0, 6))
        assert D.member(T) is True

    def test_dominate_violation_found(self):
        assert DominateSet(FloorRule((), 0, 4)).member(FULL_TREE) is False

    def test_dominate_masked_is_member(self):
        # the only sub-floor steps at the stem are excluded by atoms, and
        # above the stem the floor already clears the rule
        D = DominateSet(FloorRule((5,), 0, 0))
        T = HechlerCondition((), {(): (1, 2, 3, 4, 5)}, FloorRule((0,), 0, 0))
        assert D.member(T) is True

    def test_dominate_steeper_tail_below(self):
        # (3, 3) lies in the tree (floor 2, 2, 3, ...) but not in the
        # refinement (floor 1, 3, 3, ...)
        D = DominateSet(FloorRule((1,), 0, 3))
        T = HechlerCondition(floor=FloorRule((2,), 1, 1))
        assert D.member(T) is False

    def test_user_stems(self):
        D = UserStemsSet([StemPattern(2, ((5, 1),))])
        assert D.member(HechlerCondition((6, 0))) is True
        assert D.member(HechlerCondition((6,))) is False
        assert D.member(HechlerCondition((0, 0))) is False

    def test_refine_is_member_with_same_stem(self):
        rng = random.Random(15)
        for _ in range(60):
            T = random_condition(rng)
            table = tuple(rng.randrange(6) for _ in range(rng.randrange(3)))
            D = DominateSet(FloorRule(table, rng.randrange(2), rng.randrange(6)))
            R = D.refine(T)
            assert R.stem == T.stem
            assert D.member(R) is True
            assert extends(R, T)


class TestStemPattern:
    @settings(max_examples=300)
    @given(
        st.integers(0, 4),
        st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4)), max_size=3),
        st.lists(st.integers(0, 8), max_size=24),
    )
    def test_capped_deficits_equal_the_full_count(self, min_len, hits, stem):
        assume(min_len or hits)
        p, s = StemPattern(min_len, tuple(hits)), tuple(stem)
        assert p.deficits(s) == oracles.stem_deficits(p, s)
        D = UserStemsSet([p, StemPattern(1, ((3, 2),))])
        assert D.node_class(s) == tuple(oracles.stem_deficits(q, s) for q in D.patterns)


class TestConfigs:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(30):
            D = random_dense(rng)
            assert dense_from_config(D.config()).config() == D.config()

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            dense_from_config({"type": "nope"})

    def test_stem_pattern_rejects_what_its_config_rejects(self):
        # a count of 0 is met by every stem, so the set would hold every
        # condition; negative bounds are not naturals
        for min_len, hits in ((0, ((3, 0),)), (2, ((3, -1),)), (-1, ()), (0, ((-3, 1),)), (0, ())):
            with pytest.raises(ValueError):
                StemPattern(min_len, hits)
        with pytest.raises(ValueError, match="must be at least 1"):
            UserStemsSet([StemPattern(0, ((3, 0),))])
