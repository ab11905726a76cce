"""Dense families, the rank engine, and the help-avoiding search."""

from __future__ import annotations

import copy
import itertools
import pickle
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
from genco.densesets import PruningDenseSet, StemBasedDenseSet
from genco.serialize import render_seq
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

    def test_matches_the_recursive_search(self):
        # random stem_length, stem_hits and user_stems sets; each again
        # with the default class, the node itself, which collapses
        # nothing; and each again with its classes but successors from 0,
        # so that a level's first node need not be its best
        class Uncollapsed(StemBasedDenseSet):
            def __init__(self, inner):
                self.inner = inner

            def member_witness(self, s):
                return self.inner.member_witness(s)

            def good_successors(self, s):
                return self.inner.good_successors(s)

        class FromZero(Uncollapsed):
            def good_successors(self, s):
                return itertools.count(0)

            def node_class(self, s):
                return self.inner.node_class(s)

        def random_pattern(rng):
            hits = tuple((rng.randrange(7), rng.randrange(1, 4)) for _ in range(rng.randrange(3)))
            return StemPattern(rng.randrange(0 if hits else 1, 5), hits)

        rng = random.Random(23)
        for _ in range(150):
            D = rng.choice([
                lambda: StemLengthSet(rng.randrange(6)),
                lambda: StemHitsSet(rng.randrange(9)),
                lambda: UserStemsSet(random_pattern(rng) for _ in range(rng.randrange(1, 4))),
            ])()
            t = tuple(rng.randrange(7) for _ in range(rng.randrange(4)))
            for S in (D, Uncollapsed(D), FromZero(D)):
                for max_rank, width in itertools.product(range(7), repeat=2):
                    want = oracles.rank_bounded(S, t, max_rank, width)
                    assert rank_bounded(S, t, max_rank, width) == want, (D.config(), t, max_rank, width)

    def test_each_successor_costs_one_unit_of_fuel(self):
        # from [] with width 2: two probes per level, one node kept per
        # class, and the first probe of level 3 lands in S
        D = StemLengthSet(3)
        assert rank_bounded(D, (), 3, 2, fuel=5) == 3
        with pytest.raises(FuelExhausted, match=r"^rank of '\[\]' not found within 4 probes$"):
            rank_bounded(D, (), 3, 2, fuel=4)
        # a start node in S, or a search cut by max_rank, takes no more
        assert rank_bounded(D, (1, 2, 3), 3, 2, fuel=1) == 0
        assert rank_bounded(D, (), 2, 2, fuel=4) is None


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

    @pytest.mark.parametrize("D", [
        StemLengthSet(2),
        StemHitsSet(4),
        DominateSet(FloorRule((1,), 0, 2)),
        UserStemsSet([StemPattern(1, ((6, 1),))]),
    ], ids=["stem_length", "stem_hits", "dominate", "user_stems"])
    def test_member_comes_back_unchanged(self, D):
        T = HechlerCondition((1, 7, 9), {(1, 7, 9, 5): (0,)}, FloorRule((3,), 1, 4))
        assert D.member(T) is True
        assert extend_in_A(T, D, EVENS) is T

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

    def test_walk_makes_exactly_fuel_probes(self):
        # from the root the walk tests the even 0, then takes 1
        assert extend_in_A(FULL_TREE, StemLengthSet(1), EVENS, fuel=2).stem == (1,)
        with pytest.raises(FuelExhausted, match=r"^no legal avoided successor of '\[\]' within 1 probes$"):
            extend_in_A(FULL_TREE, StemLengthSet(1), EVENS, fuel=1)

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

    @pytest.mark.parametrize("stem", [(2,), (1, 5), ()], ids=["incomparable", "longer", "shorter"])
    def test_refine_must_keep_the_stem(self, stem):
        # the one member check of both shapes: a refine off T's stem
        # raises however the stems compare
        class Moving(PruningDenseSet):
            def refine(self, T):
                return HechlerCondition(stem)

        with pytest.raises(WitnessStemMismatch) as info:
            extend_in_A(HechlerCondition((1,)), Moving(), EVENS)
        assert str(info.value) == f"witness stem '{render_seq(stem)}' differs from requested '[1]'"

    def test_finite_enumeration_under_the_floor_ends_early(self):
        class Short(StemBasedDenseSet):
            def member_witness(self, s):
                return None

            def good_successors(self, s):
                return iter(range(3))

        T = HechlerCondition((4,), (), FloorRule((), 0, 5))
        with pytest.raises(FuelExhausted, match=r"^successor enumeration of '\[4\]' ended early$"):
            extend_in_A(T, Short(), None)

    def test_neither_shape_is_refused(self):
        with pytest.raises(TypeError, match="not a dense-set presentation"):
            extend_in_A(FULL_TREE, StemLengthSet(3).config(), None)

    def test_default_node_class_ranks_like_its_delegate(self):
        # a set that keeps the default class, the node itself, collapses
        # no node and ranks as the set it delegates to
        class Delegating(StemBasedDenseSet):
            inner = StemLengthSet(3)

            def member_witness(self, s):
                return self.inner.member_witness(s)

            def good_successors(self, s):
                return self.inner.good_successors(s)

        D = Delegating()
        for t in [(), (5,), (1, 2), (1, 2, 3), (0, 0, 0, 0)]:
            assert D.node_class(t) == t
            for max_rank, width in [(16, 64), (2, 2), (1, 4), (0, 1)]:
                want = rank_bounded(D.inner, t, max_rank, width)
                assert rank_bounded(D, t, max_rank, width) == want

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

    def test_fuel_bounds_the_probes(self):
        # above a floor of 100 the least label-0 even is 104, the 27th probe
        T = HechlerCondition((), (), FloorRule((), 0, 100))
        with pytest.raises(FuelExhausted, match="^no legal label-0 member of the help set within 26 probes$"):
            code_step(T, EVENS, 0, 26)
        assert code_step(T, EVENS, 0, 27).stem == (104,)

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

    def test_dominate_zero_floor_needs_a_floor(self):
        # a=0 b=0 past an empty table still asks for a floor, which the
        # floorless tree lacks
        assert DominateSet(FloorRule((), 0, 0)).member(HechlerCondition()) is False

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

    def test_refine_reuses_a_dominating_condition(self):
        T = HechlerCondition((1,), {(1, 2): (3,)}, FloorRule((5,), 2, 1))
        assert DominateSet(FloorRule((), 1, 1)).refine(T) is T
        assert DominateSet(T.floor).refine(T) is T
        R = DominateSet(FloorRule((), 0, 6)).refine(T)
        assert R is not T and R.floor == FloorRule((6, 6, 6), 2, 1)
        assert (R.stem, R.exclusions) == (T.stem, T.exclusions)

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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 10), max_size=10), min_size=1, max_size=6))
    def test_built_in_stem_sets_match_their_predicates(self, stems):
        # stem_length n and stem_hits k are one-pattern user_stems sets;
        # each must act as its own predicate did
        stems = [tuple(s) for s in stems]
        for bound in range(9):
            pairs = (
                (StemLengthSet(bound), oracles.StemLengthOracle(bound)),
                (StemHitsSet(bound), oracles.StemHitsOracle(bound)),
            )
            for D, O in pairs:
                for s in stems:
                    W = D.member_witness(s)
                    assert W == O.member_witness(s)
                    assert W is None or W.stem == s
                    assert D.member(HechlerCondition(s)) is O.member(HechlerCondition(s))
                    assert list(itertools.islice(D.good_successors(s), 5)) == list(
                        itertools.islice(O.good_successors(s), 5)
                    )
                    assert rank_bounded(D, s, 10, 3) == rank_bounded(O, s, 10, 3)
                for s, t in itertools.product(stems, repeat=2):
                    same = D.node_class(s) == D.node_class(t)
                    assert same == (O.node_class(s) == O.node_class(t))


class TestConfigs:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(30):
            D = random_dense(rng)
            assert dense_from_config(D.config()).config() == D.config()

    def test_copies_and_pickles_round_trip(self):
        for D in (StemLengthSet(0), StemLengthSet(3), StemHitsSet(0)):
            for E in (copy.deepcopy(D), pickle.loads(pickle.dumps(D))):
                assert E.config() == D.config() and E.member(FULL_TREE) is D.member(FULL_TREE)

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
