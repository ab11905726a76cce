"""Tree-condition algebra: membership, restriction, intersection, and
the two extension orders."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genco import (
    FULL_TREE,
    Evens,
    FloorRule,
    DominateSet,
    HechlerCondition,
    contains,
    excluded_successors,
    extends,
    extends_A,
    meet,
    parse_condition,
    render_condition,
    restrict,
)
from genco.conditions import ConditionCodec, _restrict, comparable, floor_max, is_prefix, least_floor_gap
from conftest import node_in, random_condition
import oracles
from oracles import extends_bounded


def _sibling_condition(rng, base_stem):
    """A random condition whose stem extends `base_stem`."""
    stem = base_stem + tuple(rng.randrange(8) for _ in range(rng.randrange(3)))
    excl: dict = {}
    for _ in range(rng.randrange(3)):
        key = stem + tuple(rng.randrange(8) for _ in range(rng.randrange(2)))
        excl.setdefault(key, set()).add(rng.randrange(8))
    floor = None
    if rng.random() < 0.5:
        table = tuple(rng.randrange(4) for _ in range(rng.randrange(2)))
        floor = FloorRule(table, rng.randrange(2), rng.randrange(4))
    return HechlerCondition(stem, excl, floor)


entries = st.integers(0, 16)
nodes = st.lists(entries, max_size=4).map(tuple)
floors = st.builds(
    FloorRule,
    st.lists(st.integers(0, 5), max_size=3).map(tuple),
    st.integers(0, 1),
    st.integers(0, 4),
)


@st.composite
def conditions_(draw):
    stem = draw(nodes)
    floor = draw(st.none() | floors)
    excl: dict = {}
    for _ in range(draw(st.integers(0, 3))):
        key = stem + draw(st.lists(entries, max_size=2).map(tuple))
        excl.setdefault(key, set()).update(draw(st.sets(entries, min_size=1, max_size=3)))
    return HechlerCondition(stem, excl, floor)


class TestContains:
    T = HechlerCondition((1,), {(1,): (0, 2)})

    def test_admitted(self):
        assert contains(self.T, (1, 3))

    def test_excluded(self):
        assert not contains(self.T, (1, 2))

    def test_incomparable(self):
        assert not contains(self.T, (0,))

    def test_stem_prefixes_in(self):
        assert contains(self.T, ()) and contains(self.T, (1,))


class TestExcludedSuccessors:
    def test_atom_read_off(self):
        T = HechlerCondition((1,), {(1,): (0, 2)})
        assert excluded_successors(T, (1,)) == (0, 2)

    def test_floor_levels(self):
        T = HechlerCondition((), {}, FloorRule((), 0, 3))
        assert excluded_successors(T, (5,)) == (0, 1, 2, 3)

    def test_no_atom(self):
        T = HechlerCondition((1,), {(1,): (0, 2)})
        assert excluded_successors(T, (1, 3)) == ()

    def test_below_stem_rejected(self):
        T = HechlerCondition((1, 1))
        with pytest.raises(ValueError):
            excluded_successors(T, (1,))

    def test_outside_tree_rejected(self):
        T = HechlerCondition((1,), {(1,): (0,)})
        with pytest.raises(ValueError):
            excluded_successors(T, (1, 0))

    def test_matches_brute_scan(self):
        rng = random.Random(7)
        for _ in range(50):
            T = random_condition(rng)
            t = node_in(rng, T, rng.randrange(3))
            exc = excluded_successors(T, t)
            bound = (max(exc) if exc else 0) + T.floor_at(len(t)) + 2
            brute = tuple(z for z in range(bound) if not contains(T, t + (z,)))
            assert brute == exc


class TestRestrict:
    def test_full_tree(self):
        assert restrict(FULL_TREE, (1, 3)) == HechlerCondition((1, 3))

    def test_constraint_absorbed(self):
        T = HechlerCondition((1,), {(1,): (0, 2)})
        assert restrict(T, (1, 3)) == HechlerCondition((1, 3))

    def test_idempotent(self):
        T = HechlerCondition((1,), {(1,): (0, 2)})
        assert restrict(restrict(T, (1, 3)), (1, 3)) == restrict(T, (1, 3))

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            restrict(HechlerCondition((1,), {(1,): (0,)}), (1, 0))

    @settings(max_examples=60)
    @given(conditions_(), st.randoms(use_true_random=False))
    def test_contains_equivalence(self, T, rng):
        t = node_in(rng, T, rng.randrange(3))
        R = restrict(T, t)
        for _ in range(40):
            u = tuple(rng.randrange(33) for _ in range(rng.randrange(7)))
            assert contains(R, u) == (contains(T, u) and comparable(u, t)), (T, t, u)


class TestMeet:
    def test_identity(self):
        T = HechlerCondition((2, 3), {(2, 3): (1,)})
        assert meet(FULL_TREE, T) == T

    def test_stem_killed(self):
        assert meet(HechlerCondition((), {(): (5,)}), HechlerCondition((5,))) is None

    def test_floor_pointwise_max(self):
        m = meet(
            HechlerCondition((), {}, FloorRule((), 0, 2)),
            HechlerCondition((), {}, FloorRule((), 1, 0)),
        )
        for n in range(6):
            assert m.floor.value(n) == max(2, n)

    def test_floor_max_of_equal_floors(self):
        # equal floors come back as they are, not rebuilt
        f = FloorRule((3, 1), 1, 2)
        assert floor_max(f, f) is f
        g = FloorRule((3, 1), 1, 2)
        assert g is not f and floor_max(f, g) == f
        # None, no bound, is the identity
        assert floor_max(None, f) is f and floor_max(f, None) is f
        assert floor_max(None, None) is None

    def test_incomparable_stems_rejected(self):
        with pytest.raises(ValueError):
            meet(HechlerCondition((0,)), HechlerCondition((1,)))

    def test_meet_is_intersection(self):
        rng = random.Random(41)
        for _ in range(80):
            T1 = random_condition(rng, max_entry=8)
            T2 = _sibling_condition(rng, T1.stem)
            m = meet(T1, T2)
            if m is None:
                assert not contains(T1, T2.stem)
            for _ in range(40):
                u = tuple(rng.randrange(12) for _ in range(rng.randrange(5)))
                both = contains(T1, u) and contains(T2, u)
                if m is not None:
                    assert contains(m, u) == both, (T1, T2, u)
                elif both:
                    # dead longer stem: shared nodes form a finite chain
                    assert is_prefix(u, T2.stem)


@st.composite
def comparable_pairs(draw):
    """Two conditions with comparable stems, in either order: the second
    extends the first's stem, shares the first's stem object (with the
    first's floor object or its own), or is the first itself."""
    T1, T2 = draw(conditions_()), draw(conditions_())
    how = draw(st.sampled_from(("extend", "share", "share floor", "same")))
    if how == "same":
        T2 = T1
    else:
        stem = T1.stem + T2.stem if how == "extend" else T1.stem
        # re-rooting keeps the keys in order, since they share the prefix
        excl = tuple((stem + k[len(T2.stem):], steps) for k, steps in T2.exclusions)
        T2 = HechlerCondition._trusted(stem, excl, T1.floor if how == "share floor" else T2.floor)
    return (T2, T1) if draw(st.booleans()) else (T1, T2)


class TestReuse:
    """Operations that change nothing return their argument."""

    T = HechlerCondition((2, 3), {(2, 3, 1): (4,)}, FloorRule((), 1, 1))

    def test_stem_is_its_own_prefix(self):
        s = tuple(range(1000))
        assert is_prefix(s, s) and comparable(s, s)

    def test_meet_with_itself(self):
        assert meet(self.T, self.T) is self.T

    def test_stem_only_witness(self):
        W = HechlerCondition._trusted(self.T.stem, (), None)
        assert meet(W, self.T) is self.T

    def test_plain_shorter_side_adds_nothing(self):
        # a side with no atoms and no floor, whose stem is a proper
        # prefix of the other's, is met on either side by returning the other
        for P in (HechlerCondition((2,)), FULL_TREE):
            assert meet(P, self.T) is self.T and meet(self.T, P) is self.T

    def test_restrict_to_own_stem(self):
        assert _restrict(self.T, self.T.stem) is self.T
        assert restrict(self.T, (2, 3)) == self.T

    def test_render_twice(self):
        codec = ConditionCodec()
        T = self.T
        text = codec.render(0, T.stem, T.exclusions, T.floor)
        assert codec.render(len(T.stem), (), T.exclusions, T.floor) is text == render_condition(T)

    @settings(max_examples=300)
    @given(comparable_pairs())
    def test_meet_matches_oracle(self, pair):
        assert meet(*pair) == oracles.meet(*pair)


class TestExtends:
    def test_reflexive(self):
        T = HechlerCondition((1,), {(1,): (0, 2)}, FloorRule((2,), 0, 1))
        assert extends(T, T)

    def test_restrict_extends(self):
        rng = random.Random(3)
        for _ in range(40):
            T = random_condition(rng)
            t = node_in(rng, T, rng.randrange(3))
            assert extends(restrict(T, t), T)

    def test_missing_atom_witnessed(self):
        ans = extends(FULL_TREE, HechlerCondition((), {(): (4,)}))
        assert not ans and ans.witness == (4,)
        assert contains(FULL_TREE, ans.witness)

    @pytest.mark.parametrize("b", [10**6, 10**18])
    def test_atom_above_huge_floor_is_quick(self, b):
        # the exclusion check reads T2's floor and atoms at the key, never
        # the range of steps below the floor
        T2 = HechlerCondition((), {}, FloorRule((), 0, b))
        T1 = HechlerCondition((), {(): (3, b + 2, b + 5)})
        start = time.perf_counter()
        ans = extends(T2, T1)
        assert time.perf_counter() - start < 0.1
        assert not ans and ans.witness == (b + 2,)

    def test_atom_witness_is_least_uncovered_step(self):
        # the witness is that of the first T1 atom with a step missing from
        # T2's full set of excluded successors at its key, as listed by
        # `excluded_successors`
        rng = random.Random(17)
        hits = 0
        for _ in range(400):
            T1 = random_condition(rng, max_entry=6)
            T2 = _sibling_condition(rng, T1.stem)
            if not contains(T1, T2.stem):
                continue
            want = None
            for key, steps in T1.exclusions:
                if is_prefix(T2.stem, key) and contains(T2, key):
                    missing = sorted(set(steps) - set(excluded_successors(T2, key)))
                    if missing:
                        want = key + (missing[0],)
                        break
            if want is not None:
                hits += 1
                assert extends(T2, T1).witness == want
        assert hits > 20

    def test_transitive_on_chains(self):
        rng = random.Random(11)
        for _ in range(60):
            T0 = random_condition(rng)
            T1 = restrict(T0, node_in(rng, T0, rng.randrange(1, 3)))
            other = HechlerCondition(T1.stem, {}, FloorRule((), 0, rng.randrange(3)))
            T2 = meet(T1, other) or T1
            T3 = restrict(T2, node_in(rng, T2, rng.randrange(2)))
            assert extends(T1, T0)
            assert extends(T3, T2)
            assert extends(T3, T0)

    def test_no_has_real_witness(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(300):
            T1, T2 = random_condition(rng), random_condition(rng)
            ans = extends(T2, T1)
            if not ans:
                hits += 1
                assert contains(T2, ans.witness) and not contains(T1, ans.witness)
        assert hits > 50  # random pairs mostly fail inclusion

    def test_validity_closed_under_ops(self):
        # internal operations build their results unchecked, so each must
        # equal what the validating public constructor makes of its parts
        rng = random.Random(13)
        for _ in range(60):
            T1 = random_condition(rng)
            T2 = _sibling_condition(rng, T1.stem)
            m = meet(T1, T2)
            if m is not None:
                assert m == HechlerCondition(m.stem, m.exclusions, m.floor)
            r = restrict(T1, node_in(rng, T1, 1))
            assert r == HechlerCondition(r.stem, r.exclusions, r.floor)


class TestFloorRule:
    def test_agreeing_table_trims_in_linear_time(self):
        start = time.perf_counter()
        f = FloorRule(range(200_000), 1, 0)
        g = FloorRule((9,) + tuple(range(1, 200_000)), 1, 0)
        assert time.perf_counter() - start < 1
        assert f == FloorRule((), 1, 0) and g.table == (9,)
        assert FloorRule((5, 1, 2), 1, 0).table == (5,)


class TestLeastFloorGap:
    # a steeper tail starting below a flatter one: 2, 2, 3, 4, ... against
    # 1, 3, 3, 3, ...; the only gap is at level 1
    f1 = FloorRule((1,), 0, 3)
    f2 = FloorRule((2,), 1, 1)

    def test_steeper_tail_gap_found(self):
        assert least_floor_gap(self.f2, self.f1, 0) == 1
        assert least_floor_gap(self.f2, self.f1, 2) is None

    @settings(max_examples=300)
    @given(st.none() | floors, floors, st.integers(0, 6))
    def test_matches_level_scan(self, f2, f1, start):
        # with these small parameters every gap shows within 64 levels
        def at(f, level):
            return -1 if f is None else f.value(level)

        gaps = [n for n in range(start, start + 64) if at(f2, n) < f1.value(n)]
        assert least_floor_gap(f2, f1, start) == (gaps[0] if gaps else None)


class TestBoundary:
    # validation happens only here; everything inside trusts it
    T = HechlerCondition((1,), {(1,): (0, 2)})

    @pytest.mark.parametrize(
        "stem, exclusions",
        [((-1,), {}), ((1,), {(1, -2): (3,)}), ((1,), {(1,): (-3,)})],
        ids=["stem", "exclusion-key", "step"],
    )
    def test_constructor_rejects_negative(self, stem, exclusions):
        with pytest.raises(ValueError):
            HechlerCondition(stem, exclusions)

    @pytest.mark.parametrize("fn", [contains, restrict])
    def test_node_argument_rejects_negative(self, fn):
        with pytest.raises(ValueError):
            fn(self.T, (1, -1))
        with pytest.raises(ValueError):
            fn(self.T, (-1,))

    def test_stem_avoidance_rejects_negative(self):
        # stem avoidance reads stems only from conditions, so the
        # constructor is its boundary
        with pytest.raises(ValueError):
            HechlerCondition((1, -1))

    def test_parsed_negative_step_rejected(self):
        with pytest.raises(ValueError):
            parse_condition("stem=[];excl{[]:{-1}};floor(-)")


class TestExtendsMasked:
    # floor deficit at the stem level only, fully masked by atoms: no
    # floor dominance shows the inclusion, yet it holds
    T1 = HechlerCondition((), {}, FloorRule((5,), 0, 0))
    T2 = HechlerCondition((), {(): (1, 2, 3, 4, 5)}, FloorRule((0,), 0, 0))

    def test_masked_deficit_is_yes(self):
        assert extends(self.T2, self.T1)

    def test_oracle_agrees(self):
        assert extends_bounded(self.T2, self.T1, 6, 64) is None

    def test_deep_gap_behind_masked_stem_witnessed(self):
        # the stem-level deficit is masked, but the floor falls short again
        # at level 12, deeper than any fixed window of levels
        T1 = HechlerCondition((), {}, FloorRule((5, 5) + (0,) * 10 + (9,), 0, 0))
        T2 = HechlerCondition((6,), {(6,): (1, 2, 3, 4, 5)}, FloorRule((), 0, 0))
        ans = extends(T2, T1)
        assert not ans
        assert ans.witness == (6, 6) + (1,) * 11
        assert contains(T2, ans.witness) and not contains(T1, ans.witness)


def _masked_pair(rng):
    """T1 with a floor, and T2 whose stem lies in T1 and whose floor
    falls short of T1's at that stem, with atoms there over all (or all
    but one) of the sub-floor steps.  T2 mostly inherits T1's atoms and
    keeps its floor elsewhere, so the floor decides most pairs; now and
    then a deeper level falls short too."""
    T1 = random_condition(rng, max_stem=2, max_entry=6)
    floor = FloorRule(
        tuple(rng.randrange(6) for _ in range(rng.randrange(4))),
        rng.randrange(2),
        rng.randrange(1, 6),
    )
    T1 = HechlerCondition(T1.stem, T1.exclusions, floor)
    s = node_in(rng, T1, rng.randrange(3))
    level = len(s)
    table = [floor.value(n) for n in range(level + 4)]
    table[level] = rng.randrange(table[level] + 1)
    if rng.random() < 0.3:
        deeper = rng.randrange(level + 1, level + 4)
        table[deeper] = rng.randrange(table[deeper] + 1)
    f2 = FloorRule(tuple(table), floor.slope, floor.intercept + rng.randrange(2))
    masked = set(range(f2.value(level) + 1, floor.value(level) + 1))
    if masked and rng.random() < 0.3:
        masked.discard(rng.choice(sorted(masked)))
    excl = {s: masked}
    for key, steps in T1.exclusions:
        if is_prefix(s, key) and rng.random() < 0.9:
            excl.setdefault(key, set()).update(steps)
    for _ in range(rng.randrange(3)):
        key = s + tuple(rng.randrange(4) for _ in range(rng.randrange(1, 3)))
        excl.setdefault(key, set()).update(rng.randrange(6) for _ in range(2))
    return T1, HechlerCondition(s, excl, f2)


class TestExtendsDifferential:
    def test_masked_pairs_against_oracle(self):
        rng = random.Random(29)
        masked_yes = 0
        for _ in range(400):
            T1, T2 = _masked_pair(rng)
            ans = extends(T2, T1)
            if not ans:
                assert contains(T2, ans.witness) and not contains(T1, ans.witness)
            else:
                assert ans
                assert extends_bounded(T2, T1, 4, 10) is None, (T1, T2)
                if least_floor_gap(T2.floor, T1.floor, len(T2.stem)) == len(T2.stem):
                    masked_yes += 1
            D = DominateSet(T1.floor)
            assert (D.member(T2) is True) == bool(extends(T2, D.refine(T2)))
        # the generator reaches the case no floor dominance can settle
        assert masked_yes >= 20


class TestExtendsBounded:
    def test_reflexive_consistent(self):
        T = HechlerCondition((1,), {(1,): (0, 2)})
        assert extends_bounded(T, T, 5, 10) is None

    def test_finds_atom(self):
        assert extends_bounded(FULL_TREE, HechlerCondition((), {(): (4,)}), 1, 5) == (4,)

    def test_finds_floor_violation(self):
        T1 = HechlerCondition((), {}, FloorRule((), 0, 0))
        assert extends_bounded(FULL_TREE, T1, 1, 1) == (0,)

    def test_never_contradicts_yes(self):
        rng = random.Random(17)
        for _ in range(150):
            T1 = random_condition(rng, max_entry=8)
            T2 = random_condition(rng, max_entry=8)
            if extends(T2, T1):
                assert extends_bounded(T2, T1, 5, 12) is None

    def test_agrees_with_brute_force(self):
        # exact cross-check on tiny universes
        rng = random.Random(23)
        for _ in range(80):
            T1 = random_condition(rng, max_stem=2, max_entry=3, max_atoms=2)
            T2 = random_condition(rng, max_stem=2, max_entry=3, max_atoms=2)
            got = extends_bounded(T2, T1, 3, 4)
            brute = None
            stack = [()]
            universe = [()]
            while stack:
                v = stack.pop(0)
                if len(v) < 3:
                    for z in range(5):
                        u = v + (z,)
                        universe.append(u)
                        stack.append(u)
            for u in sorted(universe):
                if contains(T2, u) and not contains(T1, u):
                    brute = u
                    break
            assert (got is None) == (brute is None), (T1, T2, got, brute)
            if got is not None:
                assert contains(T2, got) and not contains(T1, got)


class TestExtendsA:
    A = Evens()

    def test_avoiding_examples(self):
        T1 = HechlerCondition((1,))
        assert extends_A(HechlerCondition((1, 3, 5)), T1, self.A)
        ans = extends_A(HechlerCondition((1, 4)), T1, self.A)
        assert not ans and ans.reason == "stem-avoidance"
        assert extends_A(T1, T1, self.A)

    def test_reflexive(self):
        T = HechlerCondition((2,))
        assert extends_A(T, T, self.A)

    def test_inclusion_failure_keeps_the_witness(self):
        # extends says NO first: its witness comes back with the reason,
        # though (1, 3, 4) also puts the even 4 in its stem
        T1 = HechlerCondition((1,), {(1,): (3,)})
        for T2 in (HechlerCondition((1, 3, 4)), HechlerCondition((2,)), FULL_TREE):
            inc = extends(T2, T1)
            assert not inc
            assert extends_A(T2, T1, self.A) == (inc.witness, "inclusion")

    def test_odd_restrict_allowed(self):
        assert extends_A(restrict(FULL_TREE, (1, 3)), FULL_TREE, self.A)

    def test_even_restrict_refused(self):
        ans = extends_A(restrict(FULL_TREE, (2,)), FULL_TREE, self.A)
        assert not ans and ans.reason == "stem-avoidance"

    def test_transitive(self):
        def least_odd_step(T, v):
            z = T.least_step(v)
            while z % 2 == 0:
                z = T.least_step(v, skip=range(z + 1))
            return z

        rng = random.Random(31)
        for _ in range(60):
            T0 = random_condition(rng)
            T1 = restrict(T0, T0.stem + (least_odd_step(T0, T0.stem),))
            T2 = restrict(T1, T1.stem + (least_odd_step(T1, T1.stem),))
            assert extends_A(T1, T0, self.A)
            assert extends_A(T2, T1, self.A)
            assert extends_A(T2, T0, self.A)


class TestRendering:
    def test_exact_form(self):
        T = HechlerCondition((1,), {(1,): (0, 2)})
        assert render_condition(T) == "stem=[1];excl{[1]:{0,2}};floor(-)"

    def test_floor_form(self):
        T = HechlerCondition((), {}, FloorRule((2, 2, 2), 1, 0))
        # canonical floor trims table entries the affine tail reproduces
        assert render_condition(T) == "stem=[];excl{};floor(table=[2,2],a=1,b=0)"

    def test_key_order(self):
        T = HechlerCondition((), {(1,): (3,), (0,): (2,), (0, 5): (1,)})
        assert (
            render_condition(T)
            == "stem=[];excl{[0]:{2};[0,5]:{1};[1]:{3}};floor(-)"
        )

    @settings(max_examples=120)
    @given(conditions_())
    def test_round_trip(self, T):
        assert parse_condition(render_condition(T)) == T

    def test_malformed_rejected(self):
        for bad in ("", "stem=[1]", "stem=[1];excl{};floor()", "stem=[x];excl{};floor(-)"):
            with pytest.raises(ValueError):
                parse_condition(bad)
        # texts that render_condition never writes: each must render back
        # to itself, so none parses
        for bad in (
            "stem=[01];excl{};floor(-)",
            "stem=[1];excl{[1,2]:{3,1}};floor(-)",  # steps out of order
            "stem=[1];excl{[1,2]:{3,3}};floor(-)",  # a repeated step
            "stem=[1];excl{[1,2]:{3};[1,2]:{5}};floor(-)",  # a repeated key
            "stem=[1];excl{[1,3]:{3};[1,2]:{5}};floor(-)",  # keys out of order
            "stem=[1];excl{[1,2]:{}};floor(-)",
            "stem=[1];excl{[2]:{3}};floor(-)",  # a key off the stem
            "stem=[1];excl{[10]:{3}};floor(-)",  # a key whose text begins like the stem's
            "stem=[1];excl{[1,2]:{03}};floor(-)",
            "stem=[1];excl{[1,2]:{3}x};floor(-)",
            "stem=[1];excl{};floor(table=[5,3],a=1,b=2)",  # untrimmed: f(1) = 3
            "stem=[1];excl{};floor(table=[],a=01,b=2)",
            "stem=[1];excl{};floor(table=[],a=1,b=+2)",
            "stem=[1];excl{};floor(table=[],a=1,b=2))",
            "stem=[1];excl{};floor(-))",
        ):
            with pytest.raises(ValueError, match="^malformed condition text"):
                parse_condition(bad)
