"""Dense open families of tree conditions and the searches over them.

A dense set is presented in one of two runtime shapes:

* stem-based: a witness oracle `member_witness(s)` returning a member
  condition with stem s whenever one exists (s is then "in S"), plus an
  ascending, unbounded enumeration `good_successors(s)` of first steps
  that make progress toward S.  Honesty contract: the enumeration is
  infinite and, off S, every enumerated step strictly decreases the
  reachability rank of the node.  `node_class(s)`, the key by which
  `rank_bounded`'s level search keeps one node per class, is s itself
  unless a set collapses more.
* pruning: a `refine(T)` returning a member below T with the same stem.

`extend_in_A` realises the central search: it meets a dense set from any
condition, checking once for both shapes that the member's stem is the
requested node, while keeping every new stem entry outside a co-infinite
help set A.  Off S the enumerated progress steps are infinite while the
exclusions of T and the members of A thin them out only finitely /
co-infinitely, so an honest descent always finds a legal avoided step
and strictly decreases rank; the fuel budget merely converts dishonest
user oracles into errors.
"""

from __future__ import annotations

import itertools

from .coding import eta_fiber_element
from .conditions import (
    FloorRule,
    HechlerCondition,
    Node,
    _floor_gap,
    _restrict,
    as_node,
    floor_max,
    meet,
)
from .errors import DEFAULT_FUEL, ConfigError, FuelExhausted, WitnessStemMismatch
from .frozen import Frozen
from .serialize import (
    _ten_to,
    build_at,
    check_keys,
    decimal_digits,
    nat,
    nat_list,
    nonempty_list,
    quoted,
    render_seq,
    str_digit_limit,
)


class DenseSet:
    """Runtime interface shared by all dense-set presentations."""

    def member(self, T: HechlerCondition) -> bool:
        raise NotImplementedError

    def config(self) -> dict:
        raise NotImplementedError


class StemBasedDenseSet(DenseSet):
    def member_witness(self, s: Node) -> HechlerCondition | None:
        raise NotImplementedError

    def good_successors(self, s: Node):
        raise NotImplementedError

    def node_class(self, s: Node):
        """The rank search's dedup key: nodes with equal classes must have
        identical witness/successor behaviour along all extensions.  The
        default class is the node itself, which collapses nothing."""
        return s


class PruningDenseSet(DenseSet):
    def refine(self, T: HechlerCondition) -> HechlerCondition:
        raise NotImplementedError


def _hit_count(count: int) -> int:
    if count < 1:
        raise ValueError("must be at least 1")
    return count


class StemPattern(Frozen):
    """Conjunction of stem requirements: a length bound and counted
    entry thresholds, as `hits` of (threshold k, required count).  All
    requirements shrink monotonically under stem extension, so the
    induced family is open."""

    __slots__ = ("min_len", "hits")

    def __init__(self, min_len: int = 0, hits: tuple[tuple[int, int], ...] = ()):
        if min_len < 0 or any(k < 0 for k, _ in hits):
            raise ValueError("length bound and thresholds must be naturals")
        for _, count in hits:
            _hit_count(count)
        if min_len == 0 and not hits:
            raise ValueError("pattern matches every stem")
        self._set(min_len, hits)

    def deficits(self, s: Node) -> tuple[int, ...]:
        # hits are counted in C and only up to `need`: past it the deficit stays 0
        length = max(0, self.min_len - len(s))
        counted = tuple(
            need - len(tuple(itertools.islice(filter(k.__le__, s), need))) for k, need in self.hits
        )
        return (length,) + counted

    def distance(self, s: Node) -> int:
        return max(self.deficits(s))

    def met_by(self, s: Node) -> bool:
        """Whether every deficit of s is 0, found without counting them."""
        if len(s) < self.min_len:
            return False
        for k, need in self.hits:
            if len(tuple(itertools.islice(filter(k.__le__, s), need))) < need:
                return False
        return True

    def step_threshold(self) -> int:
        return max((k for k, _ in self.hits), default=0)

    def config(self) -> dict:
        cfg: dict = {}
        if self.min_len:
            cfg["min_len"] = self.min_len
        if self.hits:
            cfg["hits"] = [{"k": k, "count": c} for k, c in self.hits]
        return cfg


class UserStemsSet(StemBasedDenseSet):
    """Disjunction of stem patterns; a stem is in S when some pattern's
    requirements are all met.  Membership stops at the first pattern met
    and builds no deficit tuple; `deficits` and `distance` serve only
    the rank search's classes and the choice of progress step."""

    def __init__(self, patterns):
        pats = tuple(patterns)
        if not pats:
            raise ValueError("at least one pattern is required")
        self.patterns = pats

    def _best(self, s: Node) -> StemPattern:
        return min(self.patterns, key=lambda p: p.distance(s))

    def _holds(self, s: Node) -> bool:
        for p in self.patterns:
            if p.met_by(s):
                return True
        return False

    def member_witness(self, s: Node) -> HechlerCondition | None:
        return HechlerCondition._trusted(s, (), None) if self._holds(s) else None

    def good_successors(self, s: Node):
        # a step clearing the best pattern's largest threshold shrinks
        # every one of its deficits at once
        return itertools.count(self._best(s).step_threshold())

    def node_class(self, s: Node):
        return tuple(p.deficits(s) for p in self.patterns)

    def member(self, T: HechlerCondition) -> bool:
        return self._holds(T.stem)

    def config(self) -> dict:
        return {"type": "user_stems", "patterns": [p.config() for p in self.patterns]}


class StemLengthSet(UserStemsSet):
    """Conditions whose stem has at least n entries: the one pattern
    `min_len=n`."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("length bound must be a natural")
        self.n = n
        # built unchecked: StemPattern refuses n = 0, the pattern every stem meets
        pattern = object.__new__(StemPattern)
        pattern._set(n, ())
        super().__init__((pattern,))

    def __reduce__(self):
        # copies and pickles rebuild through __init__, not StemPattern
        return StemLengthSet, (self.n,)

    def config(self) -> dict:
        return {"type": "stem_length", "n": self.n}


class StemHitsSet(UserStemsSet):
    """Conditions whose stem contains an entry >= k: the one pattern
    `hits=((k, 1),)`."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("threshold must be a natural")
        self.k = k
        super().__init__((StemPattern(0, ((k, 1),)),))

    def config(self) -> dict:
        return {"type": "stem_hits", "k": self.k}


class DominateSet(PruningDenseSet):
    """Conditions all of whose first steps above the stem clear a floor
    rule; met by raising the floor, which leaves the stem untouched."""

    def __init__(self, floor: FloorRule):
        self.floor = floor

    def refine(self, T: HechlerCondition) -> HechlerCondition:
        """T with its floor raised to this set's; T itself when its floor
        already dominates, as `floor_max` then keeps it."""
        floor = floor_max(T.floor, self.floor)
        return T if floor is T.floor else HechlerCondition._trusted(T.stem, T.exclusions, floor)

    def member(self, T: HechlerCondition) -> bool:
        return _floor_gap(T, self.floor) is None

    def config(self) -> dict:
        return {
            "type": "dominate",
            "table": list(self.floor.table),
            "a": self.floor.slope,
            "b": self.floor.intercept,
        }


def dense_from_config(cfg, path: str = "dense") -> DenseSet:
    """Strict inverse of `DenseSet.config`; raises ConfigError at the
    offending field."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError(path, "expected a dense-set object with a type")
    t = cfg["type"]
    if t == "stem_length":
        check_keys(cfg, path, ("type", "n"))
        return StemLengthSet(nat(cfg["n"], f"{path}.n"))
    if t == "stem_hits":
        check_keys(cfg, path, ("type", "k"))
        return StemHitsSet(nat(cfg["k"], f"{path}.k"))
    if t == "dominate":
        check_keys(cfg, path, ("type", "table", "a", "b"))
        table = tuple(nat_list(cfg["table"], f"{path}.table"))
        a, b = nat(cfg["a"], f"{path}.a"), nat(cfg["b"], f"{path}.b")
        return DominateSet(FloorRule(table, a, b))
    if t == "user_stems":
        check_keys(cfg, path, ("type", "patterns"))
        pats = nonempty_list(cfg["patterns"], f"{path}.patterns")
        return UserStemsSet(
            _pattern_from_config(p, f"{path}.patterns[{i}]") for i, p in enumerate(pats)
        )
    raise ConfigError(f"{path}.type", f"unknown dense set type {t!r}")


def _pattern_from_config(cfg, path: str) -> StemPattern:
    check_keys(cfg, path, (), ("min_len", "hits"))
    if not cfg:
        raise ConfigError(path, "pattern needs min_len or hits")
    min_len = nat(cfg["min_len"], f"{path}.min_len") if "min_len" in cfg else 0
    hits = []
    for j, h in enumerate(nonempty_list(cfg["hits"], f"{path}.hits") if "hits" in cfg else ()):
        hpath = f"{path}.hits[{j}]"
        check_keys(h, hpath, ("k", "count"))
        count = build_at(f"{hpath}.count", _hit_count, nat(h["count"], f"{hpath}.count"))
        hits.append((nat(h["k"], f"{hpath}.k"), count))
    return build_at(path, StemPattern, min_len, tuple(hits))


def rank_bounded(
    D: StemBasedDenseSet, t, max_rank: int, width: int, fuel: int = DEFAULT_FUEL
) -> int | None:
    """Least r <= max_rank such that t reaches S in r progress steps,
    each node's successors cut to the first `width` enumerated; None if
    no such r.  For honest enumerations r bounds the true rank from above.
    The search runs level by level, keeps the first node of each
    `node_class` (a class met again reaches S no sooner) and charges one
    unit of `fuel` per enumerated successor.
    """
    if not isinstance(D, StemBasedDenseSet):
        raise TypeError("rank is defined for stem-based dense sets")
    t = as_node(t)
    if D.member_witness(t) is not None:
        return 0
    level, seen, probes = [t], {D.node_class(t)}, itertools.count(1)
    for r in range(1, max_rank + 1):
        children = []
        for s in level:
            for z in itertools.islice(D.good_successors(s), width):
                if next(probes) > fuel:
                    raise FuelExhausted(f"rank of {quoted(render_seq(t))} not found within {fuel} probes")
                child = s + (z,)
                if D.member_witness(child) is not None:
                    return r
                if (k := D.node_class(child)) not in seen:
                    seen.add(k)
                    children.append(child)
        if not children:
            return None
        level = children
    return None


def extend_in_A(
    T: HechlerCondition,
    D: DenseSet,
    A=None,
    fuel: int = DEFAULT_FUEL,
) -> HechlerCondition:
    """A member of D below T whose new stem entries all avoid A.

    Both shapes give a member W whose stem must be the requested node t:
    a pruning set's `refine(T)` at T's stem, or a stem-based set's
    witness at the first node t of a walk from T's stem that has one.
    Below a node with none, the walk takes the least enumerated progress
    step that is legal in T and lies outside A (None disables avoidance);
    it stays inside T, so each probe tests only its own step.  The walk
    makes at most `fuel` probes, as `code_step` and `rank_bounded` do:
    the next one raises FuelExhausted.  W's stem is checked once, and W
    meets T restricted to t.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    t = T.stem
    if isinstance(D, PruningDenseSet):
        W = D.refine(T)
    elif isinstance(D, StemBasedDenseSet):
        probes = itertools.count(1)
        while (W := D.member_witness(t)) is None:
            for z in D.good_successors(t):
                if next(probes) > fuel:
                    raise FuelExhausted(
                        f"no legal avoided successor of {quoted(render_seq(t))} within {fuel} probes"
                    )
                if T.admits_step(t, z) and (A is None or not A.member(z)):
                    t = t + (z,)
                    break
            else:
                raise FuelExhausted(f"successor enumeration of {quoted(render_seq(t))} ended early")
    else:
        raise TypeError(f"not a dense-set presentation: {D!r}")
    if W.stem is not t and W.stem != t:
        raise WitnessStemMismatch(
            f"witness stem {quoted(render_seq(W.stem))} differs from requested {quoted(render_seq(t))}"
        )
    return meet(W, _restrict(T, t))


def code_step(T: HechlerCondition, A, m: int, fuel: int = DEFAULT_FUEL) -> HechlerCondition:
    """Extend the stem by one member of A carrying label m (the least
    legal one), deliberately breaking stem avoidance to record m.  A
    member too long for str(int), which no transcript could hold, raises
    FuelExhausted.  T's floor and atoms at its stem and the digit limit
    are read once; each candidate costs its fiber element and a test
    against each."""
    s = T.stem
    floor, banned, limit = T.floor_at(len(s)), T.exclusion_at(s), str_digit_limit()
    cap = limit and _ten_to(limit)  # the least unprintable member; 0 for no limit
    for k in range(fuel):
        z = eta_fiber_element(A, m, k, fuel)
        if cap and z >= cap:
            raise FuelExhausted(
                f"the label-{m} member has {decimal_digits(z)} digits, past the "
                f"{limit}-digit limit of str(int)"
            )
        if z > floor and z not in banned:
            return _restrict(T, s + (z,))
    raise FuelExhausted(f"no legal label-{m} member of the help set within {fuel} probes")
