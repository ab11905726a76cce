"""Dense open families of tree conditions and the searches over them.

A dense set is presented in one of two runtime shapes:

* stem-based: a witness oracle `member_witness(s)` returning a member
  condition with stem s whenever one exists (s is then "in S"), plus an
  ascending, unbounded enumeration `good_successors(s)` of first steps
  that make progress toward S.  Honesty contract: the enumeration is
  infinite and, off S, every enumerated step strictly decreases the
  reachability rank of the node.
* pruning: a `refine(T)` returning a member below T with the same stem.

`extend_in_A` realises the central search: it meets a dense set from any
condition while keeping every new stem entry outside a co-infinite help
set A.  Off S the enumerated progress steps are infinite while the
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
    _restrict,
    as_node,
    floor_gap_witness,
    floor_max,
    meet,
)
from .errors import DEFAULT_FUEL, ConfigError, FuelExhausted, WitnessStemMismatch
from .frozen import Frozen
from .serialize import (
    build_at,
    check_keys,
    decimal_digits,
    nat,
    nat_list,
    nonempty_list,
    printable,
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
        """Optional memoisation key: nodes with equal classes must have
        identical witness/successor behaviour along all extensions.
        Return None to disable collapsing."""
        return None


class PruningDenseSet(DenseSet):
    def refine(self, T: HechlerCondition) -> HechlerCondition:
        raise NotImplementedError


class StemLengthSet(StemBasedDenseSet):
    """Conditions whose stem has at least n entries."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("length bound must be a natural")
        self.n = n

    def member_witness(self, s: Node) -> HechlerCondition | None:
        return HechlerCondition._trusted(s, (), None) if len(s) >= self.n else None

    def good_successors(self, s: Node):
        return itertools.count(0)

    def node_class(self, s: Node):
        return min(len(s), self.n)

    def member(self, T: HechlerCondition) -> bool:
        return len(T.stem) >= self.n

    def config(self) -> dict:
        return {"type": "stem_length", "n": self.n}


class StemHitsSet(StemBasedDenseSet):
    """Conditions whose stem contains an entry >= k."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("threshold must be a natural")
        self.k = k

    def member_witness(self, s: Node) -> HechlerCondition | None:
        return HechlerCondition._trusted(s, (), None) if any(e >= self.k for e in s) else None

    def good_successors(self, s: Node):
        return itertools.count(self.k)

    def node_class(self, s: Node):
        return any(e >= self.k for e in s)

    def member(self, T: HechlerCondition) -> bool:
        return any(e >= self.k for e in T.stem)

    def config(self) -> dict:
        return {"type": "stem_hits", "k": self.k}


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
    requirements are all met."""

    def __init__(self, patterns):
        pats = tuple(patterns)
        if not pats:
            raise ValueError("at least one pattern is required")
        self.patterns = pats

    def _best(self, s: Node) -> StemPattern:
        return min(self.patterns, key=lambda p: p.distance(s))

    def member_witness(self, s: Node) -> HechlerCondition | None:
        if any(p.distance(s) == 0 for p in self.patterns):
            return HechlerCondition._trusted(s, (), None)
        return None

    def good_successors(self, s: Node):
        # a step clearing the best pattern's largest threshold shrinks
        # every one of its deficits at once
        return itertools.count(self._best(s).step_threshold())

    def node_class(self, s: Node):
        return tuple(p.deficits(s) for p in self.patterns)

    def member(self, T: HechlerCondition) -> bool:
        return any(p.distance(T.stem) == 0 for p in self.patterns)

    def config(self) -> dict:
        return {"type": "user_stems", "patterns": [p.config() for p in self.patterns]}


class DominateSet(PruningDenseSet):
    """Conditions all of whose first steps above the stem clear a floor
    rule; met by raising the floor, which leaves the stem untouched."""

    def __init__(self, floor: FloorRule):
        self.floor = floor

    def refine(self, T: HechlerCondition) -> HechlerCondition:
        merged = self.floor if T.floor is None else floor_max(T.floor, self.floor)
        return HechlerCondition._trusted(T.stem, T.exclusions, merged)

    def member(self, T: HechlerCondition) -> bool:
        return floor_gap_witness(T, self.floor) is None

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
    D: StemBasedDenseSet, t, max_rank: int, width: int
) -> int | None:
    """Least r <= max_rank such that t reaches S in r progress steps,
    with the successor search truncated to the first `width` enumerated
    steps per node; None if no such r.

    For honest enumerations the result is an upper bound on the true
    reachability rank.  Nodes are collapsed through `node_class` when
    the dense set provides one.
    """
    if not isinstance(D, StemBasedDenseSet):
        raise TypeError("rank is defined for stem-based dense sets")
    t = as_node(t)
    memo: dict = {}

    def key(s: Node):
        c = D.node_class(s)
        return ("node", s) if c is None else ("class", c)

    def search(s: Node, cap: int) -> int | None:
        if D.member_witness(s) is not None:
            return 0
        if cap <= 0:
            return None
        k = (key(s), cap)
        if k in memo:
            return memo[k]
        best: int | None = None
        for z in itertools.islice(D.good_successors(s), width):
            child_cap = cap - 1 if best is None else best - 2
            r = search(s + (z,), child_cap)
            if r is not None:
                best = r + 1
                if best == 1:
                    break
        memo[k] = best
        return best

    return search(t, max_rank)


def extend_in_A(
    T: HechlerCondition,
    D: DenseSet,
    A=None,
    fuel: int = DEFAULT_FUEL,
) -> HechlerCondition:
    """A member of D below T whose new stem entries all avoid A.

    Pruning sets are met in place (stem unchanged).  For stem-based sets
    the search walks from the stem of T: at a node with a member
    witness, the witness is intersected with T restricted to that node;
    otherwise the enumerated progress steps are scanned in ascending
    order for the least one that is a legal step in T and lies outside
    A.  A may be None, which disables the avoidance clause.  The walk
    stays inside T, so each probe tests only its own step.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if isinstance(D, PruningDenseSet):
        refined = D.refine(T)
        result = meet(refined, T)
        if result is None or result.stem != T.stem:
            raise WitnessStemMismatch("refine changed the stem or killed it")
        return result
    if not isinstance(D, StemBasedDenseSet):
        raise TypeError(f"not a dense-set presentation: {D!r}")
    t = T.stem
    budget = fuel
    while True:
        W = D.member_witness(t)
        if W is not None:
            if W.stem != t:
                raise WitnessStemMismatch(
                    f"witness stem {W.stem} differs from requested {t}"
                )
            result = meet(W, _restrict(T, t))
            if result is None:
                raise WitnessStemMismatch("witness incompatible with its own stem")
            return result
        moved = False
        for z in D.good_successors(t):
            budget -= 1
            if budget <= 0:
                raise FuelExhausted(
                    f"no legal avoided successor of {t} within {fuel} probes"
                )
            if T.admits_step(t, z) and (A is None or not A.member(z)):
                t = t + (z,)
                moved = True
                break
        if not moved:
            raise FuelExhausted(f"successor enumeration of {t} ended early")


def code_step(T: HechlerCondition, A, m: int, fuel: int = DEFAULT_FUEL) -> HechlerCondition:
    """Extend the stem by one member of A carrying label m (the least
    legal one), deliberately breaking stem avoidance to record m.  A
    member too long for str(int), which no transcript could hold, raises
    FuelExhausted."""
    for k in range(fuel):
        z = eta_fiber_element(A, m, k, fuel)
        if not printable(z):
            raise FuelExhausted(
                f"the label-{m} member has {decimal_digits(z)} digits, past the "
                f"{str_digit_limit()}-digit limit of str(int)"
            )
        if T.admits_step(T.stem, z):
            return _restrict(T, T.stem + (z,))
    raise FuelExhausted(f"no legal label-{m} member of the help set within {fuel} probes")
