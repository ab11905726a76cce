"""Finite symbolic conditions over the tree of natural-number sequences.

A condition describes an infinite tree T of finite sequences ("nodes"):
every node comparable with the stem belongs to T unless a constraint
removes it.  Constraints live only at or above the stem and come in two
finite shapes, so every node at or above the stem keeps cofinitely many
immediate successors:

* exclusion atoms: at a node v, a finite set of first steps z with
  v+(z,) removed;
* a floor rule: at level l, only steps z > f(l) survive, where f is a
  finite table followed by an affine tail.

All values are immutable and every operation is a pure function.

Conditions are validated when constructed publicly or parsed; internal
operations trust them.  The boundary is the `HechlerCondition(...)`
constructor, `contains`, `restrict` and `parse_condition`; everything
built from a valid condition goes through `HechlerCondition._trusted`
and the private `_contains`, `_restrict` and `_stem_avoids`, which
never re-check a whole stem.
"""

from __future__ import annotations

from typing import NamedTuple

from .frozen import Frozen
from .serialize import SeqCodec, parse_seq, render_seq

Node = tuple[int, ...]


def as_node(xs) -> Node:
    node = tuple(map(int, xs))
    if node and min(node) < 0:
        raise ValueError(f"node entries must be naturals: {xs!r}")
    return node


def is_prefix(a: Node, b: Node) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


def comparable(a: Node, b: Node) -> bool:
    return is_prefix(a, b) or is_prefix(b, a)


class ExtendsAnswer(NamedTuple):
    """YES when empty; a NO carries a witness node, a reason, or both."""

    witness: Node | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.witness is None and self.reason is None


class FloorRule(Frozen):
    """Level-wise lower bound: f(n) = table[n] for n < len(table), else
    slope*n + intercept.  Stored canonically: trailing table entries that
    agree with the affine tail are trimmed."""

    __slots__ = ("table", "slope", "intercept")

    def __init__(self, table: tuple[int, ...] = (), slope: int = 0, intercept: int = 0):
        table = tuple(int(x) for x in table)
        if any(x < 0 for x in table) or slope < 0 or intercept < 0:
            raise ValueError("floor rule parameters must be naturals")
        while table and table[-1] == slope * (len(table) - 1) + intercept:
            table = table[:-1]
        self._set(table, int(slope), int(intercept))

    def value(self, n: int) -> int:
        if n < len(self.table):
            return self.table[n]
        return self.slope * n + self.intercept


def floor_max(f: FloorRule, g: FloorRule) -> FloorRule:
    """Pointwise maximum of two floor rules, again table + affine."""
    if f == g:
        return f
    base = max(len(f.table), len(g.table))
    if f.slope == g.slope:
        cut = base
        tail = (f.slope, max(f.intercept, g.intercept))
    else:
        hi, lo = (f, g) if f.slope > g.slope else (g, f)
        # beyond the crossing, the steeper tail dominates
        cross = (lo.intercept - hi.intercept) // (hi.slope - lo.slope) + 1
        cut = max(base, cross, 0)
        tail = (hi.slope, hi.intercept)
    table = tuple(max(f.value(n), g.value(n)) for n in range(cut))
    return FloorRule(table, tail[0], tail[1])


def _floor_at(floor: FloorRule | None, level: int) -> int:
    # -1 means "no bound": every natural step passes
    return -1 if floor is None else floor.value(level)


def least_floor_gap(f2: FloorRule | None, f1: FloorRule, from_level: int) -> int | None:
    """Least level l >= from_level with f2(l) < f1(l), if any."""
    base = max(from_level, 0)
    stop = max(len(f1.table), len(f2.table) if f2 else 0, base)
    for n in range(base, stop):
        if _floor_at(f2, n) < f1.value(n):
            return n
    a2 = f2.slope if f2 else 0
    b2 = f2.intercept if f2 else -1
    if a2 > f1.slope:
        # steeper tail: f2 - f1 grows from `stop` on, so a gap shows there or nowhere
        return stop if _floor_at(f2, stop) < f1.value(stop) else None
    if a2 == f1.slope:
        return stop if b2 < f1.intercept else None
    # shallower tail: gap opens where (a1-a2)*l > b2-b1
    first = (b2 - f1.intercept) // (f1.slope - a2) + 1
    return max(stop, first)


class HechlerCondition(Frozen):
    """Stem + exclusion atoms + optional floor rule.

    A node u belongs to the described tree iff u is comparable with the
    stem and, for every prefix v of u at or above the stem, the first
    step z of u after v has z not excluded at v and z > floor(len(v)).
    Exclusion keys must extend the stem (or equal it); exclusions are
    stored as a sorted tuple of (node, ascending steps) pairs.
    """

    __slots__ = ("stem", "exclusions", "floor")

    def __init__(self, stem: Node = (), exclusions=(), floor: FloorRule | None = None):
        stem = as_node(stem)
        merged: dict[Node, set[int]] = {}
        items = exclusions.items() if isinstance(exclusions, dict) else exclusions
        for key, steps in items:
            key = as_node(key)
            if not is_prefix(stem, key):
                raise ValueError(f"exclusion key {key} does not extend stem {stem}")
            merged.setdefault(key, set()).update(map(int, steps))
        canon = _canonical_exclusions(merged)
        for _, steps in canon:
            if steps[0] < 0:
                raise ValueError("excluded steps must be naturals")
        self._set(stem, canon, floor)

    @classmethod
    def _trusted(cls, stem: Node, exclusions, floor: FloorRule | None) -> "HechlerCondition":
        """A condition from parts already known to be valid: `stem` a
        tuple of naturals, `exclusions` canonical with every key
        extending `stem`.  Nothing is checked."""
        T = object.__new__(cls)
        object.__setattr__(T, "stem", stem)
        object.__setattr__(T, "exclusions", exclusions)
        object.__setattr__(T, "floor", floor)
        return T

    def exclusion_at(self, v: Node) -> tuple[int, ...]:
        for key, steps in self.exclusions:
            if key == v:
                return steps
        return ()

    def floor_at(self, level: int) -> int:
        return _floor_at(self.floor, level)

    def admits_step(self, v: Node, z: int) -> bool:
        """Is z a legal first step from the at-or-above-stem node v?"""
        return z > self.floor_at(len(v)) and z not in self.exclusion_at(v)

    def least_step(self, v: Node, skip=()) -> int:
        """Least legal first step from v not in `skip` (always exists)."""
        z = self.floor_at(len(v)) + 1
        banned = set(self.exclusion_at(v)) | set(skip)
        while z in banned:
            z += 1
        return z


def _canonical_exclusions(merged: dict[Node, set[int]]):
    """Sorted (key, ascending steps) pairs, empty step sets dropped."""
    return tuple(
        (key, tuple(sorted(steps)))
        for key, steps in sorted(merged.items())
        if steps
    )


FULL_TREE = HechlerCondition()


def contains(T: HechlerCondition, u) -> bool:
    """Membership of the node u in the tree described by T."""
    return _contains(T, as_node(u))


def _contains(T: HechlerCondition, u: Node) -> bool:
    if is_prefix(u, T.stem):
        return True
    if not is_prefix(T.stem, u):
        return False
    for i in range(len(T.stem), len(u)):
        if not T.admits_step(u[:i], u[i]):
            return False
    return True


def excluded_successors(T: HechlerCondition, t) -> tuple[int, ...]:
    """The exact finite set {z : t+(z,) not in T}, ascending."""
    t = as_node(t)
    if not is_prefix(T.stem, t):
        raise ValueError(f"{t} is below the stem {T.stem}")
    if not _contains(T, t):
        raise ValueError(f"{t} is not in the condition")
    out = set(T.exclusion_at(t))
    out.update(range(0, T.floor_at(len(t)) + 1))
    return tuple(sorted(out))


def restrict(T: HechlerCondition, t) -> HechlerCondition:
    """The condition of all nodes of T comparable with t (stem becomes t).

    Exclusion atoms at keys not extending t are dropped: keys inside the
    new stem were already honoured by t (t is in T), keys incomparable
    with t constrain nodes outside the restricted tree.
    """
    t = as_node(t)
    if not _contains(T, t):
        raise ValueError(f"cannot restrict to {t}: not in the condition")
    return _restrict(T, t)


def _restrict(T: HechlerCondition, t: Node) -> HechlerCondition:
    """`restrict` for a node t already known to lie in T."""
    kept = tuple((k, s) for k, s in T.exclusions if is_prefix(t, k))
    return HechlerCondition._trusted(t, kept, T.floor)


def meet(T1: HechlerCondition, T2: HechlerCondition) -> HechlerCondition | None:
    """Intersection of two conditions with comparable stems.

    Returns None when the longer stem dies under the other condition's
    constraints (the intersection then has no infinite part).
    """
    if not comparable(T1.stem, T2.stem):
        raise ValueError(f"stems {T1.stem} and {T2.stem} are incomparable")
    short, long = (T1, T2) if len(T1.stem) <= len(T2.stem) else (T2, T1)
    if not _contains(short, long.stem):
        return None
    stem = long.stem
    merged: dict[Node, set[int]] = {}
    for side in (short, long):
        for key, steps in side.exclusions:
            if is_prefix(stem, key):
                merged.setdefault(key, set()).update(steps)
    if T1.floor is None:
        floor = T2.floor
    elif T2.floor is None:
        floor = T1.floor
    else:
        floor = floor_max(T1.floor, T2.floor)
    return HechlerCondition._trusted(stem, _canonical_exclusions(merged), floor)


def floor_gap_witness(T: HechlerCondition, f: FloorRule) -> Node | None:
    """A node of T whose last step, taken at or above the stem, is <= f
    at its level; None iff there is none, i.e. every step of T clears f.

    At the stem level the stem is the only node, so each sub-floor step
    is tried there.  Every higher level has infinitely many nodes but
    finitely many atom keys, so the first floor gap above the stem shows
    at the least-step node that carries no atom.  That node is built in
    a list, reading atoms only at the levels that have keys, so it costs
    time linear in its length plus the atoms.
    """
    s = T.stem
    gap = least_floor_gap(T.floor, f, len(s))
    if gap == len(s):
        for z in range(T.floor_at(gap) + 1, f.value(gap) + 1):
            if T.admits_step(s, z):
                return s + (z,)
        gap = least_floor_gap(T.floor, f, gap + 1)
    if gap is None:
        return None
    keyed_levels = {len(k) for k, _ in T.exclusions}
    path = list(s)
    for level in range(len(s), gap - 1):
        z = T.floor_at(level) + 1
        if level in keyed_levels:
            banned = T.exclusion_at(tuple(path))
            while z in banned:
                z += 1
        path.append(z)
    v = tuple(path)
    # the last step dodges the atom keys at level `gap`, so no atom masks
    # the sub-floor step after it
    keyed = [k[-1] for k, _ in T.exclusions if len(k) == gap and k[:-1] == v]
    return v + (T.least_step(v, keyed), T.floor_at(gap) + 1)


_YES = ExtendsAnswer()


def extends(T2: HechlerCondition, T1: HechlerCondition) -> ExtendsAnswer:
    """Decide T2 <= T1 (inclusion of the described trees) exactly.

    Yes requires the stem of T2 to lie in T1, every exclusion atom of T1
    at or above that stem to be covered by T2's constraints, and no step
    of T2 at or above its stem to fall to or below T1's floor.  No
    carries a witness node in T2 - T1.  Every YES is one shared answer.
    """
    s2, s1 = T2.stem, T1.stem
    n1 = len(s1)
    if s2[:n1] != s1:
        if is_prefix(s2, s1):
            z = T2.least_step(s2, skip=(s1[len(s2)],))
            return ExtendsAnswer(witness=s2 + (z,))
        return ExtendsAnswer(witness=s2)
    # s2 extends s1, so only its new entries can leave T1; the first that
    # does ends the shortest prefix of s2 missing from T1
    f1 = T1.floor
    for i in range(n1, len(s2)):
        z = s2[i]
        if z <= _floor_at(f1, i) or (T1.exclusions and z in T1.exclusion_at(s2[:i])):
            return ExtendsAnswer(witness=s2[: i + 1])
    for key, steps in T1.exclusions:
        if not is_prefix(s2, key) or not _contains(T2, key):
            continue
        # the least step T1 excludes at key that T2 admits there
        floor, excl = T2.floor_at(len(key)), T2.exclusion_at(key)
        bad = next((z for z in steps if z > floor and z not in excl), None)
        if bad is not None:
            return ExtendsAnswer(witness=key + (bad,))
    # with equal floors every step of T2 clears T1's floor: no gap
    if f1 is not None and T2.floor != f1:
        witness = floor_gap_witness(T2, f1)
        if witness is not None:
            return ExtendsAnswer(witness=witness)
    return _YES


def _stem_avoids(t2: Node, t1: Node, A) -> bool:
    """t2 extends t1 and every new entry stays outside the help set A
    (A may be None, making the avoidance clause vacuous)."""
    if not is_prefix(t1, t2):
        return False
    if A is None:
        return True
    return not any(map(A.member, t2[len(t1):]))


def extends_A(T2: HechlerCondition, T1: HechlerCondition, A) -> ExtendsAnswer:
    """Conjunction of extends(T2, T1) and stem avoidance of A."""
    inc = extends(T2, T1)
    if not inc:
        return ExtendsAnswer(witness=inc.witness, reason="inclusion")
    if not _stem_avoids(T2.stem, T1.stem, A):
        return ExtendsAnswer(reason="stem-avoidance")
    return _YES


def render_condition(T: HechlerCondition) -> str:
    """Bit-exact text form used in transcripts.

    ``stem=[a,b];excl{[k]:{z1,z2};...};floor(table=[...],a=A,b=B)`` with
    keys in lexicographic order, steps ascending, ``floor(-)`` if absent.
    """
    return f"stem={render_seq(T.stem)};{_render_exclusions(T)};{_render_floor(T.floor)}"


def _render_exclusions(T: HechlerCondition) -> str:
    excl = ";".join(
        f"{render_seq(key)}:{{{','.join(map(str, steps))}}}"
        for key, steps in T.exclusions
    )
    return f"excl{{{excl}}}"


def _render_floor(floor: FloorRule | None) -> str:
    if floor is None:
        return "floor(-)"
    return f"floor(table={render_seq(floor.table)},a={floor.slope},b={floor.intercept})"


def parse_condition(text: str) -> HechlerCondition:
    try:
        stem_part, rest = text.split(";excl{", 1)
        excl_part, floor_part = rest.rsplit("};floor(", 1)
        if not stem_part.startswith("stem=") or not floor_part.endswith(")"):
            raise ValueError
        stem = parse_seq(stem_part[len("stem="):])
        exclusions = {}
        if excl_part:
            for entry in excl_part.split(";"):
                key_text, steps_text = entry.split(":{", 1)
                if not steps_text.endswith("}"):
                    raise ValueError
                steps = tuple(
                    int(z) for z in steps_text[:-1].split(",") if z
                )
                exclusions[parse_seq(key_text)] = steps
        floor = _parse_floor(floor_part[:-1])
        if not exclusions:
            # parse_seq yields only naturals, so a bare stem needs no second pass
            return HechlerCondition._trusted(stem, (), floor)
        return HechlerCondition(stem, exclusions, floor)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed condition text: {text!r}") from exc


class ConditionCodec:
    """`render_condition` and `parse_condition` for the conditions of one
    transcript, in line order.

    Stems go through a `SeqCodec`, so a stem that extends the last one
    costs only its new entries, and floor texts are memoized.  A text
    with exclusion atoms, or one this fast path rejects, goes through
    the full `parse_condition`, so every result and every error message
    is its own.  Use one instance per direction and per transcript.
    """

    _PLAIN = ";excl{};floor("

    def __init__(self):
        self._stems = SeqCodec()
        self._floor_texts: dict[FloorRule | None, str] = {}
        self._floors: dict[str, FloorRule | None] = {}

    def render(self, T: HechlerCondition) -> str:
        floor = self._floor_texts.get(T.floor)
        if floor is None:
            floor = self._floor_texts[T.floor] = _render_floor(T.floor)
        return f"stem={self._stems.render(T.stem)};{_render_exclusions(T)};{floor}"

    def parse(self, text: str) -> HechlerCondition:
        # a valid stem holds no `;` and a valid floor no `}`, so this split
        # agrees with parse_condition's whenever both parts parse
        stem_part, plain, floor_part = text.partition(self._PLAIN)
        if plain and stem_part.startswith("stem=") and floor_part.endswith(")"):
            try:
                if floor_part not in self._floors:
                    self._floors[floor_part] = _parse_floor(floor_part[:-1])
                stem = self._stems.parse(stem_part[len("stem="):])
                return HechlerCondition._trusted(stem, (), self._floors[floor_part])
            except ValueError:
                pass
        return parse_condition(text)


def _parse_floor(body: str) -> FloorRule | None:
    """The floor rule of the text between ``floor(`` and ``)``."""
    if body == "-":
        return None
    table_text, tail = body.split(",a=", 1)
    if not table_text.startswith("table="):
        raise ValueError
    slope_text, intercept_text = tail.split(",b=", 1)
    return FloorRule(parse_seq(table_text[len("table="):]), int(slope_text), int(intercept_text))
