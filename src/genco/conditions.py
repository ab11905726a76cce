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
constructor, `contains`, `restrict` and `ConditionCodec.parse`, which
`parse_condition` calls and which accepts only the text that
`render_condition` writes; everything built from a valid condition goes
through `HechlerCondition._trusted` and the private `_contains` and
`_restrict`, which never re-check a whole stem.
"""

from __future__ import annotations

from .frozen import Frozen, Record
from .serialize import SeqCodec, _entries, parse_nat, parse_seq, quoted, render_seq

Node = tuple[int, ...]


def as_node(xs) -> Node:
    node = tuple(map(int, xs))
    if node and min(node) < 0:
        raise ValueError(f"node entries must be naturals: {xs!r}")
    return node


def is_prefix(a: Node, b: Node) -> bool:
    return a is b or (len(a) <= len(b) and b[: len(a)] == a)


def comparable(a: Node, b: Node) -> bool:
    return is_prefix(a, b) or is_prefix(b, a)


class ExtendsAnswer(Record):
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
        cut = len(table)
        while cut and table[cut - 1] == slope * (cut - 1) + intercept:
            cut -= 1
        self._set(table[:cut], int(slope), int(intercept))

    def value(self, n: int) -> int:
        if n < len(self.table):
            return self.table[n]
        return self.slope * n + self.intercept


def floor_max(f: FloorRule | None, g: FloorRule | None) -> FloorRule | None:
    """Pointwise maximum of two floor rules, again table + affine; None,
    no bound, is the identity.  An argument that already dominates the
    other is returned itself."""
    if f is None:
        return g
    if g is None or f == g:
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
    out = FloorRule(table, tail[0], tail[1])
    return f if out == f else g if out == g else out


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
    if a2 >= f1.slope:
        # tail as steep or steeper: f2 - f1 does not shrink from `stop` on,
        # so a gap shows there or nowhere
        return stop if _floor_at(f2, stop) < f1.value(stop) else None
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
        items = exclusions.items() if isinstance(exclusions, dict) else exclusions
        canon = _canonical_exclusions((_atom_key(stem, key), map(int, steps)) for key, steps in items)
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
        _set_stem(T, stem)
        _set_exclusions(T, exclusions)
        _set_floor(T, floor)
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


# the slot descriptors' setters, which skip Frozen.__setattr__
_set_stem, _set_exclusions, _set_floor = (
    HechlerCondition.__dict__[name].__set__ for name in HechlerCondition.__slots__
)


def _atom_key(stem: Node, key) -> Node:
    key = as_node(key)
    if not is_prefix(stem, key):
        raise ValueError(f"exclusion key {key} does not extend stem {stem}")
    return key


def _canonical_exclusions(atoms):
    """Sorted (key, ascending steps) pairs from (key, steps) pairs: the
    steps of a repeated key merged, empty step sets dropped.  Each pair's
    steps are read before the next pair is drawn."""
    merged: dict[Node, set[int]] = {}
    for key, steps in atoms:
        merged.setdefault(key, set()).update(steps)
    return tuple((key, tuple(sorted(steps))) for key, steps in sorted(merged.items()) if steps)


FULL_TREE = HechlerCondition()


def contains(T: HechlerCondition, u) -> bool:
    """Membership of the node u in the tree described by T."""
    return _contains(T, as_node(u))


def _contains(T: HechlerCondition, u: Node) -> bool:
    if is_prefix(u, T.stem):
        return True
    return is_prefix(T.stem, u) and _first_exit(T, u) is None


def _first_exit(T: HechlerCondition, u: Node) -> int | None:
    """The index of the first entry of u, past T's stem, that T does not
    admit; None when T admits them all.  u must extend T's stem, and is
    sliced only to read an exclusion atom."""
    floor, atoms = T.floor, T.exclusions
    for i in range(len(T.stem), len(u)):
        z = u[i]
        if z <= _floor_at(floor, i) or (atoms and z in T.exclusion_at(u[:i])):
            return i
    return None


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
    """`restrict` for a node t already known to lie in T; T itself when
    t is T's own stem object."""
    if t is T.stem:
        return T
    kept = T.exclusions and tuple((k, s) for k, s in T.exclusions if is_prefix(t, k))
    return HechlerCondition._trusted(t, kept, T.floor)


def meet(T1: HechlerCondition, T2: HechlerCondition) -> HechlerCondition | None:
    """Intersection of two conditions with comparable stems.

    Returns None when the longer stem dies under the other condition's
    constraints (the intersection then has no infinite part).  A side
    the other adds nothing to, with the result's stem and floor objects
    and equal atoms, is returned itself, the longer-stemmed (or second)
    side first.  That side comes back at once, with no atom or floor
    work, when both sides are one object or the shorter-stemmed one has
    neither atoms nor a floor; atoms are merged only when the shorter
    side has some.
    """
    if not comparable(T1.stem, T2.stem):
        raise ValueError(f"stems {T1.stem} and {T2.stem} are incomparable")
    short, long = (T1, T2) if len(T1.stem) <= len(T2.stem) else (T2, T1)
    if short is long or (not short.exclusions and short.floor is None):
        return long
    if not _contains(short, long.stem):
        return None
    stem = long.stem
    excl = long.exclusions
    if short.exclusions:
        excl = _canonical_exclusions(atom for atom in short.exclusions + excl if is_prefix(stem, atom[0]))
    floor = floor_max(T1.floor, T2.floor)
    for side in (long, short):
        if side.stem is stem and side.floor is floor and side.exclusions == excl:
            return side
    return HechlerCondition._trusted(stem, excl, floor)


def _floor_gap(T: HechlerCondition, f: FloorRule) -> int | None:
    """The least level at or above T's stem where a step of T is <= f, if
    any.  The stem, alone at its level, has a gap iff its least step is
    <= f; a higher level has infinitely many nodes but finitely many atom
    keys, so it has one iff T's floor lies below f there."""
    s = T.stem
    gap = least_floor_gap(T.floor, f, len(s))
    if gap == len(s) and T.least_step(s) > f.value(gap):
        gap = least_floor_gap(T.floor, f, gap + 1)
    return gap


def floor_gap_witness(T: HechlerCondition, f: FloorRule) -> Node | None:
    """A node of T whose last step, taken at or above the stem, is <= f
    at its level, which is the one `_floor_gap` finds; None iff every
    step of T clears f.  Above the stem it is the least-step node with no
    atom, built in a list that reads atoms only at keyed levels."""
    s = T.stem
    gap = _floor_gap(T, f)
    if gap is None:
        return None
    if gap == len(s):
        return s + (T.least_step(s),)
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
    if s2 is not s1 and s2[: len(s1)] != s1:
        if is_prefix(s2, s1):
            z = T2.least_step(s2, skip=(s1[len(s2)],))
            return ExtendsAnswer(witness=s2 + (z,))
        return ExtendsAnswer(witness=s2)
    return _extends_from_stem(T2, T1)


def _extends_from_stem(T2: HechlerCondition, T1: HechlerCondition) -> ExtendsAnswer:
    """`extends` for a T2 whose stem is known to extend T1's."""
    if T2 is T1:
        return _YES
    # only the new entries of T2's stem can leave T1; the first that does
    # ends the shortest prefix of that stem missing from T1
    s2 = T2.stem
    i = _first_exit(T1, s2)
    if i is not None:
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
    if T1.floor is not None and T2.floor != T1.floor:
        witness = floor_gap_witness(T2, T1.floor)
        if witness is not None:
            return ExtendsAnswer(witness=witness)
    return _YES


def extends_A(T2: HechlerCondition, T1: HechlerCondition, A) -> ExtendsAnswer:
    """Conjunction of extends(T2, T1) and stem avoidance of A: every new
    stem entry stays outside the help set A (vacuous when A is None)."""
    inc = extends(T2, T1)
    if not inc:
        return ExtendsAnswer(witness=inc.witness, reason="inclusion")
    # the YES shows that T1's stem is a prefix of T2's
    if A is not None and any(map(A.member, T2.stem[len(T1.stem):])):
        return ExtendsAnswer(reason="stem-avoidance")
    return _YES


def render_condition(T: HechlerCondition) -> str:
    """Bit-exact text form used in transcripts.

    ``stem=[a,b];excl{[k]:{z1,z2};...};floor(table=[...],a=A,b=B)`` with
    keys in lexicographic order, steps ascending, ``floor(-)`` if absent.
    """
    return ConditionCodec().render(0, T.stem, T.exclusions, T.floor)


def _render_exclusions(exclusions) -> str:
    if not exclusions:
        return "excl{}"
    excl = ";".join(
        f"{render_seq(key)}:{{{','.join(map(str, steps))}}}"
        for key, steps in exclusions
    )
    return f"excl{{{excl}}}"


def _render_floor(floor: FloorRule | None) -> str:
    if floor is None:
        return "floor(-)"
    return f"floor(table={render_seq(floor.table)},a={floor.slope},b={floor.intercept})"


def parse_condition(text: str) -> HechlerCondition:
    """Inverse of `render_condition`; it accepts only the text that
    `render_condition` writes."""
    _, stem, exclusions, floor = ConditionCodec().parse(text)
    return HechlerCondition._trusted(stem, exclusions, floor)


class ConditionCodec:
    """`render_condition` and `parse_condition` for the conditions of one
    transcript, in line order, each given or read as a delta from the
    one before: `(keep, new, exclusions, floor)`, where the stem is the
    last stem cut to `keep` entries plus the entries `new`.

    Stems go through a `SeqCodec`, so neither direction holds or builds
    a whole stem, and floor texts are memoized.  Parsing accepts only the
    text `render` writes: atoms and floors must render back to their own
    text, every atom key must extend the stem, and every error is
    ``malformed condition text``.  A text equal to the last one parsed
    gives the last delta again, keeping every entry and adding none, and
    rendering the last delta's atoms and floor objects with an unchanged
    stem gives the last text again.  Use one instance per direction and
    per transcript.
    """

    def __init__(self):
        self._stems = SeqCodec()
        self._floor_texts: dict[FloorRule | None, str] = {}
        self._floors: dict[str, FloorRule | None] = {}
        # the last text rendered or parsed, and the parts it was made of
        self._text = self._stem = self._excl = self._floor = None
        self._repeat: tuple | None = None

    def render(self, keep: int, new, exclusions, floor: FloorRule | None) -> str:
        stem = self._stems.render(keep, new)
        if stem is not self._stem or exclusions is not self._excl or floor is not self._floor:
            floor_text = self._floor_texts.get(floor)
            if floor_text is None:
                floor_text = self._floor_texts[floor] = _render_floor(floor)
            self._text = f"stem={stem};{_render_exclusions(exclusions)};{floor_text}"
            self._stem, self._excl, self._floor = stem, exclusions, floor
        return self._text

    def parse(self, text: str) -> tuple:
        if text == self._text:
            return self._repeat
        # a valid stem holds no `;` and a valid floor no `}`
        head, _, floor_part = text.rpartition("};floor(")
        stem_part, excl, excl_part = head.partition(";excl{")
        try:
            if not (excl and stem_part.startswith("stem=")):
                raise ValueError
            if floor_part not in self._floors:
                self._floors[floor_part] = _parse_floor(floor_part)
            floor = self._floors[floor_part]
            stem_text = stem_part[len("stem="):]
            keep, new = self._stems.parse(stem_text)
            exclusions = _parse_exclusions(excl_part, stem_text) if excl_part else ()
        except ValueError as exc:
            raise ValueError(f"malformed condition text: {quoted(text)}") from exc
        self._text, self._repeat = text, (keep + len(new), (), exclusions, floor)
        return keep, new, exclusions, floor


def _parse_exclusions(text: str, stem_text: str):
    """The canonical atoms of `text`, the inside of ``excl{...}``, whose
    keys extend the stem written `stem_text`.  Rendering them back checks
    the braces, the order and that no key or step repeats; a key extends
    the stem iff its text is the stem's, or the stem's head and a `,`."""
    atoms = []
    head = stem_text[:-1] + ","
    for atom in text.split(";"):
        key, _, steps = atom.partition(":{")
        if not (stem_text == "[]" or key == stem_text or key.startswith(head)):
            raise ValueError
        atoms.append((parse_seq(key), _entries(steps[:-1], steps)))
    exclusions = _canonical_exclusions(atoms)
    if _render_exclusions(exclusions) != f"excl{{{text}}}":
        raise ValueError
    return exclusions


def _parse_floor(text: str) -> FloorRule | None:
    """The floor rule of the text after ``floor(``, which must be the
    text `_render_floor` writes for it."""
    if text == "-)":
        return None
    table_text, _, tail = text.partition(",a=")
    slope_text, _, intercept_text = tail.partition(",b=")
    # the render check below also rejects a wrong tag or closing character
    floor = FloorRule(
        parse_seq(table_text[len("table="):]), parse_nat(slope_text), parse_nat(intercept_text[:-1])
    )
    if _render_floor(floor) != "floor(" + text:
        raise ValueError
    return floor
