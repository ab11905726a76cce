"""The tests' differential oracles.

`extends_bounded` searches a bounded universe exhaustively for a node
in T2 but not in T1.  The library decides `extends` exactly; the suites
check that the oracle never finds such a node where `extends` says YES.

`write_transcript`, `parse_transcript`, `write_pair_transcript` and
`parse_pair_transcript` are the transcript codec before incremental
rendering and parsing: every line is rendered and parsed in full.  The
library's codec must agree with them byte for byte, value for value and
error message for error message.  They split lines with `split_lines`,
the library's line reader from before it checked the line count, and
check the count themselves.  They read each field through the library's
`parse_nat`, `parse_json`, `parse_seq` and `parse_condition`, so both
sides share one spelling rule per field.

`run_from_entries`, `pair_from_snapshots` and `pair_snapshots` convert
between the library's delta records and full conditions or snapshots
(`TranscriptEntry`, `PairStage`), by the parsers' rule: a stem or
snapshot that extends the one before keeps all of it, any other none.
The library's parsers and verifiers never need the full form; the tests
build forged transcripts and read whole snapshots through these.

`render_bits`, `parse_bits`, `decode_pair` and `verify_pair` are the
pair code from when a bit string was a tuple of ints; `cohen_member`
holds the membership tests of the built-in cohen dense sets from then.
The pair oracles read and return a `SnapshotPair`, a pair transcript
that holds every full snapshot, with such tuples; `pair_as_tuples`
converts a library `PairTranscript`, which holds records of the bytes
each stage adds, for them.  Their parse errors quote the input through
the library's `quoted`, as the library's do.

`extends` (with `floor_gap_witness` and `_first_bad_prefix`) and
`verify_transcript` are the order check and the verifier from before
per-line costs were cut: `extends` slices the stem prefix several times
per call and builds its floor witness one tuple concatenation per level,
and `verify_transcript` formats every check's detail, passing or not.
The library must give the same verdicts, witnesses, check lists and
report lines.  `_stem_avoids` is the stem-avoidance test of that
verifier, which proved the stem prefix again instead of reusing the
chain check's answer.

`meet` is the intersection from before it returned an argument that
the other side adds nothing to: it builds a new condition every time.
The library's `meet` must return an equal condition, or None alike.

`nth_prime`, `is_prime` and `prime_index` are the prime table before the
sieve: it grows one trial division at a time, in a table of its own.
`selfcode_digits` is `SelfCode`'s membership test before the code-cache
lookup: it factors z with `decode_prefix_code`.  The library must give
the same answers.

`stem_deficits` is `StemPattern.deficits` before its hit counts were
capped: it counts every entry of the stem that clears each threshold.
The library must give the same deficit tuples.

`StemLengthOracle` and `StemHitsOracle` are `StemLengthSet` and
`StemHitsSet` from before they became one-pattern `UserStemsSet`s, with
their own predicates `len(s) >= n` and `any(e >= k for e in s)`;
`explicit_member` is `ExplicitPeriodic.member` from before it read its
pattern through `EventuallyPeriodicSeq`.  The library must give the same
members, witnesses, successors and ranks, and a node partition that
`node_class` draws the same way.

`rank_bounded` is the rank engine from before the level search: a
depth-first recursion with a memo keyed by `(node_class, cap)` and
`best - 2` cap pruning.  It takes no fuel.  The library must give the
same rank, or None alike.
"""

from __future__ import annotations

import bisect
import itertools
from typing import NamedTuple

from genco.coding import SelfCode, decode, decode_prefix_code, eta
from genco.cohenpair import Bits, PairRecord, PairTranscript
from genco.conditions import (
    FULL_TREE,
    ExtendsAnswer,
    FloorRule,
    HechlerCondition,
    Node,
    _canonical_exclusions,
    _contains,
    _floor_at,
    as_node,
    comparable,
    floor_max,
    is_prefix,
    least_floor_gap,
    parse_condition,
    render_condition,
)
from genco.densesets import DEFAULT_FUEL, StemBasedDenseSet, StemPattern
from genco.errors import MalformedCodeElement, MalformedTranscript
from genco.generic import (
    CODE,
    MEET,
    CheckResult,
    RunRecord,
    RunTranscript,
    TranscriptEntry,
    VerificationReport,
)
from genco.serialize import (
    canonical_json,
    parse_json,
    parse_nat,
    parse_seq,
    quoted,
    render_seq,
    roster_hash,
)


def extends_bounded(
    T2: HechlerCondition, T1: HechlerCondition, depth: int, width: int
) -> Node | None:
    """First node (depth-first preorder, ascending steps) of length <=
    depth with entries <= width lying in T2 but not in T1; None if the
    bounded universe is consistent with T2 <= T1.

    Exact over the bounded universe: subtrees where both conditions are
    atom-free and T2's floor dominates T1's are skipped wholesale.
    """
    s2 = T2.stem

    def t1_admits(u: Node) -> bool:
        v, z = u[:-1], u[-1]
        if is_prefix(u, T1.stem):
            return True
        if not is_prefix(T1.stem, u):
            return False
        return T1.admits_step(v, z)

    def subtree_included(v: Node) -> bool:
        # sound prune: below v both trees are atom-free on the T1 side
        # and T2's floor admits only steps T1's floor admits too
        if not (is_prefix(s2, v) and is_prefix(T1.stem, v)):
            return False
        if any(is_prefix(v, k) for k, _ in T1.exclusions):
            return False
        return all(
            _floor_at(T2.floor, n) >= _floor_at(T1.floor, n)
            for n in range(len(v), depth)
        )

    def dfs(v: Node) -> Node | None:
        if len(v) >= depth or subtree_included(v):
            return None
        for z in (z for z in range(width + 1) if T2.admits_step(v, z)):
            u = v + (z,)
            if not t1_admits(u):
                return u
            found = dfs(u)
            if found is not None:
                return found
        return None

    # prefixes of the stem come first in preorder along the unique path
    for i in range(min(len(s2), depth) + 1):
        u = s2[:i]
        if any(e > width for e in u):
            return None
        if not _contains(T1, u):
            return u
    if len(s2) > depth or any(e > width for e in s2):
        return None
    return dfs(s2)


def meet(T1: HechlerCondition, T2: HechlerCondition) -> HechlerCondition | None:
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
    return HechlerCondition._trusted(stem, _canonical_exclusions(merged.items()), floor_max(T1.floor, T2.floor))


def _first_bad_prefix(T1: HechlerCondition, u: Node) -> Node:
    """Shortest prefix of u missing from T1 (assumes one exists)."""
    for i in range(len(u) + 1):
        if not _contains(T1, u[:i]):
            return u[:i]
    raise AssertionError("no bad prefix found")


def floor_gap_witness(T: HechlerCondition, f: FloorRule) -> Node | None:
    """A node of T whose last step, taken at or above the stem, is <= f
    at its level; None iff there is none, i.e. every step of T clears f.

    At the stem level the stem is the only node, so each sub-floor step
    is tried there.  Every higher level has infinitely many nodes but
    finitely many atom keys, so the first floor gap above the stem shows
    at the least-step node that carries no atom.
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
    v = s
    while len(v) < gap - 1:
        v = v + (T.least_step(v),)
    # the last step dodges the atom keys at level `gap`, so no atom masks
    # the sub-floor step after it
    keyed = [k[-1] for k, _ in T.exclusions if len(k) == gap and k[:-1] == v]
    return v + (T.least_step(v, keyed), T.floor_at(gap) + 1)


def extends(T2: HechlerCondition, T1: HechlerCondition) -> ExtendsAnswer:
    """Decide T2 <= T1 (inclusion of the described trees) exactly.

    Yes requires the stem of T2 to lie in T1, every exclusion atom of T1
    at or above that stem to be covered by T2's constraints, and no step
    of T2 at or above its stem to fall to or below T1's floor.  No
    carries a witness node in T2 - T1.
    """
    s2, s1 = T2.stem, T1.stem
    if not comparable(s2, s1):
        return ExtendsAnswer(witness=s2)
    if len(s2) < len(s1):
        z = T2.least_step(s2, skip=(s1[len(s2)],))
        return ExtendsAnswer(witness=s2 + (z,))
    if not _contains(T1, s2):
        return ExtendsAnswer(witness=_first_bad_prefix(T1, s2))
    for key, steps in T1.exclusions:
        if not is_prefix(s2, key) or not _contains(T2, key):
            continue
        # the least step T1 excludes at key that T2 admits there
        floor, excl = T2.floor_at(len(key)), T2.exclusion_at(key)
        bad = next((z for z in steps if z > floor and z not in excl), None)
        if bad is not None:
            return ExtendsAnswer(witness=key + (bad,))
    if T1.floor is not None:
        witness = floor_gap_witness(T2, T1.floor)
        if witness is not None:
            return ExtendsAnswer(witness=witness)
    return ExtendsAnswer()


def _stem_avoids(t2: Node, t1: Node, A) -> bool:
    """t2 extends t1 and every new entry stays outside the help set A
    (A may be None, making the avoidance clause vacuous)."""
    if not is_prefix(t1, t2):
        return False
    if A is None:
        return True
    return not any(map(A.member, t2[len(t1):]))


def verify_transcript(
    roster: list[DenseSet],
    A: HelpSet | None,
    x: EventuallyPeriodicSeq | None,
    t: RunTranscript,
    fuel: int = DEFAULT_FUEL,
) -> VerificationReport:
    """Re-check a transcript against the given roster, help set, and
    target without re-running the builder.

    Checks: header consistency; step structure; the descending chain
    (exact inclusion, each failure with a witness node); dense-set
    membership and stem avoidance at every MEET; coded value, membership
    and label at every CODE; footer; and the decoded prefix.  `fuel`
    bounds the prime indices of the help-set lookups.
    """
    checks: list[CheckResult] = []

    def add(check: str, locus: str, ok: bool, detail: str = ""):
        checks.append(CheckResult(check, locus, ok, "" if ok else detail))

    expected_hash = roster_hash(roster)
    add("header.roster", "-", t.roster_hash == expected_hash,
        f"hash {t.roster_hash} != roster {expected_hash}")
    help_cfg = A.config() if A is not None else None
    add("header.help", "-", canonical_json(t.help_config) == canonical_json(help_cfg),
        f"transcript help {t.help_config} != {help_cfg}")
    target_cfg = x.config() if x is not None else None
    add("header.target", "-", canonical_json(t.target_config) == canonical_json(target_cfg),
        f"transcript target {t.target_config} != {target_cfg}")

    # structure: per step, an optional MEET (when the roster is nonempty)
    # followed by a CODE when coding is on
    expected: list[tuple[str, int]] = []
    for i in range(t.steps):
        if roster:
            expected.append((MEET, i % len(roster)))
        if A is not None:
            expected.append((CODE, i))
    got = [(e.kind, e.index) for e in t.entries]
    add("structure", "-", got == expected,
        f"entries {got[:6]}... do not match the declared step count/mode")

    prev = FULL_TREE
    code_count = 0
    for pos, e in enumerate(t.entries):
        locus = f"entry {pos}"
        ans = extends(e.condition, prev)
        add("chain.extends", locus, bool(ans), f"witness {ans.witness}")
        if e.kind == MEET:
            if roster:
                D = roster[e.index % len(roster)]
                add("meet.member", locus, D.member(e.condition) is True,
                    f"condition not a member of dense set {e.index}")
            avoid = _stem_avoids(e.condition.stem, prev.stem, A)
            add("meet.avoid", locus, avoid,
                "new stem entries hit the help set")
        else:
            stem, pstem = e.condition.stem, prev.stem
            grew = len(stem) == len(pstem) + 1 and stem[:-1] == pstem
            add("code.step", locus, grew and e.z == (stem[-1] if grew else None),
                f"stem did not grow by exactly the recorded value {e.z}")
            if A is not None and x is not None and grew:
                z = stem[-1]
                ok = A.member(z) and eta(A, z, fuel) == x.value(e.index)
                add("code.value", locus, ok,
                    f"z={z} not a member with label {x.value(e.index)}")
            code_count += 1
        prev = e.condition

    add("footer.g", "-", t.g_prefix == prev.stem,
        f"footer {t.g_prefix} != final stem {prev.stem}")
    if A is not None and x is not None:
        decoded = decode(A, t.g_prefix, fuel)
        want = x.values(code_count)
        add("decode.prefix", "-", decoded[: len(want)] == want,
            f"decoded {decoded[:len(want)]} != target {want}")
    return VerificationReport(tuple(checks))


def run_from_entries(roster_hash, help_config, target_config, steps, entries, g_prefix) -> RunTranscript:
    """The transcript of full entries.  A stem that extends the one
    before keeps all of it, any other stem none, as the parser reads
    them."""
    records, prev = [], ()
    for kind, index, T, z in entries:
        keep = len(prev) if is_prefix(prev, T.stem) else 0
        records.append(RunRecord(kind, index, z, keep, T.stem[keep:], T.exclusions, T.floor))
        prev = T.stem
    return RunTranscript(roster_hash, help_config, target_config, steps, tuple(records), g_prefix)


def split_lines(text: str) -> list[str]:
    """`text` split at each `\\n`, which must also end the text."""
    lines = text.split("\n")
    if lines.pop():
        raise MalformedTranscript("transcript does not end with a newline")
    return lines


def write_transcript(t: RunTranscript) -> str:
    lines = [
        f"ROSTER {t.roster_hash}",
        f"HELP {canonical_json(t.help_config) if t.help_config is not None else 'null'}",
        f"TARGET {canonical_json(t.target_config) if t.target_config is not None else 'null'}",
        f"STEPS {t.steps}",
    ]
    for e in t.entries:
        if e.kind == MEET:
            lines.append(f"MEET {e.index} {render_condition(e.condition)}")
        else:
            lines.append(f"CODE {e.index} {e.z} {render_condition(e.condition)}")
    lines.append(f"G {render_seq(t.g_prefix)}")
    return "\n".join(lines) + "\n"


def parse_transcript(text: str) -> RunTranscript:
    lines = split_lines(text)
    if len(lines) < 5:
        raise MalformedTranscript("transcript too short")

    def header(idx: int, tag: str) -> str:
        if not lines[idx].startswith(tag + " "):
            raise MalformedTranscript(f"expected {tag} on line {idx + 1}")
        return lines[idx][len(tag) + 1 :]

    rhash = header(0, "ROSTER")
    help_text = header(1, "HELP")
    target_text = header(2, "TARGET")
    steps_text = header(3, "STEPS")
    try:
        help_cfg = parse_json(help_text)
        target_cfg = parse_json(target_text)
        steps = parse_nat(steps_text)
    except ValueError as exc:
        raise MalformedTranscript(f"bad header: {exc}") from exc
    entries: list[TranscriptEntry] = []
    if not lines[-1].startswith("G "):
        raise MalformedTranscript("missing footer")
    try:
        g = parse_seq(lines[-1][2:])
        for i, line in enumerate(lines[4:-1], start=5):
            parts = line.split(" ")
            if parts[0] == MEET and len(parts) == 3:
                entries.append(
                    TranscriptEntry(MEET, parse_nat(parts[1]), parse_condition(parts[2]))
                )
            elif parts[0] == CODE and len(parts) == 4:
                entries.append(
                    TranscriptEntry(
                        CODE, parse_nat(parts[1]), parse_condition(parts[3]), z=parse_nat(parts[2])
                    )
                )
            else:
                raise MalformedTranscript(f"bad step on line {i}")
    except ValueError as exc:
        raise MalformedTranscript(f"bad step line: {exc}") from exc
    return run_from_entries(rhash, help_cfg, target_cfg, steps, entries, g)


class PairStage(NamedTuple):
    index: int
    p: Bits  # end-of-stage snapshots
    q: Bits


def pair_from_snapshots(roster1_hash, roster2_hash, target_config, stages, snapshots, c1, c2) -> PairTranscript:
    """The transcript of full snapshots; each keeps all of the one
    before if it extends it, else none, as the parser reads them."""
    records, p, q = [], b"", b""
    for index, p2, q2 in snapshots:
        p_keep = len(p) if p2.startswith(p) else 0
        q_keep = len(q) if q2.startswith(q) else 0
        records.append(PairRecord(index, p_keep, p2[p_keep:], q_keep, q2[q_keep:]))
        p, q = p2, q2
    return PairTranscript(roster1_hash, roster2_hash, target_config, stages, tuple(records), c1, c2)


def pair_snapshots(t: PairTranscript):
    """The full snapshots of `t`, in line order, each built as it is
    reached."""
    p = q = b""
    for index, p_keep, p_new, q_keep, q_new in t.records:
        p, q = p[:p_keep] + p_new, q[:q_keep] + q_new
        yield PairStage(index, p, q)


class SnapshotPair(NamedTuple):
    """A pair transcript with both full snapshots of every stage."""

    roster1_hash: str
    roster2_hash: str
    target_config: dict
    stages: int
    snapshots: tuple[PairStage, ...]
    c1: tuple[int, ...]
    c2: tuple[int, ...]


def write_pair_transcript(t: PairTranscript | SnapshotPair) -> str:
    lines = [
        f"ROSTER1 {t.roster1_hash}",
        f"ROSTER2 {t.roster2_hash}",
        f"TARGET {canonical_json(t.target_config)}",
        f"STAGES {t.stages}",
    ]
    for s in t.snapshots if isinstance(t, SnapshotPair) else pair_snapshots(t):
        lines.append(f"STAGE {s.index} P {render_bits(s.p)} Q {render_bits(s.q)}")
    lines.append(f"C1 {render_bits(t.c1)}")
    lines.append(f"C2 {render_bits(t.c2)}")
    return "\n".join(lines) + "\n"


def parse_pair_transcript(text: str) -> SnapshotPair:
    lines = split_lines(text)
    if len(lines) < 6:
        raise MalformedTranscript("pair transcript too short")

    def header(idx: int, tag: str) -> str:
        if not lines[idx].startswith(tag + " "):
            raise MalformedTranscript(f"expected {tag} on line {idx + 1}")
        return lines[idx][len(tag) + 1 :]

    try:
        h1, h2 = header(0, "ROSTER1"), header(1, "ROSTER2")
        target = parse_json(header(2, "TARGET"))
        stages = parse_nat(header(3, "STAGES"))
        snaps = []
        for line in lines[4:-2]:
            parts = line.split(" ")
            if len(parts) != 6 or parts[0] != "STAGE" or parts[2] != "P" or parts[4] != "Q":
                raise MalformedTranscript(f"bad stage line: {quoted(line)}")
            snaps.append(PairStage(parse_nat(parts[1]), parse_bits(parts[3]), parse_bits(parts[5])))
        c1 = parse_bits(header(len(lines) - 2, "C1"))
        c2 = parse_bits(header(len(lines) - 1, "C2"))
    except ValueError as exc:
        raise MalformedTranscript(str(exc)) from exc
    return SnapshotPair(h1, h2, target, stages, tuple(snaps), c1, c2)


_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_TEXT_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def render_bits(bits) -> str:
    """Render a 0/1 sequence as a compact string; ``-`` when empty."""
    if not bits:
        return "-"
    return bytes(bits).translate(_BITS_TO_TEXT).decode("ascii")


def parse_bits(text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    if not text or text.strip("01"):
        raise ValueError(f"bad bit string {quoted(text)}")
    return tuple(text.encode("ascii").translate(_TEXT_TO_BITS))


def pair_as_tuples(t: PairTranscript) -> SnapshotPair:
    """`t` with full snapshots, every string a tuple of ints."""
    snaps = tuple(PairStage(s.index, tuple(s.p), tuple(s.q)) for s in pair_snapshots(t))
    return SnapshotPair(
        t.roster1_hash, t.roster2_hash, t.target_config, t.stages, snaps, tuple(t.c1), tuple(t.c2)
    )


def cohen_member(D, p: tuple[int, ...]) -> bool:
    """Whether the tuple p lies in the built-in cohen dense set D."""
    cfg = D.config()
    if cfg["type"] == "min_len":
        return len(p) >= cfg["n"]
    w = parse_bits(cfg["w"])
    if cfg["type"] == "contains":
        n = len(w)
        return any(p[i : i + n] == w for i in range(len(p) - n + 1))
    return len(p) >= len(w) and p[-len(w):] == w


def decode_pair(c1, c2, count: int) -> tuple[int, ...]:
    """Target bits read off c2 at the first `count` 1-positions of c1."""
    ones = [m for m, b in enumerate(c1) if b == 1]
    if len(ones) < count:
        raise ValueError(f"c1 has only {len(ones)} ones, need {count}")
    out = []
    for m in ones[:count]:
        if m >= len(c2):
            raise ValueError(f"position {m} outside c2")
        out.append(c2[m])
    return tuple(out)


def verify_pair(roster1, roster2, x, t: SnapshotPair) -> VerificationReport:
    """Independent checks: headers; snapshot chain; some prefix of each
    stage's snapshot lying in the scheduled dense set; the positional
    ones-are-coded invariant; roster coverage; footer; decoded prefix."""
    checks: list[CheckResult] = []

    def add(check: str, locus: str, ok: bool, detail: str = ""):
        checks.append(CheckResult(check, locus, ok, "" if ok else detail))

    add("header.roster1", "-", t.roster1_hash == roster_hash(roster1),
        "roster1 hash mismatch")
    add("header.roster2", "-", t.roster2_hash == roster_hash(roster2),
        "roster2 hash mismatch")
    add("header.target", "-", canonical_json(t.target_config) == canonical_json(x.config()),
        "target mismatch")
    add("header.stages", "-", t.stages == len(t.snapshots), "stage count mismatch")

    met1 = [False] * len(roster1)
    met2 = [False] * len(roster2)
    prev_p: tuple[int, ...] = ()
    prev_q: tuple[int, ...] = ()
    for s in t.snapshots:
        locus = f"stage {s.index}"
        chain = (
            s.p[: len(prev_p)] == prev_p
            and s.q[: len(prev_q)] == prev_q
            and len(s.p) == len(s.q)
        )
        add("chain", locus, chain, "snapshots not extensions of equal length")
        if roster1:
            D = roster1[s.index % len(roster1)]
            hit = any(
                cohen_member(D, s.p[:n]) for n in range(len(prev_p), len(s.p) + 1)
            )
            add("meet1", locus, hit, "no prefix of this stage lies in the dense set")
            if hit:
                met1[s.index % len(roster1)] = True
        if roster2:
            D = roster2[s.index % len(roster2)]
            hit = any(
                cohen_member(D, s.q[:n]) for n in range(len(prev_q), len(s.q) + 1)
            )
            add("meet2", locus, hit, "no prefix of this stage lies in the dense set")
            if hit:
                met2[s.index % len(roster2)] = True
        prev_p, prev_q = s.p, s.q

    add("footer.c1", "-", t.c1 == prev_p, "C1 differs from the last snapshot")
    add("footer.c2", "-", t.c2 == prev_q, "C2 differs from the last snapshot")
    add("coverage.roster1", "-", all(met1), f"unmet dense sets {[i for i, m in enumerate(met1) if not m]}")
    add("coverage.roster2", "-", all(met2), f"unmet dense sets {[i for i, m in enumerate(met2) if not m]}")

    j = 0
    bad = None
    for m, b in enumerate(t.c1):
        if b == 1:
            if m >= len(t.c2) or t.c2[m] != x.value(j):
                bad = m
                break
            j += 1
    add("ones_coded", "-" if bad is None else f"position {bad}", bad is None,
        "a 1-position of c1 does not carry the next target bit")
    if bad is None:
        decoded = decode_pair(t.c1, t.c2, j)
        add("decode", "-", decoded == x.values(j), "decode_pair disagrees with target")
    return VerificationReport(tuple(checks))


_primes: list[int] = [2, 3, 5, 7, 11, 13]


def _is_prime_trial(candidate: int, known: list[int]) -> bool:
    for p in known:
        if p * p > candidate:
            return True
        if candidate % p == 0:
            return False
    raise AssertionError("prime cache too short for candidate")


def _grow_until(pred) -> None:
    while not pred(_primes):
        candidate = _primes[-1] + 2
        while not _is_prime_trial(candidate, _primes):
            candidate += 2
        _primes.append(candidate)


def nth_prime(n: int) -> int:
    """The n-th prime, 0-indexed: nth_prime(0) = 2."""
    if n < 0:
        raise ValueError("prime index must be a natural")
    _grow_until(lambda ps: len(ps) > n)
    return _primes[n]


def is_prime(z: int) -> bool:
    if z < 2:
        return False
    _grow_until(lambda ps: ps[-1] * ps[-1] >= z)
    for p in _primes:
        if p * p > z:
            return True
        if z % p == 0:
            return z == p
    return True


def prime_index(z: int) -> int:
    """Position of the prime z in the ascending enumeration of primes."""
    if not is_prime(z):
        raise ValueError(f"{z} is not prime")
    _grow_until(lambda ps: ps[-1] >= z)
    return bisect.bisect_left(_primes, z)


def selfcode_digits(A: SelfCode, z: int) -> tuple[int, ...] | None:
    """The decoded digits of z if z is a member of A, else None."""
    try:
        digits = decode_prefix_code(z)
    except MalformedCodeElement:
        return None
    return digits if digits == A.abar.values(len(digits)) else None


def stem_deficits(pattern: StemPattern, s: Node) -> tuple[int, ...]:
    """`pattern.deficits(s)`, with every hit of every threshold counted."""
    length = max(0, pattern.min_len - len(s))
    counted = tuple(
        max(0, need - sum(1 for e in s if e >= k)) for k, need in pattern.hits
    )
    return (length,) + counted


class StemLengthOracle(StemBasedDenseSet):
    """Conditions whose stem has at least n entries."""

    def __init__(self, n: int):
        self.n = n

    def member_witness(self, s: Node) -> HechlerCondition | None:
        return HechlerCondition._trusted(s, (), None) if len(s) >= self.n else None

    def good_successors(self, s: Node):
        return itertools.count(0)

    def node_class(self, s: Node):
        return min(len(s), self.n)

    def member(self, T: HechlerCondition) -> bool:
        return len(T.stem) >= self.n


class StemHitsOracle(StemBasedDenseSet):
    """Conditions whose stem contains an entry >= k."""

    def __init__(self, k: int):
        self.k = k

    def member_witness(self, s: Node) -> HechlerCondition | None:
        return HechlerCondition._trusted(s, (), None) if any(e >= self.k for e in s) else None

    def good_successors(self, s: Node):
        return itertools.count(self.k)

    def node_class(self, s: Node):
        return any(e >= self.k for e in s)

    def member(self, T: HechlerCondition) -> bool:
        return any(e >= self.k for e in T.stem)


def explicit_member(prefix: tuple[int, ...], cycle: tuple[int, ...], z: int) -> bool:
    """Whether the 0/1 pattern `prefix`, then `cycle` repeated, is 1 at z."""
    if z < 0:
        return False
    if z < len(prefix):
        return prefix[z] == 1
    return cycle[(z - len(prefix)) % len(cycle)] == 1


def rank_bounded(
    D: StemBasedDenseSet, t, max_rank: int, width: int
) -> int | None:
    """Least r <= max_rank such that t reaches S in r progress steps,
    with the successor search truncated to the first `width` enumerated
    steps per node; None if no such r.

    For honest enumerations the result is an upper bound on the true
    reachability rank.  Nodes are memoised by `node_class`, the node
    itself unless the dense set collapses more.
    """
    if not isinstance(D, StemBasedDenseSet):
        raise TypeError("rank is defined for stem-based dense sets")
    t = as_node(t)
    memo: dict = {}

    def search(s: Node, cap: int) -> int | None:
        if D.member_witness(s) is not None:
            return 0
        if cap <= 0:
            return None
        k = (D.node_class(s), cap)
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
