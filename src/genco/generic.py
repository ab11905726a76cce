"""Interleaved construction of a coded roster-generic prefix.

The builder alternates two moves starting from the full tree: meet the
next dense set of the (cycled) roster while keeping every new stem entry
outside the help set A, then extend the stem by one member of A whose
label is the next target value.  The union of the stems is the prefix
g; reading g's labels at its A-positions returns exactly the target
prefix.  Every move is logged as a transcript line that carries the full
resulting condition, so a transcript can be re-checked from scratch
without re-running the builder.

A transcript's bytes therefore grow quadratically with the steps, but
a `RunTranscript` holds each line as a `RunRecord`, the delta of its
condition from the line before: how much of the previous stem it keeps,
its new stem entries, and its atoms and floor.  The builder records the
entries each move appends, the writer renders each stem text from the
one before by appending the new entries' text, and the parser reads the
delta its `ConditionCodec` finds, so none of them copies or holds a
whole stem per line.  A stem text that does not extend the previous one
keeps none of it and is parsed in full as if it stood alone.  The
verifier builds each line's condition from its delta when it reaches
it, and so does `RunTranscript.entries`, kept for callers outside the
library.  The parser accepts only the text the writer writes: one
spelling per number, header and condition, so two different texts never
parse to one transcript.  The pair verifier shares the check recorder.
"""

from __future__ import annotations

import functools

from .coding import EventuallyPeriodicSeq, HelpSet, eta
from .conditions import (
    _YES,
    FULL_TREE,
    ConditionCodec,
    FloorRule,
    HechlerCondition,
    _extends_from_stem,
    extends,
    is_prefix,
)
from .densesets import DEFAULT_FUEL, DenseSet, code_step, extend_in_A
from .errors import FuelExhausted, MalformedTranscript
from .frozen import Record
from .serialize import canonical_json, parse_json, parse_nat, parse_seq, render_seq, roster_hash
from .serialize import tagged_line, transcript_lines

MEET = "MEET"
CODE = "CODE"


class TranscriptEntry(Record):
    """One MEET or CODE line with its full condition."""

    kind: str  # MEET or CODE
    index: int  # roster index for MEET, code counter for CODE
    condition: HechlerCondition
    z: int | None = None  # the coded stem entry (CODE only)


class RunRecord(Record):
    """One MEET or CODE line as the delta of its condition from the line
    before: the previous stem cut to `keep` entries, then `new`, with the
    line's own atoms and floor.  A tuple, since a transcript holds one per
    line, and none holds a whole stem."""

    kind: str  # MEET or CODE
    index: int  # roster index for MEET, code counter for CODE
    z: int | None  # the coded stem entry (CODE only)
    keep: int
    new: tuple[int, ...]
    exclusions: tuple
    floor: FloorRule | None


def _conditions(records):
    """The condition of each record, built from the one before; a record
    that changes nothing gives the previous condition object again."""
    T = FULL_TREE
    for r in records:
        stem = T.stem[: r.keep] + r.new
        if stem is not T.stem or r.exclusions is not T.exclusions or r.floor is not T.floor:
            T = HechlerCondition._trusted(stem, r.exclusions, r.floor)
        yield T


class RunTranscript(Record):
    roster_hash: str
    help_config: dict | None
    target_config: dict | None
    steps: int
    records: tuple[RunRecord, ...]
    g_prefix: tuple[int, ...]

    @property
    def entries(self):
        """The full entries, in line order, each condition built as it is
        reached."""
        for r, T in zip(self.records, _conditions(self.records)):
            yield TranscriptEntry(r.kind, r.index, T, r.z)


class CheckResult(Record):
    """One verifier check; a tuple, since a report holds several per
    transcript line.  `detail` says why a failed check failed; it is
    computed only on failure, so a passing check has detail ``""``."""

    check: str
    locus: str
    ok: bool
    detail: str = ""


class VerificationReport(Record):
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            detail = f" {c.detail}" if c.detail else ""
            out.append(f"{status} {c.check} @{c.locus}{detail}")
        out.append("PASS" if self.ok else "FAIL")
        return out


def _check_recorder(checks: list[CheckResult]):
    """`add(check, locus, ok, detail, *args)`, which appends one check to
    `checks`; `detail` is a `str.format` template, filled in with `args`
    only when the check fails.  Both verifiers record every check here.
    Each record is built as a plain tuple of `CheckResult`'s four fields,
    skipping `Record.__new__`."""
    append, make = checks.append, tuple.__new__

    def add(check: str, locus: str, ok: bool, detail: str, *args):
        append(make(CheckResult, (check, locus, True, "") if ok else
                    (check, locus, False, detail.format(*args))))

    return add


def build_coded_generic(
    roster: list[DenseSet],
    A: HelpSet | None,
    x: EventuallyPeriodicSeq | None,
    steps: int,
    fuel: int = DEFAULT_FUEL,
) -> RunTranscript:
    """Alternate roster meets (avoiding A) with coding steps for the
    first `steps` target values; the roster is cycled when shorter than
    the run.  With A = x = None the run only meets the roster: the
    avoidance clause is vacuous and nothing is coded.  Both moves only
    append to the stem, so each record keeps the whole previous stem."""
    if steps < 0:
        raise ValueError("steps must be a natural")
    T = FULL_TREE
    records: list[RunRecord] = []
    # each record a plain tuple of RunRecord's fields, as in _check_recorder
    append, make = records.append, tuple.__new__
    for i in range(steps):
        try:
            if roster:
                n = len(T.stem)
                T = extend_in_A(T, roster[i % len(roster)], A, fuel)
                append(make(RunRecord, (MEET, i % len(roster), None, n, T.stem[n:], T.exclusions, T.floor)))
            if A is not None:
                n = len(T.stem)
                T = code_step(T, A, x.value(i), fuel)
                z = T.stem[-1]
                append(make(RunRecord, (CODE, i, z, n, (z,), T.exclusions, T.floor)))
        except FuelExhausted as exc:
            exc.step = i
            raise
    return RunTranscript(
        roster_hash=roster_hash(roster),
        help_config=A.config() if A is not None else None,
        target_config=x.config() if x is not None else None,
        steps=steps,
        records=tuple(records),
        g_prefix=T.stem,
    )


def transcript_fragments(t: RunTranscript):
    """The v1 text of `t` in order, in fragments: the four header lines,
    then a head, a condition text and a line end per record, then the G
    footer.  Each condition text is rendered from the one before."""
    yield (f"ROSTER {t.roster_hash}\nHELP {canonical_json(t.help_config)}\n"
           f"TARGET {canonical_json(t.target_config)}\nSTEPS {t.steps}\n")
    render = ConditionCodec().render
    for kind, index, z, keep, new, exclusions, floor in t.records:
        yield f"MEET {index} " if kind == MEET else f"CODE {index} {z} "
        yield render(keep, new, exclusions, floor)
        yield "\n"
    yield f"G {render_seq(t.g_prefix)}\n"


def write_transcript(t: RunTranscript) -> str:
    """The v1 text of `t`: four header lines, one MEET or CODE line per
    record, and the G footer."""
    return "".join(transcript_fragments(t))


def parse_transcript(text: str) -> RunTranscript:
    """Inverse of `write_transcript`; raises MalformedTranscript at the
    first line that breaks the format."""
    lines = transcript_lines(text, 5, "transcript too short")
    rhash, help_text, target_text, steps_text = (
        tagged_line(lines[i], i + 1, tag) for i, tag in enumerate(("ROSTER", "HELP", "TARGET", "STEPS")))
    try:
        help_cfg, target_cfg = parse_json(help_text), parse_json(target_text)
        steps = parse_nat(steps_text)
    except ValueError as exc:
        raise MalformedTranscript(f"bad header: {exc}") from exc
    records: list[RunRecord] = []
    append, make = records.append, tuple.__new__
    if not lines[-1].startswith("G "):
        raise MalformedTranscript("missing footer")
    parse = ConditionCodec().parse
    try:
        g = parse_seq(lines[-1][2:])
        for i, line in enumerate(lines[4:-1], start=5):
            # a MEET line has three fields, a CODE line four, none with a space
            parts = line.split(" ", 3)
            if parts[0] == MEET and len(parts) == 3:
                append(make(RunRecord, (MEET, parse_nat(parts[1]), None, *parse(parts[2]))))
            elif parts[0] == CODE and len(parts) == 4 and " " not in parts[3]:
                index, delta, z = parse_nat(parts[1]), parse(parts[3]), parse_nat(parts[2])
                append(make(RunRecord, (CODE, index, z, *delta)))
            else:
                raise MalformedTranscript(f"bad step on line {i}")
    except ValueError as exc:
        raise MalformedTranscript(f"bad step line: {exc}") from exc
    return RunTranscript(rhash, help_cfg, target_cfg, steps, tuple(records), g)


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

    Each line's condition is built from its record when the line is
    reached, and the entries it adds to the previous stem once.  Every
    check goes through `_check_recorder`, so a line costs a few tuples and
    the checks themselves; a passing check has detail ``""``.
    """
    checks: list[CheckResult] = []
    add = _check_recorder(checks)
    expected_hash = roster_hash(roster)
    add("header.roster", "-", t.roster_hash == expected_hash,
        "hash {} != roster {}", t.roster_hash, expected_hash)
    help_cfg = A.config() if A is not None else None
    add("header.help", "-", canonical_json(t.help_config) == canonical_json(help_cfg),
        "transcript help {} != {}", t.help_config, help_cfg)
    target_cfg = x.config() if x is not None else None
    add("header.target", "-", canonical_json(t.target_config) == canonical_json(target_cfg),
        "transcript target {} != {}", t.target_config, target_cfg)

    # structure: per step, an optional MEET (when the roster is nonempty)
    # followed by a CODE when coding is on; a forged step count builds
    # no more of the expected list than there are records
    got = [r[:2] for r in t.records]
    expected: list[tuple[str, int]] = []
    for i in range(min(t.steps, len(got))):
        if roster:
            expected.append((MEET, i % len(roster)))
        if A is not None:
            expected.append((CODE, i))
    per_step = bool(roster) + (A is not None)
    add("structure", "-", got == expected and len(got) == per_step * max(t.steps, 0),
        "entries {}... do not match the declared step count/mode", got[:6])

    if A is not None:
        # one help-set lookup per distinct entry, made where a verifier
        # without these tables would first make it
        member = functools.cache(A.member)
        label = functools.cache(lambda z: eta(A, z, fuel))

    coding = A is not None and x is not None
    prev = FULL_TREE
    code_count = 0
    lines = zip(t.records, _conditions(t.records))
    for pos, ((kind, index, z_rec, keep, new, _, _), T) in enumerate(lines):
        locus = f"entry {pos}"
        pstem = prev.stem
        # the entries this line adds to the previous stem, None when its stem
        # does not extend that one; with them only the rest of the chain is left
        added = new if keep == len(pstem) else T.stem[len(pstem):] if is_prefix(pstem, T.stem) else None
        ans = extends(T, prev) if added is None else _extends_from_stem(T, prev)
        add("chain.extends", locus, ans is _YES, "witness {}", ans.witness)
        if kind == MEET:
            if roster:
                # only True itself passes: a truthy non-bool from a user set fails
                add("meet.member", locus, roster[index % len(roster)].member(T) is True,
                    "condition not a member of dense set {}", index)
            add("meet.avoid", locus, added is not None and (A is None or not any(map(member, added))),
                "new stem entries hit the help set")
        else:
            grew = added is not None and len(added) == 1
            add("code.step", locus, grew and z_rec == added[0],
                "stem did not grow by exactly the recorded value {}", z_rec)
            if coding and grew:
                z, want = added[0], x.value(index)
                add("code.value", locus, member(z) and label(z) == want,
                    "z={} not a member with label {}", z, want)
            code_count += 1
        prev = T

    add("footer.g", "-", t.g_prefix == prev.stem,
        "footer {} != final stem {}", t.g_prefix, prev.stem)
    if coding:
        decoded = tuple(map(label, filter(member, t.g_prefix)))  # coding.decode
        want = x.values(code_count)
        add("decode.prefix", "-", decoded[: len(want)] == want,
            "decoded {} != target {}", decoded[: len(want)], want)
    return VerificationReport(tuple(checks))
