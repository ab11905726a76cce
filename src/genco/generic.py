"""Interleaved construction of a coded roster-generic prefix.

The builder alternates two moves starting from the full tree: meet the
next dense set of the (cycled) roster while keeping every new stem entry
outside the help set A, then extend the stem by one member of A whose
label is the next target value.  The union of the stems is the prefix
g; reading g's labels at its A-positions returns exactly the target
prefix.  Every move is logged with the full resulting condition, so a
transcript can be re-checked from scratch without re-running the
builder.

A transcript's bytes therefore grow quadratically with the steps.  Each
condition is rendered and parsed from the one on the line before
through a `ConditionCodec`, so only new stem entries are converted; the
repeated part of a line is only compared and copied, and a repeated
condition is the previous one again.  A stem that does not extend the
previous one is parsed in full as if it stood alone.  The parser accepts
only the text the writer writes: one spelling per number, header and
condition, so two different texts never parse to one transcript.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .coding import EventuallyPeriodicSeq, HelpSet, eta
from .conditions import (
    _YES,
    FULL_TREE,
    ConditionCodec,
    HechlerCondition,
    extends,
    is_prefix,
)
from .densesets import DEFAULT_FUEL, DenseSet, code_step, extend_in_A
from .errors import FuelExhausted, MalformedTranscript
from .serialize import canonical_json, parse_json, parse_nat, parse_seq, render_seq, roster_hash
from .serialize import tagged_line, transcript_lines

MEET = "MEET"
CODE = "CODE"


class TranscriptEntry(NamedTuple):
    """One MEET or CODE line; a tuple, since a transcript holds one per line."""

    kind: str  # MEET or CODE
    index: int  # roster index for MEET, code counter for CODE
    condition: HechlerCondition
    z: int | None = None  # the coded stem entry (CODE only)


class RunTranscript(NamedTuple):
    roster_hash: str
    help_config: dict | None
    target_config: dict | None
    steps: int
    entries: tuple[TranscriptEntry, ...]
    g_prefix: tuple[int, ...]


class CheckResult(NamedTuple):
    """One verifier check; a tuple, since a report holds several per
    transcript line.  `detail` says why a failed check failed; it is
    computed only on failure, so a passing check has detail ``""``."""

    check: str
    locus: str
    ok: bool
    detail: str = ""


class VerificationReport(NamedTuple):
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


def _roster_configs(roster) -> list[dict]:
    return [D.config() for D in roster]


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
    avoidance clause is vacuous and nothing is coded."""
    if steps < 0:
        raise ValueError("steps must be a natural")
    T = FULL_TREE
    entries: list[TranscriptEntry] = []
    for i in range(steps):
        try:
            if roster:
                T = extend_in_A(T, roster[i % len(roster)], A, fuel)
                entries.append(TranscriptEntry(MEET, i % len(roster), T))
            if A is not None:
                T = code_step(T, A, x.value(i), fuel)
                entries.append(TranscriptEntry(CODE, i, T, z=T.stem[-1]))
        except FuelExhausted as exc:
            exc.step = i
            raise
    return RunTranscript(
        roster_hash=roster_hash(_roster_configs(roster)),
        help_config=A.config() if A is not None else None,
        target_config=x.config() if x is not None else None,
        steps=steps,
        entries=tuple(entries),
        g_prefix=T.stem,
    )


def write_transcript(t: RunTranscript) -> str:
    """The v1 text of `t`: four header lines, one MEET or CODE line per
    entry, and the G footer."""
    conds = ConditionCodec()
    out = [
        f"ROSTER {t.roster_hash}\n",
        f"HELP {canonical_json(t.help_config)}\n",
        f"TARGET {canonical_json(t.target_config)}\n",
        f"STEPS {t.steps}\n",
    ]
    for e in t.entries:
        # fragments are joined once, so each condition text is copied once
        head = f"MEET {e.index} " if e.kind == MEET else f"CODE {e.index} {e.z} "
        out += (head, conds.render(e.condition), "\n")
    out.append(f"G {render_seq(t.g_prefix)}\n")
    return "".join(out)


def parse_transcript(text: str) -> RunTranscript:
    """Inverse of `write_transcript`; raises MalformedTranscript at the
    first line that breaks the format."""
    lines = transcript_lines(text)
    if len(lines) < 5:
        raise MalformedTranscript("transcript too short")
    rhash = tagged_line(lines, 0, "ROSTER")
    help_text = tagged_line(lines, 1, "HELP")
    target_text = tagged_line(lines, 2, "TARGET")
    steps_text = tagged_line(lines, 3, "STEPS")
    try:
        help_cfg, target_cfg = parse_json(help_text), parse_json(target_text)
        steps = parse_nat(steps_text)
    except ValueError as exc:
        raise MalformedTranscript(f"bad header: {exc}") from exc
    entries: list[TranscriptEntry] = []
    if not lines[-1].startswith("G "):
        raise MalformedTranscript("missing footer")
    conds = ConditionCodec()
    try:
        g = parse_seq(lines[-1][2:])
        for i, line in enumerate(lines[4:-1], start=5):
            parts = line.split(" ")
            if parts[0] == MEET and len(parts) == 3:
                entries.append(TranscriptEntry(MEET, parse_nat(parts[1]), conds.parse(parts[2])))
            elif parts[0] == CODE and len(parts) == 4:
                index, cond, z = parse_nat(parts[1]), conds.parse(parts[3]), parse_nat(parts[2])
                entries.append(TranscriptEntry(CODE, index, cond, z))
            else:
                raise MalformedTranscript(f"bad step on line {i}")
    except ValueError as exc:
        raise MalformedTranscript(f"bad step line: {exc}") from exc
    return RunTranscript(rhash, help_cfg, target_cfg, steps, tuple(entries), g)


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

    Each line costs a few `CheckResult` tuples and the checks themselves:
    a failure's detail is formatted only when the check fails, and every
    passing check has detail ``""``.
    """
    checks: list[CheckResult] = []
    append = checks.append

    def add(check: str, locus: str, ok: bool, detail: str, *args):
        # `detail` is a str.format template, filled in only on failure
        append(CheckResult(check, locus, True) if ok else CheckResult(check, locus, False, detail.format(*args)))

    expected_hash = roster_hash(_roster_configs(roster))
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
    # no more of the expected list than there are entries
    got = [(e.kind, e.index) for e in t.entries]
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

    # the per-line checks append their records inline: a passing check
    # costs one tuple and no call
    coding = A is not None and x is not None
    prev = FULL_TREE
    code_count = 0
    for pos, (kind, index, T, z_rec) in enumerate(t.entries):
        locus = f"entry {pos}"
        ans = extends(T, prev)
        # every YES is the one shared answer, and shows that the previous
        # stem is a prefix of this one
        chained = ans is _YES
        if chained:
            append(CheckResult("chain.extends", locus, True))
        else:
            append(CheckResult("chain.extends", locus, False, f"witness {ans.witness}"))
        stem, pstem = T.stem, prev.stem
        if kind == MEET:
            if roster:
                # only True itself passes: a truthy non-bool from a user set fails
                if roster[index % len(roster)].member(T) is True:
                    append(CheckResult("meet.member", locus, True))
                else:
                    append(CheckResult("meet.member", locus, False,
                                       f"condition not a member of dense set {index}"))
            if (chained or is_prefix(pstem, stem)) and (
                A is None or not any(map(member, stem[len(pstem):]))
            ):
                append(CheckResult("meet.avoid", locus, True))
            else:
                append(CheckResult("meet.avoid", locus, False, "new stem entries hit the help set"))
        else:
            grew = len(stem) == len(pstem) + 1 and (chained or stem[:-1] == pstem)
            if grew and z_rec == stem[-1]:
                append(CheckResult("code.step", locus, True))
            else:
                append(CheckResult("code.step", locus, False,
                                   f"stem did not grow by exactly the recorded value {z_rec}"))
            if coding and grew:
                z, want = stem[-1], x.value(index)
                if member(z) and label(z) == want:
                    append(CheckResult("code.value", locus, True))
                else:
                    append(CheckResult("code.value", locus, False,
                                       f"z={z} not a member with label {want}"))
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
