"""The incremental transcript codec against the full-line oracle.

`tests/oracles.py` holds the codec as it was before lines were rendered
and parsed from the previous line.  Every case here must give the same
text, an equal transcript, or the same exception with the same message,
and a transcript of arbitrary stems the same verifier report.
The pair oracle reads bit strings as tuples, so the library's pair
transcripts are compared through `oracles.pair_as_tuples`.
"""

from __future__ import annotations

import importlib.util
import random

import pytest

from genco import (
    ContainsSet,
    DominateSet,
    EndsWithSet,
    Evens,
    EventuallyPeriodicSeq,
    FloorRule,
    HechlerCondition,
    MalformedTranscript,
    MinLenSet,
    StemLengthSet,
    build_coded_generic,
    build_pair,
    parse_condition,
    parse_pair_transcript,
    parse_transcript,
    verify_pair,
    verify_transcript,
    write_pair_transcript,
    write_transcript,
)
from genco import cohenpair, generic
from genco.generic import CODE, MEET, CheckResult, TranscriptEntry, VerificationReport
import oracles
from conftest import random_bit_seq, random_condition, random_help, random_roster, random_seq
from corpus import GOLDEN_DIR, REPO
from mutations import ALL_MUTATIONS, apply_mutation
from test_cohenpair import random_cohen_roster

GOLDENS = sorted(GOLDEN_DIR.glob("*.transcript"))


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # the oracle's exception type and message are the reference
        return type(exc).__name__, str(exc)


def assert_same_parse(text, pair: bool) -> bool:
    """The library parses `text` as the oracle does; True if both accept it."""
    if pair:
        got = outcome(lambda text: oracles.pair_as_tuples(parse_pair_transcript(text)), text)
        want = outcome(oracles.parse_pair_transcript, text)
    else:
        got, want = outcome(parse_transcript, text), outcome(oracles.parse_transcript, text)
    assert got == want
    return want[0] == "ok"


def honest_runs(seed: int, count: int, steps: int):
    rng = random.Random(seed)
    for _ in range(count):
        roster = random_roster(rng, 4) + [
            DominateSet(FloorRule((), rng.randrange(2), rng.randrange(1, 6)))
        ]
        A = random_help(rng)
        yield A, write_transcript(build_coded_generic(roster, A, random_seq(rng), steps))


def honest_pairs(seed: int, count: int, stages: int):
    rng = random.Random(seed)
    for _ in range(count):
        r1, r2 = random_cohen_roster(rng, 4), random_cohen_roster(rng, 4)
        yield write_pair_transcript(build_pair(r1, r2, random_bit_seq(rng), stages)[2])


def damage(rng: random.Random, text: str, kind: str, pair: bool) -> str:
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    if kind == "flip":
        line = lines[i] or " "
        k = rng.randrange(len(line))
        lines[i] = line[:k] + rng.choice("0123456789,[];:{}()=-ab x²٣") + line[k + 1 :]
    elif kind == "truncate":
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "mid_entry":
        # edit an entry in the middle of a stem or snapshot, so that this
        # line no longer extends the one before and the next line no
        # longer extends this one
        tag = "STAGE " if pair else ("MEET ", "CODE ")
        candidates = [k for k, line in enumerate(lines) if line.startswith(tag)]
        k = rng.choice(candidates)
        if pair:
            parts = lines[k].split(" ")
            field = rng.choice((3, 5))
            bits = parts[field]
            if bits != "-":
                m = len(bits) // 2
                parts[field] = bits[:m] + ("1" if bits[m] == "0" else "0") + bits[m + 1 :]
            lines[k] = " ".join(parts)
        else:
            start = lines[k].index("stem=[") + len("stem=[")
            end = lines[k].index("]", start)
            entries = lines[k][start:end].split(",")
            if entries != [""]:
                m = len(entries) // 2
                entries[m] = str(int(entries[m]) + 1 + rng.randrange(3))
            lines[k] = lines[k][:start] + ",".join(entries) + lines[k][end:]
    elif kind == "repeat":
        # give a line the condition, or one or both snapshots, of the line
        # before it, so that the line repeats text the codec just parsed
        tag = "STAGE " if pair else ("MEET ", "CODE ")
        candidates = [
            k for k in range(1, len(lines)) if lines[k].startswith(tag) and lines[k - 1].startswith(tag)
        ]
        k = rng.choice(candidates)
        parts, before = lines[k].split(" "), lines[k - 1].split(" ")
        for field in rng.choice(((3,), (5,), (3, 5))) if pair else (-1,):
            parts[field] = before[field]
        lines[k] = " ".join(parts)
    else:
        raise AssertionError(kind)
    return "\n".join(lines) + "\n"


DAMAGE = ("flip", "truncate", "drop", "duplicate", "swap", "mid_entry", "repeat")


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_goldens_round_trip_like_oracle(path):
    text = path.read_text()
    pair = path.stem.startswith("cohen")
    assert assert_same_parse(text, pair)
    if pair:
        assert write_pair_transcript(parse_pair_transcript(text)) == text
    else:
        assert write_transcript(parse_transcript(text)) == text


@pytest.mark.parametrize("name", sorted(ALL_MUTATIONS))
def test_mutations_parse_like_oracle(name):
    for A, text in honest_runs(31, 6, 6):
        mutated = apply_mutation(name, text, A)
        assert mutated != text
        assert_same_parse(mutated, pair=False)


@pytest.mark.parametrize("pair", [False, True], ids=["coded", "pair"])
@pytest.mark.parametrize("kind", DAMAGE)
def test_line_damage_parses_like_oracle(kind, pair):
    rng = random.Random(f"damage-{kind}-{pair}")
    texts = [p.read_text() for p in GOLDENS if p.stem.startswith("cohen") == pair]
    texts += list(honest_pairs(53, 6, 8)) if pair else [text for _, text in honest_runs(47, 6, 8)]
    accepted = rejected = 0
    for text in texts:
        for _ in range(25):
            if assert_same_parse(damage(rng, text, kind, pair), pair):
                accepted += 1
            else:
                rejected += 1
    # both outcomes occur, except that an edited entry or a repeated
    # condition is still well formed
    assert accepted > 0 if kind in ("mid_entry", "repeat") else rejected > 0
    if kind in ("duplicate", "swap"):
        assert accepted > 0


def _stage_damages(prev: str, cur: str):
    """Each (previous, current) snapshot text pair that a STAGE damage
    makes of two consecutive snapshot texts."""
    for tail in ("-", "2", "\u0663"):
        yield prev, prev + tail  # an extension by a tail parse_bits rejects
    yield "-", cur  # a nonempty snapshot after an empty one
    yield prev, prev  # a snapshot equal to the one before


@pytest.mark.parametrize("field", [3, 5], ids=["P", "Q"])
def test_stage_deltas_parse_exactly_like_oracle(field):
    # the codec reads only the tail of a snapshot that starts with the one
    # before; each of these gives the oracle's value or its error message
    accepted = rejected = 0
    for text in [p.read_text() for p in GOLDENS if p.stem.startswith("cohen")] + list(honest_pairs(73, 3, 6)):
        lines = text.splitlines()
        for k in range(5, len(lines) - 2):
            before, parts = lines[k - 1].split(" "), lines[k].split(" ")
            for prev, cur in _stage_damages(before[field], parts[field]):
                before[field], parts[field] = prev, cur
                damaged = lines[: k - 1] + [" ".join(before), " ".join(parts)] + lines[k + 1 :]
                if assert_same_parse("\n".join(damaged) + "\n", pair=True):
                    accepted += 1
                else:
                    rejected += 1
    assert accepted > 0 and rejected > 0


@pytest.mark.parametrize("name, edits, message", [
    ("build_evens_roster4", (("STEPS 8\nMEET 0 ", "STEPS 8\nMEET 0_0 "), ("\nG ", "\nH ")), "missing footer"),
    ("build_evens_roster4", (('HELP {"kind":"evens"}', 'HELP {"kind": "evens"}'), ("\nSTEPS ", "\nSTEPZ ")),
     "expected STEPS on line 4"),
    ("cohen_two_one", (('TARGET {"cycle":[1,1,0],', 'TARGET {"cycle": [1,1,0],'), ("\nSTAGES ", "\nSTAGEZ ")),
     """not canonical JSON: '{"cycle": [1,1,0],"prefix":[]}'"""),
    ("cohen_two_one", (("\nSTAGE 1 P ", "\nSTAGE 1 X "), ("\nC1 ", "\nC0 ")),
     "bad stage line: 'STAGE 1 X 00000000000011 Q 00000000000011'"),
], ids=["footer-before-steps", "header-tags-before-values", "pair-value-after-its-tag", "pair-stages-before-footers"])
def test_two_damages_report_the_first_in_the_parse_order(name, edits, message):
    # hechler checks its four tags, then the header values, then the G
    # footer, then the step lines; pair checks each header value after
    # its tag, then the stage lines, then C1 and C2
    text = (GOLDEN_DIR / f"{name}.transcript").read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    pair = name.startswith("cohen")
    assert not assert_same_parse(text, pair)
    assert outcome(parse_pair_transcript if pair else parse_transcript, text) == ("MalformedTranscript", message)


@pytest.mark.parametrize("kind", DAMAGE)
def test_damaged_goldens_that_parse_write_back_unchanged(kind):
    # one spelling per field: every text the parser accepts is the text
    # the writer writes for the value it parses to
    parsed, differ = 0, []
    for path in GOLDENS:
        pair = path.stem.startswith("cohen")
        parse, write = (parse_pair_transcript, write_pair_transcript) if pair else (parse_transcript, write_transcript)
        golden = path.read_text()
        for seed in range(300):
            text = damage(random.Random(seed), golden, kind, pair)
            try:
                t = parse(text)
            except MalformedTranscript:
                continue
            parsed += 1
            if write(t) != text:
                differ.append((path.stem, seed))
    assert parsed > 0
    assert differ == []


def test_atom_line_between_plain_lines_parses_line_for_line():
    # the line with atoms reads its stem through the codec's SeqCodec, and
    # the plain line after it extends that stem
    floor = FloorRule((4,), 1, 2)
    conds = (
        HechlerCondition((3, 5), (), floor),
        HechlerCondition((3, 5, 8), {(3, 5, 8, 9): (1, 4), (3, 5, 8, 10): (0,)}, floor),
        HechlerCondition((3, 5, 8, 11), (), floor),
    )
    entries = tuple(TranscriptEntry(MEET, i, T) for i, T in enumerate(conds))
    text = write_transcript(oracles.run_from_entries("ab", None, None, 3, entries, conds[-1].stem))
    lines = text.splitlines()[4:-1]
    assert "excl{[3,5,8,9]:{1,4};[3,5,8,10]:{0}}" in lines[1]
    got = [e.condition for e in parse_transcript(text).entries]
    assert got == [parse_condition(line.split(" ")[2]) for line in lines] == list(conds)


def test_writer_matches_oracle_on_random_rosters():
    rng = random.Random(59)
    for _ in range(40):
        roster = random_roster(rng, 6)
        A = random_help(rng) if rng.random() < 0.8 else None
        x = random_seq(rng) if A is not None else None
        t = build_coded_generic(roster, A, x, rng.randrange(12))
        text = write_transcript(t)
        assert text == oracles.write_transcript(t)
        assert parse_transcript(text) == t
    for _ in range(40):
        r1, r2 = random_cohen_roster(rng, 6), random_cohen_roster(rng, 6)
        _, _, t = build_pair(r1, r2, random_bit_seq(rng), rng.randrange(12))
        text = write_pair_transcript(t)
        assert text == oracles.write_pair_transcript(t)
        assert parse_pair_transcript(text) == t


def _next_condition(rng: random.Random, prev: HechlerCondition) -> HechlerCondition:
    """A condition whose stem jumps, repeats, grows or shrinks from `prev`'s."""
    move = rng.choice(("jump", "repeat", "grow", "shrink"))
    if move == "jump":
        return random_condition(rng)
    stem = prev.stem
    if move == "grow":
        stem += tuple(rng.randrange(20) for _ in range(rng.randrange(1, 3)))
    elif move == "shrink":
        stem = stem[: rng.randrange(len(stem) + 1)]
    atoms = {stem + (rng.randrange(9),): (rng.randrange(9),)} if rng.random() < 0.2 else {}
    return HechlerCondition(stem, atoms, rng.choice([None, prev.floor, FloorRule((1,), 0, 3)]))


def _next_bits(rng: random.Random, prev: bytes) -> bytes:
    if rng.random() < 0.3:
        return bytes(rng.randrange(2) for _ in range(rng.randrange(4)))
    if rng.random() < 0.3:
        return prev[: rng.randrange(len(prev) + 1)]
    return prev + bytes(rng.randrange(2) for _ in range(rng.randrange(3)))


def test_codec_matches_oracle_on_arbitrary_sequences():
    # stems and bit strings that do not only extend, with atoms and floors;
    # a stem that does not extend the one before keeps none of it, so the
    # verifier takes its full chain check there
    rng = random.Random(61)
    target = {"prefix": [], "cycle": [1]}
    roster = [StemLengthSet(2), DominateSet(FloorRule((), 0, 3))]
    A, x = Evens(), EventuallyPeriodicSeq((), (1,))
    r1, r2 = [ContainsSet("1"), EndsWithSet("0")], [MinLenSet(2)]
    for _ in range(60):
        entries, cond = [], HechlerCondition()
        for i in range(rng.randrange(1, 10)):
            cond = _next_condition(rng, cond)
            if rng.random() < 0.5:
                entries.append(TranscriptEntry(MEET, i, cond))
            else:
                entries.append(TranscriptEntry(CODE, i, cond, z=rng.randrange(9)))
        t = oracles.run_from_entries("ab", None, target, len(entries), entries, cond.stem)
        text = write_transcript(t)
        assert text == oracles.write_transcript(t)
        assert parse_transcript(text) == oracles.parse_transcript(text) == t
        want = oracles.verify_transcript(roster, A, x, t)
        got = verify_transcript(roster, A, x, t)
        assert got.checks == want.checks and got.lines() == want.lines()

        snaps, p, q = [], b"", b""
        for i in range(rng.randrange(1, 10)):
            p, q = _next_bits(rng, p), _next_bits(rng, q)
            snaps.append(oracles.PairStage(i, p, q))
        pt = oracles.pair_from_snapshots("a", "b", target, len(snaps), snaps, p, q)
        text = write_pair_transcript(pt)
        assert text == oracles.write_pair_transcript(pt)
        assert parse_pair_transcript(text) == pt
        assert oracles.parse_pair_transcript(text) == oracles.pair_as_tuples(pt)
        want = oracles.verify_pair(r1, r2, x, oracles.pair_as_tuples(pt))
        got = verify_pair(r1, r2, x, pt)
        assert got.checks == want.checks and got.lines() == want.lines()


def test_short_runs_parse_like_oracle():
    # every prefix of the lines, so each header and footer check fires
    _, text = next(honest_runs(67, 1, 3))
    lines = text.splitlines()
    for n in range(len(lines) + 1):
        assert_same_parse("\n".join(lines[:n]), pair=False)
    lines = next(honest_pairs(71, 1, 3)).splitlines()
    for n in range(len(lines) + 1):
        assert_same_parse("\n".join(lines[:n]), pair=True)


def load_make_goldens():
    spec = importlib.util.spec_from_file_location("make_goldens", REPO / "tools" / "make_goldens.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_make_goldens_check_names_each_difference(tmp_path, monkeypatch, capsys):
    tool = load_make_goldens()
    assert tool.main(["--check"]) == 0
    for path in GOLDENS:
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / GOLDENS[0].name).write_bytes(GOLDENS[0].read_bytes() + b"\n")
    (tmp_path / GOLDENS[-1].name).unlink()
    monkeypatch.setattr(tool, "GOLDEN_DIR", tmp_path)
    capsys.readouterr()
    assert tool.main(["--check"]) == 1
    assert capsys.readouterr().out.split("\n") == [
        f"differs: {GOLDENS[0].name}", f"differs: {GOLDENS[-1].name}", ""
    ]
    assert not (tmp_path / GOLDENS[-1].name).exists()


def test_make_goldens_check_names_each_golden_that_does_not_round_trip(monkeypatch, capsys):
    # a coded parser that loses the step count and a pair parser that
    # rejects everything: every golden is named, and nothing raises
    def reject(text):
        raise MalformedTranscript("rejected")

    tool = load_make_goldens()
    monkeypatch.setattr(tool, "parse_transcript", lambda text: parse_transcript(text)._replace(steps=0))
    monkeypatch.setattr(tool, "parse_pair_transcript", reject)
    capsys.readouterr()
    assert tool.main(["--check"]) == 1
    assert capsys.readouterr().out.split("\n") == [f"does not round-trip: {p.name}" for p in GOLDENS] + [""]


def test_make_goldens_check_names_each_golden_that_does_not_verify(monkeypatch, capsys):
    # verifiers that fail every transcript: every golden is named
    failed = VerificationReport((CheckResult("header.roster", "-", False, "forced"),))
    monkeypatch.setattr(generic, "verify_transcript", lambda *args: failed)
    monkeypatch.setattr(cohenpair, "verify_pair", lambda *args: failed)
    tool = load_make_goldens()
    capsys.readouterr()
    assert tool.main(["--check"]) == 1
    assert capsys.readouterr().out.split("\n") == [f"does not verify: {p.name}" for p in GOLDENS] + [""]
