"""The benchmark's output checkers accept genco's honest outputs, agree
with genco's help-set arithmetic, and reject hand-corrupted outputs.

    python -m pytest perfbench/test_checkers.py
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checkers  # noqa: E402
from genco import cli, cohenpair, generic  # noqa: E402

CODED = {
    "poset": "hechler",
    "help": {"kind": "evens"},
    "target": {"prefix": [1], "cycle": [0, 2]},
    "dense": [{"type": "stem_hits", "k": 3}, {"type": "dominate", "table": [1], "a": 0, "b": 2}],
    "steps": 3,
}
PAIR = {
    "poset": "cohen",
    "target": {"prefix": [1], "cycle": [0, 0, 1]},
    "dense": [{"type": "ends_with", "w": "10"}],
    "dense2": [{"type": "contains", "w": "111"}],
    "stages": 5,
}
HELP_CONFIGS = (
    {"kind": "evens"},
    {"kind": "primes"},
    {"kind": "selfcode", "abar": {"prefix": [2], "cycle": [0, 3, 1]}},
    {"kind": "explicit", "prefix": [1, 0, 0], "cycle": [0, 1, 1, 0]},
)


def coded_transcript(cfg: dict) -> str:
    run = cli.parse_config(json.dumps(cfg))
    t = generic.build_coded_generic(run.roster(), run.help_set(), run.target(), run.steps)
    return generic.write_transcript(t)


def pair_transcript(cfg: dict) -> str:
    run = cli.parse_config(json.dumps(cfg))
    _, _, t = cohenpair.build_pair(*run.cohen_rosters(), run.target(), run.steps)
    return cohenpair.write_pair_transcript(t)


def set_g_entry(text: str, pos: int, value: int) -> str:
    """Rewrite entry `pos` of g wherever it appears: in every stem that
    reaches it, in the CODE field of the line that added it, and in the
    footer.  Every other property of the transcript is kept."""

    def edit(match):
        entries = match.group(2).split(",") if match.group(2) else []
        if pos < len(entries):
            entries[pos] = str(value)
        return f"{match.group(1)}[{','.join(entries)}]"

    out = []
    for line in text.splitlines():
        line = re.sub(r"(stem=|^G )\[([0-9,]*)\]", edit, line)
        parts = line.split(" ")
        if parts[0] == "CODE" and parts[3].split(";")[0].count(",") == pos:
            parts[2] = str(value)
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def g_of(text: str) -> list[int]:
    return [int(x) for x in text.splitlines()[-1][3:-1].split(",")]


def test_honest_outputs_pass():
    assert checkers.check_coded(CODED, coded_transcript(CODED), checkers.PrimeTable()) == []
    assert checkers.check_pair(PAIR, pair_transcript(PAIR)) == []


def test_help_sets_agree_with_genco():
    from genco import help_set_from_config

    for cfg in HELP_CONFIGS:
        ours, theirs = checkers.HelpSet(cfg, checkers.PrimeTable()), help_set_from_config(cfg)
        members = [theirs.enumerate(n) for n in range(12)]
        assert [ours.index(z) for z in members] == list(range(12)), cfg
        upto = members[-1] if cfg["kind"] != "selfcode" else 200
        assert [z for z in range(upto + 1) if ours.member(z)] == [
            z for z in range(upto + 1) if theirs.member(z)
        ], cfg


def test_label_is_two_adic_valuation():
    assert [checkers.label(i) for i in range(8)] == [0, 1, 0, 2, 0, 1, 0, 3]


def test_changed_label_in_g_is_rejected():
    text = coded_transcript(CODED)
    g = g_of(text)
    # g = [MEET entry, then one coded even number per step]; 10 is even
    # with label theta(5) = 1, while the entry at position 2 carries label 0
    assert checkers.HelpSet(CODED["help"], checkers.PrimeTable()).label(g[2]) == 0
    forged = set_g_entry(text, 2, 10)
    problems = checkers.check_coded(CODED, forged, checkers.PrimeTable())
    assert [p for p in problems if p.startswith("decoded labels")], problems
    assert len(problems) == 1, problems


def test_meet_entry_in_A_is_rejected():
    text = coded_transcript(CODED)
    assert g_of(text)[0] % 2 == 1  # added by the first MEET, outside the evens
    forged = set_g_entry(text, 0, 12)
    problems = checkers.check_coded(CODED, forged, checkers.PrimeTable())
    assert [p for p in problems if "MEET added a member of A" in p], problems


def test_flipped_bit_in_c2_is_rejected():
    text = pair_transcript(PAIR)
    lines = text.splitlines()
    c1 = lines[-2][3:]
    pos = c1.rindex("1")  # the last stage's marker, present only at the end

    def flip(bits: str) -> str:
        if len(bits) <= pos:
            return bits
        return bits[:pos] + ("1" if bits[pos] == "0" else "0") + bits[pos + 1:]

    lines[-1] = "C2 " + flip(lines[-1][3:])
    parts = lines[-3].split(" ")
    parts[5] = flip(parts[5])
    lines[-3] = " ".join(parts)
    problems = checkers.check_pair(PAIR, "\n".join(lines) + "\n")
    assert problems == ["c2 at the 1-positions of c1 is not the target"], problems


def test_floor_domination_is_exact():
    f1 = ((1,), 0, 3)  # 1, 3, 3, 3, ...
    f2 = ((2,), 1, 1)  # 2, 2, 3, 4, ...
    assert not checkers.floor_dominates(f2, f1, 0)
    assert checkers.floor_dominates(f2, f1, 2)
    assert not checkers.floor_dominates(None, f1, 0)
