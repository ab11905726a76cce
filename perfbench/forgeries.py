"""Forged copies of honest transcripts, for the verify_forged workload.

The five single-field mutation classes are copied from the test suite's
mutation module, so that a later change to the tests does not change the
workload.  The floor forgery is the repro of a verifier fault: it
replaces one floor rule by another that starts higher but has a steeper
tail, and the verifier accepts it.  Runs in the worker, untimed, after
the build phase.
"""

from __future__ import annotations

from genco import (
    HechlerCondition,
    parse_condition,
    parse_transcript,
    render_condition,
    theta,
    theta_fiber,
)
from genco.serialize import parse_seq, render_seq

from inputs import FLOOR_FORGERY_FROM, FLOOR_FORGERY_TO


class NotApplicable(Exception):
    """The transcript has no field this mutation class edits."""


def _join(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _next_same_label_member(A, z: int) -> int:
    idx = A.index_of(z)
    m = theta(idx)
    k = (((idx + 1) >> m) - 1) // 2
    return A.enumerate(theta_fiber(m, k + 1))


def code_z(text: str, A) -> str:
    """Replace the first CODE value with the next member carrying the
    same label (field and condition stem edited together)."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("CODE "):
            _, j, z, cond_text = line.split(" ")
            cond = parse_condition(cond_text)
            z2 = _next_same_label_member(A, int(z))
            cond2 = HechlerCondition(cond.stem[:-1] + (z2,), cond.exclusions, cond.floor)
            lines[i] = f"CODE {j} {z2} {render_condition(cond2)}"
            return _join(lines)
    raise NotApplicable("no CODE line")


def meet_swap(text: str, A) -> str:
    """Swap the conditions of the first two distinct MEET entries."""
    lines = text.splitlines()
    meets = [(i, line.split(" ", 2)) for i, line in enumerate(lines) if line.startswith("MEET ")]
    for a in range(len(meets)):
        for b in range(a + 1, len(meets)):
            ia, (_, idx_a, cond_a) = meets[a]
            ib, (_, idx_b, cond_b) = meets[b]
            if cond_a != cond_b:
                lines[ia] = f"MEET {idx_a} {cond_b}"
                lines[ib] = f"MEET {idx_b} {cond_a}"
                return _join(lines)
    raise NotApplicable("no pair of distinct MEET conditions")


def stale_footer(text: str, A) -> str:
    lines = text.splitlines()
    if not lines[-1].startswith("G "):
        raise NotApplicable("no footer")
    g = parse_seq(lines[-1][2:])
    lines[-1] = f"G {render_seq(g[:-1] if g else (7,))}"
    return _join(lines)


def stem_in_A(text: str, A) -> str:
    """Overwrite the last stem entry of the first stem-growing MEET with
    a help-set member."""
    t = parse_transcript(text)
    prev_stem: tuple[int, ...] = ()
    target = None
    for pos, e in enumerate(t.entries):
        if e.kind == "MEET" and len(e.condition.stem) > len(prev_stem):
            target = pos
            break
        prev_stem = e.condition.stem
    if target is None:
        raise NotApplicable("no stem-growing MEET entry")
    lines = text.splitlines()
    meet_line = 4 + target
    _, idx, cond_text = lines[meet_line].split(" ", 2)
    cond = parse_condition(cond_text)
    bad = A.enumerate(0) if A.enumerate(0) != cond.stem[-1] else A.enumerate(1)
    # atoms keyed under the old stem may not extend the new one; drop them
    cond2 = HechlerCondition(cond.stem[:-1] + (bad,), {}, cond.floor)
    lines[meet_line] = f"MEET {idx} {render_condition(cond2)}"
    return _join(lines)


def roster_hash(text: str, A) -> str:
    lines = text.splitlines()
    if not lines[0].startswith("ROSTER "):
        raise NotApplicable("no ROSTER header")
    digest = lines[0].split(" ")[1]
    lines[0] = "ROSTER " + ("1" if digest[0] != "1" else "2") + digest[1:]
    return _join(lines)


MUTATIONS = {
    "code_z": code_z,
    "meet_swap": meet_swap,
    "stale_footer": stale_footer,
    "stem_in_A": stem_in_A,
    "roster_hash": roster_hash,
}


def floor_forgery(text: str) -> str:
    if FLOOR_FORGERY_FROM not in text:
        raise NotApplicable("the base transcript has no floor to replace")
    return text.replace(FLOOR_FORGERY_FROM, FLOOR_FORGERY_TO)


def forge(texts: list[str], help_sets: list) -> list[dict]:
    """Every mutation class on every honest transcript but the last, and
    the floor forgery on the last.  A class that does not apply raises:
    the inputs are built so that all apply, which keeps the number of
    operations per round fixed."""
    forged = []
    for i, (text, A) in enumerate(zip(texts[:-1], help_sets)):
        for name, mutate in MUTATIONS.items():
            forged.append({"run": i, "name": name, "text": mutate(text, A)})
    forged.append({"run": len(texts) - 1, "name": "floor", "text": floor_forgery(texts[-1])})
    return forged
