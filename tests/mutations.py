"""Single-field transcript mutations used by the verifier robustness
suites.  Each mutator edits the transcript text coherently at one
logical field and returns the new text; the verifier must flag every
result."""

from __future__ import annotations

from genco import (
    FloorRule,
    HechlerCondition,
    parse_condition,
    parse_transcript,
    render_condition,
    theta,
    theta_fiber,
)
from genco.serialize import parse_seq, render_seq


def _next_same_label_member(A, z: int) -> int:
    idx = A.index_of(z)
    m = theta(idx)
    k = (((idx + 1) >> m) - 1) // 2
    return A.enumerate(theta_fiber(m, k + 1))


def mutate_code_z(text: str, A) -> str:
    """Replace one CODE value with the next member carrying the same
    label (field and condition stem edited together)."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("CODE "):
            _, j, z, cond_text = line.split(" ")
            cond = parse_condition(cond_text)
            z2 = _next_same_label_member(A, int(z))
            cond2 = HechlerCondition(cond.stem[:-1] + (z2,), cond.exclusions, cond.floor)
            lines[i] = f"CODE {j} {z2} {render_condition(cond2)}"
            return "\n".join(lines) + "\n"
    raise AssertionError("no CODE line to mutate")


def mutate_meet_swap(text: str) -> str:
    """Swap the conditions of two MEET entries."""
    lines = text.splitlines()
    meets = [
        (i, line.split(" ", 2))
        for i, line in enumerate(lines)
        if line.startswith("MEET ")
    ]
    for a in range(len(meets)):
        for b in range(a + 1, len(meets)):
            ia, (_, idx_a, cond_a) = meets[a]
            ib, (_, idx_b, cond_b) = meets[b]
            if cond_a != cond_b:
                lines[ia] = f"MEET {idx_a} {cond_b}"
                lines[ib] = f"MEET {idx_b} {cond_a}"
                return "\n".join(lines) + "\n"
    raise AssertionError("no pair of distinct MEET conditions to swap")


def mutate_stale_footer(text: str) -> str:
    lines = text.splitlines()
    assert lines[-1].startswith("G ")
    g = parse_seq(lines[-1][2:])
    g2 = g[:-1] if g else (7,)
    lines[-1] = f"G {render_seq(g2)}"
    return "\n".join(lines) + "\n"


def mutate_meet_stem_in_A(text: str, A) -> str:
    """Overwrite the last stem entry of a stem-growing MEET with a help
    set member."""
    t = parse_transcript(text)
    prev_stem: tuple[int, ...] = ()
    target = None
    for pos, e in enumerate(t.entries):
        if e.kind == "MEET" and len(e.condition.stem) > len(prev_stem):
            target = pos
            break
        prev_stem = e.condition.stem
    assert target is not None, "no stem-growing MEET entry"
    lines = text.splitlines()
    meet_line = 4 + target
    _, idx, cond_text = lines[meet_line].split(" ", 2)
    cond = parse_condition(cond_text)
    bad = A.enumerate(0) if A.enumerate(0) != cond.stem[-1] else A.enumerate(1)
    # atoms keyed under the old stem may not extend the new one; drop them
    cond2 = HechlerCondition(cond.stem[:-1] + (bad,), {}, cond.floor)
    lines[meet_line] = f"MEET {idx} {render_condition(cond2)}"
    return "\n".join(lines) + "\n"


def mutate_roster_hash(text: str) -> str:
    lines = text.splitlines()
    assert lines[0].startswith("ROSTER ")
    digest = lines[0].split(" ")[1]
    flipped = ("1" if digest[0] != "1" else "2") + digest[1:]
    lines[0] = f"ROSTER {flipped}"
    return "\n".join(lines) + "\n"


def mutate_dominate_floor(text: str) -> str:
    """Lower the floor of the first floored MEET condition by one at the
    level just above its stem, written as a table entry."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("MEET "):
            _, idx, cond_text = line.split(" ", 2)
            cond = parse_condition(cond_text)
            f = cond.floor
            if f is None:
                continue
            level = len(cond.stem)
            assert f.value(level) >= 1, "floor already 0 above the stem"
            table = tuple(f.value(n) for n in range(level)) + (f.value(level) - 1,)
            cond2 = HechlerCondition(
                cond.stem, cond.exclusions, FloorRule(table, f.slope, f.intercept)
            )
            lines[i] = f"MEET {idx} {render_condition(cond2)}"
            return "\n".join(lines) + "\n"
    raise AssertionError("no floored MEET condition")


def mutate_target_nulled(text: str) -> str:
    """Write the TARGET header of a coded transcript as null, leaving the
    HELP header and every CODE line as they are."""
    lines = text.splitlines()
    assert lines[2].startswith("TARGET ") and lines[2] != "TARGET null", "no target header"
    lines[2] = "TARGET null"
    return "\n".join(lines) + "\n"


ALL_MUTATIONS = {
    "code_z": mutate_code_z,
    "meet_swap": mutate_meet_swap,
    "stale_footer": mutate_stale_footer,
    "stem_in_A": mutate_meet_stem_in_A,
    "roster_hash": mutate_roster_hash,
    "dominate_floor": mutate_dominate_floor,
    "target_nulled": mutate_target_nulled,
}


def apply_mutation(name: str, text: str, A) -> str:
    fn = ALL_MUTATIONS[name]
    if name in ("code_z", "stem_in_A"):
        return fn(text, A)
    return fn(text)
