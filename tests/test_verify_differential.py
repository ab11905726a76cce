"""The verifier and `extends` against the copies in `tests/oracles.py`.

The oracles are the verifier and the order check from before their
per-line costs were cut.  Every case here must give the same check list
and report lines (or the same exception with the same message), and
`extends` the same verdict, witness and reason.
"""

from __future__ import annotations

import random

import pytest

from genco import (
    DominateSet,
    EventuallyPeriodicSeq,
    Evens,
    FloorRule,
    HechlerCondition,
    StemLengthSet,
    build_coded_generic,
    extends,
    parse_transcript,
    restrict,
    verify_transcript,
    write_transcript,
)
from genco.cli import parse_config
from genco.conditions import floor_gap_witness
from genco.errors import MalformedTranscript
import oracles
from conftest import node_in, random_condition, random_help, random_roster, random_seq
from corpus import CONFIG_DIR, GOLDEN_DIR
from mutations import ALL_MUTATIONS, apply_mutation
from test_codec import DAMAGE, damage
from test_conditions import _masked_pair, _sibling_condition

CODED_GOLDENS = sorted(p for p in GOLDEN_DIR.glob("*.transcript") if not p.stem.startswith("cohen"))


def outcome(verify, *args):
    try:
        report = verify(*args)
    except Exception as exc:  # the oracle's exception type and message are the reference
        return type(exc).__name__, str(exc)
    return "ok", list(report.checks), report.lines()


def assert_same_verify(roster, A, x, t) -> bool:
    """The library verifies `t` as the oracle does; True if both pass it."""
    want = outcome(oracles.verify_transcript, roster, A, x, t)
    assert outcome(verify_transcript, roster, A, x, t) == want
    return want[0] == "ok" and want[2][-1] == "PASS"


def golden_inputs(path):
    """Roster, help set and target of a coded golden, chosen as `genco
    verify` chooses them, and the text."""
    cfg = parse_config((CONFIG_DIR / f"{path.stem}.json").read_text())
    text = path.read_text()
    t = parse_transcript(text)
    A = cfg.help_set() if t.help_config is not None else None
    x = cfg.target() if t.target_config is not None else None
    return cfg.roster(), A, x, text


def random_runs(seed: int, count: int, steps: int):
    rng = random.Random(seed)
    for _ in range(count):
        roster = random_roster(rng, 4) + [
            DominateSet(FloorRule((), rng.randrange(2), rng.randrange(1, 6)))
        ]
        A, x = random_help(rng), random_seq(rng)
        yield roster, A, x, write_transcript(build_coded_generic(roster, A, x, steps))


def parsed(text):
    try:
        return parse_transcript(text)
    except MalformedTranscript:
        return None


@pytest.mark.parametrize("path", CODED_GOLDENS, ids=lambda p: p.stem)
def test_goldens_verify_like_oracle(path):
    roster, A, x, text = golden_inputs(path)
    assert assert_same_verify(roster, A, x, parse_transcript(text))


@pytest.mark.parametrize("name", sorted(ALL_MUTATIONS))
def test_mutations_verify_like_oracle(name):
    applied = 0
    for roster, A, x, text in random_runs(61, 10, 6):
        assert assert_same_verify(roster, A, x, parse_transcript(text))
        try:
            mutated = apply_mutation(name, text, A)
        except AssertionError:  # the run has no field this class edits
            continue
        assert not assert_same_verify(roster, A, x, parse_transcript(mutated))
        applied += 1
    assert applied >= 5


@pytest.mark.parametrize("kind", DAMAGE)
def test_line_damage_verifies_like_oracle(kind):
    rng = random.Random(f"verify-damage-{kind}")
    cases = [golden_inputs(p) for p in CODED_GOLDENS] + list(random_runs(67, 6, 8))
    verified = 0
    for roster, A, x, text in cases:
        for _ in range(10):
            t = parsed(damage(rng, text, kind, pair=False))
            if t is not None:
                assert_same_verify(roster, A, x, t)
                verified += 1
    assert verified > 0


def _floor_forgery(b: int):
    """The honest one-step evens run of the roster [dominate a=1 b=0]
    with every floor replaced by the constant b."""
    roster = [DominateSet(FloorRule((), 1, 0))]
    x = EventuallyPeriodicSeq((), (0,))
    text = write_transcript(build_coded_generic(roster, Evens(), x, 1))
    forged = text.replace("floor(table=[],a=1,b=0)", f"floor(table=[],a=0,b={b})")
    assert forged != text
    return roster, Evens(), x, forged


def _forged_floors():
    yield _floor_forgery(40)
    yield _floor_forgery(2000)
    # floors 1, 3, 3, ... swapped for 2, 2, 3, 4, ...
    roster = [DominateSet(FloorRule((1,), 0, 3))]
    x = EventuallyPeriodicSeq((0, 0, 0), (0,))
    text = write_transcript(build_coded_generic(roster, Evens(), x, 3))
    yield roster, Evens(), x, text.replace("floor(table=[1],a=0,b=3)", "floor(table=[2],a=1,b=1)")
    # the stem-level floor deficit masked by atoms, a deep one not
    roster = [DominateSet(FloorRule((5, 5) + (0,) * 10 + (9,), 0, 0)), StemLengthSet(1)]
    lines = write_transcript(build_coded_generic(roster, None, None, 2)).splitlines()
    lines[-2] = "MEET 1 stem=[6];excl{[6]:{1,2,3,4,5}};floor(table=[],a=0,b=0)"
    yield roster, None, None, "\n".join(lines) + "\n"


def test_forged_floors_verify_like_oracle():
    for roster, A, x, text in _forged_floors():
        assert not assert_same_verify(roster, A, x, parse_transcript(text))


def same_extends(T2, T1) -> bool:
    got, want = extends(T2, T1), oracles.extends(T2, T1)
    assert (bool(got), got.witness, got.reason) == (bool(want), want.witness, want.reason), (T2, T1)
    return bool(want)


def test_extends_like_oracle_on_random_pairs():
    rng = random.Random(71)
    yes = 0
    for _ in range(1500):
        T1 = random_condition(rng, max_entry=6)
        shape = rng.randrange(4)
        if shape == 0:
            T2 = random_condition(rng, max_entry=6)
        elif shape == 1:
            T2 = _sibling_condition(rng, T1.stem)
        elif shape == 2:
            T2 = restrict(T1, node_in(rng, T1, rng.randrange(3)))
        else:
            T2 = HechlerCondition(node_in(rng, T1, rng.randrange(3)), {}, T1.floor)
        yes += same_extends(T2, T1)
        same_extends(T1, T2)
    assert yes > 200


def test_extends_like_oracle_on_masked_pairs():
    rng = random.Random(73)
    yes = 0
    for _ in range(400):
        T1, T2 = _masked_pair(rng)
        yes += same_extends(T2, T1)
    assert yes > 20


def test_floor_gap_witness_like_oracle():
    rng = random.Random(79)
    found = 0
    for _ in range(800):
        T = random_condition(rng, max_entry=6)
        f = FloorRule(
            tuple(rng.randrange(8) for _ in range(rng.randrange(6))),
            rng.randrange(3),
            rng.randrange(6),
        )
        want = oracles.floor_gap_witness(T, f)
        assert floor_gap_witness(T, f) == want, (T, f)
        found += want is not None
    assert found > 200
    # a gap far above the stem, with atoms on the way to it
    T = HechlerCondition((2,), {(2,): (3, 4), (2, 5): (5, 6)}, FloorRule((2, 2, 4), 0, 300))
    f = FloorRule((), 1, 0)
    witness = floor_gap_witness(T, f)
    assert witness == oracles.floor_gap_witness(T, f)
    assert witness == (2, 5, 7) + (301,) * 299
