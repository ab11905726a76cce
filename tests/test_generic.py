"""The interleaved builder, transcripts, and the independent verifier."""

from __future__ import annotations

import json
import random

import pytest

from genco import (
    EventuallyPeriodicSeq,
    Evens,
    FloorRule,
    DominateSet,
    MalformedTranscript,
    StemHitsSet,
    StemLengthSet,
    StemPattern,
    UserStemsSet,
    build_coded_generic,
    decode,
    extends_A,
    parse_transcript,
    verify_transcript,
    write_transcript,
)
from genco.cli import EXIT_VERIFY
from genco.conditions import FULL_TREE
from conftest import random_help, random_roster, random_seq
from corpus import run_cli
from mutations import ALL_MUTATIONS, apply_mutation

EVENS = Evens()
ONES = EventuallyPeriodicSeq((), (1,))


class TestBuild:
    def test_stem_length_trace(self):
        # hand trace with least-choice rules: first meet walks to the
        # least odd stem of length 1; each code step appends the least
        # even with label 1 (which is 2); the second meet is already met
        t = build_coded_generic([StemLengthSet(1)], EVENS, ONES, 2)
        assert t.g_prefix == (1, 2, 2)
        assert decode(EVENS, t.g_prefix) == (1, 1)

    def test_dominate_trace(self):
        # prune to steps > 4, then the least label-0 even above the
        # floor: members with label 0 are 0,4,8,... so 8
        t = build_coded_generic(
            [DominateSet(FloorRule((), 0, 4))], EVENS, EventuallyPeriodicSeq((), (0,)), 1
        )
        assert t.g_prefix == (8,)

    def test_zero_steps(self):
        t = build_coded_generic([StemLengthSet(1)], EVENS, ONES, 0)
        assert t.g_prefix == () and t.entries == ()

    def test_plain_traces(self):
        assert build_coded_generic([StemLengthSet(2)], None, None, 1).g_prefix == (0, 0)
        assert build_coded_generic([StemHitsSet(3)], None, None, 1).g_prefix == (3,)
        assert build_coded_generic([StemHitsSet(3)], None, None, 0).g_prefix == ()

    def test_alternation(self):
        # meets extend silently; code steps deliberately hit the help set
        rng = random.Random(8)
        for _ in range(20):
            roster = random_roster(rng, 4)
            A = random_help(rng)
            x = random_seq(rng)
            t = build_coded_generic(roster, A, x, 6)
            prev = FULL_TREE
            for e in t.entries:
                if e.kind == "MEET":
                    assert extends_A(e.condition, prev, A)
                else:
                    ans = extends_A(e.condition, prev, A)
                    assert not ans and ans.reason == "stem-avoidance"
                prev = e.condition

    def test_end_to_end_random(self):
        rng = random.Random(4096)
        for _ in range(25):
            roster = random_roster(rng, 6)
            A = random_help(rng)
            x = random_seq(rng)
            steps = 16
            t = build_coded_generic(roster, A, x, steps)
            assert decode(A, t.g_prefix) == x.values(steps)
            met = set()
            for e in t.entries:
                if e.kind == "MEET" and roster[e.index].member(e.condition) is True:
                    met.add(e.index)
            assert met == set(range(len(roster)))

    def test_empty_roster_code_only(self):
        t = build_coded_generic([], EVENS, ONES, 3)
        assert decode(EVENS, t.g_prefix) == (1, 1, 1)
        assert all(e.kind == "CODE" for e in t.entries)


class TestTranscriptText:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(10):
            t = build_coded_generic(random_roster(rng, 3), random_help(rng), random_seq(rng), 4)
            assert parse_transcript(write_transcript(t)) == t

    def test_deterministic_bytes(self):
        rng1, rng2 = random.Random(42), random.Random(42)
        for _ in range(10):
            a = build_coded_generic(random_roster(rng1, 4), random_help(rng1), random_seq(rng1), 6)
            b = build_coded_generic(random_roster(rng2, 4), random_help(rng2), random_seq(rng2), 6)
            assert write_transcript(a) == write_transcript(b)

    def test_malformed_text_rejected(self):
        good = write_transcript(build_coded_generic([StemLengthSet(1)], EVENS, ONES, 1))
        for bad in ("", "ROSTER x\n", good.replace("STEPS", "STEP"), good + "EXTRA\n"):
            with pytest.raises(MalformedTranscript):
                parse_transcript(bad)


class TestVerify:
    def test_builder_output_verifies(self):
        rng = random.Random(77)
        for _ in range(20):
            roster = random_roster(rng, 5)
            A = random_help(rng)
            x = random_seq(rng)
            t = build_coded_generic(roster, A, x, 8)
            report = verify_transcript(roster, A, x, t)
            assert report.ok, report.failures()

    def test_plain_output_verifies(self):
        rng = random.Random(78)
        for _ in range(10):
            roster = random_roster(rng, 5)
            t = build_coded_generic(roster, None, None, 12)
            report = verify_transcript(roster, None, None, t)
            assert report.ok, report.failures()

    def test_wrong_roster_fails(self):
        t = build_coded_generic([StemLengthSet(1)], EVENS, ONES, 2)
        report = verify_transcript([StemLengthSet(2)], EVENS, ONES, t)
        assert not report.ok

    def test_wrong_target_fails(self):
        t = build_coded_generic([StemLengthSet(1)], EVENS, ONES, 2)
        report = verify_transcript(
            [StemLengthSet(1)], EVENS, EventuallyPeriodicSeq((), (3,)), t
        )
        assert not report.ok

    def test_truthy_non_bool_member_fails(self):
        # meet.member accepts only True itself from a dense set's member
        class Truthy(StemLengthSet):
            def member(self, T):
                return "yes" if super().member(T) else ""

        t = build_coded_generic([StemLengthSet(2)], EVENS, ONES, 3)
        assert verify_transcript([StemLengthSet(2)], EVENS, ONES, t).ok
        report = verify_transcript([Truthy(2)], EVENS, ONES, t)
        assert [(c.check, c.locus) for c in report.failures()] == [
            ("meet.member", f"entry {pos}") for pos in (0, 2, 4)
        ]

    def test_every_mutation_caught(self):
        rng = random.Random(2718)
        for _ in range(12):
            roster = [
                StemLengthSet(rng.randrange(2, 5)),
                StemHitsSet(rng.randrange(3, 9)),
                DominateSet(FloorRule((), rng.randrange(2), rng.randrange(1, 6))),
            ]
            A = random_help(rng)
            x = random_seq(rng)
            t = build_coded_generic(roster, A, x, 5)
            text = write_transcript(t)
            for name in ALL_MUTATIONS:
                mutated = apply_mutation(name, text, A)
                assert mutated != text, name
                report = verify_transcript(roster, A, x, parse_transcript(mutated))
                assert not report.ok, f"mutation {name} slipped through"

    def test_forged_floor_fails(self):
        # every floor 1, 3, 3, ... swapped for 2, 2, 3, 4, ...: the chain
        # stays consistent, but the first meet no longer dominates
        roster = [DominateSet(FloorRule((1,), 0, 3))]
        x = EventuallyPeriodicSeq((0, 0, 0), (0,))
        text = write_transcript(build_coded_generic(roster, EVENS, x, 3))
        assert verify_transcript(roster, EVENS, x, parse_transcript(text)).ok
        forged = text.replace("floor(table=[1],a=0,b=3)", "floor(table=[2],a=1,b=1)")
        assert forged != text
        report = verify_transcript(roster, EVENS, x, parse_transcript(forged))
        assert not report.ok
        assert "meet.member" in {c.check for c in report.failures()}

    def test_forged_deep_masked_floor_fails(self, tmp_path):
        # the last condition masks the stem-level floor deficit with atoms
        # but drops the floor of 9 at level 12, far above the stem
        roster = [
            DominateSet(FloorRule((5, 5) + (0,) * 10 + (9,), 0, 0)),
            StemLengthSet(1),
        ]
        text = write_transcript(build_coded_generic(roster, None, None, 2))
        assert verify_transcript(roster, None, None, parse_transcript(text)).ok
        lines = text.splitlines()
        lines[-2] = "MEET 1 stem=[6];excl{[6]:{1,2,3,4,5}};floor(table=[],a=0,b=0)"
        forged = "\n".join(lines) + "\n"
        report = verify_transcript(roster, None, None, parse_transcript(forged))
        assert [(c.check, c.locus) for c in report.failures()] == [("chain.extends", "entry 1")]
        cf, tf = tmp_path / "c.json", tmp_path / "t.transcript"
        cf.write_text(json.dumps({
            "poset": "hechler",
            "help": {"kind": "evens"},
            "dense": [D.config() for D in roster],
            "steps": 2,
        }))
        tf.write_text(forged)
        code, out, _ = run_cli(["verify", "--config", str(cf), "--transcript", str(tf)])
        assert code == EXIT_VERIFY
        assert "FAIL chain.extends @entry 1 witness (6, 6, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)" in out
        assert out.endswith("FAIL\n")


def test_validation_is_linear_in_steps(monkeypatch):
    # build, write, parse and verify validate node entries only at the
    # boundary, never whole stems per step
    from genco import conditions

    validated = []
    real = conditions.as_node

    def counting(xs):
        node = real(xs)
        validated.append(len(node))
        return node

    monkeypatch.setattr(conditions, "as_node", counting)
    conditions.contains(FULL_TREE, (4, 5))
    assert validated == [2]  # the boundary is counted
    steps = 256
    roster = [
        StemLengthSet(2),
        StemHitsSet(4),
        DominateSet(FloorRule((1,), 0, 2)),
        UserStemsSet([StemPattern(1, ((6, 1),))]),
    ]
    x = EventuallyPeriodicSeq((0, 1, 2), (3, 0, 1, 2))
    t = build_coded_generic(roster, EVENS, x, steps)
    assert len(t.g_prefix) >= steps
    report = verify_transcript(roster, EVENS, x, parse_transcript(write_transcript(t)))
    assert report.ok
    assert sum(validated) - 2 <= 4 * steps
