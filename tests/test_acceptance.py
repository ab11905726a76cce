"""Acceptance suite: one test per criterion, each printing a pass line
with its measured time and asserting the stated budget."""

from __future__ import annotations

import json
import random
import time

from genco import (
    DominateSet,
    EventuallyPeriodicSeq,
    Evens,
    ExplicitPeriodic,
    FloorRule,
    Primes,
    SelfCode,
    StemHitsSet,
    StemLengthSet,
    build_coded_generic,
    build_pair,
    decode,
    decode_pair,
    difference_prefix,
    extends_A,
    rank_bounded,
    recover_from_subset,
    write_transcript,
)
from genco.cli import EXIT_OK, EXIT_VERIFY
from conftest import (
    random_bit_seq,
    random_condition,
    random_dense,
    random_help,
    random_roster,
    random_seq,
)
import oracles
from corpus import GOLDEN_DIR, build_transcript, corpus_paths, run_cli
from mutations import ALL_MUTATIONS, apply_mutation
from test_cohenpair import random_cohen_roster


def _report(n: int, name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"criterion {n} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_coded_generic_round_trip():
    started = time.time()
    rng = random.Random(101)
    for _ in range(100):
        roster = random_roster(rng, 8)
        A = random_help(rng, kinds=("evens", "primes", "selfcode"))
        x = random_seq(rng)
        t = build_coded_generic(roster, A, x, 64)
        assert decode(A, t.g_prefix) == x.values(64)
        met = set()
        for e in t.entries:
            if e.kind == "MEET" and roster[e.index].member(e.condition) is True:
                met.add(e.index)
        assert met == set(range(len(roster)))
    _report(1, "coded generic round trip", started, 10.0)


def test_criterion_2_meet_search_contract():
    started = time.time()
    rng = random.Random(202)
    from genco import extend_in_A

    for _ in range(200):
        T = random_condition(rng)
        D = random_dense(rng)
        A = random_help(rng)
        R = extend_in_A(T, D, A, fuel=100_000)  # FuelExhausted would fail the test
        assert extends_A(R, T, A)
        assert D.member(R) is True
    _report(2, "meet search contract", started, 5.0)


def test_criterion_3_rank_exactness():
    started = time.time()
    rng = random.Random(303)
    for n in range(9):
        D = StemLengthSet(n)
        for length in range(9):
            for t in ((0,) * length, tuple(rng.randrange(9) for _ in range(length))):
                assert rank_bounded(D, t, 16, 64) == max(0, n - length)
    _report(3, "rank exactness", started, 1.0)


def test_criterion_4_self_code_recovery():
    started = time.time()
    rng = random.Random(404)
    for _ in range(50):
        abar = random_seq(rng, max_entry=3)
        A = SelfCode(abar)
        want = abar.values(32)
        for j in range(2, 6):
            stream = (A.enumerate(n) for n in range(j - 1, 400, j))
            assert recover_from_subset(stream, 32) == want
        keep = random.Random(rng.randrange(10**6))
        stream = (A.enumerate(n) for n in range(200) if n >= 40 or keep.random() < 0.25)
        assert recover_from_subset(stream, 32) == want
    _report(4, "self-code recovery", started, 2.0)


def test_criterion_5_outside_elements():
    started = time.time()

    class Omega:
        @staticmethod
        def enumerate(n, fuel):
            return n

    evens, primes = Evens(), Primes()
    odds = ExplicitPeriodic((), (0, 1))
    selfcode = SelfCode(EventuallyPeriodicSeq((1,), (2, 0)))
    # pairs with an infinite difference
    pairs = [
        (evens, primes), (evens, odds), (evens, selfcode),
        (odds, evens), (odds, primes), (odds, selfcode),
        (primes, evens), (primes, selfcode),
        (Omega, evens), (Omega, primes), (Omega, odds), (Omega, selfcode),
    ]
    for B, A in pairs:
        found = difference_prefix(B, A, 100, fuel=100_000)
        assert len(found) == 100 and all(not A.member(z) for z in found)
    _report(5, "outside elements", started, 1.0)


def test_criterion_6_pair_coding():
    started = time.time()
    rng = random.Random(606)
    for _ in range(100):
        r1 = random_cohen_roster(rng, 8)
        r2 = random_cohen_roster(rng, 8)
        x = random_bit_seq(rng)
        c1, c2, t = build_pair(r1, r2, x, 64)
        ones = sum(c1)
        assert ones >= 64
        assert decode_pair(c1, c2, ones) == x.values(ones)
        # every roster element is met at some scheduled stage: a prefix
        # of that stage's snapshot lies in the set
        for roster, pick in ((r1, lambda s: s.p), (r2, lambda s: s.q)):
            for r_idx, D in enumerate(roster):
                met = False
                snaps = list(oracles.pair_snapshots(t))
                for s in snaps[r_idx :: len(roster)]:
                    prev = snaps[s.index - 1] if s.index else None
                    lo = len(pick(prev)) if prev else 0
                    snap = pick(s)
                    if any(D.member(snap[:n]) for n in range(lo, len(snap) + 1)):
                        met = True
                        break
                assert met, (r_idx, D.config())
    _report(6, "pair coding", started, 5.0)


def test_criterion_7_verifier_mutation_robustness(tmp_path):
    started = time.time()
    rng = random.Random(707)
    caught = 0
    for i in range(50):
        roster = [
            StemLengthSet(rng.randrange(2, 5)),
            StemHitsSet(rng.randrange(3, 9)),
            DominateSet(FloorRule((), rng.randrange(2), rng.randrange(1, 6))),
        ]
        A = random_help(rng)
        x = random_seq(rng)
        t = build_coded_generic(roster, A, x, 4)
        text = write_transcript(t)
        cfg = {
            "poset": "hechler",
            "help": A.config(),
            "target": x.config(),
            "dense": [D.config() for D in roster],
            "steps": 4,
        }
        cfg_file = tmp_path / f"c{i}.json"
        cfg_file.write_text(json.dumps(cfg))
        for name in ALL_MUTATIONS:
            mutated = apply_mutation(name, text, A)
            tf = tmp_path / f"t{i}_{name}.transcript"
            tf.write_text(mutated)
            code, _, _ = run_cli(
                ["verify", "--config", str(cfg_file), "--transcript", str(tf)]
            )
            assert code == EXIT_VERIFY, f"run {i}: mutation {name} not caught"
            caught += 1
    assert caught == 350
    _report(7, "verifier mutation robustness", started, 5.0)


def test_criterion_8_deterministic_goldens(tmp_path):
    started = time.time()
    paths = corpus_paths()
    assert len(paths) >= 20
    for path in paths:
        first = tmp_path / (path.stem + ".1")
        second = tmp_path / (path.stem + ".2")
        assert build_transcript(path, first)[0] == EXIT_OK
        assert build_transcript(path, second)[0] == EXIT_OK
        a, b = first.read_bytes(), second.read_bytes()
        assert a == b, f"{path.name}: repeated builds differ"
        golden = GOLDEN_DIR / (path.stem + ".transcript")
        assert a == golden.read_bytes(), f"{path.name}: differs from golden"
    _report(8, "deterministic goldens", started, 2.0)
