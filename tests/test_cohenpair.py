"""Pair coding over binary strings."""

from __future__ import annotations

import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genco import (
    ContainsSet,
    DenseContractError,
    EndsWithSet,
    EventuallyPeriodicSeq,
    FuelExhausted,
    MinLenSet,
    build_pair,
    cohen_from_config,
    decode_pair,
    parse_pair_transcript,
    verify_pair,
    write_pair_transcript,
)
from genco.cli import parse_config
from genco.cohenpair import CohenDense, PairTranscript
import oracles
from conftest import random_bit_seq
from corpus import CONFIG_DIR, GOLDEN_DIR
from test_generic import _retained


def random_cohen_roster(rng: random.Random, max_size=8):
    roster = []
    for _ in range(rng.randrange(1, max_size + 1)):
        t = rng.choice(["contains", "min_len", "ends_with"])
        if t == "contains":
            w = "".join(str(rng.randrange(2)) for _ in range(rng.randrange(1, 5)))
            roster.append(ContainsSet(w))
        elif t == "min_len":
            roster.append(MinLenSet(rng.randrange(1, 40)))
        else:
            w = "".join(str(rng.randrange(2)) for _ in range(rng.randrange(1, 4)))
            roster.append(EndsWithSet(w))
    return roster


class TestBuild:
    def test_markers_only(self):
        c1, c2, _ = build_pair([], [], EventuallyPeriodicSeq((1, 0, 1), (0,)), 3)
        assert c1 == b"\x01\x01\x01" and c2 == b"\x01\x00\x01"

    def test_garbage_region(self):
        c1, c2, _ = build_pair(
            [ContainsSet("00")], [], EventuallyPeriodicSeq((1,), (0,)), 1
        )
        assert c1 == b"\x00\x00\x01" and c2 == b"\x00\x00\x01"

    def test_zero_stages(self):
        c1, c2, t = build_pair([], [], EventuallyPeriodicSeq((1,), (0,)), 0)
        assert c1 == b"" and c2 == b"" and t.records == () and list(oracles.pair_snapshots(t)) == []

    def test_non_bit_target_rejected(self):
        with pytest.raises(ValueError):
            build_pair([], [], EventuallyPeriodicSeq((2,), (0,)), 1)
        # each entry is checked before the first stage, at the index where
        # it is first read, whether or not a stage reads it
        for stages in (0, 1, 5):
            with pytest.raises(ValueError, match="^target entry 3 at 2 is not a bit$"):
                build_pair([], [], EventuallyPeriodicSeq((0,), (1, 3)), stages)

    def test_broken_oracle_reported(self):
        class Broken(CohenDense):
            def member(self, p):
                return False

            def extend(self, p):
                return p + b"\x00"

            def config(self):
                return {"type": "min_len", "n": 0}

        with pytest.raises(DenseContractError) as info:
            build_pair([Broken()], [], EventuallyPeriodicSeq((1,), (0,)), 1)
        assert info.value.stage == 0

    def test_dropped_bit_reported(self):
        # stage 0 starts from the empty string; stage 1 drops the marker
        class Dropping(CohenDense):
            def member(self, p):
                return True

            def extend(self, p):
                return p[:-1]

            def config(self):
                return {"type": "min_len", "n": 0}

        with pytest.raises(DenseContractError, match="^extend did not return an extension$") as info:
            build_pair([Dropping()], [], EventuallyPeriodicSeq((1,), (0,)), 2)
        assert info.value.stage == 1

    def test_extension_past_fuel(self):
        # a stage whose extension would pass the fuel raises before it is built
        x = EventuallyPeriodicSeq((1,), (0,))
        assert build_pair([], [MinLenSet(5)], x, 2, fuel=5)[0] == b"\x00" * 5 + b"\x01\x01"
        for r1, r2, stage in (([MinLenSet(10**18)], [], 0), ([], [MinLenSet(3), MinLenSet(10**18)], 1)):
            with pytest.raises(FuelExhausted) as info:
                build_pair(r1, r2, x, 2, fuel=5)
            assert info.value.step == stage and "past the fuel of 5" in str(info.value)

    def test_random_runs_recover_target(self):
        rng = random.Random(31337)
        for _ in range(25):
            r1 = random_cohen_roster(rng, 4)
            r2 = random_cohen_roster(rng, 4)
            x = random_bit_seq(rng)
            stages = 16
            c1, c2, t = build_pair(r1, r2, x, stages)
            ones = sum(c1)
            assert ones >= stages  # one marker per stage
            assert decode_pair(c1, c2, ones) == x.values(ones)
            report = verify_pair(r1, r2, x, t)
            assert report.ok, report.failures()

    def test_deterministic(self):
        rng1, rng2 = random.Random(9), random.Random(9)
        for _ in range(10):
            a = build_pair(random_cohen_roster(rng1), [], random_bit_seq(rng1), 8)[2]
            b = build_pair(random_cohen_roster(rng2), [], random_bit_seq(rng2), 8)[2]
            assert write_pair_transcript(a) == write_pair_transcript(b)


class TestDecodePair:
    def test_examples(self):
        assert decode_pair((1, 1, 1), (1, 0, 1), 3) == (1, 0, 1)
        assert decode_pair((0, 0, 1), (0, 0, 1), 1) == (1,)
        assert decode_pair((0, 0, 0), (1, 1, 1), 0) == ()

    def test_insufficient_ones(self):
        with pytest.raises(ValueError):
            decode_pair((0, 1), (1, 1), 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            decode_pair((0, 0, 1), (1,), 1)

    def test_negative_count_rejected(self):
        # a negative count asks for nothing, not for all but its last bits
        for count in (-1, -3):
            with pytest.raises(ValueError, match=f"^bit count {count} is negative$"):
                decode_pair((1, 1, 1), (1, 0, 1), count)


class TestTranscript:
    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(10):
            t = build_pair(
                random_cohen_roster(rng, 3),
                random_cohen_roster(rng, 3),
                random_bit_seq(rng),
                6,
            )[2]
            assert parse_pair_transcript(write_pair_transcript(t)) == t

    def test_verifier_catches_flipped_coded_bit(self):
        x = EventuallyPeriodicSeq((1, 0, 1), (0,))
        _, _, t = build_pair([], [], x, 3)
        # flip c2 at a 1-position of c1, coherently with the snapshot
        snaps = list(oracles.pair_snapshots(t))
        last = snaps[-1]
        c2 = last.q[:-1] + bytes((1 - last.q[-1],))
        snaps[-1] = type(last)(last.index, last.p, c2)
        bad = oracles.pair_from_snapshots(
            t.roster1_hash, t.roster2_hash, t.target_config, t.stages,
            snaps, t.c1, c2,
        )
        report = verify_pair([], [], x, bad)
        assert not report.ok
        assert any(c.check in ("ones_coded", "decode") for c in report.failures())

    def test_verifier_catches_uncoded_garbage_one(self):
        # a garbage-region 1 in c1 whose c2 position holds 0 while the
        # pending target bit is 1
        x = EventuallyPeriodicSeq((1, 1, 1), (1,))
        c1, c2, t = build_pair([ContainsSet("0")], [], x, 1)
        assert c1[0] == 0 and c2[0] == 0
        snaps = [type(s)(s.index, b"\x01" + s.p[1:], s.q) for s in oracles.pair_snapshots(t)]
        bad = oracles.pair_from_snapshots(
            t.roster1_hash, t.roster2_hash, t.target_config, t.stages,
            snaps, b"\x01" + c1[1:], c2,
        )
        report = verify_pair([ContainsSet("0")], [], x, bad)
        assert not report.ok
        assert any(c.check == "ones_coded" for c in report.failures())

    def test_verifier_catches_unmet_roster(self):
        x = EventuallyPeriodicSeq((1,), (0,))
        r1 = [ContainsSet("0011"), ContainsSet("1100")]
        _, _, t = build_pair(r1, [], x, 1)  # only the first set is scheduled
        report = verify_pair(r1, [], x, t)
        assert not report.ok
        assert any(c.check == "coverage.roster1" for c in report.failures())


class TestConfigs:
    def test_round_trip(self):
        for cfg in (
            {"type": "contains", "w": "001"},
            {"type": "min_len", "n": 16},
            {"type": "ends_with", "w": "1"},
        ):
            assert cohen_from_config(cfg).config() == cfg

    def test_membership_semantics(self):
        assert ContainsSet("01").member(b"\x01\x00\x01")
        assert not ContainsSet("01").member(b"\x01\x01")
        assert MinLenSet(2).member(b"\x00\x00")
        assert EndsWithSet("10").member(b"\x00\x01\x00")
        assert not EndsWithSet("10").member(b"\x00\x00\x01")

    @pytest.mark.parametrize("cls, part", [(ContainsSet, "substring"), (EndsWithSet, "suffix")])
    def test_empty_word_rejected(self, cls, part):
        for w in ("-", b"", ()):
            with pytest.raises(ValueError, match=f"^{part} must be nonempty$"):
                cls(w)

    @pytest.mark.parametrize("D, p, grow, cfg", [
        (ContainsSet("01"), b"\x00\x01\x01", 0, {"type": "contains", "w": "01"}),
        (ContainsSet((0, 1)), b"\x01\x01\x00", 2, {"type": "contains", "w": "01"}),
        (EndsWithSet("10"), b"\x01\x01\x00", 0, {"type": "ends_with", "w": "10"}),
        (EndsWithSet(b"\x01\x00"), b"\x01\x00\x01", 2, {"type": "ends_with", "w": "10"}),
    ], ids=["contains-member", "contains-outside", "ends_with-member", "ends_with-outside"])
    def test_word_sets(self, D, p, grow, cfg):
        assert D.config() == cfg and D.member(p) == (grow == 0)
        assert D.growth(p) == grow
        assert D.extend(p) == (p if grow == 0 else p + D.w)
        assert D.member(D.extend(p))


BITS = st.lists(st.integers(0, 1), max_size=24).map(bytes)
WORD = st.lists(st.integers(0, 1), min_size=1, max_size=4).map(bytes)
BUILTIN_SETS = st.one_of(WORD.map(ContainsSet), WORD.map(EndsWithSet), st.integers(0, 30).map(MinLenSet))


@settings(max_examples=500)
@given(BUILTIN_SETS, BITS, st.integers(0, 30))
def test_met_after_matches_the_prefix_scan(D, p, start):
    assert D.met_after(p, start) == CohenDense.met_after(D, p, start)


@pytest.mark.parametrize("phase", ["build", "parse"])
def test_held_memory_is_linear_in_the_stages(phase):
    # a record holds the bits its stage adds, not both whole snapshots, so
    # a run of twice the stages holds about twice the memory; whole
    # snapshots made it about four times.  The parsed text is not counted.
    raw = json.loads((CONFIG_DIR / "cohen_ends_contains.json").read_text())
    held = []
    for stages in (512, 1024):
        cfg = parse_config(json.dumps(raw | {"stages": stages}))
        args = *cfg.cohen_rosters(), cfg.target(), stages
        if phase == "build":
            held.append(_retained(build_pair, *args))
        else:
            text = write_pair_transcript(build_pair(*args)[2])
            held.append(_retained(parse_pair_transcript, text))
    assert held[1] <= 2.5 * held[0], held


def test_parse_holds_no_line_list():
    # the parser reads the text in place: its peak above its start is the
    # records and one line's fields, not a list of the text's lines
    raw = json.loads((CONFIG_DIR / "cohen_ends_contains.json").read_text())
    cfg = parse_config(json.dumps(raw | {"stages": 1024}))
    text = write_pair_transcript(build_pair(*cfg.cohen_rosters(), cfg.target(), 1024)[2])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        parse_pair_transcript(text)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * len(text), (peak, len(text))


def _flip(bits: bytes, m: int) -> bytes:
    return bits[:m] + bytes((1 - bits[m],)) + bits[m + 1 :]


def forge_pair(rng: random.Random, t: PairTranscript, kind: str) -> PairTranscript:
    """`t` with one kind of damage, at a stage chosen by `rng`."""
    snaps = list(oracles.pair_snapshots(t))
    stages, c1, c2 = t.stages, t.c1, t.c2
    i = rng.randrange(len(snaps) - 1)
    s = snaps[i]
    if kind == "flip":
        if rng.random() < 0.5:
            snaps[i] = oracles.PairStage(s.index, _flip(s.p, rng.randrange(len(s.p))), s.q)
        else:
            snaps[i] = oracles.PairStage(s.index, s.p, _flip(s.q, rng.randrange(len(s.q))))
    elif kind == "no_chain":
        # two stages swap their strings: the later stage's are the shorter
        nxt = snaps[i + 1]
        snaps[i], snaps[i + 1] = oracles.PairStage(s.index, nxt.p, nxt.q), oracles.PairStage(nxt.index, s.p, s.q)
    elif kind == "truncate":
        cut = rng.randrange(len(s.p))
        snaps[i] = oracles.PairStage(s.index, s.p[:cut], s.q[:cut])
    elif kind == "unequal":
        snaps[i] = oracles.PairStage(s.index, s.p, s.q + b"\x00")
    elif kind == "footer":
        c1, c2 = (_flip(c1, rng.randrange(len(c1))), c2) if rng.random() < 0.5 else (c1, c2[:-1])
    elif kind == "coded":
        # c2 flipped at some 1-positions of c1 among the last stage's new
        # bits, in that snapshot and in the C2 footer alike: the chain and
        # the footers hold, only the coded bits are wrong
        s, start = snaps[-1], len(snaps[-2].p)
        ones = [m for m in range(start, len(s.p)) if s.p[m] == 1]
        q = bytearray(s.q)
        for m in rng.sample(ones, rng.randint(1, len(ones))):
            q[m] ^= 1
        snaps[-1] = oracles.PairStage(s.index, s.p, bytes(q))
        c2 = bytes(q)
    elif kind == "unmet":
        # a shorter run, consistent in itself: the sets scheduled only
        # in the dropped stages go unmet
        snaps = snaps[: i + 1]
        stages, c1, c2 = len(snaps), snaps[-1].p, snaps[-1].q
    else:
        raise AssertionError(kind)
    return oracles.pair_from_snapshots(t.roster1_hash, t.roster2_hash, t.target_config, stages, snaps, c1, c2)


FORGERIES = ("flip", "no_chain", "truncate", "unequal", "footer", "coded", "unmet")


class TestVerifierOracle:
    """`verify_pair` on bytes against the tuple verifier it replaced,
    kept in `tests/oracles.py`: the same checks, loci, verdicts and
    details, honest or forged."""

    @staticmethod
    def _same_report(r1, r2, x, t):
        report = verify_pair(r1, r2, x, t)
        assert report.checks == oracles.verify_pair(r1, r2, x, oracles.pair_as_tuples(t)).checks
        return report

    @staticmethod
    def _run(rng: random.Random):
        r1, r2 = random_cohen_roster(rng, 4), random_cohen_roster(rng, 4)
        x = random_bit_seq(rng)
        return r1, r2, x, build_pair(r1, r2, x, rng.randrange(4, 12))[2]

    def test_honest_runs(self):
        rng = random.Random(4001)
        for _ in range(30):
            assert self._same_report(*self._run(rng)).ok

    @pytest.mark.parametrize("kind", FORGERIES)
    def test_forgeries(self, kind):
        rng = random.Random(f"forge-{kind}")
        reports = []
        for _ in range(40):
            r1, r2, x, t = self._run(rng)
            reports.append(self._same_report(r1, r2, x, forge_pair(rng, t, kind)))
        failed = {c.check for r in reports for c in r.failures()}
        if kind == "unmet":
            # a dropped stage need not have been the only one of its set
            assert failed == {"coverage.roster1", "coverage.roster2"}
        elif kind == "truncate":
            # a snapshot cut back no further than the one before, whose
            # stage still meets its set, is a run the verifier accepts
            assert "chain" in failed
        elif kind == "coded":
            assert not any(r.ok for r in reports) and failed == {"ones_coded"}
        else:
            assert not any(r.ok for r in reports)
            assert failed & {"chain", "footer.c1", "footer.c2"}

    def test_coded_forgery_fails_at_its_first_flip(self):
        # several flipped coded bits are reported at the first of them
        rng = random.Random("forge-coded-locus")
        several = 0
        for _ in range(40):
            r1, r2, x, t = self._run(rng)
            forged = forge_pair(rng, t, "coded")
            report = self._same_report(r1, r2, x, forged)
            first = _shared(t.c2, forged.c2)
            assert [(c.check, c.locus) for c in report.failures()] == [("ones_coded", f"position {first}")]
            several += sum(map(int.__ne__, t.c2, forged.c2)) > 1
        assert several > 0


def _shared(a: bytes, b: bytes) -> int:
    return next((i for i, (u, v) in enumerate(zip(a, b)) if u != v), min(len(a), len(b)))


def _recut_pair(rng: random.Random, t: PairTranscript):
    """`t` with each record rewritten to a random `p_keep` and `q_keep` up
    to the prefix each string shares with the one before, the dropped bits
    added back to `p_new` and `q_new`; and the number of strings that
    extend the one before but keep less of it.  The parser writes no such
    record."""
    records, prev, short = [], oracles.PairStage(-1, b"", b""), 0
    for r, s in zip(t.records, oracles.pair_snapshots(t)):
        p_keep, q_keep = rng.randint(0, _shared(prev.p, s.p)), rng.randint(0, _shared(prev.q, s.q))
        short += (s.p.startswith(prev.p) and p_keep < len(prev.p)) + (s.q.startswith(prev.q) and q_keep < len(prev.q))
        records.append(r._replace(p_keep=p_keep, p_new=s.p[p_keep:], q_keep=q_keep, q_new=s.q[q_keep:]))
        prev = s
    return t._replace(records=tuple(records)), short


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("cohen*.transcript")), ids=lambda p: p.stem)
def test_pair_records_cut_at_any_keep_verify_like_parsed_ones(path):
    # every record kept to its shared prefix is the same stage: the pair
    # verifier gives the checks it gives on the parser's records
    cfg = parse_config((CONFIG_DIR / f"{path.stem}.json").read_text())
    honest = parse_pair_transcript(path.read_text())
    assert verify_pair(cfg.dense, cfg.dense2, cfg.x, honest).ok
    rng = random.Random(f"recut-{path.stem}")
    short = 0
    for t in [honest] + [forge_pair(rng, honest, kind) for kind in FORGERIES]:
        want = verify_pair(cfg.dense, cfg.dense2, cfg.x, t).checks
        for _ in range(5):
            cut, n = _recut_pair(rng, t)
            assert verify_pair(cfg.dense, cfg.dense2, cfg.x, cut).checks == want
            short += n
    assert short > 0
