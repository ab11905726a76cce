"""Coding a bit sequence into a pair of roster-generic binary strings.

Neither string carries the target on its own.  The builder keeps two
equal-length strings p, q and a consumption index j into the target x.
Each stage: (1) extend p into the next dense set of its roster, (2) for
every new p-position, q receives the next target bit where p is 1 and a
0 where p is 0, (3) extend q into its own roster, (4) pad p with 0s over
q's new region, (5) append a marker 1 to p and the next target bit to q.
The invariant is positional: wherever the finished c1 holds a 1, c2
holds the next coded bit, so the pair decodes by reading c2 at the
1-positions of c1.

A string (`Bits`) is a `bytes` of 0/1 values: one byte per bit, and
never tracked by the cyclic GC.  Membership tests, extension checks
and the snapshot chain are C-level bytes operations (`in`, `endswith`,
`startswith`, `+`).

A pair transcript's STAGE lines repeat both end-of-stage snapshots, so
its bytes grow quadratically with the stages, but a `PairTranscript`
holds per line only the bits each snapshot adds (a `PairRecord`).  The
writer and parser work on these deltas through `BitsCodec`; the
verifier builds the snapshots one stage at a time.  Stage numbers are
read by `parse_nat` and the target by `parse_json`, so each field has
one spelling, the writer's.  The parser reads the text in place, by
offset: it keeps no list of lines, and of each STAGE line it copies only
the three fields.  The ones-are-coded check and `decode_pair` read c2 at
the 1-positions of c1 in C-level passes (`itertools.compress`, `map`).
"""

from __future__ import annotations

import itertools

from .coding import EventuallyPeriodicSeq
from .errors import DEFAULT_FUEL, ConfigError, DenseContractError, FuelExhausted, MalformedTranscript
from .frozen import Record
from .generic import CheckResult, VerificationReport, _check_recorder
from .serialize import BitsCodec, canonical_json, check_keys, nat, parse_bits, parse_json, parse_nat
from .serialize import quoted, render_bits, roster_hash, tagged_line


Bits = bytes  # 0/1 values


def as_bits(xs) -> Bits:
    bits = tuple(int(b) for b in xs)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"not a 0/1 sequence: {xs!r}")
    return bytes(bits)


class CohenDense:
    """A dense set of binary strings: a membership test plus an extend
    operation that lands inside the set."""

    def member(self, p: Bits) -> bool:
        raise NotImplementedError

    def met_after(self, p: Bits, start: int) -> bool:
        """Whether some prefix p[:n] with start <= n <= len(p) is a
        member.  The built-in sets answer in one pass over p."""
        return any(self.member(p[:n]) for n in range(start, len(p) + 1))

    def extend(self, p: Bits) -> Bits:
        raise NotImplementedError

    def growth(self, p: Bits) -> int:
        """How many bits `extend(p)` appends.  The built-in sets answer
        without building the extension."""
        return len(self.extend(p)) - len(p)

    def config(self) -> dict:
        raise NotImplementedError


class ContainsSet(CohenDense):
    kind, part = "contains", "substring"

    def __init__(self, w):
        self.w = as_bits(parse_bits(w) if isinstance(w, str) else w)
        if not self.w:
            raise ValueError(f"{self.part} must be nonempty")

    def member(self, p: Bits) -> bool:
        return self.w in p

    def met_after(self, p: Bits, start: int) -> bool:
        return len(p) >= start and self.w in p

    def extend(self, p: Bits) -> Bits:
        return p if self.member(p) else p + self.w

    def growth(self, p: Bits) -> int:
        return 0 if self.member(p) else len(self.w)

    def config(self) -> dict:
        return {"type": self.kind, "w": render_bits(self.w)}


class MinLenSet(CohenDense):
    def __init__(self, n: int):
        if n < 0:
            raise ValueError("length bound must be a natural")
        self.n = n

    def member(self, p: Bits) -> bool:
        return len(p) >= self.n

    def met_after(self, p: Bits, start: int) -> bool:
        return len(p) >= max(start, self.n)

    def extend(self, p: Bits) -> Bits:
        return p + bytes(self.n - len(p)) if len(p) < self.n else p

    def growth(self, p: Bits) -> int:
        return max(self.n - len(p), 0)

    def config(self) -> dict:
        return {"type": "min_len", "n": self.n}


class EndsWithSet(ContainsSet):
    kind, part = "ends_with", "suffix"

    def member(self, p: Bits) -> bool:
        return p.endswith(self.w)

    def met_after(self, p: Bits, start: int) -> bool:
        # some prefix p[:n] with n >= start ends with w: w occurs in p
        # at a position i with i + len(w) >= start
        return len(p) >= start and p.find(self.w, max(start - len(self.w), 0)) != -1


def cohen_from_config(cfg, path: str = "dense") -> CohenDense:
    """Strict inverse of `CohenDense.config`; raises ConfigError at the
    offending field."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError(path, "expected a dense-set object with a type")
    t = cfg["type"]
    if t in ("contains", "ends_with"):
        check_keys(cfg, path, ("type", "w"))
        cls = ContainsSet if t == "contains" else EndsWithSet
        if isinstance(cfg["w"], str):
            try:
                return cls(cfg["w"])
            except ValueError:
                pass
        raise ConfigError(f"{path}.w", "expected a nonempty 0/1 string")
    if t == "min_len":
        check_keys(cfg, path, ("type", "n"))
        return MinLenSet(nat(cfg["n"], f"{path}.n"))
    raise ConfigError(f"{path}.type", f"unknown cohen dense type {t!r}")


class PairRecord(Record):
    """A STAGE line: the previous p cut to `p_keep` bits, then `p_new`;
    likewise q."""

    index: int
    p_keep: int
    p_new: Bits
    q_keep: int
    q_new: Bits


class PairTranscript(Record):
    roster1_hash: str
    roster2_hash: str
    target_config: dict
    stages: int
    records: tuple[PairRecord, ...]
    c1: Bits
    c2: Bits


def _checked_extend(D: CohenDense, p: Bits, stage: int, fuel: int) -> Bits:
    grow = D.growth(p)
    if grow > fuel:
        raise FuelExhausted(f"stage {stage} would add {grow} bits, past the fuel of {fuel}", stage)
    p2 = D.extend(p)
    if not p2.startswith(p):
        raise DenseContractError("extend did not return an extension", stage)
    if not D.member(p2):
        raise DenseContractError("extend output not a member", stage)
    return p2


def build_pair(
    roster1: list[CohenDense],
    roster2: list[CohenDense],
    x: EventuallyPeriodicSeq,
    stages: int,
    fuel: int = DEFAULT_FUEL,
) -> tuple[Bits, Bits, PairTranscript]:
    """Run the staged construction; both rosters are cycled.  Returns
    the pair and a replayable transcript of end-of-stage snapshots.  An
    extension that would add more than `fuel` bits raises FuelExhausted
    before it is built; a target entry that is not a bit raises
    ValueError before the first stage."""
    if stages < 0:
        raise ValueError("stages must be a natural")
    # every target value is one of these entries, first read at its index
    for i, b in enumerate(x.prefix + x.cycle):
        if b not in (0, 1):
            raise ValueError(f"target entry {b} at {i} is not a bit")
    p, q, j = b"", b"", 0
    records: list[PairRecord] = []
    for i in range(stages):
        n = len(p)
        if roster1:
            p2 = _checked_extend(roster1[i % len(roster1)], p, i, fuel)
            region = bytearray(len(p2) - len(p))  # q's bits over p's new region
            for m, b in enumerate(p2[len(p):]):
                if b == 1:
                    region[m] = x.value(j)
                    j += 1
            p, q = p2, q + region
        if roster2:
            q2 = _checked_extend(roster2[i % len(roster2)], q, i, fuel)
            p += bytes(len(q2) - len(q))
            q = q2
        p += b"\x01"
        q += bytes((x.value(j),))
        j += 1
        records.append(PairRecord(i, n, p[n:], n, q[n:]))
    h1, h2 = roster_hash(roster1), roster_hash(roster2)
    return p, q, PairTranscript(h1, h2, x.config(), stages, tuple(records), p, q)


def decode_pair(c1: Bits, c2: Bits, count: int) -> tuple[int, ...]:
    """Target bits read off c2 at the first `count` 1-positions of c1;
    a negative count is a ValueError."""
    if count < 0:
        raise ValueError(f"bit count {count} is negative")
    ones = list(itertools.islice(itertools.compress(itertools.count(), c1), count))
    if len(ones) < count:
        raise ValueError(f"c1 has only {len(ones)} ones, need {count}")
    if ones and ones[-1] >= len(c2):
        raise ValueError(f"position {next(m for m in ones if m >= len(c2))} outside c2")
    return tuple(map(c2.__getitem__, ones))


def pair_transcript_fragments(t: PairTranscript):
    """The text of `t` in fragments, each snapshot text rendered from
    the one before."""
    yield (f"ROSTER1 {t.roster1_hash}\nROSTER2 {t.roster2_hash}\n"
           f"TARGET {canonical_json(t.target_config)}\nSTAGES {t.stages}\n")
    render_p, render_q = BitsCodec().render, BitsCodec().render
    for index, p_keep, p_new, q_keep, q_new in t.records:
        yield from (f"STAGE {index} P ", render_p(p_keep, p_new), " Q ", render_q(q_keep, q_new), "\n")
    yield f"C1 {render_bits(t.c1)}\nC2 {render_bits(t.c2)}\n"


def write_pair_transcript(t: PairTranscript) -> str:
    """The text of `t`: four header lines, one STAGE line per record,
    and the C1 and C2 footers."""
    return "".join(pair_transcript_fragments(t))


def parse_pair_transcript(text: str) -> PairTranscript:
    """Inverse of `write_pair_transcript`; raises MalformedTranscript.
    One pass over `text` by offset: the headers end at its first four
    line ends, the footers start after its last three, and each STAGE
    line is checked in place, so only its fields are copied."""
    if text and not text.endswith("\n"):
        raise MalformedTranscript("transcript does not end with a newline")
    heads, pos = [], 0
    for _ in range(4):
        end = text.find("\n", pos)
        if end < 0:
            raise MalformedTranscript("pair transcript too short")
        heads.append(text[pos:end])
        pos = end + 1
    c2_at = text.rfind("\n", 0, len(text) - 1) + 1
    c1_at = text.rfind("\n", 0, c2_at - 1) + 1
    if c1_at < pos:
        raise MalformedTranscript("pair transcript too short")
    try:
        h1, h2 = tagged_line(heads[0], 1, "ROSTER1"), tagged_line(heads[1], 2, "ROSTER2")
        target = parse_json(tagged_line(heads[2], 3, "TARGET"))
        stages = parse_nat(tagged_line(heads[3], 4, "STAGES"))
        records = []
        append, make = records.append, tuple.__new__
        parse_p, parse_q = BitsCodec().parse, BitsCodec().parse
        while pos < c1_at:
            # `STAGE i P p Q q`, with no other space
            end = text.find("\n", pos)
            i_end = text.find(" ", pos + 6, end)
            p_end = text.find(" ", i_end + 3, end) if i_end > 0 else -1
            if (p_end < 0 or not text.startswith("STAGE ", pos) or not text.startswith(" P ", i_end)
                    or not text.startswith(" Q ", p_end) or text.find(" ", p_end + 3, end) >= 0):
                raise MalformedTranscript(f"bad stage line: {quoted(text[pos:end])}")
            append(make(PairRecord, (parse_nat(text[pos + 6 : i_end]),
                                     *parse_p(text[i_end + 3 : p_end]), *parse_q(text[p_end + 3 : end]))))
            pos = end + 1
        c1 = parse_bits(tagged_line(text[c1_at : c2_at - 1], len(records) + 5, "C1"))
        c2 = parse_bits(tagged_line(text[c2_at:-1], len(records) + 6, "C2"))
    except ValueError as exc:
        raise MalformedTranscript(str(exc)) from exc
    return PairTranscript(h1, h2, target, stages, tuple(records), c1, c2)


def verify_pair(
    roster1: list[CohenDense],
    roster2: list[CohenDense],
    x: EventuallyPeriodicSeq,
    t: PairTranscript,
) -> VerificationReport:
    """Independent checks: headers; snapshot chain; some prefix of each
    stage's snapshot lying in the scheduled dense set; the positional
    ones-are-coded invariant; roster coverage; footer; decoded prefix."""
    checks: list[CheckResult] = []
    add = _check_recorder(checks)
    add("header.roster1", "-", t.roster1_hash == roster_hash(roster1), "roster1 hash mismatch")
    add("header.roster2", "-", t.roster2_hash == roster_hash(roster2), "roster2 hash mismatch")
    add("header.target", "-", canonical_json(t.target_config) == canonical_json(x.config()),
        "target mismatch")
    stray = next((f"stage {i} is numbered {r.index}" for i, r in enumerate(t.records) if r.index != i), "")
    add("header.stages", "-", t.stages == len(t.records) and not stray,
        "stage count mismatch" if t.stages != len(t.records) else stray)

    met1 = [False] * len(roster1)
    met2 = [False] * len(roster2)
    prev_p = prev_q = b""
    for index, p_keep, p_new, q_keep, q_new in t.records:
        p, q = prev_p[:p_keep] + p_new, prev_q[:q_keep] + q_new
        locus = f"stage {index}"
        # a record keeping the previous snapshot whole extends it
        chain = ((p_keep == len(prev_p) or p.startswith(prev_p))
                 and (q_keep == len(prev_q) or q.startswith(prev_q)) and len(p) == len(q))
        add("chain", locus, chain, "snapshots not extensions of equal length")
        sides = (("meet1", roster1, met1, prev_p, p), ("meet2", roster2, met2, prev_q, q))
        for check, roster, met, prev, cur in sides:
            if roster:
                k = index % len(roster)
                hit = roster[k].met_after(cur, len(prev))
                add(check, locus, hit, "no prefix of this stage lies in the dense set")
                if hit:
                    met[k] = True
        prev_p, prev_q = p, q

    add("footer.c1", "-", t.c1 == prev_p, "C1 differs from the last snapshot")
    add("footer.c2", "-", t.c2 == prev_q, "C2 differs from the last snapshot")
    for check, met in (("coverage.roster1", met1), ("coverage.roster2", met2)):
        add(check, "-", all(met), "unmet dense sets {}", [i for i, m in enumerate(met) if not m])

    # c2 read at the 1-positions of c1 that it reaches, against the
    # target; the first bad position is looked for only when they differ
    ones = list(itertools.compress(itertools.count(), t.c1))
    reached = itertools.takewhile(len(t.c2).__gt__, ones)
    j, bad = len(ones), None
    if tuple(map(t.c2.__getitem__, reached)) != x.values(j):
        bad = next(m for i, m in enumerate(ones) if m >= len(t.c2) or t.c2[m] != x.value(i))
    add("ones_coded", "-" if bad is None else f"position {bad}", bad is None,
        "a 1-position of c1 does not carry the next target bit")
    if bad is None:
        decoded = decode_pair(t.c1, t.c2, j)
        add("decode", "-", decoded == x.values(j), "decode_pair disagrees with target")
    return VerificationReport(tuple(checks))
