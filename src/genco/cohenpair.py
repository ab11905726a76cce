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

A pair transcript holds both end-of-stage snapshots on every STAGE
line, so its bytes grow quadratically with the stages.  Each snapshot
is rendered and parsed in full by `render_bits` and `parse_bits`, each
a few C-level passes over the string.
"""

from __future__ import annotations

from typing import NamedTuple

from .coding import EventuallyPeriodicSeq
from .errors import DEFAULT_FUEL, ConfigError, DenseContractError, FuelExhausted, MalformedTranscript
from .generic import CheckResult, VerificationReport
from .serialize import (
    canonical_json,
    check_keys,
    nat,
    parse_bits,
    render_bits,
    roster_hash,
    tagged_line,
)

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

    def extend(self, p: Bits) -> Bits:
        raise NotImplementedError

    def growth(self, p: Bits) -> int:
        """How many bits `extend(p)` appends.  The built-in sets answer
        without building the extension."""
        return len(self.extend(p)) - len(p)

    def config(self) -> dict:
        raise NotImplementedError


class ContainsSet(CohenDense):
    def __init__(self, w):
        self.w = as_bits(parse_bits(w) if isinstance(w, str) else w)
        if not self.w:
            raise ValueError("substring must be nonempty")

    def member(self, p: Bits) -> bool:
        return self.w in p

    def extend(self, p: Bits) -> Bits:
        return p if self.member(p) else p + self.w

    def growth(self, p: Bits) -> int:
        return 0 if self.member(p) else len(self.w)

    def config(self) -> dict:
        return {"type": "contains", "w": render_bits(self.w)}


class MinLenSet(CohenDense):
    def __init__(self, n: int):
        if n < 0:
            raise ValueError("length bound must be a natural")
        self.n = n

    def member(self, p: Bits) -> bool:
        return len(p) >= self.n

    def extend(self, p: Bits) -> Bits:
        return p + bytes(self.n - len(p)) if len(p) < self.n else p

    def growth(self, p: Bits) -> int:
        return max(self.n - len(p), 0)

    def config(self) -> dict:
        return {"type": "min_len", "n": self.n}


class EndsWithSet(CohenDense):
    def __init__(self, w):
        self.w = as_bits(parse_bits(w) if isinstance(w, str) else w)
        if not self.w:
            raise ValueError("suffix must be nonempty")

    def member(self, p: Bits) -> bool:
        return p.endswith(self.w)

    def extend(self, p: Bits) -> Bits:
        return p if self.member(p) else p + self.w

    def growth(self, p: Bits) -> int:
        return 0 if self.member(p) else len(self.w)

    def config(self) -> dict:
        return {"type": "ends_with", "w": render_bits(self.w)}


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


class PairStage(NamedTuple):
    index: int
    p: Bits  # end-of-stage snapshots
    q: Bits


class PairTranscript(NamedTuple):
    roster1_hash: str
    roster2_hash: str
    target_config: dict
    stages: int
    snapshots: tuple[PairStage, ...]
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
    before it is built."""
    if stages < 0:
        raise ValueError("stages must be a natural")
    p: Bits = b""
    q: Bits = b""
    j = 0
    snaps: list[PairStage] = []

    def x_bit(i: int) -> int:
        b = x.value(i)
        if b not in (0, 1):
            raise ValueError(f"target entry {b} at {i} is not a bit")
        return b

    for i in range(stages):
        if roster1:
            p2 = _checked_extend(roster1[i % len(roster1)], p, i, fuel)
            region = bytearray(len(p2) - len(p))  # q's bits over p's new region
            for m, b in enumerate(p2[len(p):]):
                if b == 1:
                    region[m] = x_bit(j)
                    j += 1
            p, q = p2, q + region
        if roster2:
            q2 = _checked_extend(roster2[i % len(roster2)], q, i, fuel)
            p += bytes(len(q2) - len(q))
            q = q2
        p += b"\x01"
        q += bytes((x_bit(j),))
        j += 1
        snaps.append(PairStage(i, p, q))
    transcript = PairTranscript(
        roster1_hash=roster_hash([D.config() for D in roster1]),
        roster2_hash=roster_hash([D.config() for D in roster2]),
        target_config=x.config(),
        stages=stages,
        snapshots=tuple(snaps),
        c1=p,
        c2=q,
    )
    return p, q, transcript


def decode_pair(c1: Bits, c2: Bits, count: int) -> tuple[int, ...]:
    """Target bits read off c2 at the first `count` 1-positions of c1."""
    ones = [m for m, b in enumerate(c1) if b == 1]
    if len(ones) < count:
        raise ValueError(f"c1 has only {len(ones)} ones, need {count}")
    out = []
    for m in ones[:count]:
        if m >= len(c2):
            raise ValueError(f"position {m} outside c2")
        out.append(c2[m])
    return tuple(out)


def write_pair_transcript(t: PairTranscript) -> str:
    """The text of `t`: four header lines, one STAGE line per snapshot,
    and the C1 and C2 footers."""
    lines = [
        f"ROSTER1 {t.roster1_hash}",
        f"ROSTER2 {t.roster2_hash}",
        f"TARGET {canonical_json(t.target_config)}",
        f"STAGES {t.stages}",
    ]
    for s in t.snapshots:
        lines.append(f"STAGE {s.index} P {render_bits(s.p)} Q {render_bits(s.q)}")
    lines.append(f"C1 {render_bits(t.c1)}")
    lines.append(f"C2 {render_bits(t.c2)}")
    return "\n".join(lines) + "\n"


def parse_pair_transcript(text: str) -> PairTranscript:
    """Inverse of `write_pair_transcript`; raises MalformedTranscript."""
    import json

    lines = text.splitlines()
    if len(lines) < 6:
        raise MalformedTranscript("pair transcript too short")
    try:
        h1, h2 = tagged_line(lines, 0, "ROSTER1"), tagged_line(lines, 1, "ROSTER2")
        target = json.loads(tagged_line(lines, 2, "TARGET"))
        stages = int(tagged_line(lines, 3, "STAGES"))
        snaps = []
        for line in lines[4:-2]:
            parts = line.split(" ")
            if len(parts) != 6 or parts[0] != "STAGE" or parts[2] != "P" or parts[4] != "Q":
                raise MalformedTranscript(f"bad stage line: {line!r}")
            snaps.append(PairStage(int(parts[1]), parse_bits(parts[3]), parse_bits(parts[5])))
        c1 = parse_bits(tagged_line(lines, len(lines) - 2, "C1"))
        c2 = parse_bits(tagged_line(lines, len(lines) - 1, "C2"))
    except ValueError as exc:
        raise MalformedTranscript(str(exc)) from exc
    return PairTranscript(h1, h2, target, stages, tuple(snaps), c1, c2)


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

    def add(check: str, locus: str, ok: bool, detail: str = ""):
        checks.append(CheckResult(check, locus, ok, "" if ok else detail))

    add("header.roster1", "-", t.roster1_hash == roster_hash([D.config() for D in roster1]),
        "roster1 hash mismatch")
    add("header.roster2", "-", t.roster2_hash == roster_hash([D.config() for D in roster2]),
        "roster2 hash mismatch")
    add("header.target", "-", t.target_config == x.config(), "target mismatch")
    add("header.stages", "-", t.stages == len(t.snapshots), "stage count mismatch")

    met1 = [False] * len(roster1)
    met2 = [False] * len(roster2)
    prev_p: Bits = b""
    prev_q: Bits = b""
    for s in t.snapshots:
        locus = f"stage {s.index}"
        chain = s.p.startswith(prev_p) and s.q.startswith(prev_q) and len(s.p) == len(s.q)
        add("chain", locus, chain, "snapshots not extensions of equal length")
        sides = (("meet1", roster1, met1, prev_p, s.p), ("meet2", roster2, met2, prev_q, s.q))
        for check, roster, met, prev, cur in sides:
            if roster:
                D = roster[s.index % len(roster)]
                hit = any(D.member(cur[:n]) for n in range(len(prev), len(cur) + 1))
                add(check, locus, hit, "no prefix of this stage lies in the dense set")
                if hit:
                    met[s.index % len(roster)] = True
        prev_p, prev_q = s.p, s.q

    add("footer.c1", "-", t.c1 == prev_p, "C1 differs from the last snapshot")
    add("footer.c2", "-", t.c2 == prev_q, "C2 differs from the last snapshot")
    add("coverage.roster1", "-", all(met1), f"unmet dense sets {[i for i, m in enumerate(met1) if not m]}")
    add("coverage.roster2", "-", all(met2), f"unmet dense sets {[i for i, m in enumerate(met2) if not m]}")

    j = 0
    bad = None
    for m, b in enumerate(t.c1):
        if b == 1:
            if m >= len(t.c2) or t.c2[m] != x.value(j):
                bad = m
                break
            j += 1
    add("ones_coded", "-" if bad is None else f"position {bad}", bad is None,
        "a 1-position of c1 does not carry the next target bit")
    if bad is None:
        decoded = decode_pair(t.c1, t.c2, j)
        add("decode", "-", decoded == x.values(j), "decode_pair disagrees with target")
    return VerificationReport(tuple(checks))
