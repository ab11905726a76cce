"""The tests' differential oracles.

`extends_bounded` searches a bounded universe exhaustively for a node
in T2 but not in T1.  The library decides `extends` exactly; the suites
check that the oracle never finds such a node where `extends` says YES.

`write_transcript`, `parse_transcript`, `write_pair_transcript` and
`parse_pair_transcript` are the transcript codec before incremental
rendering and parsing: every line is rendered and parsed in full.  The
library's codec must agree with them byte for byte, value for value and
error message for error message.

`render_bits`, `parse_bits`, `decode_pair` and `verify_pair` are the
pair code from when a bit string was a tuple of ints; `cohen_member`
holds the membership tests of the built-in cohen dense sets from then.
The pair oracles read and return such tuples; `pair_as_tuples` converts
a library `PairTranscript`, whose strings are bytes, for them.

`nth_prime`, `is_prime` and `prime_index` are the prime table before the
sieve: it grows one trial division at a time, in a table of its own.
`selfcode_digits` is `SelfCode`'s membership test before the code-cache
lookup: it factors z with `decode_prefix_code`.  The library must give
the same answers.
"""

from __future__ import annotations

import bisect

from genco.coding import SelfCode, decode_prefix_code
from genco.cohenpair import PairStage, PairTranscript
from genco.generic import CheckResult, VerificationReport
from genco.conditions import (
    HechlerCondition,
    Node,
    _contains,
    _floor_at,
    is_prefix,
    parse_condition,
    render_condition,
)
from genco.errors import MalformedCodeElement, MalformedTranscript
from genco.generic import CODE, MEET, RunTranscript, TranscriptEntry
from genco.serialize import canonical_json, parse_seq, render_seq, roster_hash


def extends_bounded(
    T2: HechlerCondition, T1: HechlerCondition, depth: int, width: int
) -> Node | None:
    """First node (depth-first preorder, ascending steps) of length <=
    depth with entries <= width lying in T2 but not in T1; None if the
    bounded universe is consistent with T2 <= T1.

    Exact over the bounded universe: subtrees where both conditions are
    atom-free and T2's floor dominates T1's are skipped wholesale.
    """
    s2 = T2.stem

    def t1_admits(u: Node) -> bool:
        v, z = u[:-1], u[-1]
        if is_prefix(u, T1.stem):
            return True
        if not is_prefix(T1.stem, u):
            return False
        return T1.admits_step(v, z)

    def subtree_included(v: Node) -> bool:
        # sound prune: below v both trees are atom-free on the T1 side
        # and T2's floor admits only steps T1's floor admits too
        if not (is_prefix(s2, v) and is_prefix(T1.stem, v)):
            return False
        if any(is_prefix(v, k) for k, _ in T1.exclusions):
            return False
        return all(
            _floor_at(T2.floor, n) >= _floor_at(T1.floor, n)
            for n in range(len(v), depth)
        )

    def dfs(v: Node) -> Node | None:
        if len(v) >= depth or subtree_included(v):
            return None
        for z in (z for z in range(width + 1) if T2.admits_step(v, z)):
            u = v + (z,)
            if not t1_admits(u):
                return u
            found = dfs(u)
            if found is not None:
                return found
        return None

    # prefixes of the stem come first in preorder along the unique path
    for i in range(min(len(s2), depth) + 1):
        u = s2[:i]
        if any(e > width for e in u):
            return None
        if not _contains(T1, u):
            return u
    if len(s2) > depth or any(e > width for e in s2):
        return None
    return dfs(s2)


def write_transcript(t: RunTranscript) -> str:
    lines = [
        f"ROSTER {t.roster_hash}",
        f"HELP {canonical_json(t.help_config) if t.help_config is not None else 'null'}",
        f"TARGET {canonical_json(t.target_config) if t.target_config is not None else 'null'}",
        f"STEPS {t.steps}",
    ]
    for e in t.entries:
        if e.kind == MEET:
            lines.append(f"MEET {e.index} {render_condition(e.condition)}")
        else:
            lines.append(f"CODE {e.index} {e.z} {render_condition(e.condition)}")
    lines.append(f"G {render_seq(t.g_prefix)}")
    return "\n".join(lines) + "\n"


def parse_transcript(text: str) -> RunTranscript:
    import json

    lines = text.splitlines()
    if len(lines) < 5:
        raise MalformedTranscript("transcript too short")

    def header(idx: int, tag: str) -> str:
        if not lines[idx].startswith(tag + " "):
            raise MalformedTranscript(f"expected {tag} on line {idx + 1}")
        return lines[idx][len(tag) + 1 :]

    rhash = header(0, "ROSTER")
    help_text = header(1, "HELP")
    target_text = header(2, "TARGET")
    steps_text = header(3, "STEPS")
    try:
        help_cfg = None if help_text == "null" else json.loads(help_text)
        target_cfg = None if target_text == "null" else json.loads(target_text)
        steps = int(steps_text)
    except ValueError as exc:
        raise MalformedTranscript(f"bad header: {exc}") from exc
    entries: list[TranscriptEntry] = []
    if not lines[-1].startswith("G "):
        raise MalformedTranscript("missing footer")
    try:
        g = parse_seq(lines[-1][2:])
        for i, line in enumerate(lines[4:-1], start=5):
            parts = line.split(" ")
            if parts[0] == MEET and len(parts) == 3:
                entries.append(
                    TranscriptEntry(MEET, int(parts[1]), parse_condition(parts[2]))
                )
            elif parts[0] == CODE and len(parts) == 4:
                entries.append(
                    TranscriptEntry(
                        CODE, int(parts[1]), parse_condition(parts[3]), z=int(parts[2])
                    )
                )
            else:
                raise MalformedTranscript(f"bad step on line {i}")
    except ValueError as exc:
        raise MalformedTranscript(f"bad step line: {exc}") from exc
    return RunTranscript(rhash, help_cfg, target_cfg, steps, tuple(entries), g)


def write_pair_transcript(t: PairTranscript) -> str:
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
    import json

    lines = text.splitlines()
    if len(lines) < 6:
        raise MalformedTranscript("pair transcript too short")

    def header(idx: int, tag: str) -> str:
        if not lines[idx].startswith(tag + " "):
            raise MalformedTranscript(f"expected {tag} on line {idx + 1}")
        return lines[idx][len(tag) + 1 :]

    try:
        h1, h2 = header(0, "ROSTER1"), header(1, "ROSTER2")
        target = json.loads(header(2, "TARGET"))
        stages = int(header(3, "STAGES"))
        snaps = []
        for line in lines[4:-2]:
            parts = line.split(" ")
            if len(parts) != 6 or parts[0] != "STAGE" or parts[2] != "P" or parts[4] != "Q":
                raise MalformedTranscript(f"bad stage line: {line!r}")
            snaps.append(PairStage(int(parts[1]), parse_bits(parts[3]), parse_bits(parts[5])))
        c1 = parse_bits(header(len(lines) - 2, "C1"))
        c2 = parse_bits(header(len(lines) - 1, "C2"))
    except ValueError as exc:
        raise MalformedTranscript(str(exc)) from exc
    return PairTranscript(h1, h2, target, stages, tuple(snaps), c1, c2)


_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_TEXT_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def render_bits(bits) -> str:
    """Render a 0/1 sequence as a compact string; ``-`` when empty."""
    if not bits:
        return "-"
    return bytes(bits).translate(_BITS_TO_TEXT).decode("ascii")


def parse_bits(text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    if not text or text.strip("01"):
        raise ValueError(f"bad bit string {text!r}")
    return tuple(text.encode("ascii").translate(_TEXT_TO_BITS))


def pair_as_tuples(t: PairTranscript) -> PairTranscript:
    """`t` with every string a tuple of ints."""
    snaps = tuple(PairStage(s.index, tuple(s.p), tuple(s.q)) for s in t.snapshots)
    return PairTranscript(
        t.roster1_hash, t.roster2_hash, t.target_config, t.stages, snaps, tuple(t.c1), tuple(t.c2)
    )


def cohen_member(D, p: tuple[int, ...]) -> bool:
    """Whether the tuple p lies in the built-in cohen dense set D."""
    cfg = D.config()
    if cfg["type"] == "min_len":
        return len(p) >= cfg["n"]
    w = parse_bits(cfg["w"])
    if cfg["type"] == "contains":
        n = len(w)
        return any(p[i : i + n] == w for i in range(len(p) - n + 1))
    return len(p) >= len(w) and p[-len(w):] == w


def decode_pair(c1, c2, count: int) -> tuple[int, ...]:
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


def verify_pair(roster1, roster2, x, t: PairTranscript) -> VerificationReport:
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
    prev_p: tuple[int, ...] = ()
    prev_q: tuple[int, ...] = ()
    for s in t.snapshots:
        locus = f"stage {s.index}"
        chain = (
            s.p[: len(prev_p)] == prev_p
            and s.q[: len(prev_q)] == prev_q
            and len(s.p) == len(s.q)
        )
        add("chain", locus, chain, "snapshots not extensions of equal length")
        if roster1:
            D = roster1[s.index % len(roster1)]
            hit = any(
                cohen_member(D, s.p[:n]) for n in range(len(prev_p), len(s.p) + 1)
            )
            add("meet1", locus, hit, "no prefix of this stage lies in the dense set")
            if hit:
                met1[s.index % len(roster1)] = True
        if roster2:
            D = roster2[s.index % len(roster2)]
            hit = any(
                cohen_member(D, s.q[:n]) for n in range(len(prev_q), len(s.q) + 1)
            )
            add("meet2", locus, hit, "no prefix of this stage lies in the dense set")
            if hit:
                met2[s.index % len(roster2)] = True
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


_primes: list[int] = [2, 3, 5, 7, 11, 13]


def _is_prime_trial(candidate: int, known: list[int]) -> bool:
    for p in known:
        if p * p > candidate:
            return True
        if candidate % p == 0:
            return False
    raise AssertionError("prime cache too short for candidate")


def _grow_until(pred) -> None:
    while not pred(_primes):
        candidate = _primes[-1] + 2
        while not _is_prime_trial(candidate, _primes):
            candidate += 2
        _primes.append(candidate)


def nth_prime(n: int) -> int:
    """The n-th prime, 0-indexed: nth_prime(0) = 2."""
    if n < 0:
        raise ValueError("prime index must be a natural")
    _grow_until(lambda ps: len(ps) > n)
    return _primes[n]


def is_prime(z: int) -> bool:
    if z < 2:
        return False
    _grow_until(lambda ps: ps[-1] * ps[-1] >= z)
    for p in _primes:
        if p * p > z:
            return True
        if z % p == 0:
            return z == p
    return True


def prime_index(z: int) -> int:
    """Position of the prime z in the ascending enumeration of primes."""
    if not is_prime(z):
        raise ValueError(f"{z} is not prime")
    _grow_until(lambda ps: ps[-1] >= z)
    return bisect.bisect_left(_primes, z)


def selfcode_digits(A: SelfCode, z: int) -> tuple[int, ...] | None:
    """The decoded digits of z if z is a member of A, else None."""
    try:
        digits = decode_prefix_code(z)
    except MalformedCodeElement:
        return None
    return digits if digits == A.abar.values(len(digits)) else None
