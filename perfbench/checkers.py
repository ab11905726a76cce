"""Output checks made apart from genco.

Nothing here imports genco.  Help-set membership and enumeration index
are recomputed for each kind (parity for evens, the 0/1 pattern for
explicit, a sieve for primes, prefix-code products for selfcode), labels
are the 2-adic valuation of index + 1, transcripts are read with a
parser of their own, and the dense-set tests are written out again.
Each check function returns a list of problems, empty when the output
is right.
"""

from __future__ import annotations

import bisect
import json

# a coded value above this is not checked by sieving; no workload comes near
PRIME_SIEVE_LIMIT = 50_000_000


class CheckError(Exception):
    pass


def label(index: int) -> int:
    """2-adic valuation of index + 1."""
    n = index + 1
    return (n & -n).bit_length() - 1


def seq_value(cfg: dict, n: int) -> int:
    prefix, cycle = cfg["prefix"], cfg["cycle"]
    return prefix[n] if n < len(prefix) else cycle[(n - len(prefix)) % len(cycle)]


class PrimeTable:
    """Primes below a limit that doubles on demand (Eratosthenes)."""

    def __init__(self):
        self.limit = 2
        self.primes: list[int] = []

    def _grow(self, n: int) -> None:
        if n < self.limit:
            return
        if n > PRIME_SIEVE_LIMIT:
            raise CheckError(f"value {n} is beyond the checker's sieve")
        limit = max(2 * self.limit, n + 1)
        flags = bytearray([1]) * limit
        flags[0:2] = b"\x00\x00"
        for p in range(2, int(limit ** 0.5) + 1):
            if flags[p]:
                flags[p * p::p] = bytes(len(range(p * p, limit, p)))
        self.primes = [i for i in range(limit) if flags[i]]
        self.limit = limit

    def is_prime(self, z: int) -> bool:
        self._grow(z)
        i = bisect.bisect_left(self.primes, z)
        return i < len(self.primes) and self.primes[i] == z

    def index(self, z: int) -> int:
        self._grow(z)
        return bisect.bisect_left(self.primes, z)

    def nth(self, n: int) -> int:
        while len(self.primes) <= n:
            self._grow(2 * self.limit)
        return self.primes[n]


class HelpSet:
    """Membership and enumeration index of a help set from its config."""

    def __init__(self, cfg: dict, primes: PrimeTable):
        self.kind = cfg["kind"]
        self.cfg = cfg
        self.primes = primes
        if self.kind == "explicit":
            self.prefix, self.cycle = cfg["prefix"], cfg["cycle"]
        elif self.kind == "selfcode":
            self.codes: list[int] = []
            self.code_index: dict[int, int] = {}
        elif self.kind not in ("evens", "primes"):
            raise CheckError(f"unknown help kind {self.kind!r}")

    def _codes_upto(self, z: int) -> None:
        # prefix codes grow strictly, so stop at the first code >= z
        while not self.codes or self.codes[-1] < z:
            n = len(self.codes)
            prev = self.codes[-1] if self.codes else 1
            code = prev * self.primes.nth(n) ** (seq_value(self.cfg["abar"], n) + 1)
            self.code_index[code] = n
            self.codes.append(code)

    def member(self, z: int) -> bool:
        if z < 0:
            return False
        if self.kind == "evens":
            return z % 2 == 0
        if self.kind == "primes":
            return self.primes.is_prime(z)
        if self.kind == "explicit":
            if z < len(self.prefix):
                return self.prefix[z] == 1
            return self.cycle[(z - len(self.prefix)) % len(self.cycle)] == 1
        self._codes_upto(z)
        return z in self.code_index

    def index(self, z: int) -> int:
        """Position of the member z in the ascending enumeration."""
        if self.kind == "evens":
            return z // 2
        if self.kind == "primes":
            return self.primes.index(z)
        if self.kind == "explicit":
            if z < len(self.prefix):
                return sum(self.prefix[:z])
            block, r = divmod(z - len(self.prefix), len(self.cycle))
            return sum(self.prefix) + block * sum(self.cycle) + sum(self.cycle[:r])
        self._codes_upto(z)
        return self.code_index[z]

    def label(self, z: int) -> int:
        return label(self.index(z))


# ---------------------------------------------------------------- coded runs

def _floor_value(floor: tuple, n: int) -> int:
    table, slope, intercept = floor
    return table[n] if n < len(table) else slope * n + intercept


def floor_dominates(f2: tuple | None, f1: tuple, base: int) -> bool:
    """f2(l) >= f1(l) at every level l >= base; a floor is (table, a, b).
    Past both tables and base the difference of two affine tails is
    monotone, so one more level and the slopes settle it."""
    if f2 is None:
        return False
    stop = max(len(f1[0]), len(f2[0]), base)
    if any(_floor_value(f2, n) < _floor_value(f1, n) for n in range(base, stop + 1)):
        return False
    return f2[1] >= f1[1]


def _parse_seq_body(body: str) -> list[int]:
    return [int(x) for x in body.split(",")] if body else []


def parse_condition_text(text: str) -> tuple[str, tuple | None]:
    """The stem's body text (no brackets) and the floor of a condition."""
    if not text.startswith("stem=[") or ";excl{" not in text:
        raise CheckError(f"bad condition {text[:60]!r}")
    stem_body = text[len("stem=["):text.index("];excl{")]
    floor_text = text[text.rindex(";floor(") + len(";floor("):]
    if floor_text == "-)":
        return stem_body, None
    try:
        table_text, rest = floor_text[len("table=["):].split("],a=", 1)
        slope_text, intercept_text = rest[:-1].split(",b=", 1)
        return stem_body, (tuple(_parse_seq_body(table_text)), int(slope_text), int(intercept_text))
    except ValueError as exc:
        raise CheckError(f"bad floor {floor_text!r}") from exc


def dense_member(cfg: dict, stem: list[int], floor: tuple | None) -> bool:
    """Is a condition with this stem and floor in the dense set?  For
    dominate, genco meets the set by raising the floor, so the
    floor must dominate from the stem's level on."""
    t = cfg["type"]
    if t == "stem_length":
        return len(stem) >= cfg["n"]
    if t == "stem_hits":
        return any(e >= cfg["k"] for e in stem)
    if t == "user_stems":
        return any(
            len(stem) >= p.get("min_len", 0)
            and all(sum(1 for e in stem if e >= h["k"]) >= h["count"] for h in p.get("hits", ()))
            for p in cfg["patterns"]
        )
    if t == "dominate":
        return floor_dominates(floor, (tuple(cfg["table"]), cfg["a"], cfg["b"]), len(stem))
    raise CheckError(f"unknown dense type {t!r}")


def check_coded(cfg: dict, text: str, primes: PrimeTable) -> list[str]:
    """A coded transcript against its config.

    * Lines are, per step i, MEET (i mod roster size) then CODE i, and
      every stem is a prefix of the footer g.
    * Each MEET condition is in its scheduled dense set, and the stem
      entries it added lie outside A.
    * Each CODE adds exactly its value z to the stem.
    * The labels read at the A-positions of g are the target prefix.
    """
    problems: list[str] = []
    A = HelpSet(cfg["help"], primes)
    roster, steps = cfg["dense"], cfg["steps"]
    lines = text.splitlines()
    if len(lines) < 5 or not lines[-1].startswith("G [") or not lines[3] == f"STEPS {steps}":
        return ["bad header or footer"]
    g_body = lines[-1][3:-1]
    g = _parse_seq_body(g_body)
    body = lines[4:-1]
    per_step = 2 if roster else 1
    if len(body) != per_step * steps:
        return [f"{len(body)} step lines for {steps} steps"]
    prev_len = 0
    for pos, line in enumerate(body):
        i = pos // per_step
        parts = line.split(" ")
        meet = roster and pos % per_step == 0
        want = ("MEET", str(i % len(roster))) if meet else ("CODE", str(i))
        if tuple(parts[:2]) != want:
            problems.append(f"line {pos + 5}: expected {' '.join(want)}")
            break
        stem_body, floor = parse_condition_text(parts[-1])
        n = stem_body.count(",") + 1 if stem_body else 0
        boundary = n in (0, len(g)) or g_body[len(stem_body)] == ","
        if not (g_body.startswith(stem_body) and boundary):
            problems.append(f"line {pos + 5}: stem is not a prefix of g")
            break
        if meet:
            if n < prev_len:
                problems.append(f"line {pos + 5}: stem shrank")
            elif any(A.member(z) for z in g[prev_len:n]):
                problems.append(f"line {pos + 5}: MEET added a member of A")
            if not dense_member(roster[i % len(roster)], g[:n], floor):
                problems.append(f"line {pos + 5}: not in dense set {i % len(roster)}")
        elif len(parts) != 4 or n != prev_len + 1 or g[n - 1] != int(parts[2]):
            problems.append(f"line {pos + 5}: CODE did not add exactly {parts[2]}")
        prev_len = n
    if prev_len != len(g):
        problems.append("footer g is longer than the last stem")
    labels = [A.label(z) for z in g if A.member(z)]
    want = [seq_value(cfg["target"], i) for i in range(steps)]
    if labels != want:
        problems.append(f"decoded labels {labels[:8]}... != target {want[:8]}...")
    return problems


# ---------------------------------------------------------------- cohen pairs

def cohen_met(cfg: dict, s: str, lo: int) -> bool:
    """Does some prefix s[:n] with lo <= n <= len(s) lie in the set?"""
    t = cfg["type"]
    if t == "min_len":
        return len(s) >= cfg["n"]
    w = cfg["w"]
    if t == "contains":
        return w in s  # containment only grows with n
    if t == "ends_with":
        # an occurrence of w ending at some n in [lo, len(s)]
        return s.find(w, max(0, lo - len(w))) >= 0
    raise CheckError(f"unknown cohen dense type {t!r}")


def check_pair(cfg: dict, text: str) -> list[str]:
    """A pair transcript against its config: snapshots extend each
    other at equal lengths, each stage meets its scheduled dense sets,
    the footers are the last snapshot, and c2 read at the 1-positions
    of c1 is the target."""
    problems: list[str] = []
    lines = text.splitlines()
    stages = cfg["stages"]
    if len(lines) != stages + 6 or lines[3] != f"STAGES {stages}":
        return ["bad header or stage count"]
    if json.loads(lines[2][len("TARGET "):]) != cfg["target"]:
        problems.append("TARGET header differs from the config")
    r1, r2 = cfg["dense"], cfg["dense2"]
    p = q = ""
    for i, line in enumerate(lines[4:-2]):
        parts = line.split(" ")
        if len(parts) != 6 or parts[:3] != ["STAGE", str(i), "P"] or parts[4] != "Q":
            return problems + [f"bad stage line {i}"]
        p2, q2 = ("" if b == "-" else b for b in (parts[3], parts[5]))
        if not (p2.startswith(p) and q2.startswith(q) and len(p2) == len(q2)):
            problems.append(f"stage {i}: snapshots do not extend at equal length")
        if r1 and not cohen_met(r1[i % len(r1)], p2, len(p)):
            problems.append(f"stage {i}: roster1 set {i % len(r1)} not met")
        if r2 and not cohen_met(r2[i % len(r2)], q2, len(q)):
            problems.append(f"stage {i}: roster2 set {i % len(r2)} not met")
        p, q = p2, q2
    c1 = lines[-2][len("C1 "):].replace("-", "")
    c2 = lines[-1][len("C2 "):].replace("-", "")
    if (c1, c2) != (p, q):
        problems.append("footers differ from the last snapshot")
    if len(c1) != len(c2):
        problems.append("c1 and c2 differ in length")
    decoded = [int(c2[m]) for m, b in enumerate(c1) if b == "1" and m < len(c2)]
    if decoded != [seq_value(cfg["target"], j) for j in range(len(decoded))]:
        problems.append("c2 at the 1-positions of c1 is not the target")
    if len(decoded) < stages:
        problems.append("fewer coded bits than stages")
    return problems
