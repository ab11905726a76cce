"""Help sets and the positional codec they induce.

A help set A is an infinite, co-infinite set of naturals with a
decidable membership test and a strictly increasing enumeration e_A.
Fixing theta(n) = 2-adic valuation of n+1 (every fiber of theta is
infinite), each member z of A carries the label

    eta(A, z) = theta(position of z in the enumeration of A),

and every label m is carried by infinitely many members.  A sequence g
then encodes the sequence of labels read off at the positions where g
lands in A; `decode` extracts it using only membership tests and
enumeration indices.
"""

from __future__ import annotations

import bisect
import itertools
import math

from . import primes
from .errors import DEFAULT_FUEL, ConfigError, FuelExhausted, MalformedCodeElement
from .frozen import Frozen
from .serialize import build_at, check_keys, nat_list, printable, str_digit_limit


def theta(n: int) -> int:
    """2-adic valuation of n+1; each fiber theta^-1(m) is infinite."""
    if n < 0:
        raise ValueError("theta is defined on naturals")
    return ((n + 1) & -(n + 1)).bit_length() - 1


def theta_fiber(m: int, k: int) -> int:
    """k-th element (ascending) of theta^-1(m): (2k+1)*2^m - 1."""
    if m < 0 or k < 0:
        raise ValueError("fiber coordinates must be naturals")
    return (2 * k + 1) * (1 << m) - 1


class EventuallyPeriodicSeq(Frozen):
    """Total sequence of naturals: finite prefix, then a repeating cycle."""

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: tuple[int, ...] = (), cycle: tuple[int, ...] = (0,)):
        prefix = tuple(int(x) for x in prefix)
        cycle = tuple(int(x) for x in cycle)
        if not cycle:
            raise ValueError("cycle must be nonempty")
        if any(x < 0 for x in prefix + cycle):
            raise ValueError("sequence entries must be naturals")
        self._set(prefix, cycle)

    def value(self, n: int) -> int:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.cycle[(n - len(self.prefix)) % len(self.cycle)]

    def values(self, n: int) -> tuple[int, ...]:
        """`(value(0), ..., value(n - 1))`, cut from the prefix and whole
        and partial cycles; `()` for n <= 0."""
        k, r = divmod(max(n - len(self.prefix), 0), len(self.cycle))
        return self.prefix[: max(n, 0)] + self.cycle * k + self.cycle[:r]

    def config(self) -> dict:
        return {"prefix": list(self.prefix), "cycle": list(self.cycle)}

    @classmethod
    def from_config(cls, cfg, path: str = "target", bits: bool = False) -> "EventuallyPeriodicSeq":
        """Strict inverse of `config`; with `bits`, entries must be 0/1."""
        check_keys(cfg, path, ("prefix", "cycle"))
        prefix = nat_list(cfg["prefix"], f"{path}.prefix", bits=bits)
        cycle = nat_list(cfg["cycle"], f"{path}.cycle", nonempty=True, bits=bits)
        return cls(tuple(prefix), tuple(cycle))


def prefix_code(entries) -> int:
    """Product of nth_prime(i) ** (entries[i] + 1); strictly increasing
    along prefix extension, so a single large element determines every
    shorter prefix."""
    return math.prod(primes.nth_prime(i) ** (a + 1) for i, a in enumerate(entries))


def decode_prefix_code(z: int) -> tuple[int, ...]:
    """Invert prefix_code; raises MalformedCodeElement on gaps."""
    if z < 2:
        raise MalformedCodeElement(z)
    digits = []
    for i in itertools.count():
        p = primes.nth_prime(i)
        e = 0
        while z % p == 0:
            z //= p
            e += 1
        if e == 0:
            raise MalformedCodeElement(z)
        digits.append(e - 1)
        if z == 1:
            break
    return tuple(digits)


class HelpSet:
    """Infinite, co-infinite subset of the naturals.

    Subclasses provide member / enumerate / index_of / config; the
    enumeration is strictly increasing with index_of its inverse.  The
    `fuel` of enumerate and index_of bounds the prime indices they may
    reach (see `primes`).
    """

    def member(self, z: int) -> bool:
        raise NotImplementedError

    def enumerate(self, n: int, fuel: int = DEFAULT_FUEL) -> int:
        raise NotImplementedError

    def index_of(self, z: int, fuel: int = DEFAULT_FUEL) -> int:
        raise NotImplementedError

    def config(self) -> dict:
        raise NotImplementedError


class Primes(HelpSet):
    def member(self, z: int) -> bool:
        return primes.is_prime(z)

    def enumerate(self, n: int, fuel: int = DEFAULT_FUEL) -> int:
        return primes.nth_prime(n, fuel)

    def index_of(self, z: int, fuel: int = DEFAULT_FUEL) -> int:
        return primes.prime_index(z, fuel)

    def config(self) -> dict:
        return {"kind": "primes"}


def _check_prime_index(n: int, fuel: int) -> None:
    """Element n of a self-coding set is a product over the primes of
    index 0..n, so it reads the prime of index n: past the fuel, raise as
    `primes.nth_prime` does, whatever the caches hold."""
    if n >= fuel:
        raise FuelExhausted(f"prime index {n} is past the fuel of {fuel}")


class SelfCode(HelpSet):
    """The set of prefix codes of a fixed sequence abar: element n is
    prefix_code(abar restricted to n+1 entries).  Any infinite subset
    recovers abar, hence the whole set.

    Membership and index are a lookup in the cache of codes: it grows
    while its last code is below z, and bisection finds z among the
    codes or not.  Each code is the one before times a prime power, so
    at least twice it, and a lookup grows at most z.bit_length() codes.
    By unique factorisation this agrees with decoding z and comparing
    its digits with abar.  A lookup adds no code whose prime power alone
    exceeds 10 z.  `enumerate` adds no code past the first that str(int)
    cannot print, and multiplies out larger elements without keeping
    them.  Before it takes each prime power it adds the power's log10 to
    that of the code so far: an element past both the digit limit of
    str(int) and `fuel` digits raises FuelExhausted, and no such power is
    taken.  Element n reads the prime of index n, so `enumerate` and
    `index_of` raise FuelExhausted for n >= `fuel`, as the primes help
    set does, cached or not.  The cache, like the prime table it reads,
    is single-threaded: do not share one instance, or help sets backed
    by primes, between threads."""

    def __init__(self, abar: EventuallyPeriodicSeq):
        self.abar = abar
        # the code of every prefix of abar so far, from the empty one
        self._codes: list[int] = [1]

    def _factor(self, k: int, fuel: int = DEFAULT_FUEL) -> tuple[int, int]:
        """The prime and exponent that code k adds to code k-1."""
        return primes.nth_prime(k, fuel), self.abar.value(k) + 1

    def _position(self, z: int) -> int | None:
        """The index of z among the codes, or None if z is none of them."""
        if z < 2:
            return None
        codes = self._codes
        while codes[-1] < z:
            p, e = self._factor(len(codes) - 1)
            if e * math.log10(p) > math.log10(z) + 1:
                return None  # z lies between the last code and the next
            codes.append(codes[-1] * p**e)
        i = bisect.bisect_left(codes, z, 1)
        return i - 1 if codes[i] == z else None

    def member(self, z: int) -> bool:
        return self._position(z) is not None

    def enumerate(self, n: int, fuel: int = DEFAULT_FUEL) -> int:
        _check_prime_index(n, fuel)
        codes = self._codes
        if n + 1 < len(codes):
            return codes[n + 1]
        limit = str_digit_limit()
        cap = max(limit, fuel)
        code = codes[-1]
        log10_code = math.log10(code)
        for k in range(len(codes) - 1, n + 1):
            p, e = self._factor(k, fuel)
            log10_code += e * math.log10(p)
            if log10_code > cap + 1:
                raise FuelExhausted(
                    f"selfcode element {n} has more than {cap} digits, past both the "
                    f"fuel and the {limit}-digit limit of str(int)"
                )
            code *= p**e
            if len(codes) == k + 1 and printable(codes[-1]):
                codes.append(code)
        return code

    def index_of(self, z: int, fuel: int = DEFAULT_FUEL) -> int:
        n = self._position(z)
        if n is None:
            raise ValueError(f"{z} is not a member")
        _check_prime_index(n, fuel)
        return n

    def config(self) -> dict:
        return {"kind": "selfcode", "abar": self.abar.config()}


class ExplicitPeriodic(HelpSet):
    """Membership given by an eventually periodic 0/1 pattern over the
    naturals; the cycle must contain a 1 (infinite) and a 0 (co-infinite)."""

    def __init__(self, prefix, cycle):
        self.pattern = EventuallyPeriodicSeq(prefix, cycle)
        self.prefix, self.cycle = self.pattern.prefix, self.pattern.cycle
        if any(b > 1 for b in self.prefix + self.cycle):
            raise ValueError("membership pattern must be 0/1 valued")
        if 1 not in self.cycle:
            raise ValueError("pattern describes a finite set")
        if 0 not in self.cycle:
            raise ValueError("pattern describes a cofinite set")
        self._prefix_ones = [i for i, b in enumerate(self.prefix) if b]
        self._cycle_ones = [i for i, b in enumerate(self.cycle) if b]

    def member(self, z: int) -> bool:
        return z >= 0 and self.pattern.value(z) == 1

    def enumerate(self, n: int, fuel: int = DEFAULT_FUEL) -> int:
        if n < len(self._prefix_ones):
            return self._prefix_ones[n]
        m = n - len(self._prefix_ones)
        block, r = divmod(m, len(self._cycle_ones))
        return len(self.prefix) + block * len(self.cycle) + self._cycle_ones[r]

    def index_of(self, z: int, fuel: int = DEFAULT_FUEL) -> int:
        if not self.member(z):
            raise ValueError(f"{z} is not a member")
        if z < len(self.prefix):
            return sum(self.prefix[:z])
        m = z - len(self.prefix)
        block, r = divmod(m, len(self.cycle))
        return (
            len(self._prefix_ones)
            + block * len(self._cycle_ones)
            + sum(self.cycle[:r])
        )

    def config(self) -> dict:
        return {"kind": "explicit", "prefix": list(self.prefix), "cycle": list(self.cycle)}


class Evens(ExplicitPeriodic):
    """The even naturals: the membership pattern [1,0]."""

    def __init__(self):
        super().__init__((), (1, 0))

    def config(self) -> dict:
        return {"kind": "evens"}


def help_set_from_config(cfg, path: str = "help") -> HelpSet:
    """Strict inverse of `HelpSet.config`; raises ConfigError at the
    offending field."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(path, "expected a help-set object with a kind")
    kind = cfg["kind"]
    if kind in ("evens", "primes"):
        check_keys(cfg, path, ("kind",))
        return Evens() if kind == "evens" else Primes()
    if kind == "selfcode":
        check_keys(cfg, path, ("kind", "abar"))
        return SelfCode(EventuallyPeriodicSeq.from_config(cfg["abar"], f"{path}.abar"))
    if kind == "explicit":
        check_keys(cfg, path, ("kind", "prefix", "cycle"))
        prefix = nat_list(cfg["prefix"], f"{path}.prefix", bits=True)
        cycle = nat_list(cfg["cycle"], f"{path}.cycle", nonempty=True, bits=True)
        return build_at(f"{path}.cycle", ExplicitPeriodic, prefix, cycle)
    raise ConfigError(f"{path}.kind", f"unknown help set kind {kind!r}")


def eta(A: HelpSet, z: int, fuel: int = DEFAULT_FUEL) -> int:
    """Label of the member z: theta of its enumeration index."""
    return theta(A.index_of(z, fuel))


def eta_fiber_element(A: HelpSet, m: int, k: int, fuel: int = DEFAULT_FUEL) -> int:
    """k-th smallest member of A carrying label m."""
    return A.enumerate(theta_fiber(m, k), fuel)


def selfcode_element(abar: EventuallyPeriodicSeq, n: int) -> int:
    """n-th element (ascending) of the self-coding set of abar."""
    return prefix_code(abar.values(n + 1))


def recover_from_subset(elements, n: int, fuel: int = DEFAULT_FUEL) -> tuple[int, ...]:
    """Read off the first n entries of abar from any infinite subset of
    its self-coding set: the first element whose code length reaches n
    settles the answer.  Malformed elements are reported with the value;
    a stalling stream exhausts the fuel; a negative n is a ValueError."""
    if n < 0:
        raise ValueError(f"entry count {n} is negative")
    if n == 0:
        return ()
    for z in itertools.islice(elements, max(fuel, 0)):
        digits = decode_prefix_code(z)
        if len(digits) >= n:
            return digits[:n]
    raise FuelExhausted(f"no element of code length >= {n} within {fuel} reads")


def decode(A: HelpSet, g, fuel: int = DEFAULT_FUEL) -> tuple[int, ...]:
    """Labels of g's entries that land in A, in positional order.

    Uses only membership tests and enumeration indices of A, plus the
    values of g.  A prefix with no hits decodes to the empty sequence.
    """
    return tuple(eta(A, z, fuel) for z in g if A.member(z))


def difference_prefix(B, A, count: int, fuel: int = DEFAULT_FUEL) -> list[int]:
    """First `count` elements of B - A, scanning at most the first `fuel`
    elements of B's enumeration; each lookup in B gets the same fuel."""
    elements = (B.enumerate(i, fuel) for i in range(fuel))
    outside = (z for z in elements if not A.member(z))
    out = list(itertools.islice(outside, max(count, 0)))
    if len(out) >= count:
        return out
    raise FuelExhausted(f"found {len(out)}/{count} elements outside A within {fuel} probes")

