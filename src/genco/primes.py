"""Prime enumeration with membership and index lookup.

The table is the sieve itself: a bytearray with one byte per odd number
1, 3, 5, ... up to its reach, 1 for a prime.  Beside it are the count
of odd primes before each block of `_BLOCK` bytes, and the primes below
`_SMALL` as ints.  It grows by a segmented sieve of Eratosthenes: each
segment is a bytearray of at most `_SEGMENT` odd numbers, struck out by
slice assignment, and reaches at most twice as far as the table did, so
the table always holds the primes up to the segment's square root.  The
block counts of a grown table are filled by `bytearray.count`, so
growing makes Python ints only for the odd numbers up to that square
root and below `_SMALL`, not for every odd candidate.  A lookup past
the reach sieves on to a new reach: n(ln n + ln ln n), the standard
bound on the n-th prime counted from 1, for `nth_prime(n - 1)`, and
9z/8 for `prime_index(z)`, so an ascending sweep sieves each stretch
once.
Nothing is sieved at import.

Lookup costs, once the table reaches far enough:
- `is_prime(z)` at or below the reach reads one byte;
- `prime_index(z)` is a block count plus one `bytearray.count` over the
  part of z's block below z;
- `nth_prime(n)` indexes the small primes below `_SMALL`; above them it
  bisects the block counts and then finds the prime within one block.

Above the reach, `is_prime` tries z against the primes 2..41 and then
by Miller-Rabin with those 13 bases, which is exact below psi_13 =
3317044064679887385961981, the least strong pseudoprime to all of them
(Sorenson & Webster, Math. Comp. 2017).

Fuel: a lookup whose prime index is >= `fuel` raises FuelExhausted
before anything is sieved: `nth_prime(n)` for n >= fuel, and
`prime_index(z)` when z's index is.  So the table never reaches past
the bound on the prime of index `fuel`.  `is_prime` above psi_13 that
no base divides raises too, since an exact answer would need the primes
up to sqrt(z), far past any fuel.  The rule reads only the index, so no
answer depends on what the table holds.

The table is single-threaded: two threads growing it at once can append
the same segment twice, after which every lookup past it answers
wrongly.
"""
from __future__ import annotations

import bisect
import itertools
import math
from array import array

from .errors import DEFAULT_FUEL, FuelExhausted

_SEGMENT = 1 << 18
_BLOCK = 1 << 8
_SMALL = 1 << 11
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASES_PRODUCT = math.prod(_BASES)
_PSI_13 = 3317044064679887385961981


class _Table:
    """The primes up to `reach`: `odd[i]` is 1 when 2i + 1 is prime,
    `counts[b]` is the number of 1s in `odd[:b * _BLOCK]` for b up to
    the number of whole blocks, `small` holds the primes below `_SMALL`
    up to the reach, and `count` is the number of primes up to the
    reach, 2 included."""

    def __init__(self):
        self.odd = bytearray(b"\x00\x01")
        self.reach = 3
        self.counts = [0]
        self.small = array("q", [2, 3])
        self.count = 2

    def sieve_until(self, done, reach: int) -> None:
        """Sieve one segment of odd numbers after another, none past
        `reach`, until `done()` holds."""
        odd, counts = self.odd, self.counts
        while not done():
            lo = self.reach + 2
            hi = min(2 * lo, lo + 2 * _SEGMENT, reach + 1)
            segment = bytearray(b"\x01") * ((hi - lo + 1) // 2)
            # the table reaches sqrt(hi), since hi <= 2 * lo
            root = math.isqrt(hi - 1)
            for p in itertools.compress(range(3, root + 1, 2), odd[1 : (root + 1) // 2]):
                start = max(p * p, -(-lo // p) * p)
                start = (start + p * (start % 2 == 0) - lo) // 2
                segment[start::p] = bytes(len(range(start, len(segment), p)))
            if lo < _SMALL:
                self.small.extend(itertools.compress(range(lo, min(hi, _SMALL), 2), segment))
            odd += segment
            self.reach = 2 * len(odd) - 1
            self.count += segment.count(1)
            starts = range((len(counts) - 1) * _BLOCK, len(odd) - _BLOCK + 1, _BLOCK)
            blocks = map(odd.count, itertools.repeat(1), starts, itertools.count(starts.start + _BLOCK, _BLOCK))
            counts[-1:] = itertools.accumulate(blocks, initial=counts[-1])


_table = _Table()


def _nth_prime_bound(n: int) -> int:
    """An upper bound on the n-th prime, counted from 1."""
    if n < 6:
        return 13
    return int(n * (math.log(n) + math.log(math.log(n)))) + 1


def _strong_probable_prime(z: int, bases=_BASES) -> bool:
    """Miller-Rabin: whether the odd z > 41 passes every base."""
    d = z - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, z)
        if x == 1 or x == z - 1:
            continue
        for _ in range(s - 1):
            x = x * x % z
            if x == z - 1:
                break
        else:
            return False
    return True


def nth_prime(n: int, fuel: int = DEFAULT_FUEL) -> int:
    """The n-th prime, 0-indexed: nth_prime(0) = 2."""
    if n < 0:
        raise ValueError("prime index must be a natural")
    if n >= fuel:
        raise FuelExhausted(f"prime index {n} is past the fuel of {fuel}")
    table = _table
    if n >= table.count:
        table.sieve_until(lambda: table.count > n, _nth_prime_bound(n + 1))
    if n < len(table.small):
        return table.small[n]
    # the odd prime with n - 1 odd primes before it
    b = bisect.bisect_right(table.counts, n - 1) - 1
    i = b * _BLOCK - 1
    for _ in range(n - table.counts[b]):
        i = table.odd.find(1, i + 1)
    return 2 * i + 1


def is_prime(z: int) -> bool:
    """Whether z is prime: by the table up to its reach, by Miller-Rabin
    above it."""
    if z <= 2:
        return z == 2
    if z <= _table.reach:
        return z & 1 == 1 and _table.odd[z >> 1] == 1
    if math.gcd(z, _BASES_PRODUCT) != 1:
        return z in _BASES
    if z >= _PSI_13:
        raise FuelExhausted(f"primality of {z} is past the Miller-Rabin bound psi_13")
    return _strong_probable_prime(z)


def prime_index(z: int, fuel: int = DEFAULT_FUEL) -> int:
    """Position of the prime z in the ascending enumeration of primes."""
    if not is_prime(z):
        raise ValueError(f"{z} is not prime")
    table = _table
    if z > table.reach:
        cap = _nth_prime_bound(fuel + 1)
        if z > cap:
            raise FuelExhausted(f"the index of the prime {z} is past the fuel of {fuel}")
        table.sieve_until(lambda: table.reach >= z, min(z + z // 8, cap))
    if z == 2:
        i = 0
    else:
        # 2, then the odd primes below z: a block count and the rest of its block
        b = (z >> 1) // _BLOCK
        i = 1 + table.counts[b] + table.odd.count(1, b * _BLOCK, z >> 1)
    if i >= fuel:
        raise FuelExhausted(f"the index {i} of the prime {z} is past the fuel of {fuel}")
    return i
