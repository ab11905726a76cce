"""Prime enumeration with membership and index lookup.

The table `_primes` holds every prime up to its last entry, 8 bytes a
prime.  It grows by a segmented sieve of Eratosthenes over the odd
numbers: each segment is a bytearray of at most `_SEGMENT` bytes, struck
out by slice assignment, and reaches at most twice as far as the table
did, so the table always holds the primes up to its square root.  A
lookup past the table sieves on to a reach: n(ln n + ln ln n), the
standard bound on the n-th prime counted from 1, for `nth_prime(n - 1)`,
and 9z/8 for `prime_index(z)`, so an ascending sweep sieves each stretch
once.  Nothing is sieved at import.

`is_prime` answers from the table by bisection up to its last entry.
Above it, z is tried against the primes 2..41 and then by Miller-Rabin
with those 13 bases, which is exact below psi_13 =
3317044064679887385961981, the least strong pseudoprime to all of them
(Sorenson & Webster, Math. Comp. 2017).

Fuel: a lookup whose prime index is >= `fuel` raises FuelExhausted
before anything is sieved: `nth_prime(n)` for n >= fuel, and
`prime_index(z)` when z's index is.  So the table never grows past the
bound on the prime of index `fuel`.  `is_prime` above psi_13 that no
base divides raises too, since an exact answer would need the primes up
to sqrt(z), far past any fuel.  The rule reads only the index, so no
answer depends on what the table holds.

The table is single-threaded: two threads growing it at once can append
the same primes twice, after which `nth_prime` and `prime_index` answer
wrongly.
"""
from __future__ import annotations

import bisect
import itertools
import math
from array import array

from .errors import DEFAULT_FUEL, FuelExhausted

_primes = array("q", [2, 3])
_SEGMENT = 1 << 18
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASES_PRODUCT = math.prod(_BASES)
_PSI_13 = 3317044064679887385961981


def _nth_prime_bound(n: int) -> int:
    """An upper bound on the n-th prime, counted from 1."""
    if n < 6:
        return 13
    return int(n * (math.log(n) + math.log(math.log(n)))) + 1


def _sieve_until(done, reach: int) -> None:
    """Sieve one segment of odd numbers after another, none past
    `reach`, until `done()` holds."""
    while not done():
        lo = _primes[-1] + 2
        hi = min(2 * lo, lo + 2 * _SEGMENT, reach + 1)
        segment = bytearray(b"\x01") * ((hi - lo + 1) // 2)
        # the table reaches sqrt(hi), since hi <= 2 * (last prime + 2)
        for p in itertools.islice(_primes, 1, None):
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            start = (start + p * (start % 2 == 0) - lo) // 2
            segment[start::p] = bytes(len(range(start, len(segment), p)))
        _primes.extend(itertools.compress(range(lo, hi, 2), segment))


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
    if n >= len(_primes):
        _sieve_until(lambda: len(_primes) > n, _nth_prime_bound(n + 1))
    return _primes[n]


def is_prime(z: int) -> bool:
    """Whether z is prime: by the table up to its last entry, by
    Miller-Rabin above it."""
    if z <= _primes[-1]:
        i = bisect.bisect_left(_primes, z)
        return i < len(_primes) and _primes[i] == z
    if math.gcd(z, _BASES_PRODUCT) != 1:
        return z in _BASES
    if z >= _PSI_13:
        raise FuelExhausted(f"primality of {z} is past the Miller-Rabin bound psi_13")
    return _strong_probable_prime(z)


def prime_index(z: int, fuel: int = DEFAULT_FUEL) -> int:
    """Position of the prime z in the ascending enumeration of primes."""
    if not is_prime(z):
        raise ValueError(f"{z} is not prime")
    if z > _primes[-1]:
        cap = _nth_prime_bound(fuel + 1)
        if z > cap:
            raise FuelExhausted(f"the index of the prime {z} is past the fuel of {fuel}")
        _sieve_until(lambda: _primes[-1] >= z, min(z + z // 8, cap))
    i = bisect.bisect_left(_primes, z)
    if i >= fuel:
        raise FuelExhausted(f"the index {i} of the prime {z} is past the fuel of {fuel}")
    return i
