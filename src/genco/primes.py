"""Incremental prime enumeration with membership and index lookup.

A single shared cache grows by trial division against already-known
primes.  The cache is single-threaded: two threads growing it at once can
append the same prime twice, after which `nth_prime` and the index
lookup answer wrongly.
"""

from __future__ import annotations

import bisect

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
