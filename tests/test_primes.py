"""The sieve-backed prime table against the trial-division oracle, the
Miller-Rabin bound, and the fuel rule on prime indices."""

from __future__ import annotations

import itertools
import random
import time
from array import array

import pytest

import oracles
from genco import FuelExhausted, primes

LIMIT = 2_000_000
WIDE = 10**6  # a fuel past every prime index below LIMIT


@pytest.fixture(scope="module")
def oracle_primes() -> list[int]:
    """Every prime below LIMIT, from the oracle's own table."""
    oracles.prime_index(1_999_993)  # grows the oracle's table to LIMIT
    return [p for p in oracles._primes if p < LIMIT]


@pytest.fixture(scope="module")
def random_values() -> list[tuple[int, bool]]:
    """10^4 seeded values below 10^12, each with the oracle's verdict."""
    rng = random.Random(20171)
    return [(z, oracles.is_prime(z)) for z in (rng.randrange(10**12) for _ in range(10**4))]


@pytest.fixture(params=["cold", "warm"])
def table(request, monkeypatch):
    """A fresh prime table, left cold or grown past LIMIT."""
    monkeypatch.setattr(primes, "_primes", array("q", [2, 3]))
    if request.param == "warm":
        primes.prime_index(1_999_993, WIDE)
    return request.param


def test_nth_prime_agrees_below_limit(table, oracle_primes):
    assert [primes.nth_prime(n, WIDE) for n in range(len(oracle_primes))] == oracle_primes


def test_prime_index_agrees_below_limit(table, oracle_primes):
    assert [primes.prime_index(p, WIDE) for p in oracle_primes] == list(range(len(oracle_primes)))


def test_is_prime_agrees_below_limit(table, oracle_primes):
    assert list(itertools.compress(range(LIMIT), map(primes.is_prime, range(LIMIT)))) == oracle_primes
    assert [primes.is_prime(z) for z in range(2000)] == [oracles.is_prime(z) for z in range(2000)]


def test_is_prime_agrees_on_random_values(table, random_values):
    assert sum(want for _, want in random_values) > 100
    assert [(z, primes.is_prime(z)) for z, _ in random_values] == random_values


def test_non_primes_have_no_index(table):
    for z in (0, 1, 4, 9, 561, 1_999_999):
        with pytest.raises(ValueError):
            primes.prime_index(z, WIDE)


@pytest.mark.parametrize(
    "z, passing",
    [
        (3215031751, 4),  # strong pseudoprime to 2, 3, 5, 7
        (3825123056546413051, 11),  # to the primes up to 31
        (318665857834031151167461, 12),  # psi_12: to the primes up to 37
    ],
)
def test_strong_pseudoprimes_are_composite(table, z, passing):
    bases = primes._BASES
    assert primes._strong_probable_prime(z, bases[:passing])
    assert not primes._strong_probable_prime(z, bases[passing : passing + 1])
    assert not primes.is_prime(z)


def test_psi_13_is_the_bound():
    assert primes._strong_probable_prime(primes._PSI_13)
    with pytest.raises(FuelExhausted):
        primes.is_prime(primes._PSI_13)
    assert not primes.is_prime(primes._PSI_13 + 1)  # even
    assert not primes.is_prime(41 * (primes._PSI_13 // 41 + 1))


def test_large_prime_is_quick():
    start = time.perf_counter()
    assert primes.is_prime(10**14 + 31)
    assert not primes.is_prime((10**14 + 31) * (10**6 + 3))
    assert time.perf_counter() - start < 0.1


class TestFuel:
    def test_nth_prime_past_fuel_sieves_nothing(self, table):
        assert primes.nth_prime(99, 100) == 541
        before = len(primes._primes)
        with pytest.raises(FuelExhausted, match="prime index 100 "):
            primes.nth_prime(100, 100)
        with pytest.raises(FuelExhausted, match=str(2**30 - 1)):
            primes.nth_prime(2**30 - 1)
        assert len(primes._primes) == before

    def test_prime_index_past_fuel(self, table):
        assert primes.prime_index(541, 100) == 99
        with pytest.raises(FuelExhausted, match="547"):
            primes.prime_index(547, 100)
        with pytest.raises(FuelExhausted, match=str(10**15 + 37)):
            primes.prime_index(10**15 + 37)

    def test_table_stays_within_the_fuel_bound(self, monkeypatch):
        monkeypatch.setattr(primes, "_primes", array("q", [2, 3]))
        with pytest.raises(FuelExhausted):
            primes.prime_index(10**15 + 37, 1000)
        assert primes._primes[-1] < 10
        primes.nth_prime(999, 1000)
        assert primes._primes[-1] <= primes._nth_prime_bound(1001)
