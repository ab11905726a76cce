"""The sieve-backed prime table against the trial-division oracle, the
Miller-Rabin bound, and the fuel rule on prime indices."""

from __future__ import annotations

import bisect
import itertools
import random
import time

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
    """A fresh prime table, left cold (nothing sieved) or grown past LIMIT."""
    monkeypatch.setattr(primes, "_table", primes._Table())
    if request.param == "warm":
        primes.prime_index(1_999_993, WIDE)
        assert primes._table.reach > LIMIT
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
        before = (primes._table.reach, primes._table.count)
        with pytest.raises(FuelExhausted, match="prime index 100 "):
            primes.nth_prime(100, 100)
        with pytest.raises(FuelExhausted, match=str(2**30 - 1)):
            primes.nth_prime(2**30 - 1)
        assert (primes._table.reach, primes._table.count) == before

    def test_prime_index_past_fuel(self, table):
        assert primes.prime_index(541, 100) == 99
        with pytest.raises(FuelExhausted, match="547"):
            primes.prime_index(547, 100)
        with pytest.raises(FuelExhausted, match=str(10**15 + 37)):
            primes.prime_index(10**15 + 37)

    def test_table_stays_within_the_fuel_bound(self, monkeypatch):
        monkeypatch.setattr(primes, "_table", primes._Table())
        with pytest.raises(FuelExhausted):
            primes.prime_index(10**15 + 37, 1000)
        assert primes._table.reach < 10
        primes.nth_prime(999, 1000)
        assert primes._table.reach <= primes._nth_prime_bound(1001)


def _around(k: int) -> range:
    """Prime indices on both sides of index k."""
    return range(max(0, k - 3), k + 3)


def test_mixed_lookups_agree_from_a_cold_table(monkeypatch):
    """A seeded mix of lookups on a table grown piecemeal, against the
    oracle, with prime indices on both sides of the end of the small
    primes, of a block and of a segment."""
    table = primes._Table()
    monkeypatch.setattr(primes, "_table", table)
    z = oracles.nth_prime(30_000)
    assert primes.prime_index(z, WIDE) == 30_000  # sieves on to at most 9z/8
    edge = table.reach  # the end of a segment
    assert z <= edge <= z + z // 8
    primes.nth_prime(60_000, WIDE)
    assert table.reach > edge

    oracles.nth_prime(60_001)

    def below(x: int) -> int:
        """The number of primes below x."""
        return bisect.bisect_left(oracles._primes, x)

    block_edge = 2 * (len(table.counts) // 2) * primes._BLOCK + 1
    indices = [*_around(len(table.small)), *_around(below(block_edge)), *_around(below(edge + 1))]
    assert below(primes._SMALL) == len(table.small)
    rng = random.Random(24)
    indices += [rng.randrange(60_001) for _ in range(300)]
    values = [oracles.nth_prime(n) for n in indices]
    values += [v + d for v in (primes._SMALL, block_edge, edge) for d in range(-4, 5)]
    values += [rng.randrange(table.reach + 10**4) for _ in range(300)]
    queries = [("nth", n) for n in indices] + [("index", v) for v in values] + [("is", v) for v in values]
    rng.shuffle(queries)

    for kind, x in queries:
        if kind == "nth":
            assert primes.nth_prime(x, WIDE) == oracles.nth_prime(x), x
        elif kind == "is":
            assert primes.is_prime(x) == oracles.is_prime(x), x
        elif oracles.is_prime(x):
            assert primes.prime_index(x, WIDE) == oracles.prime_index(x), x
        else:
            with pytest.raises(ValueError, match="is not prime"):
                primes.prime_index(x, WIDE)


class TestByteLookup:
    @pytest.mark.parametrize("z", [-7, -2, -1, 0, 1, 2, 3, 4])
    def test_small_values(self, table, z):
        assert primes.is_prime(z) == oracles.is_prime(z)

    def test_negative_values_read_no_byte(self, monkeypatch):
        """Every byte of the table, read from its end, would be some
        negative odd z's; none is prime."""
        monkeypatch.setattr(primes, "_table", primes._Table())
        primes.nth_prime(100)
        assert not any(primes.is_prime(z) for z in range(-2 * primes._table.reach - 4, 0))

    @pytest.mark.parametrize("reach", [5, 7, 37, 39, 41, 43, 1017, 1019, 2047, 2049, 2053, 4095, 4097, 10_007])
    def test_values_at_the_reach(self, monkeypatch, reach):
        """At the reach the byte answers; past it, Miller-Rabin does."""
        table = primes._Table()
        monkeypatch.setattr(primes, "_table", table)
        table.sieve_until(lambda: table.reach >= reach, reach)
        assert table.reach == reach
        for z in (reach, reach + 1, reach + 2):
            assert primes.is_prime(z) == oracles.is_prime(z), z
        assert table.reach == reach
        for z in (reach, reach + 2):
            if oracles.is_prime(z):
                assert primes.prime_index(z, WIDE) == oracles.prime_index(z), z
        n = sum(map(oracles.is_prime, range(reach + 3)))  # the first prime past reach + 2
        assert primes.nth_prime(n, WIDE) == oracles.nth_prime(n)
        assert table.reach > reach + 2
