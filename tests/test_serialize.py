"""Canonical text forms of sequences and bit strings."""

from __future__ import annotations

import pytest

from genco.serialize import parse_bits, parse_seq, render_bits, render_seq


@pytest.mark.parametrize("text", ["[1,,2]", "[,1]", "[1,]", "[ 1]", "[+1]", "[-1]", "1,2", "[1"])
def test_parse_seq_rejects(text):
    with pytest.raises(ValueError):
        parse_seq(text)


def test_seq_round_trip():
    for xs in [(), (0,), (3, 10, 0), (12345678901234567890, 7)]:
        assert parse_seq(render_seq(xs)) == xs
    assert render_seq((3, 10, 0)) == "[3,10,0]"


@pytest.mark.parametrize("text", ["", "012", " 01", "01 ", "2", "0-1"])
def test_parse_bits_rejects(text):
    with pytest.raises(ValueError):
        parse_bits(text)


def test_bits_round_trip():
    assert render_bits(()) == "-"
    assert parse_bits("-") == ()
    assert render_bits((1, 0, 1, 1)) == "1011"
    for bits in [(0,), (1,), (1, 0, 1, 1), (0,) * 40 + (1,)]:
        assert parse_bits(render_bits(bits)) == bits
