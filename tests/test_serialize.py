"""Canonical text forms of sequences and bit strings."""

from __future__ import annotations

import itertools

import pytest

import oracles
from genco.cohenpair import parse_pair_transcript
from genco.conditions import parse_condition
from genco.errors import MalformedTranscript
from genco.serialize import (
    BitsCodec,
    QUOTE_CAP,
    SeqCodec,
    canonical_json,
    decimal_digits,
    parse_bits,
    parse_json,
    parse_nat,
    parse_seq,
    printable,
    quoted,
    render_bits,
    render_seq,
    str_digit_limit,
)


@pytest.mark.parametrize("text", ["[1,,2]", "[,1]", "[1,]", "[ 1]", "[+1]", "[-1]", "1,2", "[1"])
def test_parse_seq_rejects(text):
    with pytest.raises(ValueError):
        parse_seq(text)


@pytest.mark.parametrize("text", ["", "00", "01", "+1", "-1", "1_0", " 1", "1 ", "\uff18", "\u0663", "\u00b2", "1.0"])
def test_parse_nat_rejects(text):
    with pytest.raises(ValueError, match="^bad natural "):
        parse_nat(text)


def test_parse_nat_reads_what_str_writes():
    for n in (0, 1, 9, 10, 100, 12345678901234567890):
        assert parse_nat(str(n)) == n


@pytest.mark.parametrize("text", ['{"a": 1}', '{"b":1,"a":2}', "3.00", "1e3", '"\\u0061"', "[1, 2]", " null"])
def test_parse_json_rejects_non_canonical_text(text):
    with pytest.raises(ValueError):
        parse_json(text)


def test_parse_json_reads_canonical_text():
    for value in (None, 3, 3.0, False, [1, True], {"a": [1, 0], "b": {"c": "d"}}):
        text = canonical_json(value)
        assert parse_json(text) == value and canonical_json(parse_json(text)) == text


def test_numbers_past_the_digit_limit_get_their_own_message():
    limit = str_digit_limit()
    if not limit:
        pytest.skip("no int-to-str digit limit before Python 3.10.7")
    long = "9" * (limit + 1)
    at_limit = "9" * limit
    assert parse_nat(at_limit) == 10**limit - 1
    assert parse_seq(f"[1,{at_limit}]") == (1, 10**limit - 1)
    codec = SeqCodec()
    codec.parse("[1]")
    # the codec reads the entries after the last text in place
    cases = [
        (parse_nat, long, f"bad natural {quoted(long)}"),
        (parse_seq, f"[1,{long},2]", f"bad sequence entry {quoted(long)}"),
        (codec.parse, f"[1,{long}]", f"bad sequence entry {quoted(long)}"),
    ]
    for parse, text, head in cases:
        with pytest.raises(ValueError) as info:
            parse(text)
        assert str(info.value) == f"{head}: more than {limit} digits"
        assert len(str(info.value)) < 2 * QUOTE_CAP


@pytest.mark.parametrize("text", ["[" * 10**5 + "]" * 10**5, '{"a":' * 10**5 + "1" + "}" * 10**5])
def test_parse_json_rejects_deep_nesting(text):
    with pytest.raises(ValueError) as info:
        parse_json(text)
    assert str(info.value) == f"JSON nested too deeply: {quoted(text)}"


def test_parse_seq_accepts_exactly_what_render_seq_writes():
    # every text of up to 6 characters over the sequence alphabet, alone
    # and after a sequence it may extend
    accepted = 0
    for n in range(7):
        for chars in itertools.product("0,1[]", repeat=n):
            text = "".join(chars)
            got = _outcome(parse_seq, text)
            if isinstance(got, tuple):
                assert render_seq(got) == text
                accepted += 1
            codec = SeqCodec()
            codec.parse("[1,0]")
            assert _outcome(lambda text: _parsed_after(codec, (1, 0), text), text) == got
    # and it accepts every such rendering: entries of the digits 0 and 1
    nats = [0] + [int(bin(k)[2:]) for k in range(1, 32)]
    written = {render_seq(xs) for m in range(4) for xs in itertools.product(nats, repeat=m)}
    assert accepted == sum(len(text) <= 6 for text in written)


def test_decimal_digits_and_the_str_limit():
    limit = str_digit_limit()
    for k in range(limit):
        for z in (10**k - 1, 10**k, 10**k + 1, 3 * 10**k):
            if z:
                assert decimal_digits(z) == len(str(z)), z
    assert printable(10**limit - 1) and not printable(10**limit)
    assert decimal_digits(10**limit) == limit + 1
    assert decimal_digits(7**40000) == 33804  # 40000 * log10(7) = 33803.92


def test_seq_round_trip():
    for xs in [(), (0,), (3, 10, 0), (12345678901234567890, 7)]:
        assert parse_seq(render_seq(xs)) == xs
    assert render_seq((3, 10, 0)) == "[3,10,0]"


@pytest.mark.parametrize("text", ["", "012", " 01", "01 ", "2", "0-1"])
def test_parse_bits_rejects(text):
    with pytest.raises(ValueError):
        parse_bits(text)


def test_bits_round_trip():
    assert render_bits(b"") == "-"
    assert parse_bits("-") == b""
    assert render_bits(b"\x01\x00\x01\x01") == "1011"
    for bits in [b"\x00", b"\x01", b"\x01\x00\x01\x01", bytes(40) + b"\x01"]:
        assert parse_bits(render_bits(bits)) == bits


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "text",
    ["[1,2]", "[1,2,3]", "[1,23]", "[1,2,]", "[1,2,,3]", "[1,2]]", "[1,2", "[1,2,3", "[1,2,-3]",
     "[1,2,3],", "[1,2,٣]", "[1,2,²]", "[1]", "[]", "[1,2 ,3]"],
)
def test_seq_codec_parses_like_parse_seq(text):
    codec = SeqCodec()
    assert codec.parse("[1,2]") == (0, (1, 2))
    assert _outcome(lambda text: _parsed_after(codec, (1, 2), text), text) == _outcome(parse_seq, text)


def _parsed_after(codec: SeqCodec, prev: tuple, text: str) -> tuple:
    """The sequence a codec whose last sequence is `prev` reads from `text`."""
    keep, new = codec.parse(text)
    return prev[:keep] + new


@pytest.mark.parametrize(
    "text", ["0101", "01011", "0101-", "01012", "0101 ", "010", "-", "", "0101٣", "1101",
             "0" * 300 + "2", "0101 " + "1" * 300]
)
def test_bits_codec_parses_like_parse_bits(text):
    # the bytes codec of bit strings against the tuple one it replaced,
    # alone and as the snapshot after "0101" in a pair transcript
    assert parse_bits("0101") == b"\x00\x01\x00\x01"
    got = _outcome(parse_bits, text)
    assert (tuple(got) if isinstance(got, bytes) else got) == _outcome(oracles.parse_bits, text)
    lines = ["ROSTER1 a", "ROSTER2 b", "TARGET {}", "STAGES 2",
             "STAGE 0 P 0101 Q 0101", f"STAGE 1 P {text} Q 0101", "C1 0101", "C2 0101"]
    pair = "\n".join(lines) + "\n"
    try:
        got = oracles.pair_as_tuples(parse_pair_transcript(pair))
    except MalformedTranscript as exc:
        got = str(exc)
    try:
        want = oracles.parse_pair_transcript(pair)
    except MalformedTranscript as exc:
        want = str(exc)
    assert got == want


def test_parse_errors_quote_a_capped_head():
    # a text within the cap is quoted whole, as repr does
    for text in ("", "ab'c", "é" * QUOTE_CAP):
        assert quoted(text) == repr(text)
    long = "x" * (10 * QUOTE_CAP)
    assert quoted(long) == f"{long[:QUOTE_CAP]!r}... ({len(long)} characters)"
    cases = [
        (parse_seq, long, "not a sequence literal: "),
        (parse_seq, "[" + "1," * QUOTE_CAP + "x]", "bad sequence entry 'x' in "),
        (parse_bits, long, "bad bit string "),
        (parse_condition, long, "malformed condition text: "),
    ]
    for parse, text, head in cases:
        with pytest.raises(ValueError) as info:
            parse(text)
        assert str(info.value) == head + quoted(text)
        assert len(str(info.value)) < 2 * QUOTE_CAP


def test_codecs_render_like_full_renderers():
    # each sequence as the delta that keeps the common prefix with the last,
    # and likewise its bits
    def common(a, b):
        return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))

    seqs, bit_strings, prev, prev_bits = SeqCodec(), BitsCodec(), (), ()
    for xs in [(), (1, 2), (1, 2), (1, 2, 30), (1,), (4, 2, 30, 7, 7), (4, 2, 9), (), (0,)]:
        keep = common(prev, xs)
        assert seqs.render(keep, xs[keep:]) == render_seq(xs)
        bits = tuple(x % 2 for x in xs)
        assert render_bits(bytes(bits)) == oracles.render_bits(bits)
        keep = common(prev_bits, bits)
        assert bit_strings.render(keep, bytes(bits[keep:])) == oracles.render_bits(bits)
        prev, prev_bits = xs, bits
    # every cut of a sequence, with and without new entries
    for keep in range(4):
        for new in ((), (9,), (10, 0)):
            seqs, bit_strings = SeqCodec(), BitsCodec()
            seqs.render(0, (3, 10, 0))
            assert seqs.render(keep, new) == render_seq((3, 10, 0)[:keep] + new)
            bit_strings.render(0, b"\x01\x00\x00")
            bits = (1, 0, 0)[:keep] + tuple(x % 2 for x in new)
            assert bit_strings.render(keep, bytes(bits[keep:])) == oracles.render_bits(bits)
