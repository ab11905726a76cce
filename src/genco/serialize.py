"""Canonical text forms shared by configs, transcripts, and the CLI.

Everything rendered here must be byte-stable: fixed key order, no
insignificant whitespace, ascending sets.  Transcript hashes and golden
files depend on it.
"""

from __future__ import annotations

import functools
import json
import math
import sys

from .errors import ConfigError, MalformedTranscript

# The interpreter's builtin SHA-256 (FIPS 180-4, the same digest as
# hashlib's): `hashlib` would map OpenSSL's libcrypto into every
# process to hash one roster.  Builds that leave the module out fall
# back to hashlib.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256


# sorted keys and no whitespace; one encoder serves every call, where
# json.dumps with these options would build one per call
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def roster_hash(roster) -> str:
    """SHA-256 of the canonical JSON of a roster's dense-set configs."""
    return sha256(canonical_json([D.config() for D in roster]).encode("ascii")).hexdigest()


def render_seq(xs) -> str:
    """Render a sequence of naturals as ``[a,b,c]`` with no spaces."""
    return "[" + ",".join(map(str, xs)) + "]"


def str_digit_limit() -> int:
    """Python's limit on the digits of str(int); 0 when there is none
    (before Python 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", int)()


@functools.lru_cache(maxsize=2)
def _ten_to(k: int) -> int:
    return 10**k


def printable(z) -> bool:
    """Whether str(z) stays within Python's int-to-str digit limit."""
    limit = str_digit_limit()
    return not limit or z < _ten_to(limit)


def decimal_digits(z: int) -> int:
    """The number of decimal digits of z > 0, counted without str(z).
    It is exact: z is compared with a power of ten only where log10(z)
    lies too near an integer for the float to round safely."""
    x = math.log10(z)
    k = round(x)
    if abs(x - k) > 1e-6:
        return int(x) + 1
    return k + (z >= 10**k)


QUOTE_CAP = 200


def quoted(text: str) -> str:
    """`repr(text)` for a parse error; a text longer than QUOTE_CAP
    characters is quoted by its first QUOTE_CAP and its length, so the
    message stays short whatever the input."""
    if len(text) <= QUOTE_CAP:
        return repr(text)
    return f"{text[:QUOTE_CAP]!r}... ({len(text)} characters)"


def _is_nat(text: str) -> bool:
    return text.isascii() and text.isdigit() and (text[0] != "0" or len(text) == 1)


def _past_digit_limit(what: str, text: str) -> ValueError:
    return ValueError(f"{what} {quoted(text)}: more than {str_digit_limit()} digits")


def parse_nat(text: str) -> int:
    """A natural as the writers write it: ASCII digits with no sign, no
    `_` and no leading zero, and no more digits than Python's limit."""
    if _is_nat(text):
        try:
            return int(text)
        except ValueError:
            raise _past_digit_limit("bad natural", text) from None
    raise ValueError(f"bad natural {quoted(text)}")


def parse_json(text: str):
    """A JSON value whose text is its own `canonical_json`, nested within the recursion limit."""
    try:
        value = json.loads(text)
        canonical = canonical_json(value)
    except RecursionError:
        raise ValueError(f"JSON nested too deeply: {quoted(text)}") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # json.loads met a number past the limit of int(str)
        raise ValueError(f"JSON number of more than {str_digit_limit()} digits: {quoted(text)}") from None
    if canonical != text:
        raise ValueError(f"not canonical JSON: {quoted(text)}")
    return value


def _entries(body: str, text: str) -> tuple[int, ...]:
    """The naturals of `body`, comma-separated entries of the sequence
    literal `text`, each spelled as `parse_nat` requires."""
    parts = body.split(",")
    # every entry that starts with 0 must be 0; counted without str(int),
    # which is quadratic in the digits
    if (body.isascii() and "" not in parts and "".join(parts).isdigit()
            and body.count(",0") + body.startswith("0") == parts.count("0")):
        try:
            return tuple(map(int, parts))
        except ValueError:
            raise _past_digit_limit("bad sequence entry", max(parts, key=len)) from None
    bad = next(part for part in parts if not _is_nat(part))
    raise ValueError(f"bad sequence entry {quoted(bad)} in {quoted(text)}")


def parse_seq(text: str) -> tuple[int, ...]:
    """Parse ``[a,b,c]``, the text `render_seq` writes, and nothing else."""
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a sequence literal: {quoted(text)}")
    return _entries(text[1:-1], text) if len(text) > 2 else ()


_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_TEXT_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def render_bits(bits: bytes) -> str:
    """Render bytes of 0/1 values as a compact string; ``-`` when empty."""
    if not bits:
        return "-"
    return bits.translate(_BITS_TO_TEXT).decode("ascii")


def parse_bits(text: str) -> bytes:
    """Inverse of `render_bits`: bytes of 0/1 values."""
    if text == "-":
        return b""
    if text and text.isascii():
        raw = text.encode("ascii")
        if not raw.translate(None, b"01"):
            return raw.translate(_TEXT_TO_BITS)
    raise ValueError(f"bad bit string {quoted(text)}")


class SeqCodec:
    """`render_seq` and `parse_seq` for a run of sequences, each given or
    read as a delta from the one before: the first `keep` entries of the
    last sequence, then `new` entries.  The stems of a transcript are
    such a run, and each usually extends the one before.

    The codec keeps only the last sequence's length, its text, and the
    head of that text (all but the closing bracket), never the sequence.
    Rendering a delta that keeps every entry appends the text of the new
    entries to the head; a shorter `keep` cuts the head at an entry
    boundary first.  A text that starts with the head and goes on at an
    entry boundary (`,` or the closing bracket) parses as a delta that
    keeps every entry, its new entries read in place by `parse_seq`'s
    entry reader.  Any other text goes through the full `parse_seq`,
    keeping no entry, so every value and every error message is its.  Use
    one instance per direction and per sequence of a transcript, in line
    order.
    """

    def __init__(self):
        self._n = 0
        self._text = "[]"
        self._head = "["

    def render(self, keep: int, new) -> str:
        """The text of the last sequence cut to `keep` entries plus `new`."""
        if keep == self._n and not new:
            return self._text
        head = self._head
        if keep < self._n:
            head = ",".join(head.split(",", keep)[:keep]) or "["
        if new:
            head = f"{head}{',' if keep else ''}{','.join(map(str, new))}"
        self._n, self._head, self._text = keep + len(new), head, head + "]"
        return self._text

    def parse(self, text: str) -> tuple[int, tuple[int, ...]]:
        """`(keep, new)`: `text` as the last sequence cut to `keep` entries
        plus the entries `new`."""
        if text == self._text:
            return self._n, ()
        head = self._head
        n = len(head)
        if self._n and text.startswith(head) and text.startswith(",", n) and text.endswith("]"):
            keep, new = self._n, _entries(text[n + 1 : -1], text)
        else:
            keep, new = 0, parse_seq(text)
        self._n, self._head, self._text = keep + len(new), text[:-1], text
        return keep, new


class BitsCodec:
    """`render_bits` and `parse_bits` for a run of bit strings, each the
    delta `(keep, new)` from the one before: its first `keep` bits, then
    the bits `new`.  It keeps only the last string's length and text.  A
    text that starts with a nonempty last text keeps all of it, and only
    the rest is read, which must be `0`s and `1`s.  Any other text goes
    through the full `parse_bits`, keeping no bit, so every value and
    error message is its.  Use one instance per string and direction."""

    def __init__(self):
        self._n, self._text = 0, "-"

    def render(self, keep: int, new: bytes) -> str:
        text = self._text[:keep] + new.translate(_BITS_TO_TEXT).decode("ascii")
        self._n, self._text = keep + len(new), text or "-"
        return self._text

    def parse(self, text: str) -> tuple[int, bytes]:
        n = self._n
        if n and text.startswith(self._text) and not text[n:].strip("01"):
            keep, new = n, text[n:].encode("ascii").translate(_TEXT_TO_BITS)
        else:
            keep, new = 0, parse_bits(text)
        self._n, self._text = keep + len(new), text
        return keep, new


def transcript_lines(text: str, least: int, short: str) -> list[str]:
    """The lines of a transcript: `text` split at each `\\n`, the one
    line end the writers write, which must also end the text.  Fewer
    than `least` lines raise MalformedTranscript with message `short`."""
    lines = text.split("\n")
    if lines.pop():
        raise MalformedTranscript("transcript does not end with a newline")
    if len(lines) < least:
        raise MalformedTranscript(short)
    return lines


def tagged_line(line: str, number: int, tag: str) -> str:
    """The text after `tag` and one space on `line`, line `number`
    (counted from 1) of a transcript."""
    if not line.startswith(tag + " "):
        raise MalformedTranscript(f"expected {tag} on line {number}")
    return line[len(tag) + 1 :]


# Strict readers for decoded config JSON.  Each names the offending field
# by its path, such as `dense[0].patterns[1].hits[0].count`.


def check_keys(obj, path: str, required, optional=()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "missing required key")


def nat(obj, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < 0:
        raise ConfigError(path, "expected a natural number")
    return obj


def nat_list(obj, path: str, nonempty: bool = False, bits: bool = False) -> list[int]:
    """A list of naturals; with `bits`, every entry must also be 0 or 1."""
    if not isinstance(obj, list):
        raise ConfigError(path, "expected a list")
    if nonempty and not obj:
        raise ConfigError(path, "must be nonempty")
    vals = [nat(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    for i, v in enumerate(vals):
        if bits and v > 1:
            raise ConfigError(f"{path}[{i}]", "expected a bit (0 or 1)")
    return vals


def nonempty_list(obj, path: str) -> list:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(path, "expected a nonempty list")
    return obj


def build_at(path: str, make, *args):
    """`make(*args)`, with a ValueError it raises reported at `path`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
