"""Canonical text forms shared by configs, transcripts, and the CLI.

Everything rendered here must be byte-stable: fixed key order, no
insignificant whitespace, ascending sets.  Transcript hashes and golden
files depend on it.
"""

from __future__ import annotations

import hashlib
import json


def canonical_json(obj) -> str:
    """Serialize with sorted keys and no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def roster_hash(configs: list[dict]) -> str:
    """SHA-256 of the canonical JSON of a list of dense-set configs."""
    return hashlib.sha256(canonical_json(configs).encode("ascii")).hexdigest()


def render_seq(xs) -> str:
    """Render a sequence of naturals as ``[a,b,c]`` with no spaces."""
    return "[" + ",".join(str(x) for x in xs) + "]"


def parse_seq(text: str) -> tuple[int, ...]:
    """Parse ``[a,b,c]``; every entry is a nonempty run of digits, so the
    result holds only naturals."""
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a sequence literal: {text!r}")
    body = text[1:-1]
    if not body:
        return ()
    parts = body.split(",")
    if "" in parts or not "".join(parts).isdigit():
        bad = next(part for part in parts if not part.isdigit())
        raise ValueError(f"bad sequence entry {bad!r} in {text!r}")
    return tuple(map(int, parts))


_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_TEXT_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def render_bits(bits) -> str:
    """Render a 0/1 sequence as a compact string; ``-`` when empty."""
    if not bits:
        return "-"
    return bytes(bits).translate(_BITS_TO_TEXT).decode("ascii")


def parse_bits(text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    if not text or text.strip("01"):
        raise ValueError(f"bad bit string {text!r}")
    return tuple(text.encode("ascii").translate(_TEXT_TO_BITS))
