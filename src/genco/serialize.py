"""Canonical text forms shared by configs, transcripts, and the CLI.

Everything rendered here must be byte-stable: fixed key order, no
insignificant whitespace, ascending sets.  Transcript hashes and golden
files depend on it.
"""

from __future__ import annotations

import hashlib
import json

from .errors import ConfigError


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
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
