"""A byte-level fuzz of `genco verify` on every golden.

Each case replaces, inserts or deletes bytes of one golden: any single
byte, the bytes 0x80-0xFF that are not text on their own included, or a
run of `[` long enough to nest JSON past the recursion limit.  Whatever
the damage, `main` returns 0 or 1, raises nothing, writes nothing to
stderr, and its last line is PASS or FAIL.  The run is derandomized and
small, so it gives the same cases on every run.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genco.cli import EXIT_OK, EXIT_VERIFY, main
from corpus import CONFIG_DIR, GOLDEN_DIR

GOLDENS = sorted(GOLDEN_DIR.glob("*.transcript"))

# what goes in at the damaged place: one byte, high bytes drawn apart so
# that they come up often, or a run of `[`
FILLS = st.one_of(
    st.binary(min_size=1, max_size=1),
    st.integers(0x80, 0xFF).map(lambda b: bytes([b])),
    st.integers(1, 3000).map(lambda n: b"[" * n),
)
# where: a line and a column in it, so that the short header lines, whose
# JSON a run of `[` can nest, come up as often as any other
DAMAGE = st.tuples(st.sampled_from(("replace", "insert", "delete")), st.integers(0, 10**4),
                   st.integers(0, 10**4), FILLS)


def damaged(raw: bytes, kind: str, line: int, col: int, fill: bytes) -> bytes:
    lines = raw.split(b"\n")
    line %= len(lines)
    at = min(len(raw) - 1, sum(map(len, lines[:line])) + line + col % (len(lines[line]) + 1))
    if kind == "replace":
        return raw[:at] + fill + raw[at + 1 :]
    if kind == "insert":
        return raw[:at] + fill + raw[at:]
    return raw[:at] + raw[at + 1 :]


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_damaged_golden_verifies_to_a_verdict(tmp_path, path):
    raw = path.read_bytes()
    config = str(CONFIG_DIR / f"{path.stem}.json")
    tf = tmp_path / "t.transcript"

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.lists(DAMAGE, min_size=1, max_size=2))
    def check(damages):
        data = raw
        for damage in damages:
            data = damaged(data, *damage)
        tf.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        code = main(["verify", "--config", config, "--transcript", str(tf)], out, err)
        assert code in (EXIT_OK, EXIT_VERIFY) and err.getvalue() == ""
        assert out.getvalue().splitlines()[-1] == ("PASS" if code == EXIT_OK else "FAIL")

    check()
