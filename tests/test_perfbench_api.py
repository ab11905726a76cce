"""The library API that the benchmark under `perfbench/` calls.

The benchmark's worker parses each config with `cli.parse_config`, reads
the run's objects through `RunConfig.roster`, `help_set`, `target` and
`cohen_rosters`, and builds, writes, parses and verifies through the
public functions of `generic` and `cohenpair`; its `stem_in_A` forgery
reads full conditions through `RunTranscript.entries`.  These tests run
the worker's phases and that forgery in-process on one tiny config of
each poset, so a name they call cannot leave the library unnoticed.
"""

from __future__ import annotations

import json
import sys

import pytest

from corpus import REPO

sys.path.insert(0, str(REPO / "perfbench"))
import forgeries  # noqa: E402
import worker  # noqa: E402

CODED = {
    "poset": "hechler",
    "help": {"kind": "evens"},
    "target": {"prefix": [1], "cycle": [0, 2]},
    "dense": [{"type": "stem_hits", "k": 3}, {"type": "dominate", "table": [1], "a": 0, "b": 2}],
    "steps": 3,
}
PAIR = {
    "poset": "cohen",
    "target": {"prefix": [1], "cycle": [0, 0, 1]},
    "dense": [{"type": "ends_with", "w": "10"}],
    "dense2": [{"type": "contains", "w": "111"}],
    "stages": 5,
}


@pytest.mark.parametrize("cfg", [CODED, PAIR], ids=["hechler", "cohen"])
def test_worker_phases(cfg):
    (run,) = worker._set_up([json.dumps(cfg)])
    text = worker._build(run)
    assert worker._verify(run, text) is True
    # a transcript cut short is malformed, which the worker reports as False
    assert worker._verify(run, text[: len(text) // 2]) is False


def test_stem_in_A_forgery_fails_verification():
    (run,) = worker._set_up([json.dumps(CODED)])
    text = worker._build(run)
    forged = forgeries.stem_in_A(text, run[2])
    assert forged != text
    assert worker._verify(run, forged) is False
