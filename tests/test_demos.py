"""The demo scripts must run clean and print exactly their recorded
output, kept under tests/goldens/demos.  Every demo is deterministic, so
any change to its output is a change of behaviour."""

from __future__ import annotations

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from corpus import GOLDEN_DIR

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    buf = io.StringIO()
    with redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    assert buf.getvalue().strip()
    assert buf.getvalue() == (GOLDEN_DIR / "demos" / (path.stem + ".out")).read_text()
