"""Regenerate or check the golden transcripts of the bundled config corpus.

Run from the repository root after an intentional format or algorithm
change, then review the diff:

    python3 tools/make_goldens.py

With `--check` nothing under tests/goldens is written: every golden is
rebuilt through the CLI into a temporary directory and compared byte for
byte with its file, and each golden that is equal is also parsed through
the library and written back.  Each golden that differs or does not come
back as its own text is named, and the exit code is 1 if any is.  Each
equal golden is also run through `genco verify` against its config, and
each that does not PASS is named too.  It is the quick guard for codec
and verifier changes:

    python3 tools/make_goldens.py --check
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from corpus import GOLDEN_DIR, build_transcript, command_for, corpus_paths, run_cli  # noqa: E402
from genco import (  # noqa: E402
    MalformedTranscript,
    parse_pair_transcript,
    parse_transcript,
    write_pair_transcript,
    write_transcript,
)


def round_trips(path: Path, text: str) -> bool:
    """Whether the library parses `text`, the golden of the config at
    `path`, and writes it back unchanged."""
    pair = command_for(path) == "cohen"
    parse, write = (parse_pair_transcript, write_pair_transcript) if pair else (parse_transcript, write_transcript)
    try:
        return write(parse(text)) == text
    except MalformedTranscript:
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="write nothing to tests/goldens; exit 1 and name each golden that differs,"
                         " does not round-trip or does not verify")
    args = ap.parse_args(argv)
    differ, broken, failing = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        for path in corpus_paths():
            golden = GOLDEN_DIR / (path.stem + ".transcript")
            out = Path(tmp) / golden.name if args.check else golden
            if not args.check:
                GOLDEN_DIR.mkdir(exist_ok=True)
            code, _, err = build_transcript(path, out)
            if code != 0:
                raise SystemExit(f"{path.name}: exit {code}: {err}")
            if not args.check:
                print(f"wrote {golden.relative_to(REPO)}")
            elif not golden.is_file() or golden.read_bytes() != out.read_bytes():
                differ.append(golden)
            else:
                if not round_trips(path, golden.read_bytes().decode("utf-8")):
                    broken.append(golden)
                if run_cli(["verify", "--config", str(path), "--transcript", str(golden)])[0] != 0:
                    failing.append(golden)
    for golden in differ:
        print(f"differs: {golden.name}")
    for golden in broken:
        print(f"does not round-trip: {golden.name}")
    for golden in failing:
        print(f"does not verify: {golden.name}")
    return 1 if differ or broken or failing else 0


if __name__ == "__main__":
    sys.exit(main())
