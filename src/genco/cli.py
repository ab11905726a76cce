"""Batch front end: command dispatch and exit codes.

Exit codes: 0 success / verification passed, 1 verification failure,
2 config error, 3 fuel exhaustion, 4 I/O error.  Payload goes to
stdout, diagnostics to stderr.  GENCO_FUEL overrides the default probe
budget of 100000, which also bounds the prime indices of help-set
lookups and the successors the rank search enumerates.  The config
schema lives with each family's `from_config`; this module reads only
the root object.
"""

from __future__ import annotations

import json
import os
import sys

from . import cohenpair, generic
from .coding import EventuallyPeriodicSeq, HelpSet, decode, help_set_from_config
from .densesets import DEFAULT_FUEL, DenseSet, StemBasedDenseSet, dense_from_config, rank_bounded
from .errors import ConfigError, FuelExhausted, MalformedTranscript
from .frozen import Record
from .serialize import (
    build_at,
    check_keys,
    nat,
    parse_seq,
    quoted,
    render_bits,
    render_seq,
    str_digit_limit,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_FUEL = 3
EXIT_IO = 4


def _reject_dupes(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(key, "duplicate key")
        seen.add(key)
    return dict(pairs)


def _load_json(text: str, path: str):
    """Strict JSON: a syntax error, a duplicate key, too deep nesting or a
    number too long for int(str) is a ConfigError."""
    try:
        return json.loads(text, object_pairs_hook=_reject_dupes)
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"{exc.msg} (line {exc.lineno} column {exc.colno})")
    except RecursionError:
        raise ConfigError(path, "JSON nested too deeply") from None
    except ConfigError:
        raise
    except ValueError:  # a number past the limit of int(str)
        raise ConfigError(path, f"JSON number of more than {str_digit_limit()} digits") from None


class RunConfig(Record):
    """A checked run: its poset, its step (or stage) count and the
    objects built from its config."""

    poset: str
    steps: int
    dense: tuple
    help: HelpSet | None = None
    x: EventuallyPeriodicSeq | None = None
    dense2: tuple = ()

    def roster(self) -> list[DenseSet]:
        return list(self.dense)

    def help_set(self) -> HelpSet | None:
        return self.help

    def target(self) -> EventuallyPeriodicSeq | None:
        return self.x

    def cohen_rosters(self) -> tuple[list, list]:
        return list(self.dense), list(self.dense2)

    def verify_inputs(self, t: generic.RunTranscript) -> tuple:
        """Help set and target for a hechler transcript: both when its HELP
        or TARGET is set, so a coded header with a null half fails."""
        if t.help_config is None and t.target_config is None:
            return None, None
        if self.x is None:
            raise ConfigError("target", "coded transcript needs a target in the config")
        return self.help, self.x


def _roster(raw: dict, key: str, from_config) -> tuple:
    if not isinstance(raw[key], list):
        raise ConfigError(key, "expected a list")
    return tuple(from_config(d, f"{key}[{i}]") for i, d in enumerate(raw[key]))


def parse_config(text: str) -> RunConfig:
    """Strict parse of a run config; unknown and duplicate keys are
    rejected, and every error names the path of its field."""
    raw = _load_json(text, "<json>")
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "expected an object")
    poset = raw.get("poset")
    if poset == "hechler":
        check_keys(raw, "<root>", ("poset", "help", "dense", "steps"), ("target", "seed"))
        A = help_set_from_config(raw["help"], "help")
        roster = _roster(raw, "dense", dense_from_config)
        steps = nat(raw["steps"], "steps")
        x = EventuallyPeriodicSeq.from_config(raw["target"], "target") if "target" in raw else None
        if "seed" in raw:
            nat(raw["seed"], "seed")
        return RunConfig("hechler", steps, roster, A, x)
    if poset == "cohen":
        check_keys(raw, "<root>", ("poset", "target", "dense", "dense2", "stages"), ("seed",))
        x = EventuallyPeriodicSeq.from_config(raw["target"], "target", bits=True)
        r1 = _roster(raw, "dense", cohenpair.cohen_from_config)
        r2 = _roster(raw, "dense2", cohenpair.cohen_from_config)
        stages = nat(raw["stages"], "stages")
        if "seed" in raw:
            nat(raw["seed"], "seed")
        return RunConfig("cohen", stages, r1, x=x, dense2=r2)
    raise ConfigError("poset", f"expected 'hechler' or 'cohen', got {poset!r}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, fragments) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(fragments)


def _fuel() -> int:
    raw = os.environ.get("GENCO_FUEL")
    if raw is None:
        return DEFAULT_FUEL
    try:
        fuel = int(raw)
    except ValueError:
        digits, limit = raw.strip().lstrip("+-").replace("_", ""), str_digit_limit()
        if len(digits) > limit > 0 and digits.isdecimal():
            raise ConfigError("GENCO_FUEL", f"{quoted(raw)} has more than {limit} digits") from None
        raise ConfigError("GENCO_FUEL", f"not an integer: {quoted(raw)}") from None
    if fuel <= 0:
        raise ConfigError("GENCO_FUEL", "must be positive")
    return fuel


def _cmd_build(args, out) -> int:
    """`build` codes the target into the run; `plain` only meets the roster."""
    cfg = parse_config(_read(args.config))
    if cfg.poset != "hechler":
        raise ConfigError("poset", f"{args.command} requires a hechler config")
    A = x = None
    if args.command == "build":
        if cfg.target() is None:
            raise ConfigError("target", "build requires a target")
        A, x = cfg.help_set(), cfg.target()
    t = generic.build_coded_generic(cfg.roster(), A, x, cfg.steps, _fuel())
    # opened once the build is done, so a failed build leaves no file;
    # each fragment is written as it is rendered
    _write(args.out, generic.transcript_fragments(t))
    print(render_seq(t.g_prefix), file=out)
    return EXIT_OK


def _cmd_cohen(args, out) -> int:
    cfg = parse_config(_read(args.config))
    if cfg.poset != "cohen":
        raise ConfigError("poset", "cohen requires a cohen config")
    r1, r2 = cfg.cohen_rosters()
    c1, c2, t = cohenpair.build_pair(r1, r2, cfg.target(), cfg.steps, fuel=_fuel())
    _write(args.out, cohenpair.pair_transcript_fragments(t))  # as in `_cmd_build`
    print(f"C1 {render_bits(c1)}", file=out)
    print(f"C2 {render_bits(c2)}", file=out)
    return EXIT_OK


def _cmd_decode(args, out) -> int:
    A = help_set_from_config(_load_json(_read(args.help_config), "<json>"))
    g = build_at("g", parse_seq, args.g)
    print(render_seq(decode(A, g, _fuel())), file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    cfg = parse_config(_read(args.config))
    parse = generic.parse_transcript if cfg.poset == "hechler" else cohenpair.parse_pair_transcript
    try:
        t = parse(_read(args.transcript))
    except (MalformedTranscript, UnicodeDecodeError) as exc:  # a transcript not in UTF-8 fails as one
        print(f"FAIL transcript @- {exc}", file=out)
        print("FAIL", file=out)
        return EXIT_VERIFY
    if cfg.poset == "hechler":
        A, x = cfg.verify_inputs(t)
        report = generic.verify_transcript(cfg.roster(), A, x, t, _fuel())
    else:
        r1, r2 = cfg.cohen_rosters()
        report = cohenpair.verify_pair(r1, r2, cfg.target(), t)
    for line in report.lines():
        print(line, file=out)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_rank(args, out) -> int:
    D = dense_from_config(_load_json(args.dense, "dense"), "dense")
    if not isinstance(D, StemBasedDenseSet):
        raise ConfigError("dense", "rank requires a stem-based dense set")
    node = build_at("node", parse_seq, args.node)
    r = rank_bounded(D, node, nat(args.max_rank, "max-rank"), nat(args.width, "width"), _fuel())
    print("null" if r is None else str(r), file=out)
    return EXIT_OK


# each command: its handler, its help line and its required options
_COMMANDS = {
    "build": (_cmd_build, "coded build, writes a transcript", ("config", "out")),
    "plain": (_cmd_build, "meet the roster with nothing coded", ("config", "out")),
    "decode": (_cmd_decode, "decode a prefix against a help set", ("help-config", "g")),
    "verify": (_cmd_verify, "re-check a transcript, exit 0 iff all checks pass", ("config", "transcript")),
    "cohen": (_cmd_cohen, "build a coded pair of binary strings", ("config", "out")),
    "rank": (_cmd_rank, "bounded reachability rank of a node", ("dense", "node")),
}


def main(argv=None, out=None, err=None) -> int:
    import argparse  # here, so that `import genco.cli` does not load it
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = argparse.ArgumentParser(prog="genco", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option in options:
            p.add_argument(f"--{option}", required=True)
        if name == "rank":
            p.add_argument("--max-rank", type=int, default=16)
            p.add_argument("--width", type=int, default=64)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        return _COMMANDS[args.command][0](args, out)
    except ConfigError as exc:
        print(str(exc), file=err)
        return EXIT_CONFIG
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=err)
        return EXIT_CONFIG
    except FuelExhausted as exc:
        suffix = f" (step {exc.step})" if exc.step is not None else ""
        print(f"fuel exhausted: {exc}{suffix}", file=err)
        return EXIT_FUEL
    except OSError as exc:
        print(f"i/o error: {exc}", file=err)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
