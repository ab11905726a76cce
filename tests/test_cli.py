"""Config parsing, command dispatch, exit codes, and stream discipline."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time

import pytest

from genco.cli import (
    EXIT_CONFIG,
    EXIT_FUEL,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    parse_config,
)
from genco import (
    DominateSet,
    EventuallyPeriodicSeq,
    FloorRule,
    StemLengthSet,
    build_pair,
    cohen_from_config,
    verify_pair,
    write_pair_transcript,
)
from genco.serialize import QUOTE_CAP, canonical_json, quoted, roster_hash, str_digit_limit
import oracles
from corpus import CONFIG_DIR, GOLDEN_DIR, REPO, build_transcript, corpus_paths, run_cli

HECHLER_CFG = {
    "poset": "hechler",
    "help": {"kind": "evens"},
    "target": {"prefix": [1], "cycle": [0]},
    "dense": [{"type": "stem_length", "n": 2}],
    "steps": 4,
}
COHEN_CFG = {
    "poset": "cohen",
    "target": {"prefix": [1, 0], "cycle": [1]},
    "dense": [{"type": "contains", "w": "01"}],
    "dense2": [{"type": "min_len", "n": 6}],
    "stages": 4,
}


def built_config(run, coded: bool = True) -> dict:
    """The config of a parsed run, rebuilt from its objects' `config()`."""
    if run.poset == "cohen":
        r1, r2 = run.cohen_rosters()
        return {
            "poset": "cohen",
            "target": run.target().config(),
            "dense": [D.config() for D in r1],
            "dense2": [D.config() for D in r2],
            "stages": run.steps,
        }
    cfg = {
        "poset": "hechler",
        "help": run.help_set().config(),
        "dense": [D.config() for D in run.roster()],
        "steps": run.steps,
    }
    if coded:
        cfg["target"] = run.target().config()
    return cfg


def _edit(base: dict, **fields) -> dict:
    cfg = json.loads(json.dumps(base))
    cfg.update(fields)
    return cfg


def _dense(*entries) -> dict:
    return _edit(HECHLER_CFG, dense=list(entries))


def _help(help_cfg) -> dict:
    return _edit(HECHLER_CFG, help=help_cfg)


def _cohen(dense=COHEN_CFG["dense"], dense2=COHEN_CFG["dense2"]) -> dict:
    return _edit(COHEN_CFG, dense=dense, dense2=dense2)


# one rejected config per schema check, with the exact path and reason
REJECTED = [
    # help sets
    (_help({"kind": "explicit", "prefix": [], "cycle": [0, 0]}),
     "help.cycle", "pattern describes a finite set"),
    (_help({"kind": "explicit", "prefix": [0], "cycle": [1]}),
     "help.cycle", "pattern describes a cofinite set"),
    (_help({"kind": "explicit", "prefix": [2], "cycle": [0, 1]}),
     "help.prefix[0]", "expected a bit (0 or 1)"),
    (_help({"kind": "explicit", "prefix": [2, -1], "cycle": [0, 1]}),
     "help.prefix[1]", "expected a natural number"),
    (_help({"kind": "explicit", "prefix": [], "cycle": []}),
     "help.cycle", "must be nonempty"),
    (_help({"kind": "explicit", "cycle": [0, 1]}),
     "help.prefix", "missing required key"),
    (_help({"kind": "selfcode", "abar": {"prefix": [1]}}),
     "help.abar.cycle", "missing required key"),
    (_help({"kind": "selfcode", "abar": {"prefix": [1], "cycle": []}}),
     "help.abar.cycle", "must be nonempty"),
    (_help({"kind": "selfcode", "abar": [1]}), "help.abar", "expected an object"),
    (_help({"kind": "selfcode", "abar": {"prefix": 1, "cycle": [1]}}),
     "help.abar.prefix", "expected a list"),
    (_help({"kind": "evens", "abar": {}}), "help.abar", "unknown key"),
    (_help({"kind": "odds"}), "help.kind", "unknown help set kind 'odds'"),
    (_help({"name": "evens"}), "help", "expected a help-set object with a kind"),
    (_help("evens"), "help", "expected a help-set object with a kind"),
    # dense sets
    (_dense({"type": "stem_length", "n": -1}), "dense[0].n", "expected a natural number"),
    (_dense({"type": "stem_hits", "k": True}), "dense[0].k", "expected a natural number"),
    (_dense({"type": "stem_length", "n": 1.5}), "dense[0].n", "expected a natural number"),
    (_dense({"type": "dominate", "table": [1, -2], "a": 0, "b": 1}),
     "dense[0].table[1]", "expected a natural number"),
    (_dense({"type": "dominate", "table": [], "a": 0}), "dense[0].b", "missing required key"),
    (_dense({"type": "user_stems", "patterns": [{}]}),
     "dense[0].patterns[0]", "pattern needs min_len or hits"),
    (_dense({"type": "user_stems", "patterns": [{"min_len": 0}]}),
     "dense[0].patterns[0]", "pattern matches every stem"),
    (_dense({"type": "user_stems", "patterns": [{"min_len": 2, "hits": []}]}),
     "dense[0].patterns[0].hits", "expected a nonempty list"),
    (_dense({"type": "user_stems", "patterns": [{"hits": [{"k": 3, "count": 0}]}]}),
     "dense[0].patterns[0].hits[0].count", "must be at least 1"),
    (_dense({"type": "user_stems", "patterns": [{"hits": [{"k": -3, "count": 1}]}]}),
     "dense[0].patterns[0].hits[0].k", "expected a natural number"),
    (_dense({"type": "user_stems", "patterns": [{"hits": [{"k": 3}]}]}),
     "dense[0].patterns[0].hits[0].count", "missing required key"),
    (_dense({"type": "user_stems", "patterns": [{"min_len": 1, "max_len": 2}]}),
     "dense[0].patterns[0].max_len", "unknown key"),
    (_dense({"type": "user_stems", "patterns": []}),
     "dense[0].patterns", "expected a nonempty list"),
    (_dense({"type": "stem_length", "n": 1}, {"type": "nope"}),
     "dense[1].type", "unknown dense set type 'nope'"),
    (_dense({"n": 1}), "dense[0]", "expected a dense-set object with a type"),
    (_edit(HECHLER_CFG, dense={}), "dense", "expected a list"),
    # cohen dense sets
    (_cohen(dense=[{"type": "contains", "w": "012"}]),
     "dense[0].w", "expected a nonempty 0/1 string"),
    (_cohen(dense=[{"type": "ends_with", "w": ""}]),
     "dense[0].w", "expected a nonempty 0/1 string"),
    (_cohen(dense=[{"type": "ends_with", "w": "-"}]),
     "dense[0].w", "expected a nonempty 0/1 string"),
    (_cohen(dense=[{"type": "contains", "w": [0, 1]}]),
     "dense[0].w", "expected a nonempty 0/1 string"),
    (_cohen(dense2=[{"type": "min_len", "n": -4}]), "dense2[0].n", "expected a natural number"),
    (_cohen(dense2=[{"type": "nope"}]), "dense2[0].type", "unknown cohen dense type 'nope'"),
    (_cohen(dense=[{"w": "00"}]), "dense[0]", "expected a dense-set object with a type"),
    (_cohen(dense2=[["min_len"]]), "dense2[0]", "expected a dense-set object with a type"),
    # the root
    (_edit(HECHLER_CFG, target={"prefix": [], "cycle": [1], "x": 1}), "target.x", "unknown key"),
    (_edit(HECHLER_CFG, steps=-1), "steps", "expected a natural number"),
    (_edit(HECHLER_CFG, seed="1"), "seed", "expected a natural number"),
    (_edit(HECHLER_CFG, poset="other"), "poset", "expected 'hechler' or 'cohen', got 'other'"),
    (_edit(COHEN_CFG, target={"prefix": [1], "cycle": [2]}),
     "target.cycle[0]", "expected a bit (0 or 1)"),
    (_edit(COHEN_CFG, help={"kind": "evens"}), "<root>.help", "unknown key"),
]


class TestParseConfig:
    @pytest.mark.parametrize("cfg,path,reason", REJECTED, ids=[f"{p}:{r}" for _, p, r in REJECTED])
    def test_rejected_with_path_and_reason(self, cfg, path, reason):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(cfg))
        assert (info.value.path, info.value.reason) == (path, reason)

    def test_corpus_parses_to_its_own_config(self):
        for path in corpus_paths():
            raw = json.loads(path.read_text())
            run = parse_config(path.read_text())
            built = built_config(run, coded="target" in raw)
            assert built == raw, path.name
            again = parse_config(canonical_json(built))
            assert built_config(again, coded="target" in raw) == built, path.name

    def test_minimal_round_trip(self):
        for raw in (HECHLER_CFG, COHEN_CFG):
            built = built_config(parse_config(json.dumps(raw)))
            assert built == raw
            assert built_config(parse_config(canonical_json(built))) == built

    def test_negative_rejected_with_path(self):
        bad = dict(HECHLER_CFG, dense=[{"type": "stem_length", "n": -1}])
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(bad))
        assert info.value.path == "dense[0].n"

    def test_missing_help_rejected(self):
        bad = {k: v for k, v in HECHLER_CFG.items() if k != "help"}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(bad))
        assert "help" in info.value.path

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps(dict(HECHLER_CFG, extra=1)))

    def test_duplicate_key_rejected(self):
        text = '{"poset":"hechler","poset":"hechler"}'
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_cohen_requires_dense2(self):
        bad = {
            "poset": "cohen",
            "target": {"prefix": [1], "cycle": [0]},
            "dense": [],
            "stages": 2,
        }
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(bad))
        assert "dense2" in info.value.path

    def test_cohen_target_must_be_bits(self):
        bad = {
            "poset": "cohen",
            "target": {"prefix": [2], "cycle": [0]},
            "dense": [],
            "dense2": [],
            "stages": 2,
        }
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(bad))
        assert info.value.path == "target.prefix[0]"

    def test_syntax_error_positioned(self):
        with pytest.raises(ConfigError) as info:
            parse_config("{")
        assert "line 1" in info.value.reason


class TestCommands:
    def test_decode_payload(self, tmp_path):
        hf = tmp_path / "help.json"
        hf.write_text('{"kind":"evens"}')
        code, out, err = run_cli(["decode", "--help-config", str(hf), "--g", "[5,2,7,6]"])
        assert (code, out, err) == (EXIT_OK, "[1,2]\n", "")

    def test_rank_payload(self):
        code, out, err = run_cli(
            ["rank", "--dense", '{"type":"stem_length","n":3}', "--node", "[7]",
             "--max-rank", "16", "--width", "64"]
        )
        assert (code, out, err) == (EXIT_OK, "2\n", "")

    def test_rank_unreachable_prints_null(self):
        code, out, _ = run_cli(
            ["rank", "--dense", '{"type":"stem_length","n":9}', "--node", "[]",
             "--max-rank", "3", "--width", "4"]
        )
        assert code == EXIT_OK and out == "null\n"

    def test_rank_rejects_negative_width(self):
        code, out, err = run_cli(
            ["rank", "--dense", '{"type":"stem_length","n":3}', "--node", "[7]", "--width", "-1"]
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "config error at width: expected a natural number\n"

    def test_rank_rejects_negative_max_rank(self):
        code, out, err = run_cli(
            ["rank", "--dense", '{"type":"stem_length","n":3}', "--node", "[7]", "--max-rank", "-5"]
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "config error at max-rank: expected a natural number\n"

    def test_decode_reports_malformed_json(self, tmp_path):
        hf = tmp_path / "help.json"
        hf.write_text("{")
        code, out, err = run_cli(["decode", "--help-config", str(hf), "--g", "[5]"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (
            "config error at <json>: Expecting property name enclosed in double quotes"
            " (line 1 column 2)\n"
        )

    def test_decode_rejects_bad_g(self, tmp_path):
        hf = tmp_path / "help.json"
        hf.write_text('{"kind":"evens"}')
        code, out, err = run_cli(["decode", "--help-config", str(hf), "--g", "[1,x]"])
        assert (code, out, err) == (EXIT_CONFIG, "", "config error at g: bad sequence entry 'x' in '[1,x]'\n")

    def test_rank_rejects_bad_node(self):
        code, out, err = run_cli(["rank", "--dense", '{"type":"stem_length","n":3}', "--node", "7"])
        assert (code, out, err) == (EXIT_CONFIG, "", "config error at node: not a sequence literal: '7'\n")

    def test_rank_rejects_pruning(self):
        code, out, err = run_cli(
            ["rank", "--dense", '{"type":"dominate","table":[],"a":0,"b":1}',
             "--node", "[]"]
        )
        assert code == EXIT_CONFIG and out == "" and "stem-based" in err

    def test_build_then_verify(self, tmp_path):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(HECHLER_CFG))
        tf = tmp_path / "t.transcript"
        code, out, err = run_cli(["build", "--config", str(cf), "--out", str(tf)])
        assert code == EXIT_OK and err == "" and out.startswith("[")
        code, out, err = run_cli(["verify", "--config", str(cf), "--transcript", str(tf)])
        assert code == EXIT_OK and out.endswith("PASS\n") and err == ""

    def test_verify_flags_tampering(self, tmp_path):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(HECHLER_CFG))
        tf = tmp_path / "t.transcript"
        run_cli(["build", "--config", str(cf), "--out", str(tf)])
        lines = tf.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("CODE "):
                parts = line.split(" ")
                parts[2] = str(int(parts[2]) + 8)
                lines[i] = " ".join(parts)
                break
        tf.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(["verify", "--config", str(cf), "--transcript", str(tf)])
        assert code == EXIT_VERIFY
        assert any(l.startswith("FAIL") for l in out.splitlines())

    def test_missing_config_is_io_error(self, tmp_path):
        code, out, err = run_cli(
            ["build", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "t")]
        )
        assert code == EXIT_IO and out == "" and err != ""

    def test_bad_config_exit(self, tmp_path):
        cf = tmp_path / "c.json"
        cf.write_text('{"poset":"other"}')
        code, _, err = run_cli(["build", "--config", str(cf), "--out", str(tmp_path / "t")])
        assert code == EXIT_CONFIG and "poset" in err

    def test_fuel_env_override(self, tmp_path, monkeypatch):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(dict(HECHLER_CFG, dense=[{"type": "stem_length", "n": 6}])))
        monkeypatch.setenv("GENCO_FUEL", "2")
        code, out, err = run_cli(["build", "--config", str(cf), "--out", str(tmp_path / "t")])
        assert code == EXIT_FUEL and out == "" and "fuel" in err
        monkeypatch.setenv("GENCO_FUEL", "bogus")
        code, _, err = run_cli(["build", "--config", str(cf), "--out", str(tmp_path / "t")])
        assert code == EXIT_CONFIG

    def test_cohen_build_and_verify(self, tmp_path):
        cfg = {
            "poset": "cohen",
            "target": {"prefix": [1, 0], "cycle": [1]},
            "dense": [{"type": "contains", "w": "01"}],
            "dense2": [{"type": "min_len", "n": 6}],
            "stages": 4,
        }
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(cfg))
        tf = tmp_path / "t.pair"
        code, out, err = run_cli(["cohen", "--config", str(cf), "--out", str(tf)])
        assert code == EXIT_OK and out.startswith("C1 ") and err == ""
        code, out, _ = run_cli(["verify", "--config", str(cf), "--transcript", str(tf)])
        assert code == EXIT_OK and out.endswith("PASS\n")

    def test_cohen_writes_the_pair_transcript(self, tmp_path, monkeypatch):
        # `--out` holds `write_pair_transcript`'s text, written fragment by
        # fragment; the file is opened only once the build is done, so a
        # build that runs out of fuel leaves none
        cf, tf = CONFIG_DIR / "cohen_ends_contains.json", tmp_path / "t.pair"
        assert run_cli(["cohen", "--config", str(cf), "--out", str(tf)])[0] == EXIT_OK
        run = parse_config(cf.read_text())
        assert tf.read_text() == write_pair_transcript(build_pair(*run.cohen_rosters(), run.target(), run.steps)[2])
        tf.unlink()
        monkeypatch.setenv("GENCO_FUEL", "1")
        code, out, err = run_cli(["cohen", "--config", str(cf), "--out", str(tf)])
        assert (code, out, err) == (EXIT_FUEL, "", "fuel exhausted: stage 0 would add 2 bits, past the fuel of 1 (step 0)\n")
        assert not tf.exists()

    @pytest.mark.parametrize("command, cfg, fuel, err", [
        ("build", [], None, "config error at <root>: expected an object"),
        ("cohen", _edit(COHEN_CFG, seed=-1), None, "config error at seed: expected a natural number"),
        ("build", COHEN_CFG, None, "config error at poset: build requires a hechler config"),
        ("plain", COHEN_CFG, None, "config error at poset: plain requires a hechler config"),
        ("cohen", HECHLER_CFG, None, "config error at poset: cohen requires a cohen config"),
        ("build", {k: v for k, v in HECHLER_CFG.items() if k != "target"}, None,
         "config error at target: build requires a target"),
        ("build", HECHLER_CFG, "0", "config error at GENCO_FUEL: must be positive"),
    ], ids=["root-list", "negative-seed", "build-cohen", "plain-cohen", "cohen-hechler", "no-target", "fuel-0"])
    def test_config_guards(self, tmp_path, monkeypatch, command, cfg, fuel, err):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(cfg))
        if fuel is not None:
            monkeypatch.setenv("GENCO_FUEL", fuel)
        got = run_cli([command, "--config", str(cf), "--out", str(tmp_path / "t")])
        assert got == (EXIT_CONFIG, "", err + "\n")


class TestVerifyMode:
    """A hechler transcript is coded when its HELP or TARGET header is
    set; it is then checked against the config's help set and target, so
    a coded header with one half null fails that half's check."""

    def _forged(self, tmp_path, line: int, text: str):
        # the honest run coding 5,5,5,... with one header line replaced,
        # verified against HECHLER_CFG, whose target is 1,0,0,...
        cf, ff, tf = tmp_path / "c.json", tmp_path / "f.json", tmp_path / "t"
        cf.write_text(json.dumps(HECHLER_CFG))
        ff.write_text(json.dumps(dict(HECHLER_CFG, target={"prefix": [], "cycle": [5]})))
        assert run_cli(["build", "--config", str(ff), "--out", str(tf)])[0] == EXIT_OK
        lines = tf.read_text().split("\n")
        lines[line] = text
        tf.write_text("\n".join(lines))
        return run_cli(["verify", "--config", str(cf), "--transcript", str(tf)])

    def test_target_nulled(self, tmp_path):
        code, out, err = self._forged(tmp_path, 2, "TARGET null")
        assert code == EXIT_VERIFY and err == ""
        assert "FAIL header.target @- transcript target None != {'prefix': [1], 'cycle': [0]}" in out
        assert "FAIL code.value @entry 1 z=62 not a member with label 1" in out

    def test_help_nulled(self, tmp_path):
        code, out, err = self._forged(tmp_path, 1, "HELP null")
        assert code == EXIT_VERIFY and err == ""
        assert "FAIL header.help @- transcript help None != {'kind': 'evens'}" in out

    def test_coded_transcript_needs_a_target(self, tmp_path):
        cf, tf = tmp_path / "c.json", tmp_path / "t"
        cf.write_text(json.dumps(HECHLER_CFG))
        assert run_cli(["build", "--config", str(cf), "--out", str(tf)])[0] == EXIT_OK
        cfg = dict(HECHLER_CFG)
        del cfg["target"]
        cf.write_text(json.dumps(cfg))
        code, out, err = run_cli(["verify", "--config", str(cf), "--transcript", str(tf)])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "config error at target: coded transcript needs a target in the config\n"


class TestEdgeRuns:
    """Runs at the edges of the verifier's checks: a floor that the tree
    must keep, and runs of no steps."""

    def _verify(self, tmp_path, cfg: dict, command: str = "build", edit=lambda text: text):
        cf, tf = tmp_path / "c.json", tmp_path / "t"
        cf.write_text(json.dumps(cfg))
        assert run_cli([command, "--config", str(cf), "--out", str(tf)])[0] == EXIT_OK
        tf.write_text(edit(tf.read_text()))
        return run_cli(["verify", "--config", str(cf), "--transcript", str(tf)])

    def test_meet_line_dropping_the_floor_fails(self, tmp_path):
        # dominate a=0 b=0 asks for a floor past an empty table; the
        # floorless tree does not extend it
        cfg = _edit(_dense({"type": "dominate", "table": [], "a": 0, "b": 0}), steps=1)
        meet = "MEET 0 stem=[];excl{};floor(table=[],a=0,b=0)\n"

        def drop(text):
            assert meet in text
            return text.replace(meet, "MEET 0 stem=[];excl{};floor(-)\n")

        code, out, err = self._verify(tmp_path, cfg, edit=drop)
        assert (code, err) == (EXIT_VERIFY, "")
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL meet.member @entry 0 condition not a member of dense set 0", "FAIL"]

    @pytest.mark.parametrize("command, cfg", [
        ("build", dict(json.loads((CONFIG_DIR / "build_evens_stemlen.json").read_text()), steps=0)),
        ("cohen", _edit(COHEN_CFG, dense=[], dense2=[], stages=0)),
    ], ids=["hechler", "cohen"])
    def test_zero_step_run_passes(self, tmp_path, command, cfg):
        code, out, err = self._verify(tmp_path, cfg, command)
        assert (code, out.splitlines()[-1], err) == (EXIT_OK, "PASS", "")
        assert "FAIL" not in out

    def test_zero_stage_pair_run_leaves_its_rosters_unmet(self, tmp_path):
        # a pair run must meet every set of both rosters, so with a set
        # to meet, the honest 0-stage run fails coverage alone
        code, out, err = self._verify(tmp_path, _edit(COHEN_CFG, stages=0), "cohen")
        assert (code, err) == (EXIT_VERIFY, "")
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [
            "FAIL coverage.roster1 @- unmet dense sets [0]",
            "FAIL coverage.roster2 @- unmet dense sets [0]",
            "FAIL",
        ]


class TestPairStageNumbers:
    """A pair transcript whose STAGE lines are not numbered 0..STAGES-1
    fails `header.stages`, naming the first misnumbered stage."""

    NAME = "cohen_two_one"

    def _verify(self, tmp_path, renumber):
        lines = (GOLDEN_DIR / f"{self.NAME}.transcript").read_text().splitlines()
        stages = [i for i, line in enumerate(lines) if line.startswith("STAGE ")]
        numbers = renumber(list(range(len(stages))))
        for i, n in zip(stages, numbers):
            parts = lines[i].split(" ")
            lines[i] = " ".join(["STAGE", str(n), *parts[2:]])
        tf = tmp_path / "t.pair"
        tf.write_text("\n".join(lines) + "\n")
        return run_cli(["verify", "--config", str(CONFIG_DIR / f"{self.NAME}.json"), "--transcript", str(tf)])

    def test_honest_numbers_pass(self, tmp_path):
        code, out, err = self._verify(tmp_path, lambda ns: ns)
        assert (code, out.splitlines()[-1], err) == (EXIT_OK, "PASS", "")

    @pytest.mark.parametrize("renumber, detail", [
        (lambda ns: [n + 2 for n in ns], "stage 0 is numbered 2"),
        (lambda ns: ns[:3] + [ns[4], ns[3]] + ns[5:], "stage 3 is numbered 4"),
        (lambda ns: ns[:5] + [ns[4]] + ns[6:], "stage 5 is numbered 4"),
    ], ids=["shift", "swap", "duplicate"])
    def test_misnumbered_stages_fail(self, tmp_path, renumber, detail):
        code, out, err = self._verify(tmp_path, renumber)
        assert (code, err) == (EXIT_VERIFY, "")
        assert f"FAIL header.stages @- {detail}" in out.splitlines()
        assert out.splitlines()[-1] == "FAIL"

    def test_count_mismatch_keeps_its_detail(self, tmp_path):
        cf = CONFIG_DIR / f"{self.NAME}.json"
        text = (GOLDEN_DIR / f"{self.NAME}.transcript").read_text().replace("STAGES 8", "STAGES 9")
        tf = tmp_path / "count.pair"
        tf.write_text(text)
        code, out, _ = run_cli(["verify", "--config", str(cf), "--transcript", str(tf)])
        assert code == EXIT_VERIFY and "FAIL header.stages @- stage count mismatch" in out.splitlines()


class TestOneSpelling:
    """Each transcript field reads only the writer's spelling: an edit that
    keeps the value but changes the text fails with exit 1."""

    @pytest.mark.parametrize("name, old, new, detail", [
        ("cohen_two_one", "\nSTAGES 8\n", "\nSTAGES \uff18\n", "bad natural '\uff18'"),
        ("cohen_two_one", "\nSTAGE 1 ", "\nSTAGE +1 ", "bad natural '+1'"),
        ("cohen_two_one", "\nSTAGE 2 ", "\nSTAGE 0_2 ", "bad natural '0_2'"),
        ("build_evens_roster4", "\nSTEPS 8\n", "\nSTEPS +8\n", "bad header: bad natural '+8'"),
        ("build_evens_roster4", "\nMEET 0 ", "\nMEET 0_0 ", "bad step line: bad natural '0_0'"),
        ("build_evens_roster4", "\nMEET 0 ", "\nMEET 00 ", "bad step line: bad natural '00'"),
        ("build_evens_roster4", "stem=[1,1];", "stem=[01,1];",
         "bad step line: malformed condition text: 'stem=[01,1];excl{};floor(-)'"),
        ("build_evens_roster4", 'HELP {"kind":"evens"}', 'HELP {"kind": "evens"}',
         """bad header: not canonical JSON: '{"kind": "evens"}'"""),
    ], ids=["stages-fullwidth", "stage-sign", "stage-underscore", "steps-sign",
            "meet-underscore", "meet-leading-zero", "stem-leading-zero", "help-spaces"])
    def test_respelled_field_fails(self, tmp_path, name, old, new, detail):
        text = (GOLDEN_DIR / f"{name}.transcript").read_text(encoding="utf-8")
        assert old in text
        tf = tmp_path / "t.transcript"
        tf.write_text(text.replace(old, new, 1), encoding="utf-8")
        code, out, err = run_cli(["verify", "--config", str(CONFIG_DIR / f"{name}.json"), "--transcript", str(tf)])
        assert (code, out, err) == (EXIT_VERIFY, f"FAIL transcript @- {detail}\nFAIL\n", "")

    @pytest.mark.parametrize("name, edit, detail", [
        ("build_evens_roster4", lambda t: t.replace("\nHELP ", "\x85HELP "), "expected HELP on line 2"),
        ("build_evens_roster4", lambda t: t.replace("\nG ", "\x0cG "), "missing footer"),
        ("build_evens_roster4", lambda t: t[:-1], "transcript does not end with a newline"),
        ("cohen_two_one", lambda t: t.replace("\nROSTER2 ", "\x85ROSTER2 "), "expected ROSTER2 on line 2"),
        ("cohen_two_one", lambda t: t.replace("\nC2 ", "\u2028C2 "), "expected C1 on line 12"),
        ("cohen_two_one", lambda t: t[:-1], "transcript does not end with a newline"),
    ], ids=["nel", "form-feed", "no-final-newline", "pair-nel", "pair-line-separator", "pair-no-final-newline"])
    def test_only_newline_ends_a_line(self, tmp_path, name, edit, detail):
        tf = tmp_path / "t.transcript"
        tf.write_text(edit((GOLDEN_DIR / f"{name}.transcript").read_text(encoding="utf-8")), encoding="utf-8")
        code, out, err = run_cli(["verify", "--config", str(CONFIG_DIR / f"{name}.json"), "--transcript", str(tf)])
        assert (code, out, err) == (EXIT_VERIFY, f"FAIL transcript @- {detail}\nFAIL\n", "")

    @pytest.mark.parametrize("name", ["build_evens_roster4", "cohen_two_one"])
    def test_crlf_file_verifies(self, tmp_path, name):
        # files are read in text mode, which turns each \r\n into \n
        tf = tmp_path / "t.transcript"
        tf.write_bytes((GOLDEN_DIR / f"{name}.transcript").read_bytes().replace(b"\n", b"\r\n"))
        code, out, err = run_cli(["verify", "--config", str(CONFIG_DIR / f"{name}.json"), "--transcript", str(tf)])
        assert (code, out.splitlines()[-1], err) == (EXIT_OK, "PASS", "")

    def test_target_is_compared_as_canonical_text(self, tmp_path):
        # 3.0 == 3 and False == 0 in Python, but not in the transcript text
        name = "build_evens_roster4"
        text = (GOLDEN_DIR / f"{name}.transcript").read_text()
        old = 'TARGET {"cycle":[3,0],'
        assert old in text
        tf = tmp_path / "t.transcript"
        tf.write_text(text.replace(old, 'TARGET {"cycle":[3.0,false],'))
        code, out, err = run_cli(["verify", "--config", str(CONFIG_DIR / f"{name}.json"), "--transcript", str(tf)])
        assert (code, err) == (EXIT_VERIFY, "")
        assert out.splitlines()[2].startswith("FAIL header.target @- ")
        assert out.splitlines()[-1] == "FAIL"

    def test_pair_target_is_compared_as_canonical_text(self, tmp_path):
        name = "cohen_two_one"
        text = (GOLDEN_DIR / f"{name}.transcript").read_text()
        old = 'TARGET {"cycle":[1,1,0],'
        assert old in text
        tf = tmp_path / "t.pair"
        tf.write_text(text.replace(old, 'TARGET {"cycle":[true,1,0],'))
        code, out, err = run_cli(["verify", "--config", str(CONFIG_DIR / f"{name}.json"), "--transcript", str(tf)])
        assert (code, err) == (EXIT_VERIFY, "")
        assert "FAIL header.target @- target mismatch" in out.splitlines()

    @pytest.mark.parametrize("argv, field", [
        (["decode", "--help-config", "HELP", "--g", "[01]"], "g"),
        (["rank", "--dense", '{"type":"stem_length","n":3}', "--node", "[01]"], "node"),
    ], ids=["decode", "rank"])
    def test_leading_zero_argument_rejected(self, tmp_path, argv, field):
        hf = tmp_path / "help.json"
        hf.write_text('{"kind":"evens"}')
        argv = [str(hf) if a == "HELP" else a for a in argv]
        code, out, err = run_cli(argv)
        assert (code, out, err) == (EXIT_CONFIG, "", f"config error at {field}: bad sequence entry '01' in '[01]'\n")


def run_genco(argv: list[str], fuel: str | None = None) -> tuple[int, str, str, float]:
    """Run the genco command in a fresh process: exit code, stdout,
    stderr and wall seconds."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("GENCO_FUEL", None)
    if fuel is not None:
        env["GENCO_FUEL"] = fuel
    start = time.perf_counter()
    p = subprocess.run(
        [sys.executable, "-m", "genco", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return p.returncode, p.stdout, p.stderr, time.perf_counter() - start


class TestTooLarge:
    """Numbers too large for the fuel or for str(int) end within 2 s, with
    no traceback: exit 3 for an honest run, exit 1 for a forgery."""

    def _build(self, tmp_path, help_cfg: dict, label: int):
        cfg = dict(HECHLER_CFG, help=help_cfg, target={"prefix": [], "cycle": [label]}, steps=1)
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(cfg))
        return run_genco(["build", "--config", str(cf), "--out", str(tmp_path / "t")])

    def test_prime_label_30(self, tmp_path):
        code, out, err, seconds = self._build(tmp_path, {"kind": "primes"}, 30)
        assert code == EXIT_FUEL and out == "" and "Traceback" not in err
        assert f"prime index {2**30 - 1} " in err and "(step 0)" in err
        assert seconds < 2

    def test_selfcode_element_past_digit_limit(self, tmp_path):
        help_cfg = {"kind": "selfcode", "abar": {"prefix": [], "cycle": [1]}}
        code, out, err, seconds = self._build(tmp_path, help_cfg, 10)
        assert code == EXIT_FUEL and out == "" and "Traceback" not in err
        assert "6974 digits" in err and "(step 0)" in err
        assert seconds < 2

    @pytest.mark.parametrize("kind", ["primes", "selfcode"])
    def test_label_6_takes_the_fuel(self, tmp_path, kind):
        # the least label-6 member is element 63, which reads the prime of
        # index 63
        help_cfg = {"kind": kind}
        if kind == "selfcode":
            help_cfg["abar"] = {"prefix": [], "cycle": [0]}
        cfg = dict(HECHLER_CFG, help=help_cfg, target={"prefix": [], "cycle": [6]}, steps=1)
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(cfg))
        args = ["build", "--config", str(cf), "--out", str(tmp_path / "t")]
        code, out, err, seconds = run_genco(args, fuel="3")
        assert code == EXIT_FUEL and out == "" and "Traceback" not in err
        assert err == "fuel exhausted: prime index 63 is past the fuel of 3 (step 0)\n"
        assert seconds < 2
        assert run_genco(args, fuel="64")[0] == EXIT_OK

    def _forged_floors(self, tmp_path, floor: str):
        # every floor of the honest one-step run of [dominate a=1 b=0]
        # replaced by `floor`
        cfg = dict(
            HECHLER_CFG,
            target={"prefix": [], "cycle": [0]},
            dense=[{"type": "dominate", "table": [], "a": 1, "b": 0}],
            steps=1,
        )
        cf, tf = tmp_path / "c.json", tmp_path / "t"
        cf.write_text(json.dumps(cfg))
        assert run_genco(["build", "--config", str(cf), "--out", str(tf)])[0] == EXIT_OK
        text = tf.read_text()
        forged = text.replace("floor(table=[],a=1,b=0)", floor)
        assert forged.count(floor) == 2
        tf.write_text(forged)
        return run_genco(["verify", "--config", str(cf), "--transcript", str(tf)])

    def test_deep_floor_forgery(self, tmp_path):
        # the floors raised to the constant 40000: the dense-set check
        # builds a witness node 40002 entries long
        code, out, err, seconds = self._forged_floors(tmp_path, "floor(table=[],a=0,b=40000)")
        assert code == EXIT_VERIFY and err == ""
        assert out.splitlines() == [
            "ok header.roster @-",
            "ok header.help @-",
            "ok header.target @-",
            "ok structure @-",
            "ok chain.extends @entry 0",
            "FAIL meet.member @entry 0 condition not a member of dense set 0",
            "ok meet.avoid @entry 0",
            "FAIL chain.extends @entry 1 witness (4,)",
            "ok code.step @entry 1",
            "ok code.value @entry 1",
            "ok footer.g @-",
            "ok decode.prefix @-",
            "FAIL",
        ]
        assert seconds < 2

    @pytest.mark.parametrize("b", [10**7, 10**18])
    def test_far_floor_forgery(self, tmp_path, b):
        # the dense-set check finds the floor gap at level b + 1 by
        # arithmetic, without building a node that long
        code, out, err, seconds = self._forged_floors(tmp_path, f"floor(table=[],a=0,b={b})")
        assert (code, out, err) == self._forged_floors(tmp_path, "floor(table=[],a=0,b=40000)")[:3]
        assert code == EXIT_VERIFY and seconds < 2

    def test_agreeing_floor_table_forgery(self, tmp_path):
        # the floors written with a 10^5-entry table that agrees with the
        # tail throughout, so the canonical floor trims it all away; the
        # FAIL line quotes only the head of the 588 KB condition text
        floor = f"floor(table=[{','.join(map(str, range(100_000)))}],a=1,b=0)"
        code, out, err, seconds = self._forged_floors(tmp_path, floor)
        assert code == EXIT_VERIFY and err == ""
        cond = f"stem=[];excl{{}};{floor}"
        line = f"FAIL transcript @- bad step line: malformed condition text: {cond[:QUOTE_CAP]!r}... ({len(cond)} characters)"
        assert out == f"{line}\nFAIL\n"
        assert len(line) < 2 * QUOTE_CAP
        assert seconds < 2

    @pytest.mark.parametrize("name, old, new, detail", [
        ("build_evens_roster4", "\nSTEPS 8\n", "\nSTEPS {}\n", "bad header: bad natural "),
        ("build_evens_roster4", "\nMEET 0 ", "\nMEET {} ", "bad step line: bad natural "),
        ("build_evens_roster4", 'HELP {"kind":"evens"}', 'HELP {{"kind":{}"evens"}}',
         "bad header: not canonical JSON: "),
        ("cohen_two_one", "\nSTAGE 1 ", "\nSTAGE {} ", "bad natural "),
        ("cohen_two_one", "\nSTAGES 8\n", "\nSTAGES {}\n", "bad natural "),
    ], ids=["steps", "meet-index", "help-json", "stage-index", "stages"])
    def test_long_field_is_quoted_capped(self, tmp_path, name, old, new, detail):
        # one field respelled to 10^6 characters: the FAIL line quotes
        # only its head and its length
        filler = " " * 10**6 if "JSON" in detail else "0" * 10**6
        text = (GOLDEN_DIR / f"{name}.transcript").read_text()
        assert old in text
        tf = tmp_path / "t.transcript"
        tf.write_text(text.replace(old, new.format(filler), 1))
        code, out, err = run_cli(["verify", "--config", str(CONFIG_DIR / f"{name}.json"), "--transcript", str(tf)])
        line, verdict = out.splitlines()
        assert (code, verdict, err) == (EXIT_VERIFY, "FAIL", "")
        assert line.startswith(f"FAIL transcript @- {detail}") and line.endswith(" characters)")
        assert len(line) < 2 * QUOTE_CAP

    def _forged_steps(self, tmp_path, command: str, dense: list):
        # the honest one-step run, its STEPS header raised to 10^11
        cfg = dict(HECHLER_CFG, target={"prefix": [], "cycle": [0]}, dense=dense, steps=1)
        cf, tf = tmp_path / "c.json", tmp_path / "t"
        cf.write_text(json.dumps(cfg))
        assert run_genco([command, "--config", str(cf), "--out", str(tf)])[0] == EXIT_OK
        text = tf.read_text()
        assert "\nSTEPS 1\n" in text
        tf.write_text(text.replace("\nSTEPS 1\n", "\nSTEPS 100000000000\n"))
        return run_genco(["verify", "--config", str(cf), "--transcript", str(tf)])

    def test_forged_step_count(self, tmp_path):
        dense = [{"type": "dominate", "table": [], "a": 1, "b": 0}]
        code, out, err, seconds = self._forged_steps(tmp_path, "build", dense)
        assert code == EXIT_VERIFY and err == ""
        assert out.splitlines() == [
            "ok header.roster @-",
            "ok header.help @-",
            "ok header.target @-",
            "FAIL structure @- entries [('MEET', 0), ('CODE', 0)]... do not match the declared step count/mode",
            "ok chain.extends @entry 0",
            "ok meet.member @entry 0",
            "ok meet.avoid @entry 0",
            "ok chain.extends @entry 1",
            "ok code.step @entry 1",
            "ok code.value @entry 1",
            "ok footer.g @-",
            "ok decode.prefix @-",
            "FAIL",
        ]
        assert seconds < 2

    def test_forged_step_count_of_empty_plain_run(self, tmp_path):
        # no entry is due at any step, so every step count agrees
        code, out, err, seconds = self._forged_steps(tmp_path, "plain", [])
        assert code == EXIT_OK and err == ""
        assert out.splitlines() == [
            "ok header.roster @-",
            "ok header.help @-",
            "ok header.target @-",
            "ok structure @-",
            "ok footer.g @-",
            "PASS",
        ]
        assert seconds < 2

    @pytest.mark.parametrize("entry", [10**7, 10**8])
    def test_selfcode_power_past_digit_limit(self, tmp_path, entry):
        # 3**(entry+1) is never taken: its size is known from logarithms
        help_cfg = {"kind": "selfcode", "abar": {"prefix": [], "cycle": [entry]}}
        code, out, err, seconds = self._build(tmp_path, help_cfg, 1)
        assert code == EXIT_FUEL and out == "" and "Traceback" not in err
        assert "selfcode element 1 has more than" in err and "(step 0)" in err
        assert seconds < 2

    def _cohen(self, tmp_path, n: int, fuel: str | None = None):
        cfg = dict(COHEN_CFG, dense=[{"type": "min_len", "n": n}], dense2=[], stages=1)
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(cfg))
        return run_genco(["cohen", "--config", str(cf), "--out", str(tmp_path / "t")], fuel=fuel)

    def test_cohen_min_len_past_fuel(self, tmp_path):
        code, out, err, seconds = self._cohen(tmp_path, 10**18)
        assert code == EXIT_FUEL and out == "" and "Traceback" not in err
        assert f"stage 0 would add {10**18} bits" in err
        assert seconds < 2

    def test_cohen_takes_the_fuel(self, tmp_path):
        code, out, err, _ = self._cohen(tmp_path, 51, fuel="50")
        assert code == EXIT_FUEL and out == "" and "past the fuel of 50" in err
        code, out, err, _ = self._cohen(tmp_path, 50, fuel="50")
        assert code == EXIT_OK and err == ""
        assert out == f"C1 {'0' * 50}1\nC2 {'0' * 50}1\n"

    @pytest.mark.parametrize("dense, met", [
        ({"type": "contains", "w": "11"}, False),
        ({"type": "contains", "w": "01"}, True),
        ({"type": "ends_with", "w": "11"}, False),
        ({"type": "ends_with", "w": "01"}, True),
        ({"type": "min_len", "n": 2}, False),
        ({"type": "min_len", "n": 1}, True),
    ], ids=["contains-unmet", "contains-met", "ends_with-unmet", "ends_with-met", "min_len-unmet", "min_len-met"])
    def test_long_pair_stage(self, tmp_path, dense, met):
        # one stage of `bits` zeros and a marker, whose set is met, if at
        # all, by the whole string only; a min_len bound counts past `bits`
        def run(bits):
            D = cohen_from_config(dict(dense, n=bits + dense["n"]) if "n" in dense else dense)
            x = EventuallyPeriodicSeq((), (0,))
            p, q = bytes(bits) + b"\x01", bytes(bits + 1)
            t = oracles.pair_from_snapshots(roster_hash([D]), roster_hash([]), x.config(), 1,
                                            [oracles.PairStage(0, p, q)], p, q)
            return D, x, t

        # the scan of the oracle's `contains` is quadratic in each prefix
        small = 2_000 if dense["type"] == "contains" else 20_000
        D, x, t = run(small)
        report = verify_pair([D], [], x, t)
        assert report.checks == oracles.verify_pair([D], [], x, oracles.pair_as_tuples(t)).checks
        assert report.ok == met

        D, x, t = run(10**6)
        cf, tf = tmp_path / "c.json", tmp_path / "t.pair"
        cf.write_text(json.dumps(dict(COHEN_CFG, dense=[D.config()], dense2=[], target=x.config(), stages=1)))
        tf.write_text(write_pair_transcript(t))
        code, out, err, seconds = run_genco(["verify", "--config", str(cf), "--transcript", str(tf)])
        assert (code, out, err) == (EXIT_OK if met else EXIT_VERIFY, "\n".join(report.lines()) + "\n", "")
        assert seconds < 2

    def test_fuel_message_quotes_a_capped_node(self, tmp_path):
        # the walk toward a 10^6-entry stem stops at the fuel, two probes
        # (the even 0, then 1) per entry; the message quotes the head of
        # the node it reached, not the whole node
        cfg = json.loads((CONFIG_DIR / "build_evens_roster4.json").read_text())
        cfg.update(dense=[{"type": "stem_length", "n": 1_000_000}], steps=1)
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(cfg))
        code, out, err, seconds = run_genco(["build", "--config", str(cf), "--out", str(tmp_path / "t")], fuel="2000")
        assert code == EXIT_FUEL and out == "" and "Traceback" not in err
        node = f"[{','.join(['1'] * 1000)}]"
        assert err == (
            f"fuel exhausted: no legal avoided successor of {node[:QUOTE_CAP]!r}... "
            f"({len(node)} characters) within 2000 probes (step 0)\n"
        )
        assert len(err) < 2 * QUOTE_CAP + 100
        assert seconds < 2
        # the transcript file is opened only once the build is done
        assert not (tmp_path / "t").exists()

    def test_walk_makes_every_probe_of_the_fuel(self, tmp_path):
        # the walk tests the even 0, then takes 1: two probes, all the fuel
        dense = [{"type": "stem_length", "n": 1}]
        cfg = dict(HECHLER_CFG, target={"prefix": [], "cycle": [0]}, dense=dense, steps=1)
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(cfg))
        code, out, err, _ = run_genco(["build", "--config", str(cf), "--out", str(tmp_path / "t")], fuel="2")
        assert (code, out, err) == (EXIT_OK, "[1,0]\n", "")

    def test_rank_search_is_not_recursive(self):
        # 1200 levels of one node each: deeper than the recursion limit
        dense = '{"type":"stem_length","n":100000}'
        args = ["rank", "--dense", dense, "--node", "[]", "--max-rank", "1200", "--width", "1"]
        code, out, err, seconds = run_genco(args)
        assert (code, out, err) == (EXIT_OK, "null\n", "")
        assert seconds < 2

    @pytest.mark.parametrize("dense, options, fuel", [
        ('{"type":"stem_length","n":100000}', ["--max-rank", "5000"], "1000"),
        ('{"type":"stem_length","n":3}', ["--width", "1000000"], "10"),
    ], ids=["deep", "wide"])
    def test_rank_takes_the_fuel(self, dense, options, fuel):
        code, out, err, seconds = run_genco(["rank", "--dense", dense, "--node", "[]", *options], fuel=fuel)
        assert (code, out, err) == (EXIT_FUEL, "", f"fuel exhausted: rank of '[]' not found within {fuel} probes\n")
        assert seconds < 2

    def test_decode_large_prime(self, tmp_path):
        hf = tmp_path / "h.json"
        hf.write_text('{"kind":"primes"}')
        code, out, err, seconds = run_genco(["decode", "--help-config", str(hf), "--g", f"[4,{10**15 + 37}]"])
        assert code == EXIT_FUEL and out == "" and "Traceback" not in err
        assert str(10**15 + 37) in err
        assert seconds < 2

    def test_verify_and_decode_take_the_fuel(self, tmp_path):
        # the largest CODE value of this golden is 7, prime index 3
        name = "build_primes_stemlen"
        args = ["verify", "--config", str(CONFIG_DIR / f"{name}.json"),
                "--transcript", str(GOLDEN_DIR / f"{name}.transcript")]
        assert run_genco(args, fuel="4")[0] == EXIT_OK
        code, out, err, _ = run_genco(args, fuel="3")
        assert code == EXIT_FUEL and out == "" and "index 3 of the prime 7" in err
        hf = tmp_path / "h.json"
        hf.write_text('{"kind":"primes"}')
        assert run_genco(["decode", "--help-config", str(hf), "--g", "[7]"], fuel="4")[:2] == (EXIT_OK, "[2]\n")
        assert run_genco(["decode", "--help-config", str(hf), "--g", "[7]"], fuel="3")[0] == EXIT_FUEL


class TestHostileBytes:
    """Bytes that are not text, JSON nested past the interpreter's
    recursion limit and numbers past its int-to-str digit limit end
    with genco's own message and exit code, not a traceback."""

    @staticmethod
    def _verify(tmp_path, name: str, data: bytes):
        tf = tmp_path / "t.transcript"
        tf.write_bytes(data)
        return run_cli(["verify", "--config", str(CONFIG_DIR / f"{name}.json"), "--transcript", str(tf)])

    @pytest.mark.parametrize("name, anchor, byte, reason", [
        ("build_evens_stemlen", b"STEPS 6", b"\xc3", "invalid continuation byte"),
        ("cohen_two_one", b"ROSTER1 ", b"\xff", "invalid start byte"),
    ], ids=["hechler", "cohen"])
    def test_transcript_not_in_utf8_fails_as_a_transcript(self, tmp_path, name, anchor, byte, reason):
        raw = (GOLDEN_DIR / f"{name}.transcript").read_bytes()
        at = raw.index(anchor) + len(anchor)
        code, out, err = self._verify(tmp_path, name, raw[:at] + byte + raw[at:])
        detail = f"'utf-8' codec can't decode byte 0x{byte.hex()} in position {at}: {reason}"
        assert (code, out, err) == (EXIT_VERIFY, f"FAIL transcript @- {detail}\nFAIL\n", "")

    def test_config_not_in_utf8_is_a_config_error(self, tmp_path):
        cf = tmp_path / "c.json"
        cf.write_bytes(b'{"poset": "\xff"}')
        tf = GOLDEN_DIR / "cohen_two_one.transcript"
        code, out, err = run_cli(["verify", "--config", str(cf), "--transcript", str(tf)])
        assert (code, out) == (EXIT_CONFIG, "") and err.startswith("config error: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("name, idx, head", [
        ("build_evens_stemlen", 1, "HELP "),
        ("cohen_two_one", 2, "TARGET "),
    ], ids=["hechler", "cohen"])
    def test_deep_transcript_header_fails(self, tmp_path, name, idx, head):
        lines = (GOLDEN_DIR / f"{name}.transcript").read_text().split("\n")
        deep = "[" * 10**5 + "]" * 10**5
        lines[idx] = head + deep
        code, out, err = self._verify(tmp_path, name, "\n".join(lines).encode())
        detail = "bad header: " if name.startswith("build") else ""
        line = f"FAIL transcript @- {detail}JSON nested too deeply: {quoted(deep)}"
        assert (code, out, err) == (EXIT_VERIFY, f"{line}\nFAIL\n", "")
        assert len(line) < 2 * QUOTE_CAP

    def test_deep_config_json_is_a_config_error(self, tmp_path):
        deep = "[" * 10**5 + "]" * 10**5
        cf = tmp_path / "c.json"
        cf.write_text(f'{{"poset": {deep}}}')
        want = (EXIT_CONFIG, "", "config error at <json>: JSON nested too deeply\n")
        assert run_cli(["build", "--config", str(cf), "--out", str(tmp_path / "t")]) == want
        assert run_cli(["decode", "--help-config", str(cf), "--g", "[]"]) == want
        want = (EXIT_CONFIG, "", "config error at dense: JSON nested too deeply\n")
        assert run_cli(["rank", "--dense", deep, "--node", "[]"]) == want

    @pytest.mark.parametrize("name, pattern, detail", [
        ("build_evens_roster4", r"\nSTEPS (8)\n", "bad header: bad natural "),
        ("build_evens_roster4", r"\nMEET (0) ", "bad step line: bad natural "),
        ("build_evens_roster4", r"\nCODE 0 (2) ", "bad step line: bad natural "),
        ("build_evens_roster4", r"\nG \[(1),", "bad step line: bad sequence entry "),
        ("cohen_two_one", r"\nSTAGES (8)\n", "bad natural "),
        ("cohen_two_one", r"\nSTAGE (1) ", "bad natural "),
    ], ids=["steps", "meet-index", "code-z", "g-entry", "stages", "stage-index"])
    def test_number_past_digit_limit(self, tmp_path, name, pattern, detail):
        limit = str_digit_limit()
        if not limit:
            pytest.skip("no int-to-str digit limit before Python 3.10.7")
        digits = "1" * (limit + 700)
        text = (GOLDEN_DIR / f"{name}.transcript").read_text()
        m = re.search(pattern, text)
        code, out, err = self._verify(tmp_path, name, (text[: m.start(1)] + digits + text[m.end(1) :]).encode())
        line = f"FAIL transcript @- {detail}{quoted(digits)}: more than {limit} digits"
        assert (code, out, err) == (EXIT_VERIFY, f"{line}\nFAIL\n", "")
        assert len(line) < 2 * QUOTE_CAP

    @pytest.fixture
    def long_number(self):
        limit = str_digit_limit()
        if not limit:
            pytest.skip("no int-to-str digit limit before Python 3.10.7")
        return "1" * (limit + 700)

    def test_target_header_number_past_digit_limit(self, tmp_path, long_number):
        name = "build_evens_roster4"
        text = (GOLDEN_DIR / f"{name}.transcript").read_text()
        old = '\nTARGET {"cycle":[3,0],"prefix":[1,0,2]}\n'
        assert old in text
        target = f'{{"cycle":[{long_number},0],"prefix":[1,0,2]}}'
        code, out, err = self._verify(tmp_path, name, text.replace(old, f"\nTARGET {target}\n").encode())
        line = f"FAIL transcript @- bad header: JSON number of more than {str_digit_limit()} digits: {quoted(target)}"
        assert (code, out, err) == (EXIT_VERIFY, f"{line}\nFAIL\n", "")
        assert len(line) < 2 * QUOTE_CAP

    def test_config_number_past_digit_limit(self, tmp_path, long_number):
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps(HECHLER_CFG).replace('"steps": 4', f'"steps": {long_number}'))
        err = f"config error at <json>: JSON number of more than {str_digit_limit()} digits\n"
        assert run_cli(["build", "--config", str(cf), "--out", str(tmp_path / "t")]) == (EXIT_CONFIG, "", err)
        assert len(err) < 2 * QUOTE_CAP

    def test_fuel_past_digit_limit(self, long_number, monkeypatch):
        monkeypatch.setenv("GENCO_FUEL", long_number)
        code, out, err = run_cli(["rank", "--dense", '{"type":"stem_length","n":3}', "--node", "[]"])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"config error at GENCO_FUEL: {quoted(long_number)} has more than {str_digit_limit()} digits\n"
        assert len(err) < 2 * QUOTE_CAP


class TestStartUp:
    """`import genco` runs no code generation and leaves argparse to
    `main`; the command line behaves as before."""

    def test_import_loads_no_dataclasses_inspect_or_argparse(self):
        # -S: no site hooks, so only what genco itself imports is loaded
        code = (
            "import sys, genco, genco.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'typing', 'argparse'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        p = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (p.returncode, p.stdout, p.stderr) == (0, "[]\n", "")

    def test_import_compiles_no_source_string(self):
        # a NamedTuple evals its __new__ and compiles each string annotation;
        # a Record reads only the annotations' names.  The stdlib modules
        # genco uses are imported before the hook, so only genco is watched.
        code = (
            "import array, bisect, collections, functools, itertools, json, math, operator, sys\n"
            "compiled = []\n"
            "sys.addaudithook(lambda event, args: event == 'compile' and args[1] == '<string>'"
            " and compiled.append(args[0]))\n"
            "import genco, genco.cli\n"
            "print(len(compiled))"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        p = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (p.returncode, p.stdout, p.stderr) == (0, "0\n", "")

    @pytest.mark.skipif(
        not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
        reason="this interpreter has no builtin SHA-256 module",
    )
    def test_import_loads_no_hashlib(self):
        # roster_hash takes the builtin sha256, so OpenSSL stays unmapped
        code = "import sys, genco, genco.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        p = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (p.returncode, p.stdout, p.stderr) == (0, "[]\n", "")

    def test_roster_hash_is_hashlib_sha256(self):
        for path in corpus_paths():
            run = parse_config(path.read_text())
            rosters = run.cohen_rosters() if run.poset == "cohen" else (run.roster(),)
            for roster in rosters:
                text = canonical_json([D.config() for D in roster])
                assert roster_hash(roster) == hashlib.sha256(text.encode("ascii")).hexdigest(), path.name

    def test_hashlib_fallback_gives_the_same_digest(self):
        # with both builtin modules blocked, the import falls back to hashlib
        code = (
            "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib, genco, genco.serialize as s\n"
            "roster = [genco.StemLengthSet(3), genco.DominateSet(genco.FloorRule((1, 2), 0, 3))]\n"
            "print(s.sha256 is hashlib.sha256, s.roster_hash(roster))"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        p = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
        roster = [StemLengthSet(3), DominateSet(FloorRule((1, 2), 0, 3))]
        assert (p.returncode, p.stdout, p.stderr) == (0, f"True {roster_hash(roster)}\n", "")

    def test_help_and_missing_command(self):
        code, out, err, _ = run_genco(["--help"])
        assert code == EXIT_OK and out.startswith("usage: genco") and err == ""
        code, out, err, _ = run_genco([])
        assert code == EXIT_CONFIG and out == "" and err.startswith("usage: genco")


class TestCorpus:
    def test_corpus_is_broad(self):
        paths = corpus_paths()
        assert len(paths) >= 20
        text = "".join(p.read_text() for p in paths)
        for needle in (
            "stem_length", "stem_hits", "dominate", "user_stems",
            "contains", "min_len", "ends_with",
            "evens", "primes", "selfcode", "explicit",
        ):
            assert needle in text, needle

    def test_build_verify_pipeline(self, tmp_path):
        for path in corpus_paths():
            tf = tmp_path / (path.stem + ".transcript")
            code, out, err = build_transcript(path, tf)
            assert code == EXIT_OK, (path.name, err)
            assert err == ""
            code, out, err = run_cli(
                ["verify", "--config", str(path), "--transcript", str(tf)]
            )
            assert code == EXIT_OK, (path.name, out, err)
            assert err == ""
