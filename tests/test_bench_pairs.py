"""The summary of `tools/bench_pairs.py`, on canned result lines, and the
commits it records."""

from __future__ import annotations

import importlib.util
import json
import subprocess

import pytest

from corpus import REPO

_spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "build_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "transcript_bytes", "unit": "B", "better": "lower", "bound": 0.1},
]


def _line(build_s: float, size: float = 100.0, failed: int = 0) -> str:
    metrics = {"build_s": {"value": build_s, "unit": "s"}, "transcript_bytes": {"value": size, "unit": "B"}}
    return json.dumps({"correct": True, "attempted": 10, "failed": failed, "metrics": metrics})


def _runs(parent: list[float], change: list[float], workload: str = "coded_long") -> list[dict]:
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        runs.append({"side": "parent", "workload": workload, "seed": seed, "line": _line(p)})
        runs.append({"side": "change", "workload": workload, "seed": seed, "line": _line(c)})
    return runs


def test_medians_quartiles_ratios_and_wins():
    parent = [0.050, 0.052, 0.048, 0.051, 0.049]
    change = [0.040, 0.041, 0.049, 0.039, 0.040]
    got = bench_pairs.summarize(_runs(parent, change), END_TO_END)["coded_long"]
    assert got["seeds"] == [1, 2, 3, 4, 5] and got["pairs"] == 5
    assert got["failed_ops"] == {"parent": "0/50", "change": "0/50"}
    assert got["correct"] == {"parent": True, "change": True}
    build = got["metrics"]["build_s"]
    assert (build["parent"], build["change"]) == (0.050, 0.040)
    assert build["parent_quartiles"] == pytest.approx([0.049, 0.051])
    assert build["ratios"] == pytest.approx([c / p for p, c in zip(parent, change)])
    # seed 3 is a loss: 4 wins of 5 is under nine tenths
    assert build["change_better_pairs"] == "4/5" and build["gain"] is False
    assert build["within_bound"] is True
    size = got["metrics"]["transcript_bytes"]
    assert size["change_better_pairs"] == "0/5" and size["gain"] is False and size["within_bound"] is True


def test_gain_needs_nine_tenths_and_a_gap_past_the_spread():
    parent = [0.050 + 0.001 * i for i in range(10)]
    clear = bench_pairs.summarize(_runs(parent, [p * 0.7 for p in parent]), END_TO_END)
    assert clear["coded_long"]["metrics"]["build_s"]["gain"] is True
    # wins every pair, but by less than the parent's interquartile range
    close = bench_pairs.summarize(_runs(parent, [p - 0.0005 for p in parent]), END_TO_END)
    assert close["coded_long"]["metrics"]["build_s"]["change_better_pairs"] == "10/10"
    assert close["coded_long"]["metrics"]["build_s"]["gain"] is False


def test_regression_past_the_bound_and_unpaired_seeds():
    runs = _runs([0.05, 0.05, 0.05], [0.07, 0.07, 0.07], "help_heavy")
    runs.append({"side": "parent", "workload": "help_heavy", "seed": 9, "line": _line(0.05, failed=1)})
    got = bench_pairs.summarize(runs, END_TO_END)["help_heavy"]
    # seed 9 has no change run, so it is left out of every figure
    assert got["seeds"] == [1, 2, 3] and got["failed_ops"]["parent"] == "0/30"
    assert got["metrics"]["build_s"]["within_bound"] is False


def test_seed_lists():
    assert bench_pairs.parse_seeds("1-4,9") == [1, 2, 3, 4, 9]
    assert bench_pairs.parse_seeds("3") == [3]


def test_commits_are_read_from_each_checkout(tmp_path, monkeypatch):
    # git looks no higher than tmp_path for a work tree
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_pairs.git_commit(plain) is None
    repo = tmp_path / "repo"
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.org",
           "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "empty"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    assert len(head) == 40 and bench_pairs.git_commit(repo) == head
