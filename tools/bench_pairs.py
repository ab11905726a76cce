"""Paired benchmark runs of a parent and a change checkout, as a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload coded_long --seeds 1-10 --seconds 25 --out BENCH_16.json

For each workload (`--workload` may be given more than once) and each
seed, the benchmark command of BENCHMARK.json, `python3 perfbench/run.py`
with `--workload W --seed N --seconds S --trace 0`, runs once in each
checkout, one run at a time: the parent first on odd seeds, the change
first on even ones.  The last line of each run's output is kept as it
was printed.  Nothing under `perfbench/` is changed; each run writes its
per-sample figures to its own checkout's `perfbench/out/`.

The output holds, per workload and per end-to-end metric of
BENCHMARK.json:
- each side's median and first and third quartiles over the seeds
  (`statistics.quantiles(method="inclusive")`);
- the change/parent ratio of each seed;
- the pairs the change wins (ties count for neither side);
- `gain`: the change wins at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's interquartile
  range;
- `within_bound`: the change's median is no worse than the parent's by
  more than the metric's bound;
and `runs`, every result line, from which all of it can be recomputed.
`parent_commit` and `change_commit` name each checkout's commit (null
when it is not a git work tree).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """`1-10`, `1,3,5` or a mix such as `1-4,9`, in the order given."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def run_once(command: list[str], checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """The last output line of one benchmark run in `checkout`."""
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    return lines[-1]


def git_commit(checkout: Path) -> str | None:
    """The commit checked out in `checkout`; None when it is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _quartiles(vals: list[float]) -> list[float]:
    if len(vals) < 2:
        return [vals[0], vals[0]]
    q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-workload figures of `runs`, each a dict with `side`
    (`parent` or `change`), `workload`, `seed` and the result `line`."""
    results: dict = {}
    for run in runs:
        results.setdefault(run["workload"], {}).setdefault(run["seed"], {})[run["side"]] = json.loads(run["line"])
    out = {}
    for workload, by_seed in results.items():
        seeds = sorted(s for s, sides in by_seed.items() if len(sides) == 2)
        pairs = [(by_seed[s]["parent"], by_seed[s]["change"]) for s in seeds]
        entry: dict = {
            "seeds": seeds,
            "pairs": len(pairs),
            "correct": {side: all(p[i]["correct"] for p in pairs) for i, side in enumerate(("parent", "change"))},
            "failed_ops": {
                side: f"{sum(p[i]['failed'] for p in pairs)}/{sum(p[i]['attempted'] for p in pairs)}"
                for i, side in enumerate(("parent", "change"))
            },
            "metrics": {},
        }
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            pm, cm = statistics.median(parent), statistics.median(change)
            pq, cq = _quartiles(parent), _quartiles(change)
            gain = (pm - cm) if lower else (cm - pm)
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "parent": pm,
                "change": cm,
                "parent_quartiles": pq,
                "change_quartiles": cq,
                "ratios": [c / p if p else None for p, c in zip(parent, change)],
                "change_better_pairs": f"{wins}/{len(pairs)}",
                "gain": 10 * wins >= 9 * len(pairs) and gain > pq[1] - pq[0],
                "within_bound": -gain <= metric["bound"] * abs(pm),
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, action="append", help="a workload of BENCHMARK.json")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="such as 1-10")
    parser.add_argument("--seconds", required=True, type=float, help="--seconds of each run")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    known = {w["name"] for w in bench["workloads"]}
    for w in args.workload:
        if w not in known:
            parser.error(f"unknown workload {w!r}; BENCHMARK.json has {sorted(known)}")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for workload in args.workload:
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                line = run_once(bench["command"], sides[side], workload, seed, args.seconds)
                runs.append({"side": side, "workload": workload, "seed": seed, "line": line})
                print(f"{workload} seed {seed} {side}: {line}", file=sys.stderr)
    result = {
        "description": __doc__.split("\n\n", 2)[2].strip(),
        "parent_commit": git_commit(sides["parent"]),
        "change_commit": git_commit(sides["change"]),
        "command": " ".join(bench["command"]) + f" --workload W --seed N --seconds {args.seconds:g} --trace 0",
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}",
        "workloads": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
