"""genco benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload coded_long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds genco's sources in `src/`.
A sample is one whole pass of the workload: a fresh worker process sets
up and builds every config of the pass, then another fresh worker sets
up, parses and verifies every transcript of the pass.  Workers run one
at a time.  Samples repeat until `--seconds` have passed (at least
MIN_SAMPLES of them), and each metric is the median over the samples.
Every output is checked by `checkers.py`, which does not use genco, and
by a parse-then-write round trip through genco.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of `tracer.py` with `--trace 1`.
Per-sample figures go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checkers  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

MIN_SAMPLES = 3
MARGIN_S = 140  # a run that has not ended this long after --seconds stops with an error
END_TO_END = (
    ("setup_s", "s"),
    ("build_s", "s"),
    ("verify_s", "s"),
    ("transcript_bytes", "B"),
    ("peak_rss_mib", "MiB"),
)


class BenchError(Exception):
    pass


def run_worker(job: dict, deadline: float) -> dict:
    """Run one worker to its end and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # the warm-up worker caches genco's bytecode, so that set-up imports it
    # rather than compiling the sources, whatever the environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
    )
    try:
        out, _ = proc.communicate(json.dumps(job).encode(), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{job['phase']} worker ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{job['phase']} worker exited with code {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


class Workload:
    """The configs of one workload and the checks of one sample."""

    def __init__(self, name: str, configs: list[dict], trace: bool):
        self.trace = trace
        self.configs = configs
        self.config_texts = [json.dumps(c) for c in configs]
        self.forge = name == "verify_forged"
        self.checked_texts = None  # the transcripts of the first sample, once checked

    def job(self, phase: str, **extra) -> dict:
        return {"phase": phase, "trace": self.trace, "forge": self.forge,
                "configs": self.config_texts, **extra}

    def sample(self, deadline: float) -> dict:
        first = self.checked_texts is None
        built = run_worker(self.job("build"), deadline)
        texts = built["texts"]
        items = [{"run": i, "text": t, "honest": True, "name": "honest"} for i, t in enumerate(texts)]
        items += [dict(f, honest=False) for f in built.get("forged", ())]
        verified = run_worker(self.job("verify", items=items), deadline)

        # genco is deterministic: the first sample's transcripts are checked
        # in full, and every later sample must reproduce them exactly
        if first:
            problems = self.check(texts)
            self.checked_texts = texts
        else:
            problems = [] if texts == self.checked_texts else ["transcripts differ between samples"]
        failed = 0
        for item, ok in zip(items, verified["verdicts"]):
            if item["honest"] and not ok:
                problems.append(f"run {item['run']}: genco's verifier rejects the honest transcript")
            elif not item["honest"] and ok:
                # a forgery the verifier accepts is a failed operation
                failed += 1
                if item["name"] != "floor":
                    print(f"forgery {item['name']} of run {item['run']} verified PASS", file=sys.stderr)
        return {
            "attempted": len(texts) + len(items),
            "failed": failed,
            "problems": problems,
            "setup_s": [built["setup_s"], verified["setup_s"]],
            "build_s": built["phase_s"],
            "verify_s": verified["phase_s"],
            "transcript_bytes": sum(len(t.encode()) for t in texts),
            "peak_rss_mib": max(built["peak_rss_kib"], verified["peak_rss_kib"]) / 1024,
            "trace": tracer.combine([built["trace"], verified["trace"]]) if self.trace else None,
        }

    def check(self, texts: list[str]) -> list[str]:
        primes = checkers.PrimeTable()
        problems = []
        for i, (cfg, text) in enumerate(zip(self.configs, texts)):
            try:
                if cfg["poset"] == "cohen":
                    found = checkers.check_pair(cfg, text)
                else:
                    found = checkers.check_coded(cfg, text, primes)
            except checkers.CheckError as exc:
                found = [str(exc)]
            if not round_trips(cfg, text):
                found.append("parse then write does not reproduce the transcript")
            problems += [f"run {i}: {p}" for p in found]
        return problems


def round_trips(cfg: dict, text: str) -> bool:
    """Whether genco's parser and writer reproduce the transcript byte for
    byte.  Run here, untimed, so that every verify worker does the same."""
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    from genco import cohenpair, generic
    from genco.errors import MalformedTranscript

    try:
        if cfg["poset"] == "cohen":
            return cohenpair.write_pair_transcript(cohenpair.parse_pair_transcript(text)) == text
        return generic.write_transcript(generic.parse_transcript(text)) == text
    except MalformedTranscript:
        return False


def summarize(samples: list[dict], trace: bool) -> dict:
    if trace:
        metrics = {}
        for name, unit in tracer.METRICS:
            vals = [s["trace"][name] for s in samples]
            if unit == "s":
                metrics[name] = {"value": statistics.median(vals), "unit": unit}
            elif len(set(vals)) == 1:
                metrics[name] = {"value": vals[0], "unit": unit}
            else:
                raise BenchError(f"count {name} differs between samples: {vals}")
        return metrics
    values = {
        "setup_s": [v for s in samples for v in s["setup_s"]],
        **{name: [s[name] for s in samples] for name, _ in END_TO_END if name != "setup_s"},
    }
    return {name: {"value": statistics.median(values[name]), "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "genco", "__init__.py")):
        print(f"no genco sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + args.seconds + MARGIN_S
    workload = Workload(args.workload, inputs.make_inputs(args.workload, args.seed), bool(args.trace))
    try:
        # compile and cache genco's bytecode before the first timed sample
        run_worker(workload.job("warmup"), deadline)
        samples = []
        while len(samples) < MIN_SAMPLES or time.monotonic() - started < args.seconds:
            samples.append(workload.sample(deadline))
        metrics = summarize(samples, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    problems = [p for s in samples for p in s["problems"]]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(OUT_DIR, f"{args.workload}-{args.seed}{suffix}.json"), "w") as fh:
        json.dump({"result": result, "samples": [{k: v for k, v in s.items() if k != "problems"}
                                                 for s in samples]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
