"""One phase of one benchmark sample, in a fresh process.

Reads a job as JSON on stdin and prints its result as one JSON line on
stdout.  A phase is `build` (config objects to transcript text: build +
write) or `verify` (transcript text to a verdict: parse + verify), or
`warmup`, which only imports genco.  Every phase starts with set-up:
import genco, parse each config with `cli.parse_config`, and build the
rosters, help sets and targets.  Set-up and the phase's library calls
are timed with this process's CPU clock; nothing else is.  The peak
resident set is read when the phase ends, before the forgeries are made
and the output is written.

A fresh process per phase means every build and every verify pays for
the per-process state genco keeps, such as the prime table, as a user
of the `genco` command does.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

clock = time.process_time


def _set_up(config_texts: list[str]):
    from genco import cli

    runs = []
    for text in config_texts:
        cfg = cli.parse_config(text)
        if cfg.poset == "cohen":
            runs.append((cfg, *cfg.cohen_rosters(), cfg.target()))
        else:
            runs.append((cfg, cfg.roster(), cfg.help_set(), cfg.target()))
    return runs


def _build(run) -> str:
    from genco import cohenpair, generic

    cfg, a, b, x = run
    if cfg.poset == "cohen":
        _, _, t = cohenpair.build_pair(a, b, x, cfg.steps)
        return cohenpair.write_pair_transcript(t)
    return generic.write_transcript(generic.build_coded_generic(a, b, x, cfg.steps))


def _verify(run, text: str) -> bool:
    from genco import cohenpair, generic
    from genco.errors import MalformedTranscript

    cfg, a, b, x = run
    try:
        if cfg.poset == "cohen":
            return cohenpair.verify_pair(a, b, x, cohenpair.parse_pair_transcript(text)).ok
        return generic.verify_transcript(a, b, x, generic.parse_transcript(text)).ok
    except MalformedTranscript:
        return False


def peak_rss_kib() -> int:
    """High-water resident set of this process image.  getrusage's
    ru_maxrss is no good here: exec keeps the maximum of the image it
    replaced, which holds the parent's memory at fork time."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    job = json.load(sys.stdin)
    tracer = None
    start = clock()
    import genco  # noqa: F401  (import time is part of set-up)

    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runs = _set_up(job["configs"])
    out = {"setup_s": clock() - start}

    if job["phase"] == "build":
        start = clock()
        texts = [_build(run) for run in runs]
        out["phase_s"] = clock() - start
        out["peak_rss_kib"] = peak_rss_kib()
        if tracer:
            out["trace"] = tracer.metrics()
        out["texts"] = texts
        if job["forge"]:
            from forgeries import forge

            out["forged"] = forge(texts, [run[2] for run in runs])
    elif job["phase"] == "verify":
        start = clock()
        verdicts = [_verify(runs[item["run"]], item["text"]) for item in job["items"]]
        out["phase_s"] = clock() - start
        out["peak_rss_kib"] = peak_rss_kib()
        if tracer:
            out["trace"] = tracer.metrics()
        out["verdicts"] = verdicts
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
