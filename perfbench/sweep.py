"""Reference sweep: how build, verify and transcript size scale with the
number of steps (coded_long) or stages (cohen_pair).

    python3 perfbench/sweep.py

Each size is one sample of the workload with its step or stage count
replaced, measured and checked as in `run.py`.  The scaling exponent is
the least-squares slope of log(value) against log(size).  It is a
reference figure, not a bounded metric: a slope fitted to a few noisy
timings is noisier than the timings themselves.
"""

from __future__ import annotations

import math
import sys
import time

import inputs
import run

SEED = 1
SIZES = (256, 512, 1024, 2048, 4096)
WORKLOADS = ("coded_long", "cohen_pair")


def slope(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> int:
    columns = ("build_s", "verify_s", "transcript_bytes", "peak_rss_mib")
    for name in WORKLOADS:
        key = "stages" if name == "cohen_pair" else "steps"
        rows = []
        for size in SIZES:
            configs = inputs.make_inputs(name, SEED)
            configs[0][key] = size
            sample = run.Workload(name, configs, trace=False).sample(time.monotonic() + 3600)
            if sample["problems"]:
                print(f"{name} at {size}: {sample['problems'][:3]}", file=sys.stderr)
                return 1
            rows.append([sample[c] for c in columns])
            print(f"{name} {size}: " + ", ".join(f"{c}={v:.4g}" for c, v in zip(columns, rows[-1])),
                  file=sys.stderr, flush=True)
        print(f"\n{name} ({key})\n")
        print(f"| {key} | " + " | ".join(columns) + " |")
        print("|---" * (len(columns) + 1) + "|")
        for size, row in zip(SIZES, rows):
            print(f"| {size} | " + " | ".join(f"{v:.4g}" if isinstance(v, float) else str(v) for v in row) + " |")
        fits = [slope(SIZES, [row[i] for row in rows]) for i in range(len(columns))]
        print("| exponent | " + " | ".join(f"{f:.2f}" for f in fits) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
