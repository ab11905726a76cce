"""Seeded inputs for the four workloads.

Each generator takes a `random.Random` and returns plain config dicts in
genco's JSON schema; genco only ever sees these configs.  The seed moves
the content of the inputs (order of the roster, order of the target
labels, help-set patterns, dense-set parameters) but not the properties
the cost depends on: the step and stage counts, the multiset of target
labels, and the largest label of each help kind are fixed per workload.
That keeps the run-to-run spread of the timings a property of the
program rather than of the seed.

The floor forgery input does not depend on the seed at all: it is the
fixed repro of a known verifier fault, counted as failed on every run.
"""

from __future__ import annotations

import random

CODED_LONG_STEPS = 1024
COHEN_PAIR_STAGES = 1024
HELP_HEAVY_STEPS = 6
FORGED_STEPS = 64
FORGED_SLOPES = (0, 1, 1)  # one honest run per entry, for each help kind

# the roster of configs/build_evens_roster4.json, copied so that a change
# to the config corpus does not change the workload
EVENS_ROSTER4 = (
    {"type": "stem_length", "n": 2},
    {"type": "stem_hits", "k": 4},
    {"type": "dominate", "table": [1], "a": 0, "b": 2},
    {"type": "user_stems", "patterns": [{"min_len": 1, "hits": [{"k": 6, "count": 1}]}]},
)

# the rosters of configs/cohen_ends_contains.json
COHEN_DENSE = ({"type": "ends_with", "w": "10"},)
COHEN_DENSE2 = ({"type": "contains", "w": "111"},)

# target labels of help_heavy, in order: a large label early is repeated
# in every later transcript line, so the order is not left to the seed
PRIMES_LABELS = ((15, 12, 9, 6, 3, 0), (14, 11, 8, 5, 2, 0), (13, 10, 7, 4, 1, 0))
SELFCODE_LABELS = (
    (8, 8, 7, 7, 6, 0), (8, 8, 7, 6, 5, 1), (8, 7, 7, 6, 6, 2), (8, 8, 6, 6, 4, 3), (8, 7, 6, 5, 4, 0),
)
EXPLICIT_LABELS = ((10, 8, 6, 4, 2, 0), (9, 7, 5, 3, 1, 0))

HELP_KINDS = ("evens", "primes", "selfcode", "explicit")

FLOOR_FORGERY_CONFIG = {
    "poset": "hechler",
    "help": {"kind": "evens"},
    "target": {"prefix": [0, 0, 0], "cycle": [0]},
    "dense": [{"type": "dominate", "table": [1], "a": 0, "b": 3}],
    "steps": 3,
}
FLOOR_FORGERY_FROM = "floor(table=[1],a=0,b=3)"
FLOOR_FORGERY_TO = "floor(table=[2],a=1,b=1)"


def _shuffled(rng: random.Random, xs) -> list:
    out = list(xs)
    rng.shuffle(out)
    return out


def _hechler(help_cfg: dict, target: dict, dense: list, steps: int) -> dict:
    return {"poset": "hechler", "help": help_cfg, "target": target,
            "dense": dense, "steps": steps}


def _short_roster(rng: random.Random) -> list[dict]:
    """A roster whose meets add only a few stem entries."""
    return _shuffled(rng, [
        {"type": "stem_length", "n": rng.randint(1, 3)},
        {"type": "stem_hits", "k": rng.randint(3, 9)},
        {"type": "dominate", "table": [rng.randint(0, 4)], "a": 0, "b": rng.randint(0, 4)},
    ])


def _explicit_pattern(rng: random.Random) -> dict:
    cycle = _shuffled(rng, [1, 1, 0, 0, 0])
    prefix = [rng.randint(0, 1) for _ in range(3)]
    return {"kind": "explicit", "prefix": prefix, "cycle": cycle}


def coded_long(rng: random.Random) -> list[dict]:
    """One long evens run: every label 0..3 a quarter of the time."""
    target = {"prefix": _shuffled(rng, [0, 1, 2]), "cycle": _shuffled(rng, [0, 1, 2, 3])}
    return [_hechler({"kind": "evens"}, target, _shuffled(rng, EVENS_ROSTER4), CODED_LONG_STEPS)]


def help_heavy(rng: random.Random) -> list[dict]:
    """Short runs whose cost is help-set arithmetic: a cold prime table
    grown to the 2^15-th prime, and prefix codes of 256 primes."""
    configs = []
    for labels in PRIMES_LABELS:
        target = {"prefix": [], "cycle": list(labels)}
        configs.append(_hechler({"kind": "primes"}, target, _short_roster(rng), HELP_HEAVY_STEPS))
    for labels in SELFCODE_LABELS:
        abar = {"prefix": [], "cycle": _shuffled(rng, [0, 1, 2, 3])}
        target = {"prefix": [], "cycle": list(labels)}
        configs.append(_hechler({"kind": "selfcode", "abar": abar}, target,
                                _short_roster(rng), HELP_HEAVY_STEPS))
    for labels in EXPLICIT_LABELS:
        target = {"prefix": [], "cycle": list(labels)}
        configs.append(_hechler(_explicit_pattern(rng), target, _short_roster(rng), HELP_HEAVY_STEPS))
    return configs


def cohen_pair(rng: random.Random) -> list[dict]:
    """One long pair run over the ends_with/contains rosters."""
    target = {"prefix": [rng.randint(0, 1)], "cycle": _shuffled(rng, [0, 0, 1])}
    return [{"poset": "cohen", "target": target, "dense": list(COHEN_DENSE),
             "dense2": list(COHEN_DENSE2), "stages": COHEN_PAIR_STAGES}]


def _forged_help(rng: random.Random, kind: str) -> dict:
    if kind == "selfcode":
        return {"kind": "selfcode", "abar": {"prefix": [], "cycle": _shuffled(rng, [0, 1, 2, 3])}}
    if kind == "explicit":
        return _explicit_pattern(rng)
    return {"kind": kind}


def _forged_roster(rng: random.Random, slope: int) -> list[dict]:
    """A stem_length set first, so that the first meet grows the stem and
    every mutation class applies; then the other three types in a seeded
    order with seeded parameters."""
    rest = _shuffled(rng, [
        {"type": "stem_hits", "k": rng.randint(3, 9)},
        {"type": "dominate", "table": [rng.randint(0, 5)], "a": slope, "b": rng.randint(0, 5)},
        {"type": "user_stems",
         "patterns": [{"min_len": rng.randint(1, 3)},
                      {"hits": [{"k": rng.randint(2, 8), "count": rng.randint(1, 2)}]}]},
    ])
    return [{"type": "stem_length", "n": rng.randint(1, 4)}] + rest


def verify_forged(rng: random.Random) -> list[dict]:
    """Honest 64-step runs, three per help kind; the forged copies are
    made from their transcripts.  The floor forgery's base run is last.
    A floor with slope 1 pushes every coded value above the level, so
    each kind gets the same number of such rosters."""
    configs = []
    for kind in HELP_KINDS:
        for slope in _shuffled(rng, FORGED_SLOPES):
            target = {"prefix": [], "cycle": _shuffled(rng, [0, 1, 2, 3, 4, 5])}
            configs.append(_hechler(_forged_help(rng, kind), target,
                                    _forged_roster(rng, slope), FORGED_STEPS))
    configs.append(dict(FLOOR_FORGERY_CONFIG))
    return configs


WORKLOADS = {
    "coded_long": coded_long,
    "help_heavy": help_heavy,
    "cohen_pair": cohen_pair,
    "verify_forged": verify_forged,
}


def make_inputs(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(seed))
