"""Per-layer spans for the traced run.

`install` wraps every public function and method of genco's eight
modules, plus the constructors of their classes, in a span that counts
the call and times it with the wall clock.  Names that one module
imported from another (for example `densesets.contains`) are rebound to
the same wrapper, so no call goes uncounted.  A layer's self time is the
time of its spans minus the time of their child spans; an inclusive time
counts only the outermost call of a recursive function.

The spans stay in memory; `metrics` reduces them to the per-layer table.
Tracing is installed only in a `--trace 1` run; the end-to-end metrics
come from runs without it.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "conditions", "densesets", "coding", "primes", "generic", "serialize", "cohenpair")

# name, unit; a unit of "s" marks a time, every other unit a count.
# primes.max_index is a maximum, every other count a sum.
METRICS = (
    ("cli.parse_config_s", "s"),
    ("conditions.self_s", "s"),
    ("conditions.as_node_entries", "entries"),
    ("conditions.contains_calls", "calls"),
    ("conditions.extends_s", "s"),
    ("conditions.witness_s", "s"),
    ("densesets.self_s", "s"),
    ("densesets.extend_probes", "probes"),
    ("densesets.code_probes", "probes"),
    ("coding.self_s", "s"),
    ("coding.member_calls", "calls"),
    ("coding.index_of_calls", "calls"),
    ("coding.enumerate_calls", "calls"),
    ("coding.prefix_decodes", "calls"),
    ("primes.self_s", "s"),
    ("primes.max_index", "index"),
    ("primes.is_prime_calls", "calls"),
    ("generic.build_self_s", "s"),
    ("generic.write_s", "s"),
    ("generic.parse_s", "s"),
    ("generic.verify_self_s", "s"),
    ("serialize.self_s", "s"),
    ("cohenpair.build_pair_s", "s"),
    ("cohenpair.write_s", "s"),
    ("cohenpair.parse_s", "s"),
    ("cohenpair.verify_pair_s", "s"),
    ("cohenpair.member_calls", "calls"),
)
MAX_METRICS = ("primes.max_index",)
_CONSTRUCTORS = ("__init__", "__post_init__")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.node_entries = 0
        self.max_prime_index = 0
        self.extend_probes = 0
        self.code_probes = 0
        self._stack: list[list] = []  # [span name, seconds spent in child spans]
        self._active: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, after=None):
        stack, active = self._stack, self._active
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] -= 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if not active[name]:
                    incl_s[name] += elapsed
            if after is not None:
                after(args, result)
            return result

        return span

    def _after(self, name: str):
        # an after hook runs once the span is popped, so the top of the
        # stack is the caller's span
        if name == "conditions.as_node":
            def count(args, result):
                self.node_entries += len(result)
            return count
        if name == "primes.nth_prime":
            def widest(args, result):
                self.max_prime_index = max(self.max_prime_index, args[0])
            return widest
        if name == "primes.prime_index":
            def widest(args, result):
                self.max_prime_index = max(self.max_prime_index, result)
            return widest
        if name == "conditions.contains":
            def probe(args, result):
                if self._stack and self._stack[-1][0] == "densesets.extend_in_A":
                    self.extend_probes += 1
            return probe
        if name == "coding.eta_fiber_element":
            def probe(args, result):
                if self._stack and self._stack[-1][0] == "densesets.code_step":
                    self.code_probes += 1
            return probe
        return None

    def install(self) -> None:
        package = importlib.import_module("genco")
        modules = {layer: importlib.import_module(f"genco.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[obj] = self.wrap(name, obj, self._after(name))
                    setattr(mod, attr, replaced[obj])
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _CONSTRUCTORS:
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, member.__func__)))

    def _layer_self(self, layer: str) -> float:
        return sum((s for name, s in self.self_s.items() if name.split(".", 1)[0] == layer), 0.0)

    def _method_calls(self, layer: str, method: str) -> int:
        return sum(
            n for name, n in self.calls.items()
            if name.startswith(layer + ".") and name.endswith("." + method) and name.count(".") == 2
        )

    def metrics(self) -> dict[str, float]:
        incl, calls = self.incl_s, self.calls
        values = {
            "cli.parse_config_s": incl["cli.parse_config"],
            "conditions.self_s": self._layer_self("conditions"),
            "conditions.as_node_entries": self.node_entries,
            "conditions.contains_calls": calls["conditions.contains"],
            "conditions.extends_s": incl["conditions.extends"],
            "conditions.witness_s": incl["conditions.floor_gap_witness"] + incl["conditions.extends_bounded"],
            "densesets.self_s": self._layer_self("densesets"),
            "densesets.extend_probes": self.extend_probes,
            "densesets.code_probes": self.code_probes,
            "coding.self_s": self._layer_self("coding"),
            "coding.member_calls": self._method_calls("coding", "member"),
            "coding.index_of_calls": self._method_calls("coding", "index_of"),
            "coding.enumerate_calls": self._method_calls("coding", "enumerate"),
            "coding.prefix_decodes": calls["coding.decode_prefix_code"],
            "primes.self_s": self._layer_self("primes"),
            "primes.max_index": self.max_prime_index,
            "primes.is_prime_calls": calls["primes.is_prime"],
            "generic.build_self_s": self.self_s["generic.build_coded_generic"],
            "generic.write_s": incl["generic.write_transcript"],
            "generic.parse_s": incl["generic.parse_transcript"],
            "generic.verify_self_s": self.self_s["generic.verify_transcript"],
            "serialize.self_s": self._layer_self("serialize"),
            "cohenpair.build_pair_s": incl["cohenpair.build_pair"],
            "cohenpair.write_s": incl["cohenpair.write_pair_transcript"],
            "cohenpair.parse_s": incl["cohenpair.parse_pair_transcript"],
            "cohenpair.verify_pair_s": incl["cohenpair.verify_pair"],
            "cohenpair.member_calls": self._method_calls("cohenpair", "member"),
        }
        return values


def combine(parts: list[dict]) -> dict:
    """Per-layer metrics of one sample from those of its phases."""
    out = {}
    for name, _ in METRICS:
        vals = [p[name] for p in parts]
        out[name] = max(vals) if name in MAX_METRICS else sum(vals)
    return out
