"""Spans around the public functions of every uqc module, from outside uqc.

While a `Tracer` is installed, each public function defined in a uqc
module (and `TensorGrid.points`) is replaced by a wrapper that records one
span per call.  The wrapper is set on every module attribute that holds
the function, so a caller that imported it by name (`from .graph import
topo_sort`) reaches the wrapper too.  `uninstall` restores the originals,
so untraced passes run uqc exactly as shipped.

A span is [name, start, end, parent index]; spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
child spans, which nest inside it because uqc runs on one thread.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, package, modules, methods=(), measures=None):
        """`modules` are the uqc modules whose public functions are wrapped
        and whose attributes are patched, `package` is also patched, and
        `methods` lists (class, attribute, span name) to wrap as well.
        `measures` maps a span name to a function of (args, result) that
        returns a small record kept in `observations`."""
        self.spans: list[list] = []
        self.observations: list[tuple[str, object]] = []
        self._stack: list[int] = []
        self._measures = measures or {}
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        self._patches = []
        for namespace in (package, *modules):
            for attr, obj in vars(namespace).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((namespace, attr, obj, wrappers[obj]))
        for cls, attr, name in methods:
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original, self._wrap(name, original)))
        self.names = sorted({w.span_name for *_, w in self._patches})

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        measure = self._measures.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                self.observations.append((name, measure(args, result)))
            return result

        wrapper.span_name = name
        return wrapper

    def install(self) -> None:
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)

    def take(self) -> tuple[list[list], list[tuple[str, object]]]:
        """Spans and observations recorded since the last call."""
        spans, observations = list(self.spans), list(self.observations)
        self.spans.clear()
        self.observations.clear()
        return spans, observations


def self_times(spans) -> tuple[dict[str, float], Counter]:
    """Per span name: summed self time in seconds, and call count."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, start, end, _), covered in zip(spans, child):
        totals[name] += end - start - covered
        calls[name] += 1
    return dict(totals), calls
