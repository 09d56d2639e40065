"""Spans and call counters recorded from outside the program.

The benchmark opens a span around each call it makes into a layer.  While a
traced verdict runs, a few functions inside ``pgtrees`` are replaced by
wrappers through attribute assignment on their modules; the source files
are never touched.  Calls that happen once per solve become spans; the hot
inner calls, which run millions of times, only add to a count and a total
time.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute) made into spans: once per solve.
SPAN_TARGETS = (
    ("solver", "universal_tree"),
    ("solver", "with_stop_branches"),
    ("solver", "initial_measure"),
)
# (module, attribute) counted and timed in aggregate, with the caller whose
# span contains every call.
HOT_TARGETS = {
    ("solver", "lift"): "solve",
    ("solver", "min_leaf_geq"): "lift",
    ("trees", "embeds"): "find_counterexample",
}


class Tracer:
    """In-memory spans ``(name, start_ns, end_ns, parent_index)`` plus
    ``hot[name] = [calls, inclusive_ns]`` for the hot calls.

    With no modules it only records the spans of ``call``.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.hot = {name: [0, 0] for _, name in HOT_TARGETS}
        self._open: list[int] = []
        self._wrappers = {}
        for mod, name in SPAN_TARGETS:
            fn = getattr(modules.get(mod), name, None)
            if fn is not None:
                self._wrappers[(mod, name)] = self._span_wrapper(name, fn)
        for mod, name in HOT_TARGETS:
            fn = getattr(modules.get(mod), name, None)
            if fn is not None:
                self._wrappers[(mod, name)] = self._hot_wrapper(self.hot[name], fn)

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span named name."""
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def _span_wrapper(self, name, fn):
        def wrapper(*args):
            return self.call(name, fn, *args)

        return wrapper

    @staticmethod
    def _hot_wrapper(stat: list, fn):
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            stat[1] += clock() - start
            stat[0] += 1
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers into the program's modules for one verdict."""
        saved = []
        try:
            for (mod, name), wrapper in self._wrappers.items():
                module = self.modules[mod]
                saved.append((module, name, getattr(module, name)))
                setattr(module, name, wrapper)
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def totals(self) -> tuple[dict, dict]:
        """Inclusive and self nanoseconds per span name.

        A span's self time is its duration minus the durations of its
        child spans and of the hot calls attributed to it.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        inclusive: dict = defaultdict(int)
        own: dict = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child_ns[i]
        for (_, name), caller in HOT_TARGETS.items():
            ns = self.hot[name][1]
            inclusive[name] += ns
            own[name] += ns
            own[caller] -= ns
        return inclusive, own


@contextmanager
def counting(module, name: str, stat: list):
    """Replace ``module.name`` by a wrapper that adds 1 to ``stat[0]`` per call."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        stat[0] += 1
        return fn(*args, **kwargs)

    setattr(module, name, wrapper)
    try:
        yield stat
    finally:
        setattr(module, name, fn)
