#!/usr/bin/env python3
"""Verdict benchmark for pgtrees: seeded inputs in, timed and checked verdicts out.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tall --seed 1 --seconds 25 --trace 0

A verdict is the winning regions of one PGSolver text (parse, then solve),
or for the ``universal`` workload the universality of one compact universal
tree or one width report.  Verdicts run in a closed loop with one client:
one process, one thread, and each verdict starts when the previous one has
finished.  Every verdict is checked against an independent answer.  The
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
verdict was wrong, raised or ran over its time limit, or when the traced
counts do not reconcile.  Verdict and set-up times are scaled to a
reference machine speed measured by a fixed pure-Python loop interleaved
with the verdicts.  ``--trace 1`` runs each verdict once untraced and once
traced and reports per-layer metrics instead of the end-to-end ones.
perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import itertools
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from corpus import count_trees, digest, draw_game, pgsolver_text, shuffle_successors  # noqa: E402
from tracing import Tracer, counting  # noqa: E402

# Well above the slowest verdict of every default corpus (about 1.2 s).
VERDICT_LIMIT_S = 30
SETUP_REPEATS = 15
# CPU speed on a shared machine drifts by tens of percent over seconds to
# minutes.  A fixed pure-Python loop, run for CALIBRATION_SHARE of the
# verdict time and interleaved with the verdicts, measures that speed in
# segments of about SEGMENT_S seconds.  The program slows less than the
# loop: on a 2-core Xeon VM, scaled times spread least between runs with an
# exponent of about SENSITIVITY on the loop's slowdown (see README.md).
# Every time is stated at the speed at which one loop takes exactly
# REFERENCE_UNIT_NS.
CALIBRATION_SHARE = 0.1
SEGMENT_S = 0.5
SENSITIVITY = 0.65
REFERENCE_UNIT_NS = 300_000

# Game workloads.  Each corpus is a fixed sample, drawn with base_seed; the
# run seed orders the games and every successor list.  Per-game cost is
# heavy-tailed (one game can cost a hundred times the median), so corpora
# drawn per seed, or even renumbered per seed, would differ in their slowest
# games by more than any bound a regression check could use.  `small` keeps
# 5,000 games so that each is repeated about ten times in a run.
GAME_WORKLOADS = {
    "tall": dict(games=100, n=(32, 64), d=(16,), degree_hi=(3,), base_seed=0x7A11),
    "flat": dict(games=80, n=(150, 300), d=(2,), degree_hi=(3,), base_seed=0xF1A7),
    "small": dict(games=5000, n=(1, 12), d=(2, 4, 6), degree_hi=(1, 2, 3), base_seed=0x5A11),
}
UNIVERSAL = dict(
    # (n, h) beyond the CLI's verify-universal guard of n <= 6, h <= 3, from
    # 341 to 21,845 trees each, small enough that a run repeats each about
    # seven times
    checks=((5, 4), (4, 7), (9, 2), (4, 8), (5, 5), (4, 9), (10, 2), (7, 3), (6, 4), (5, 6),
            (11, 2), (5, 7), (8, 3), (6, 5), (12, 2), (7, 4), (8, 4), (7, 5)),
    reports=40,
    report_n=(2000, 120),  # 120 n values per report, drawn from 1..2000
    report_h=(24, 12),  # 12 h values per report, drawn from 1..24
    base_seed=0x0A1D,
)
# Toy sizes for the smoke test.
TOY = {
    "tall": dict(GAME_WORKLOADS["tall"], games=4, n=(8, 16)),
    "flat": dict(GAME_WORKLOADS["flat"], games=4, n=(20, 40)),
    "small": dict(GAME_WORKLOADS["small"], games=100),
    "universal": dict(UNIVERSAL, checks=((4, 3), (5, 3), (3, 4)), reports=2, report_n=(50, 8)),
}
WORKLOADS = (*GAME_WORKLOADS, "universal")

END_TO_END_UNITS = {
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "verdicts_per_s": "1/s",
    "work_count": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "game.parse_s": "s",
    "game.parse_mb_per_s": "MB/s",
    "trees.min_leaf_geq_calls": "count",
    "trees.min_leaf_geq_self_s": "s",
    "trees.min_leaf_geq_ns_per_call": "ns",
    "solver.lift_calls": "count",
    "solver.lift_self_s": "s",
    "solver.self_s": "s",
    "solver.changes": "count",
    "solver.useful_lift_ratio": "ratio",
    "solver.lifts_per_vertex": "count",
    "trees.build_s": "s",
    "trees.build_cache_hit_ratio": "ratio",
    "solver.measure_init_s": "s",
    "solver.zielonka_s": "s",
    "solver.zielonka_ratio": "ratio",
    "trees.enumerate_s": "s",
    "trees.verify_s": "s",
    "trees.trees_checked": "count",
    "widths.report_s": "s",
    "widths.rows_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


class VerdictTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise VerdictTimeout


def import_program():
    """Import pgtrees from this checkout's src/, never from site-packages."""
    package = SRC / "pgtrees"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no pgtrees sources at {package}; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "pgtrees" or m.startswith("pgtrees.")]:
        del sys.modules[name]  # so that each call executes the package afresh
    start = time.perf_counter_ns()
    pg = importlib.import_module("pgtrees")
    importlib.import_module("pgtrees.solver")
    importlib.import_module("pgtrees.trees")
    elapsed = time.perf_counter_ns() - start
    if Path(pg.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported pgtrees from {pg.__file__}, not from {package}")
    return pg, elapsed


def _pick(a, b):
    return a if a >= b else b


def calibration_unit() -> int:
    """A fixed piece of interpreter work: calls, tuple compares, list and dict traffic."""
    table: dict = {}
    row = [0] * 64
    acc = 0
    for i in range(800):
        key = (i & 63, i % 7)
        best = _pick(key, (31, 3))
        row[i & 63] += best[1]
        table[key] = table.get(key, 0) + 1
        acc += len(best)
    return acc + len(table) + sum(row)


def unit_ns() -> int:
    start = time.perf_counter_ns()
    calibration_unit()
    return time.perf_counter_ns() - start


def to_reference(ns: float, unit: float) -> float:
    """A time measured while a calibration unit took ``unit`` ns, at the reference speed."""
    return ns * (REFERENCE_UNIT_NS / unit) ** SENSITIVITY


class ScaledClock:
    """Verdict times per input, each scaled by the machine speed of its segment."""

    def __init__(self, inputs: int):
        self.verdict_ns = 0
        self.unit_ns = 0
        self.units = 0
        self.times = [array("d") for _ in range(inputs)]  # per input, ns at the reference speed
        self._pending: list[tuple[int, int]] = []
        self._segment: list[int] = []
        self._unit = 0.0
        self._segment_start = time.perf_counter()

    def add(self, i: int, ns: int):
        """Record one verdict, then calibrate until the loop has its share of time."""
        self._pending.append((i, ns))
        self.verdict_ns += ns
        while self.unit_ns < CALIBRATION_SHARE * self.verdict_ns:
            u = unit_ns()
            self.unit_ns += u
            self.units += 1
            self._segment.append(u)
        if time.perf_counter() - self._segment_start >= SEGMENT_S:
            self.flush()

    def flush(self):
        # The first verdict is always followed by a unit, so a segment
        # without units can fall back on the previous segment's speed.
        if self._segment:
            self._unit = statistics.median(self._segment)
        for i, ns in self._pending:
            self.times[i].append(to_reference(ns, self._unit))
        self._pending, self._segment = [], []
        self._segment_start = time.perf_counter()


class GameCorpus:
    """PGSolver texts; a verdict parses one and solves it."""

    def __init__(self, spec: dict, seed: int):
        base_rng = random.Random(spec["base_seed"])
        rng = random.Random(seed)
        games = []
        for _ in range(spec["games"]):
            n = base_rng.randint(*spec["n"])
            d = base_rng.choice(spec["d"])
            degree = (1, base_rng.choice(spec["degree_hi"]))
            games.append(shuffle_successors(draw_game(base_rng, n, d, degree), rng))
        rng.shuffle(games)
        self.texts = [pgsolver_text(g) for g in games]
        self.sizes = [len(g[0]) for g in games]
        self.digest = digest(self.texts)
        self.bytes = sum(len(t) for t in self.texts)
        self.expected = [None] * len(games)
        self.lifts = [None] * len(games)

    def __len__(self):
        return len(self.texts)

    def describe(self) -> str:
        return f"{len(self)} games, {sum(self.sizes)} vertices, {self.bytes} bytes"

    @staticmethod
    def instrumented(pg):
        return contextlib.nullcontext()

    def verdict(self, i: int, api):
        g = api.parse_pgsolver(self.texts[i])
        return g, api.solve(g)

    @staticmethod
    def warm_up(api):
        api.solve(api.parse_pgsolver("parity 1;\n0 1 0 1;\n1 2 1 0,1;\n"))

    def check(self, i: int, out, oracle) -> str | None:
        g, result = out
        if g.n != self.sizes[i]:
            return f"game {i}: parsed {g.n} vertices, generated {self.sizes[i]}"
        if self.expected[i] is None:
            self.expected[i] = oracle.zielonka(g)
            self.lifts[i] = result.stats.lifts
        if result.regions != self.expected[i]:
            return f"game {i}: regions differ from zielonka's"
        if result.stats.lifts != self.lifts[i]:
            return f"game {i}: {result.stats.lifts} lifts, {self.lifts[i]} on the first pass"
        return None

    def work(self) -> int:
        return sum(self.lifts)


class UniversalCorpus:
    """Universality checks of universal_tree(n, h) and width reports.

    While a run lasts, ``pgtrees.trees.embeds`` is replaced by a wrapper that
    only counts its calls: one call per candidate tree checked.
    """

    def __init__(self, spec: dict, seed: int):
        self.pg = None
        base_rng = random.Random(spec["base_seed"])
        items = [("check", n, h) for n, h in spec["checks"]]
        for _ in range(spec["reports"]):
            grid = [sorted(base_rng.sample(range(1, top + 1), count))
                    for top, count in (spec["report_n"], spec["report_h"])]
            items.append(("report", *grid))
        random.Random(seed).shuffle(items)
        self.items = items
        self.digest = digest(repr(item) for item in items)
        # candidate trees per check, counted without pgtrees
        self.expected = [count_trees(b, a) if kind == "check" else 0 for kind, a, b in items]
        self.trees = sum(self.expected)
        self.rows = sum(len(a) * len(b) for kind, a, b in items if kind == "report")
        self.embeds_calls = [0]
        self.checked = [0] * len(items)

    def __len__(self):
        return len(self.items)

    def describe(self) -> str:
        checks = len(self) - sum(1 for item in self.items if item[0] == "report")
        return f"{checks} universality checks ({self.trees} trees), " \
               f"{len(self) - checks} width reports ({self.rows} rows)"

    def instrumented(self, pg):
        """Bind the program for the run and count its embeds calls."""
        self.pg = pg
        return counting(pg.trees, "embeds", self.embeds_calls)

    def verdict(self, i: int, api):
        kind, a, b = self.items[i]
        if kind == "report":
            return api.width_report(a, b)
        before = self.embeds_calls[0]
        tree = api.universal_tree(a, b)
        return tree, api.find_counterexample(tree, a), self.embeds_calls[0] - before

    @staticmethod
    def warm_up(api):
        api.find_counterexample(api.universal_tree(2, 2), 2)
        api.width_report([1, 2], [1, 2])

    def check(self, i: int, out, oracle) -> str | None:
        pg = self.pg
        kind, a, b = self.items[i]
        if kind == "check":
            tree, counterexample, checked = out
            if counterexample is not None:
                return f"universal_tree({a}, {b}) misses {counterexample.to_text()}"
            width = pg.width_recursive(a, b)
            if not pg.leaf_count(tree) == width == pg.width_closed_form(a, b):
                return f"universal_tree({a}, {b}): leaf count, recursion and closed form differ"
            if checked != self.expected[i]:
                return f"universal_tree({a}, {b}): {checked} trees checked, {self.expected[i]} exist"
            self.checked[i] = checked
            return None
        rows = list(out)
        if len(rows) != len(a) * len(b):
            return f"width report {i}: {len(rows)} rows for a {len(a)}x{len(b)} grid"
        for row in rows:
            if row.width != pg.width_recursive(row.n, row.h):
                return f"width report {i}: wrong width at ({row.n}, {row.h})"
        return None

    def work(self) -> int:
        """Trees checked per pass, as counted by the embeds wrapper."""
        return sum(self.checked)


def make_corpus(workload: str, seed: int, toy: bool):
    spec = (TOY if toy else {**GAME_WORKLOADS, "universal": UNIVERSAL})[workload]
    if workload == "universal":
        return UniversalCorpus(spec, seed)
    return GameCorpus(spec, seed)


def program_api(pg, tracer: Tracer | None = None):
    names = ("parse_pgsolver", "solve", "zielonka", "universal_tree",
             "find_counterexample", "width_report")
    if tracer is None:
        return SimpleNamespace(**{name: getattr(pg, name) for name in names})
    return SimpleNamespace(
        **{name: functools.partial(tracer.call, name, getattr(pg, name)) for name in names}
    )


def timed_verdict(corpus, i: int, api) -> tuple[object, int]:
    signal.alarm(VERDICT_LIMIT_S)
    try:
        start = time.perf_counter_ns()
        out = corpus.verdict(i, api)
        elapsed = time.perf_counter_ns() - start
    finally:
        signal.alarm(0)
    return out, elapsed


def cache_counts(pg) -> tuple[int, int]:
    """(hits, misses) summed over the tree caches the solver uses, if any."""
    hits = misses = 0
    for name in ("universal_tree", "with_stop_branches"):
        info = getattr(getattr(pg.trees, name, None), "cache_info", None)
        if info is not None:
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return hits, misses


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def tail(times_ns: list[int]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (ns, percentile, beyond)."""
    ordered = sorted(times_ns)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False):
    """Set up, measure and check one run; returns (result, report lines)."""
    start = time.perf_counter()
    corpus = make_corpus(workload, seed, toy)
    corpus_s = time.perf_counter() - start
    pg, setup_s, setup_raw_s = set_up(corpus)
    lines = [
        f"perfbench {workload} seed={seed} trace={int(trace)}: {corpus.describe()}, "
        f"corpus sha256 {corpus.digest}",
        f"corpus generated in {corpus_s:.3f} s, outside setup_s; setup_s unscaled {setup_raw_s:.6g} s",
    ]
    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with corpus.instrumented(pg):
            return _run(pg, corpus, seconds, trace, setup_s, lines)
    finally:
        signal.signal(signal.SIGALRM, previous_handler)


def set_up(corpus):
    """Import the program and warm it up, SETUP_REPEATS times.

    Returns the last import and the median set-up time, at the reference
    speed and unscaled.  Each repeat executes the package afresh, so work
    moved into import or into the first call shows.  The corpus is not part
    of set-up: it is the benchmark's own work.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        pg, import_ns = import_program()
        start = time.perf_counter_ns()
        corpus.warm_up(program_api(pg))
        ns = import_ns + time.perf_counter_ns() - start
        raw.append(ns)
        scaled.append(to_reference(ns, statistics.median(unit_ns() for _ in range(3))))
    return pg, statistics.median(scaled) / 1e9, statistics.median(raw) / 1e9


def _run(pg, corpus, seconds, trace, setup_s, lines):
    api = program_api(pg)
    clock = None if trace else ScaledClock(len(corpus))
    tracer = plain = None
    runs = [(api, False)]  # (api, traced) for each input in a pass
    if trace:
        tracer = Tracer({"solver": pg.solver, "trees": pg.trees})
        # untraced verdicts get top-level spans only, a few microseconds each
        plain = Tracer({})
        runs = [(program_api(pg, plain), False), (program_api(pg, tracer), True)]
    oracle = runs[0][0]
    untraced_ns = traced_ns = 0
    traced_lifts = traced_changes = 0
    hits = [0, 0]  # tree-cache hits and misses of untraced verdicts in the first pass
    failure = None
    attempted = 0
    slowest = (0, -1)
    passes = 0
    start = time.perf_counter()
    last_pass_s = 0.0
    # The first failed verdict ends the run, so that timeouts cannot pile up
    # beyond the run's time budget.
    while failure is None and (passes == 0 or time.perf_counter() - start + last_pass_s <= seconds):
        pass_start = time.perf_counter()
        oracle_s = 0.0
        for i in range(len(corpus)):
            for verdict_api, traced in runs:
                attempted += 1
                count_hits = trace and not traced and passes == 0
                before = cache_counts(pg) if count_hits else (0, 0)
                try:
                    if traced:
                        with tracer.installed():
                            out, ns = timed_verdict(corpus, i, verdict_api)
                    else:
                        out, ns = timed_verdict(corpus, i, verdict_api)
                    if count_hits:
                        after = cache_counts(pg)
                        hits = [hits[0] + after[0] - before[0], hits[1] + after[1] - before[1]]
                    check_start = time.perf_counter()
                    failure = corpus.check(i, out, oracle)
                    oracle_s += time.perf_counter() - check_start
                except VerdictTimeout:
                    failure = f"item {i}: over the {VERDICT_LIMIT_S} s verdict limit"
                except Exception as exc:  # a verdict that raised counts as failed
                    failure = f"item {i}: raised {type(exc).__name__}: {exc}"
                if failure:
                    break
                if traced:
                    traced_ns += ns
                    if isinstance(corpus, GameCorpus):
                        traced_lifts += out[1].stats.lifts
                        traced_changes += out[1].stats.changes
                else:
                    untraced_ns += ns
                    slowest = max(slowest, (ns, i))
                    if clock:
                        clock.add(i, ns)
            if failure:
                break
        passes += 1
        last_pass_s = time.perf_counter() - pass_start - oracle_s

    lines += [
        "machine " + " ".join(f"{k}={v}" for k, v in machine().items()),
        f"loop: closed, 1 client; {passes} passes; verdict limit {VERDICT_LIMIT_S} s; "
        f"slowest verdict {slowest[0] / 1e9:.3f} s (item {slowest[1]})",
    ]
    failed = int(failure is not None)
    metrics, unit_of = {}, {}
    if failure is None and trace:
        metrics, failure = per_layer(corpus, tracer, plain, passes, hits, traced_ns, untraced_ns,
                                     traced_lifts, traced_changes)
        unit_of = PER_LAYER_UNITS
    elif failure is None:
        # read before the statistics below, which copy every time
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        clock.flush()
        verdicts = sum(len(t) for t in clock.times)
        # The tail is taken over each input's median of its repeats in this
        # run, which damps timer outliers (a garbage collection, a preempted
        # slice) that would otherwise be the few slowest of many verdicts.
        per_input = [statistics.median(t) for t in clock.times]
        p_ns, pct, beyond = tail(per_input)
        metrics = {
            "verdict_p50_ms": statistics.median(itertools.chain.from_iterable(clock.times)) / 1e6,
            "verdict_tail_ms": p_ns / 1e6,
            "verdicts_per_s": verdicts / (sum(sum(t) for t in clock.times) / 1e9),
            "work_count": corpus.work(),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        unit_of = END_TO_END_UNITS
        work_name = "lifts" if isinstance(corpus, GameCorpus) else "trees checked"
        lines += [
            f"times are at the reference speed of {REFERENCE_UNIT_NS} ns per calibration unit; "
            f"here {clock.unit_ns / clock.units:.0f} ns on average over {clock.units} units; "
            f"unscaled verdicts_per_s {verdicts / (untraced_ns / 1e9):.6g}",
            f"verdict_tail_ms is p{pct:.2f} of {len(corpus)} inputs, {beyond} beyond it; "
            f"work_count counts {work_name} per corpus pass; setup_s is the median of "
            f"{SETUP_REPEATS} imports with warm-up",
        ]
    for name, value in metrics.items():
        lines.append(f"{name:32} {value:.6g} {unit_of[name]}")
    lines.append(f"{'error_rate':32} {failed / max(attempted, 1):.6g} "
                 f"({failed} of {attempted} verdicts)")
    if failure:
        lines.append(f"error: {failure}")
    result = {
        "correct": failure is None,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    return result, lines


def per_layer(corpus, tracer, plain, passes, cache_hits, traced_ns, untraced_ns, lifts, changes):
    """Per-layer metrics per corpus pass, and a reconciliation failure if any.

    ``plain`` holds the top-level spans of the untraced verdicts and of the
    zielonka oracle, which are free of the wrappers' overhead.
    """
    inclusive, own = tracer.totals()
    plain_inclusive, _ = plain.totals()
    hot = tracer.hot
    per = 1e9 * passes  # total ns -> seconds per pass

    def ratio(a, b):
        return a / b if b else 0.0

    lift_calls, lift_ns = hot["lift"]
    mlg_calls, mlg_ns = hot["min_leaf_geq"]
    embeds_calls, embeds_ns = hot["embeds"]
    games = isinstance(corpus, GameCorpus)
    failure = None
    if games and lift_calls != lifts:
        failure = f"traced lift calls {lift_calls} != SolveStats.lifts total {lifts}"
    if not games and embeds_calls != corpus.trees * passes:
        failure = f"traced embeds calls {embeds_calls} != {corpus.trees * passes} trees to check"
    parse_s = inclusive["parse_pgsolver"] / per
    report_s = inclusive["width_report"] / per
    metrics = {
        "game.parse_s": parse_s,
        "game.parse_mb_per_s": ratio(corpus.bytes / 1e6, parse_s) if games else 0.0,
        "trees.min_leaf_geq_calls": mlg_calls // passes,
        "trees.min_leaf_geq_self_s": mlg_ns / per,
        "trees.min_leaf_geq_ns_per_call": ratio(mlg_ns, mlg_calls),
        "solver.lift_calls": lift_calls // passes,
        "solver.lift_self_s": own["lift"] / per,
        "solver.self_s": own["solve"] / per,
        "solver.changes": changes // passes,
        "solver.useful_lift_ratio": ratio(changes, lifts),
        "solver.lifts_per_vertex": ratio(lifts // passes, sum(corpus.sizes)) if games else 0.0,
        "trees.build_s": (inclusive["universal_tree"] + inclusive["with_stop_branches"]) / per,
        "trees.build_cache_hit_ratio": ratio(cache_hits[0], sum(cache_hits)),
        "solver.measure_init_s": inclusive["initial_measure"] / per,
        "solver.zielonka_s": plain_inclusive["zielonka"] / 1e9,
        "solver.zielonka_ratio": ratio(plain_inclusive["solve"] / passes, plain_inclusive["zielonka"]),
        "trees.enumerate_s": own["find_counterexample"] / per,
        "trees.verify_s": embeds_ns / per,
        "trees.trees_checked": embeds_calls // passes,
        "widths.report_s": report_s,
        "widths.rows_per_s": 0.0 if games else ratio(corpus.rows, report_s),
        "trace.overhead_ratio": ratio(traced_ns, untraced_ns),
    }
    return metrics, failure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy corpus sizes for the smoke test")
    args = parser.parse_args(argv)
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
