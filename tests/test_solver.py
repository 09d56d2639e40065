"""Lifting solver against its two independent reference solvers."""

import functools
import itertools
import random
import time
import tracemalloc
from bisect import bisect_left

import pytest

from pgtrees import solver
from pgtrees.game import EVEN, ODD, GameError, GameGraph, parse_pgsolver, random_game
from pgtrees.solver import (
    MEMO_CAP,
    SETUP_CAP,
    SLICE,
    WORKLIST_POLICIES,
    LeafRanks,
    Measure,
    WinningRegions,
    _bits,
    _components,
    _finish_order,
    _worklist,
    brute_force_solve,
    edge_consistent,
    leaf_ranks,
    lift,
    live_levels,
    solve,
    vertex_consistent,
    zielonka,
)
from pgtrees.trees import leaf_count, universal_tree
from reference import finishing_order, leaf_paths, measure_setup, padded_width, with_stop_branches


def seeded_games(count, n_range, d_choices, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*n_range)
        d = rng.choice(d_choices)
        yield random_game(n, d, (1, rng.randint(1, 3)), seed=rng.getrandbits(48))


def sccs(g):
    """g's strongly connected components as `solve` splits them, sinks first."""
    return _components(g, _finish_order(g))


def put(mu, v, value):
    """Give v a value and the target it implies, past the memo."""
    mu.values[v] = value
    mu.target[v] = mu.fresh_target(v)


# -- prefix lengths ----------------------------------------------------------


def test_measure_k_even_measure():
    # one prefix length per priority present, equal to the reference's
    # bisection over the live levels
    g = GameGraph([EVEN] * 4, [4, 3, 2, 1], [[0]] * 4, d=4)
    mu = Measure(g, EVEN, 1)
    assert mu.k == {4: 0, 3: 1, 2: 1, 1: 2} == measure_setup(g, EVEN, 1)[0]
    assert mu.strict == {4: 0, 3: 1, 2: 0, 1: 1} == measure_setup(g, EVEN, 1)[1]
    g2 = GameGraph([EVEN] * 2, [2, 1], [[0]] * 2, d=2)
    assert Measure(g2, EVEN, 1).k == {2: 0, 1: 1} == measure_setup(g2, EVEN, 1)[0]


def test_solve_huge_priority_uses_live_height():
    # one live level, so the tree has height 1 however large d is
    r = solve(parse_pgsolver("0 2000000 0 1;\n1 1 1 0;\n"))
    assert r.stats.tree_width == 2
    assert r.regions.even == frozenset({0, 1})


def test_tree_height_is_live_level_count():
    missing = 0
    for g in seeded_games(200, (1, 8), (4, 6, 8), seed=37):
        r = solve(g)
        levels = live_levels(g.priority, r.stats.player)
        missing += len(levels) < g.d // 2
        height = max(len(levels), 1)
        padded = with_stop_branches(universal_tree(max(r.stats.eta, 1), height))
        assert r.stats.tree_width == leaf_count(padded)
    assert missing >= 150  # most games lack some opponent-parity priority


def test_measure_k_odd_measure():
    g = GameGraph([EVEN] * 4, [4, 3, 2, 1], [[0]] * 4, d=4)
    mu = Measure(g, ODD, 1)
    assert mu.k == {4: 1, 3: 1, 2: 2, 1: 2} == measure_setup(g, ODD, 1)[0]
    assert mu.strict == {4: 1, 3: 0, 2: 1, 1: 0} == measure_setup(g, ODD, 1)[1]


def test_live_levels():
    g = GameGraph([0] * 4, [1, 2, 2, 6], [[0]] * 4, d=6)
    assert live_levels(g.priority, EVEN) == [1]
    assert live_levels(g.priority, ODD) == [2, 6]


# -- leaf ranks of the padded universal tree ---------------------------------


def qualifies(cur, k, strict):
    # does a leaf's length-k prefix dominate cur's (strictly if strict)?
    prefix = cur[:k]
    if strict:
        return lambda leaf: leaf[:k] > prefix
    return lambda leaf: leaf[:k] >= prefix


def scan_min_leaf(leaves, cur, k, strict, start=0):
    # linear scan over the sorted leaf list; the reference for the rank
    # successor.  Returns the index of the first qualifying leaf from start
    # on, or len(leaves) for TOP.  Callers may pass the answer for a
    # smaller cur as start: a leaf that fails for it fails for cur too.
    ok = qualifies(cur, k, strict)
    for i in range(start, len(leaves)):
        if ok(leaves[i]):
            return i
    return len(leaves)


def test_rank_successor_frozen_examples():
    t = with_stop_branches(universal_tree(3, 2))
    assert leaf_paths(t) == [
        (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1)
    ]
    ranks = LeafRanks(3, 2)
    assert ranks.width == 9
    assert ranks.successor(0, 1, True) == 1  # past the root's stop branch
    assert ranks.successor(1, 1, True) == 3
    assert ranks.successor(6, 2, True) == 7
    assert ranks.successor(8, 1, True) == 9  # TOP
    assert ranks.successor(5, 1, False) == 3
    assert ranks.successor(6, 0, False) == 0
    assert ranks.successor(6, 0, True) == 9
    assert ranks.successor(5, 2, False) == 5  # full depth: the leaf itself
    assert ranks.successor(8, 2, True) == 9  # TOP


def test_rank_successor_invalid_inputs():
    ranks = LeafRanks(3, 2)
    with pytest.raises(ValueError):
        ranks.successor(-1, 1, False)
    with pytest.raises(ValueError):
        ranks.successor(ranks.width, 1, False)  # TOP is not a leaf
    with pytest.raises(ValueError):
        ranks.successor(0, 3, False)
    with pytest.raises(ValueError):
        LeafRanks(0, 2)


def test_rank_successor_matches_leaf_scan():
    # every n <= 64, h <= 6, k and strictness.  Trees of up to 2,000
    # leaves: every leaf, against the linear scan.  Larger ones: 64 seeded
    # leaves plus the first and the last, against the first qualifying
    # leaf found by bisection, which is the scan's answer because the
    # predicate is monotone along the sorted leaves.
    rng = random.Random(17)
    for n in range(1, 65):
        for h in range(7):
            tree = with_stop_branches(universal_tree(n, h))
            ranks = LeafRanks(n, h)
            leaves = leaf_paths(tree)
            width = len(leaves)
            assert ranks.width == leaf_count(tree) == width
            assert leaves == sorted(leaves)
            scan = width <= 2000
            sample = range(width) if scan else {0, width - 1, *rng.sample(range(width), 64)}
            for k in range(h + 1):
                for strict in (False, True):
                    want = 0
                    for r in sorted(sample):
                        if scan:
                            want = scan_min_leaf(leaves, leaves[r], k, strict, want)
                        else:
                            want = bisect_left(leaves, True, key=qualifies(leaves[r], k, strict))
                        assert ranks.successor(r, k, strict) == want, (n, h, r, k, strict)


def test_rank_successor_monotone():
    # a small tree, a wide one, and a tall one of 22 decimal digits of leaves
    rng = random.Random(11)
    for size, height in ((5, 3), (4991, 8), (500, 500)):
        ranks = LeafRanks(size, height)
        for _ in range(200):
            r, s = sorted(rng.randrange(ranks.width) for _ in range(2))
            k = rng.randint(1, ranks.height)
            loose = ranks.successor(r, k, False)
            strict = ranks.successor(r, k, True)
            assert loose <= r < strict  # TOP is above every leaf
            assert ranks.successor(loose, k, True) == strict  # same block
            assert loose <= ranks.successor(s, k, False)
            assert strict <= ranks.successor(s, k, True)


def test_rank_width_matches_the_defining_recursion():
    # the block rows against the padded tree's own recursion, up to sizes
    # and heights far past what test_rank_successor_matches_leaf_scan builds
    for size, height in ((1, 1), (3, 2), (7, 12), (24, 8), (200, 3), (4991, 8), (500, 500), (49604, 32)):
        assert LeafRanks(size, height).width == padded_width(size, height), (size, height)


def test_rank_rows_reach_their_sizes_by_halving():
    # the sizes below a million are found by about 40 halvings, not by
    # listing the million entries of S(10**6): 16.1 MB that way
    tracemalloc.start()
    try:
        LeafRanks(10**6, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_target_cache_matches_values(monkeypatch):
    # a missed refresh would leave a stale target behind, and so would a
    # wrong memo entry, which the trees' memos share between solves
    trees = {}

    def recorded(size, height):
        ranks = trees[size, height] = leaf_ranks(size, height)
        return ranks

    monkeypatch.setattr(solver, "leaf_ranks", recorded)
    for i, g in enumerate(seeded_games(100, (1, 10), (2, 4, 6, 8), seed=29)):
        for policy in ("fifo", "lifo", "random"):
            mu = solve(g, worklist=policy, seed=i).measure
            assert mu.target == [mu.fresh_target(w) for w in range(g.n)]
        # and so would a wrong first target, before any lift
        start = Measure(g, mu.player, mu.ranks.size)
        assert start.target == [start.fresh_target(w) for w in range(g.n)]
    assert any(ranks.entries for ranks in trees.values())
    for ranks in trees.values():
        top = ranks.width
        entries = 0
        for k, rows in enumerate(ranks.memo):
            for strict, row in enumerate(rows):
                assert row[top] == top  # TOP's seed, not counted
                entries += len(row) - 1
                for r, target in row.items():
                    if r != top:
                        assert target == ranks.successor(r, k, strict)
        assert entries == ranks.entries <= MEMO_CAP


def test_memo_stays_within_its_cap(monkeypatch):
    # a tree of 28.8 million leaves, lifted over by the worklist, which
    # owns the cap, through some 229,000 changes to many distinct ranks
    monkeypatch.setattr(solver, "leaf_ranks", LeafRanks)
    g = random_game(200, 16, (1, 3), seed=1)
    mu = Measure(g, EVEN, 1000)
    assert _worklist(g, mu, sccs(g), "lifo", 0, [0, 0]) is None
    assert mu.ranks.entries == MEMO_CAP
    # less TOP's seed in each row
    assert sum(len(row) - 1 for rows in mu.ranks.memo for row in rows) == MEMO_CAP
    assert mu.target == [mu.fresh_target(w) for w in range(g.n)]


def test_warm_resolve_makes_no_memo_miss(monkeypatch):
    # every target a second solve of the same games asks for is in the
    # memo, TOP's among them, so no change computes one; fresh trees keep
    # earlier tests from having filled a shared memo to its cap
    monkeypatch.setattr(solver, "leaf_ranks", functools.lru_cache(maxsize=256)(LeafRanks))
    games = [random_game(40 + i, 16, (1, 3), seed=i) for i in range(20)]
    games += [random_game(200, 2, (1, 3), seed=i) for i in range(5)]
    for g in games:
        solve(g)
    misses = []
    fresh_target = Measure.fresh_target

    def counted(mu, w):
        misses.append(w)
        return fresh_target(mu, w)

    monkeypatch.setattr(Measure, "fresh_target", counted)
    for g in games:
        solve(g)
    assert misses == []


def test_path_game_memory_grows_linearly(monkeypatch):
    # vertex i has priority i + 1 and one edge to i - 1, so the tree is
    # n/2 wide and n/2 tall; doubling n must about double, not quadruple,
    # what a solve allocates, each solve building its tree afresh
    monkeypatch.setattr(solver, "leaf_ranks", LeafRanks)
    monkeypatch.setattr(solver, "_setup", solver._setup.__wrapped__)
    peaks = []
    for n in (2000, 4000):
        g = GameGraph([EVEN] * n, [i + 1 for i in range(n)], [[max(i - 1, 0)] for i in range(n)], d=n)
        tracemalloc.start()
        try:
            r = solve(g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert r.stats.eta == n // 2
    assert peaks[1] <= 2.5 * peaks[0], peaks


def test_setup_cache_holds_no_tree(monkeypatch):
    # 300 priority sets, each measured over a tree of its own: every cached
    # set-up holds only ints and bools, so the set-up cache keeps no tree
    # alive beyond the 256 trees leaf_ranks caches, nor their memo entries
    setup = functools.lru_cache(maxsize=SETUP_CAP)(solver._setup.__wrapped__)
    monkeypatch.setattr(solver, "_setup", setup)
    keys = []
    for j in range(300):
        g = GameGraph([EVEN, ODD], [1, 2 * j + 2], [[0], [1]], d=2 * j + 2)
        Measure(g, EVEN, j + 1)
        keys.append((frozenset(g.priority), EVEN))
    assert setup.cache_info().currsize == 300
    cached = [setup(*key) for key in keys]
    assert setup.cache_info().hits == 300
    stack = [*keys, *cached]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            stack.extend(obj.items())
        elif isinstance(obj, (tuple, frozenset)):
            stack.extend(obj)
        else:
            assert type(obj) in (int, bool)


def test_setup_cache_matches_the_per_vertex_definition(monkeypatch):
    # a fresh cache, so that its hits and misses are this test's own: each
    # game's first measure may miss, the two after it reuse a priority set
    # already seen; the sizes cycle through more trees than leaf_ranks
    # keeps, so some measures read rows of trees it has since rebuilt
    setup = functools.lru_cache(maxsize=SETUP_CAP)(solver._setup.__wrapped__)
    monkeypatch.setattr(solver, "_setup", setup)
    games = list(seeded_games(200, (1, 12), (2, 4, 6, 8, 16), seed=61))
    hits, trees = [], set()
    for i, g in enumerate(games):
        eta = min(sum(p % 2 for p in g.priority), sum(1 - p % 2 for p in g.priority))
        for player in (EVEN, ODD):
            for h, size in ((g, max(eta, 1)), (games[i // 2], 1 + 37 * i % 293), (g, g.n)):
                before = setup.cache_info().hits
                mu = Measure(h, player, size)
                hits.append(setup.cache_info().hits > before)
                k, strict, target, rows = measure_setup(h, player, size)
                assert (mu.k, mu.strict, mu.target) == (k, strict, target)
                assert {type(s) for s in mu.strict.values()} == {type(t) for t in mu.target} == {int}
                assert mu.ranks is leaf_ranks(size, mu.ranks.height)
                assert mu.rows.keys() == rows.keys() == set(h.priority)
                assert all(mu.rows[p] is rows[p] for p in rows)
                # the per-vertex reading through the game's priorities
                assert mu.priority is h.priority
                trees.add((size, mu.ranks.height))
    switches = sum(a != b for a, b in zip(hits, hits[1:]))
    assert switches >= 300 and hits.count(False) >= 150
    assert len(trees) > 256


def test_solves_never_write_the_shared_setup(monkeypatch):
    # every Measure over the same priorities shares _setup's dicts, so a
    # solve that wrote one would corrupt every later solve; after solving
    # under each policy and the full tree, each entry must still equal a
    # fresh computation, and each final measure read the cached dicts
    fresh = solver._setup.__wrapped__
    cached = functools.lru_cache(maxsize=SETUP_CAP)(fresh)
    keys = set()

    def setup(present, player):
        keys.add((present, player))
        return cached(present, player)

    monkeypatch.setattr(solver, "_setup", setup)
    options = ({"worklist": "fifo"}, {"worklist": "lifo"},
               {"worklist": "random", "seed": 3}, {"full_tree": True})
    subgames = 0
    for g in seeded_games(120, (2, 60), (4, 6, 8, 16), seed=83):
        for kwargs in options:
            r = solve(g, **kwargs)
            subgames += r.stats.subgames
            _, k, strict = cached(frozenset(g.priority), r.stats.player)
            assert r.measure.k is k and r.measure.strict is strict
    # no entry was evicted, so every one a solve read is checked
    assert subgames > 0 and len(keys) == cached.cache_info().currsize <= SETUP_CAP
    for key in keys:
        assert cached(*key) == fresh(*key)


def test_vertex_consistent_does_not_read_the_memo(monkeypatch):
    # Even measures over a one-level tree of width 3, and Odd's two levels
    # send the game to the probe, which lifts Even's values on the 2-cycle
    # of priority 1 from 0 -> 1 -> 2 -> TOP (3): no self-loop starts them
    # at TOP.  A memo entry claiming that a strict edge into rank 1 admits
    # 1 again stops the climb below TOP; the check, which computes
    # afresh, sees the fault.
    g = GameGraph([ODD, ODD, EVEN, EVEN], [1, 1, 2, 4], [[1], [0], [2], [3]], d=4)
    mu = solve(g).measure
    assert mu.player == EVEN and mu.values == [3, 3, 0, 0] == [mu.top, mu.top, 0, 0]
    assert vertex_consistent(g, mu, 0) and vertex_consistent(g, mu, 1)
    poisoned = LeafRanks(2, 1)
    poisoned.memo[1][True][1] = 1
    monkeypatch.setattr(solver, "leaf_ranks", lambda size, height: poisoned)
    mu = solve(g).measure
    assert mu.values == [1, 1, 0, 0]
    assert not vertex_consistent(g, mu, 0)
    assert not vertex_consistent(g, mu, 1)


# -- strongly connected components -------------------------------------------


def reachable(g, v):
    seen, stack = {v}, [v]
    while stack:
        for w in g.succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_components_are_mutual_reachability_classes_sinks_first():
    # the lift counts rest on the exact order: the probe's queue is the
    # finishing order of the search over predecessors, each component
    # lists its vertices in increasing finishing index, and the components
    # come in decreasing finishing index of their last vertex.  A repeated
    # successor changes none of these, and a shuffled successor list
    # changes nothing at all
    rng = random.Random(83)
    games = 0
    for g in seeded_games(600, (1, 12), (2, 4, 6), seed=83):
        repeated = GameGraph(g.owner, g.priority, [s + s[::-1] for s in g.succ], d=g.d)
        shuffled = GameGraph(g.owner, g.priority, [rng.sample(s, len(s)) for s in g.succ], d=g.d)
        assert _finish_order(shuffled) == _finish_order(g)
        assert sccs(shuffled) == sccs(g)
        for h in (g, repeated):
            order = _finish_order(h)
            assert order == finishing_order(h.succ)
            components = _components(h, order)
            assert sorted(v for c in components for v in c) == list(range(h.n))
            reach = [reachable(h, v) for v in range(h.n)]
            finish = {v: i for i, v in enumerate(order)}
            last = [finish[c[-1]] for c in components]
            assert last == sorted(last, reverse=True)
            position = {}
            for i, c in enumerate(components):
                assert c == sorted(c, key=finish.__getitem__)
                for v in c:
                    position[v] = i
                    assert set(c) == {w for w in reach[v] if v in reach[w]}
            for v in range(h.n):
                for w in h.succ[v]:
                    assert position[w] <= position[v]
        games += len(components) not in (1, g.n)
    assert games >= 100  # many games mix cyclic and acyclic parts


def test_solve_long_path_without_recursion():
    # far deeper than the recursion limit; each vertex is its own component.
    # Even's probe lifts the sink end of the path for SLICE lifts and
    # pauses; Even owns every vertex, so its attractor of the probed part
    # decides the rest with no subgame, and the completion run lifts each
    # remaining vertex once, its successor being final already
    n = 20_000
    succ = [[v + 1] for v in range(n - 1)] + [[n - 1]]
    g = GameGraph([EVEN] * n, [v % 4 + 1 for v in range(n)], succ, d=4)
    assert len(sccs(g)) == n
    r = solve(g)
    assert r.regions.even == frozenset(range(n))
    assert r.stats.lifts == n
    assert r.stats.subgames == 0


# -- edge condition and lift on explicit states ------------------------------


def test_edge_condition_self_loop_examples():
    # priority 1 self-loop: a strict edge onto itself never holds on a leaf
    g = GameGraph([ODD], [1], [[0]], d=2)
    mu = Measure(g, EVEN, 1)
    assert mu.values[0] == 0
    assert not edge_consistent(g, mu, 0, 0)
    put(mu, 0, mu.top - 1)  # the last leaf
    assert not edge_consistent(g, mu, 0, 0)

    # priority 2 self-loop: empty prefix, vacuously consistent
    g2 = GameGraph([ODD], [2], [[0]], d=2)
    mu2 = Measure(g2, EVEN, 1)
    assert edge_consistent(g2, mu2, 0, 0)

    # top value dominates everything
    put(mu, 0, mu.top)
    assert edge_consistent(g, mu, 0, 0)


def test_lift_self_loop_examples():
    # padded single path: leaves 0 (stop branch) and 1; strict steps to
    # the next leaf, and from the last one to TOP
    g = GameGraph([EVEN], [1], [[0]], d=2)
    mu = Measure(g, EVEN, 1)
    assert mu.top == 2
    assert lift(g, mu, 0) == 1
    put(mu, 0, 1)
    assert lift(g, mu, 0) == mu.top

    g2 = GameGraph([EVEN], [2], [[0]], d=2)
    mu2 = Measure(g2, EVEN, 1)
    assert lift(g2, mu2, 0) == 0  # already consistent, no-op


def test_lift_never_decreases_on_random_states():
    rng = random.Random(23)
    for g in seeded_games(150, (1, 8), (2, 4, 6), seed=8):
        odd = sum(p % 2 for p in g.priority)
        player = EVEN if odd <= g.n - odd else ODD
        ranks = solve(g).measure.ranks
        mu = Measure(g, player, ranks.size)
        for v in range(g.n):
            put(mu, v, rng.randrange(ranks.width + 1))  # a leaf rank or TOP
        for v in range(g.n):
            assert not lift(g, mu, v) < mu.values[v]


# -- solve on known games ----------------------------------------------------


def test_solve_trivial_self_loops():
    even_loop = GameGraph([EVEN], [2], [[0]], d=2)
    r = solve(even_loop)
    assert r.regions.even == frozenset({0})
    assert r.regions.odd == frozenset()

    odd_loop = GameGraph([EVEN], [1], [[0]], d=2)
    r = solve(odd_loop)
    assert r.regions.odd == frozenset({0})


def test_solve_two_cycle():
    # only play alternates 1, 2, 1, 2, ...; highest recurring priority is 2
    g = GameGraph([EVEN, ODD], [1, 2], [[1], [0]], d=2)
    r = solve(g)
    assert r.regions.even == frozenset({0, 1})
    assert zielonka(g) == brute_force_solve(g) == r.regions


def test_solve_mixed_regression_games():
    # each of these once exposed a sizing or level-anchoring bug
    cases = [
        # 2 <-> 3 cycle plus an odd self-loop: Odd wins everywhere
        GameGraph([ODD, ODD, ODD], [2, 3, 3], [[1], [0], [2]], d=4),
        # dead odd levels above a live one
        GameGraph([ODD, EVEN, EVEN, ODD], [2, 2, 1, 6], [[3, 0, 2], [2, 3, 1], [0], [3]], d=6),
        # strictness pressure inside a non-strict cycle
        GameGraph([ODD, EVEN, ODD, EVEN], [4, 1, 2, 3], [[2, 0, 1], [2], [0, 1], [1]], d=4),
        GameGraph([ODD, ODD, EVEN, ODD, ODD], [5, 8, 5, 2, 5], [[1], [2, 0, 1], [3], [4], [2]], d=8),
        # declared d far above any present priority
        GameGraph([EVEN, ODD], [1, 2], [[1], [0]], d=6),
    ]
    for g in cases:
        assert solve(g).regions == zielonka(g)


def test_solve_agrees_with_zielonka():
    for g in seeded_games(1500, (1, 10), (2, 4, 6), seed=101):
        assert solve(g).regions == zielonka(g)


def test_zielonka_agrees_with_brute_force():
    for g in seeded_games(150, (1, 6), (2, 4, 6), seed=55):
        assert zielonka(g) == brute_force_solve(g)


def test_zielonka_deep_priority_path():
    # vertex i has priority i + 1 and moves to i - 1, and vertex 0 loops on
    # priority 1: every play ends on that loop, so Odd wins everywhere.
    # Each priority peels one attractor, 3,000 levels deep
    n = 3000
    g = GameGraph([EVEN] * n, range(1, n + 1), [[max(i - 1, 0)] for i in range(n)], d=n)
    assert zielonka(g).odd == frozenset(range(n))


def test_bits_lists_set_positions_in_order():
    for mask in (0, 1, 5, (1 << 4999) | 5, (1 << 3000) - 1):
        assert list(_bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_zielonka_deterministic():
    g = random_game(9, 6, (1, 3), seed=4)
    assert zielonka(g) == zielonka(g)


def test_winning_regions_must_be_disjoint():
    with pytest.raises(ValueError, match="disjoint"):
        WinningRegions(even=frozenset({0, 1}), odd=frozenset({1, 2}))


def test_brute_force_guard():
    g = GameGraph([EVEN] * 10, [2] * 10, [list(range(4))] * 10, d=2)
    with pytest.raises(GameError, match="strategies"):
        brute_force_solve(g)


def test_brute_force_hand_example():
    g = GameGraph([EVEN, ODD], [1, 2], [[1], [0]], d=2)
    regions = brute_force_solve(g)
    assert regions.even == frozenset({0, 1})


# -- run discipline ----------------------------------------------------------


def test_regions_partition_vertices():
    for g in seeded_games(200, (1, 9), (2, 4, 6), seed=31):
        r = solve(g).regions
        assert r.even | r.odd == frozenset(range(g.n))
        assert not r.even & r.odd


def test_small_tree_equals_full_tree():
    for g in seeded_games(300, (2, 10), (2, 4, 6, 8), seed=71):
        small = solve(g)
        full = solve(g, full_tree=True)
        assert small.regions == full.regions
        assert full.stats.tree_width >= small.stats.tree_width
        eta = small.stats.eta
        if g.d >= 4 and eta < g.n:
            assert full.stats.tree_width > small.stats.tree_width


def fresh_measure(g, full_tree=False):
    """The measured player's measure at the least leaf, over the tree sized
    by eta, or by n under ``full_tree``."""
    odd = sum(p % 2 for p in g.priority)
    player = EVEN if odd <= g.n - odd else ODD
    return Measure(g, player, g.n if full_tree else max(min(odd, g.n - odd), 1))


def test_eta_sized_tree_is_tight():
    # the paper's bound: over the tree sized by eta, the count of the
    # measured player's opponent-parity vertices, the worklist's least
    # fixpoint gives that player its exact region on every game; one size
    # smaller gives a wrong region on some game.  The fixpoint does not
    # depend on the lifting order, so the count of such games is exact
    rng = random.Random(7)
    smaller_wrong = []
    for i in range(3000):
        n, d = rng.randint(2, 12), rng.choice((2, 4, 6))
        g = random_game(n, d, (1, 3), seed=i)
        odd = sum(p % 2 for p in g.priority)
        player = EVEN if odd <= n - odd else ODD
        eta = max(min(odd, n - odd), 1)
        regions = zielonka(g)
        exact = regions.even if player == EVEN else regions.odd

        def region(size):
            mu = Measure(g, player, size)
            _worklist(g, mu, sccs(g), "lifo", 0, [0, 0])
            return {v for v in range(n) if mu.values[v] != mu.top}

        assert region(eta) == exact, i
        if eta > 1 and region(eta - 1) != exact:
            smaller_wrong.append(i)
    # 47 of the 2,021 games with eta >= 2
    assert len(smaller_wrong) == 47
    assert smaller_wrong[0] == 232


def round_robin_values(g):
    """The paper's plain lifting: sweep every vertex in order, lifting each,
    until a whole sweep changes nothing.  No worklist, no components."""
    mu = fresh_measure(g)
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            new = lift(g, mu, v)
            if new != mu.values[v]:
                put(mu, v, new)
                changed = True
    return mu.values


def test_worklist_policies_reach_same_fixpoint():
    for i, g in enumerate(seeded_games(300, (1, 10), (2, 4, 6), seed=13)):
        fifo = solve(g, worklist="fifo")
        lifo = solve(g, worklist="lifo")
        rand = solve(g, worklist="random", seed=i)
        expected = round_robin_values(g)
        assert fifo.measure.values == lifo.measure.values == rand.measure.values == expected
        assert fifo.regions == lifo.regions == rand.regions


def record_decompose(monkeypatch) -> list:
    """Wrap `solver._decompose` so that each solve appends the winners it
    returned to the list given back.  The completion run would mend a
    vertex wrongly given to the measured player, so tests check these
    winners directly."""
    decompose = solver._decompose
    decided = []

    def recorded(*args):
        out = decompose(*args)
        decided.append(out[0])
        return out

    monkeypatch.setattr(solver, "_decompose", recorded)
    return decided


def record_buchi(monkeypatch) -> list:
    """Wrap `solver._buchi` so that each call appends the winners it gave
    the vertices of its subgame, as a dict, to the list given back."""
    buchi = solver._buchi
    decided = []

    def recorded(g, live, b, size, winner):
        sub = list(live)
        order = buchi(g, live, b, size, winner)
        decided.append({v: winner[v] for v in sub})
        return order

    monkeypatch.setattr(solver, "_buchi", recorded)
    return decided


def test_decomposition_keeps_the_measured_fixpoint(monkeypatch):
    # the d = 2 games are decided whole by the Buchi loop, with no probe;
    # the returned measure is still the measured player's least fixpoint.
    # The last game has priorities 1, 2 and 3, so Even has two live
    # levels, Odd one; it needs more than one probe slice, and its
    # subgame goes to the rounds
    decided = record_decompose(monkeypatch)
    buchi = record_buchi(monkeypatch)
    games = list(seeded_games(30, (200, 300), (2,), seed=2))
    mixed = random_game(200, 4, (1, 3), seed=2)
    games.append(GameGraph(mixed.owner, [min(p, 3) for p in mixed.priority], mixed.succ, d=4))
    decomposed = {policy: 0 for policy in ("fifo", "lifo", "random")}
    for i, g in enumerate(games):
        expected = round_robin_values(g)
        regions = zielonka(g)
        winners = [EVEN if v in regions.even else ODD for v in range(g.n)]
        for policy in decomposed:
            decided.clear()
            r = solve(g, worklist=policy, seed=i)
            assert r.measure.values == expected
            assert r.regions == regions
            assert all(winner == winners for winner in decided)
            decomposed[policy] += r.stats.subgames > 0
            assert (r.stats.round_size > 0) == (g is games[-1])
        # a repeated successor is one move, and an attractor counts it once
        repeated = GameGraph(g.owner, g.priority, [s + s[:1] for s in g.succ], d=g.d)
        decided.clear()
        r = solve(repeated)
        assert r.measure.values == expected
        assert r.regions == regions
        assert all(winner == winners for winner in decided)
        assert all(winners[v] == w for call in buchi for v, w in call.items())
        if g.d == 2:  # each of the four solves, one call over the whole game
            assert [len(call) for call in buchi] == [g.n] * 4
        buchi.clear()
    assert all(decomposed.values())


def whole_game_values(g, full_tree=False):
    """The measured player's least fixpoint, lifted over the whole game as
    one component: no probe, no decomposition, no completion run."""
    mu = fresh_measure(g, full_tree)
    assert _worklist(g, mu, [range(g.n)], "fifo", 0, [0, 0]) is None
    return mu.values


def test_worklist_limit_stops_before_the_next_lift(monkeypatch):
    # a run limited to k lifts makes the first k lifts of the unlimited
    # run and returns exactly the vertices still queued, the (k + 1)-th
    # lifted among them.  The components before the first holding one of
    # them carry the unlimited run's fixpoint already, and a run over the
    # components from there on reaches it.  Runs go over the probe's one
    # list or over the components, which then queue one at a time
    lifted = []

    def recording(g, mu, v):
        lifted.append(v)
        return lift(g, mu, v)

    monkeypatch.setattr(solver, "lift", recording)
    checked = final = 0
    for i, g in enumerate(seeded_games(40, (10, 60), (2, 4, 6, 8), seed=71)):
        order = _finish_order(g)
        components = _components(g, order)
        lists = [order] if i % 2 else components
        policy = WORKLIST_POLICIES[i % 3]
        lifted.clear()
        mu, counts = fresh_measure(g), [0, 0]
        assert _worklist(g, mu, lists, policy, i, counts) is None
        assert counts[0] == len(lifted)
        full, expected = list(lifted), mu.values
        for k in sorted({0, 1, len(full) // 2, len(full) - 1}):
            lifted.clear()
            mu, counts, queued = fresh_measure(g), [0, 0], [True] * g.n
            pending = _worklist(g, mu, lists, policy, i, counts, limit=k, queued=queued)
            assert counts[0] == len(lifted) == k
            assert lifted == full[:k]
            assert full[k] in pending and len(pending) == len(set(pending))
            assert set(pending) == {v for v in range(g.n) if queued[v]} | {full[k]}
            start = next(j for j, c in enumerate(components) if not set(pending).isdisjoint(c))
            for v in itertools.chain(*components[:start]):
                assert mu.values[v] == expected[v]
            final += start > 0
            _worklist(g, mu, components[start:], policy, i, counts)
            assert mu.values == expected
            checked += 1
    assert checked >= 120
    assert final >= 50  # 58 of the 160 stops leave a final component


def test_probe_stops_at_any_slice(monkeypatch):
    # however early the probe stops, the components before the first
    # holding a vertex it left to lift are final, and `_decompose` and the
    # completion reach the regions and the measure a full probe reaches
    games = [g for g in seeded_games(40, (2, 60), (4, 6, 8, 16), seed=53) if not one_level(g)]
    # Odd's vertex 0 loops on itself at Odd's priority, so it starts at
    # TOP; every vertex moves into it, so the search over predecessors
    # from 0 finishes it last, and the probe pops it first
    g = GameGraph([ODD, EVEN, ODD, EVEN], [1, 2, 3, 2], [[0], [0, 2], [0, 3], [0, 1]], d=4)
    assert _finish_order(g)[-1] == 0 and 0 in doomed(g, EVEN)
    games.append(g)
    assert len(games) == 41

    def options(i):
        return (dict(worklist="fifo"), dict(worklist="lifo"),
                dict(worklist="random", seed=i), dict(full_tree=True))

    regions = [zielonka(g) for g in games]
    full = [[solve(g, **o) for o in options(i)] for i, g in enumerate(games)]
    for limit in (0, 1, 7, 64):
        monkeypatch.setattr(solver, "SLICE", limit)
        for i, g in enumerate(games):
            for o, before in zip(options(i), full[i]):
                r = solve(g, **o)
                assert r.regions == before.regions == regions[i]
                assert r.measure.values == before.measure.values
    # the last game's probe pops vertex 0 at TOP and stops at its next pop:
    # 0, a sink, is final, and `_decompose` gets the cycle 1 -> 2 -> 3
    monkeypatch.setattr(solver, "SLICE", 0)
    decompose, calls = solver._decompose, []

    def recorded(g, components, winner, *rest):
        calls.append((components, list(winner)))
        return decompose(g, components, winner, *rest)

    monkeypatch.setattr(solver, "_decompose", recorded)
    assert solve(g).regions == zielonka(g)
    assert calls == [([[2, 3, 1]], [ODD, -1, -1, -1])]


def test_the_second_search_runs_only_when_the_probe_stops(monkeypatch):
    # the probe lifts in the first search's finishing order, so a game it
    # finishes is never split into components: here, every small
    # multi-level game.  A game it stops in is split once, from the order
    # of its one first search
    finish, split = solver._finish_order, solver._components
    orders, splits = [], []

    def first(g):
        orders.append(finish(g))
        return orders[-1]

    def refused(g, order):
        raise AssertionError("a finished probe split the game into components")

    monkeypatch.setattr(solver, "_finish_order", first)
    monkeypatch.setattr(solver, "_components", refused)
    games = [g for g in seeded_games(300, (1, 12), (4, 6), seed=97) if not one_level(g)]
    for g in games:
        r = solve(g)
        assert r.regions == zielonka(g)
        assert r.measure.values == whole_game_values(g)
    assert len(orders) == len(games) >= 200

    def second(g, order):
        splits.append(order)
        return split(g, order)

    monkeypatch.setattr(solver, "_components", second)
    stopped = 0
    for g in seeded_games(20, (100, 300), (8, 16), seed=62):
        orders.clear()
        splits.clear()
        assert solve(g).regions == zielonka(g)
        assert len(orders) == 1 and len(splits) <= 1
        assert all(order is orders[0] for order in splits)
        stopped += len(splits)
    assert stopped >= 10


def test_decompose_keeps_winners_given_for_every_vertex():
    for g in seeded_games(20, (2, 40), (2, 4, 8), seed=73):
        regions = zielonka(g)
        winners = [EVEN if v in regions.even else ODD for v in range(g.n)]
        tally = [0, 0]
        decided = solver._decompose(g, sccs(g), list(winners), False, "lifo", 0, tally)
        assert decided == (winners, 0, 0)
        assert tally == [0, 0]


def test_rounds_keep_the_measured_fixpoint(monkeypatch):
    # d >= 4 games past the probe: a subgame where both players have two
    # live levels is decided in rounds over trees of size 1, 2, 4, ...
    # round_robin_values takes tens of seconds on games of this size, so
    # the reference is the worklist over the whole game, which
    # test_worklist_policies_reach_same_fixpoint ties to it on small games
    decided = record_decompose(monkeypatch)
    sizes = []
    for i, g in enumerate(seeded_games(30, (100, 400), (4, 8, 16), seed=37)):
        regions = zielonka(g)
        winners = [EVEN if v in regions.even else ODD for v in range(g.n)]
        expected = {full: whole_game_values(g, full) for full in (False, True)}
        for options in (
            dict(worklist="fifo"),
            dict(worklist="lifo"),
            dict(worklist="random", seed=i),
            dict(full_tree=True),
        ):
            decided.clear()
            r = solve(g, **options)
            assert r.measure.values == expected[options.get("full_tree", False)]
            assert r.regions == regions
            assert all(winner == winners for winner in decided)
            sizes.append((r.stats.round_size, r.stats.eta))
    # rounds ran, and some game was decided on a tree below its eta size
    assert any(0 < size < eta for size, eta in sizes)
    # a round over min(s, size_p) leaves is a power of two unless s >= size_p,
    # so some round was ended by a side over its exact tree
    assert any(size & (size - 1) for size, _ in sizes)


def test_rounds_decide_a_large_game_on_small_trees():
    # the eta tree is 28.8 million leaves wide, yet every round of the one
    # subgame stays at size 2 or below
    g = random_game(3000, 16, (1, 3), seed=1)
    r = solve(g)
    assert r.stats.tree_width == 28_766_465
    assert (r.stats.lifts, r.stats.changes, r.stats.subgames, r.stats.round_size) == (
        14056, 10964, 1, 2,
    )
    assert r.regions == zielonka(g)


def test_second_side_starts_from_the_first_sides_decisions():
    # rounds do most of the work here; lifting a fresh second-side measure
    # took 59,601 lifts and 46,510 changes, the climbs to TOP of what the
    # first side and its attractor had already decided
    g = random_game(10000, 16, (1, 3), seed=1)
    r = solve(g)
    assert (r.stats.lifts, r.stats.changes, r.stats.subgames, r.stats.round_size) == (
        50199, 39557, 1, 2,
    )
    assert r.regions == zielonka(g)


def test_decomposition_lift_count():
    # the game of `pgtrees gen 60 8 --seed 3`: Odd's probe pauses, one
    # subgame is decided in rounds, and the completion run lifts only the
    # vertices Odd wins, the others being set to TOP first
    r = solve(random_game(60, 8, (1, 3), seed=3))
    assert r.stats.player == ODD
    assert (r.stats.lifts, r.stats.changes, r.stats.subgames) == (501, 421, 1)


def test_completion_rejects_a_lost_vertex_given_to_the_measured_player(monkeypatch):
    # the completion run would lift that vertex to TOP and keep the
    # regions right, so only the guard after it shows the fault
    decompose = solver._decompose

    def wrong(g, *args):
        winner, subgames, largest = decompose(g, *args)
        player = solver._sides(g.priority, False)[0][0][0]
        winner[winner.index(1 - player)] = player
        return winner, subgames, largest

    monkeypatch.setattr(solver, "_decompose", wrong)
    with pytest.raises(AssertionError, match="gave the measured player a vertex it loses"):
        solve(random_game(60, 8, (1, 3), seed=3))

    # and so for the winners of a one-level game, which the Buchi loop gives
    buchi = solver._buchi

    def wrong_buchi(g, live, b, size, winner):
        order = buchi(g, live, b, size, winner)
        player = solver._sides(g.priority, False)[0][0][0]
        winner[winner.index(1 - player)] = player
        return order

    monkeypatch.setattr(solver, "_buchi", wrong_buchi)
    g = random_game(60, 2, (1, 3), seed=2)
    assert 0 < len(zielonka(g).even) < g.n
    with pytest.raises(AssertionError, match="gave the measured player a vertex it loses"):
        solve(g)


def two_cycles(n):
    """n // 2 disjoint 2-cycles v <-> v ^ 1, about half of the vertices
    with a self-loop, owners and priorities 1..4 drawn from seed 5."""
    rng = random.Random(5)
    owners = [rng.randint(0, 1) for _ in range(n)]
    priorities = [rng.randint(1, 4) for _ in range(n)]
    succ = [[v ^ 1] + ([v] if rng.random() < 0.5 else []) for v in range(n)]
    return GameGraph(owners, priorities, succ, d=4)


def test_many_subgames_in_one_solve():
    # 600 disjoint 2-cycles: the probe pauses early, and every cycle no
    # attractor decides is a two-vertex subgame of its own, decided by the
    # Buchi loop or, when both its priorities have one parity, in rounds
    g = two_cycles(1200)
    regions = zielonka(g)
    for options, counts in (
        (dict(worklist="fifo"), (1386, 306, 600)),
        (dict(worklist="lifo"), (1392, 414, 597)),
        (dict(worklist="random", seed=0), (1395, 307, 600)),
        (dict(full_tree=True), (1392, 414, 597)),
    ):
        r = solve(g, **options)
        assert (r.stats.lifts, r.stats.changes, r.stats.subgames) == counts
        assert r.regions == regions


def test_subgames_cost_no_time_per_vertex_of_the_game():
    # thousands of two-vertex subgames: the 16 times larger game takes
    # about 16 times as long, and about 45 times once each round allocates
    # a list of length n, as a fresh `queued` per round would
    seconds = {}
    for n in (5000, 80000):
        g = two_cycles(n)
        times = []
        for _ in range(2):
            start = time.perf_counter()
            solve(g)
            times.append(time.perf_counter() - start)
        seconds[n] = min(times)
    assert seconds[80000] <= 32 * seconds[5000], seconds


def test_rounds_build_no_graph(monkeypatch):
    # rounds lift over the game's own vertex ids, so no subgame is rebuilt
    # as a GameGraph: its remap, validation and preds build are all gone
    g = random_game(60, 8, (1, 3), seed=3)
    regions = zielonka(g)

    def refused(self, *args, **kwargs):
        raise AssertionError("a GameGraph was built during the solve")

    monkeypatch.setattr(GameGraph, "__init__", refused)
    r = solve(g)
    assert (r.stats.subgames, r.stats.round_size) == (1, 2)
    assert r.regions == regions


def doomed(g, player):
    """The vertices a self-loop at the opponent's parity puts at TOP in
    every fixpoint of player's measure: the opponent's, free to take the
    loop forever, and player's with no other move."""
    return {
        v for v in range(g.n)
        if v in g.succ[v] and g.priority[v] % 2 != player
        and (g.owner[v] != player or set(g.succ[v]) == {v})
    }


def with_self_loops(g, rng):
    """g with a self-loop added at about a third of its vertices, and in
    place of the moves of about a sixth, some of them given twice."""
    succ = []
    for v, s in enumerate(g.succ):
        x = rng.random()
        succ.append([v] * rng.randint(1, 2) if x < 1 / 6 else [*s, v] if x < 1 / 2 else s)
    return GameGraph(g.owner, g.priority, succ, d=g.d)


def test_self_loop_start_keeps_the_least_fixpoint():
    # the probe starts at TOP each vertex its strict self-loop dooms; the
    # plain fixpoint, lifted from the least leaf everywhere as one
    # component, has them at TOP as well, and every option reaches it
    rng = random.Random(29)
    games = [with_self_loops(g, rng) for g in seeded_games(150, (1, 40), (4, 6, 8), seed=31)]
    games += [two_cycles(n) for n in (2, 40, 400)]
    started = 0
    for i, g in enumerate(games):
        regions = zielonka(g)
        for options in (dict(worklist="fifo"), dict(worklist="lifo"),
                        dict(worklist="random", seed=i), dict(full_tree=True)):
            r = solve(g, **options)
            expected = whole_game_values(g, "full_tree" in options)
            assert r.measure.values == expected
            assert r.regions == regions
            assert all(expected[v] == r.measure.top for v in doomed(g, r.stats.player))
        if not one_level(g):
            started += len(doomed(g, r.stats.player))
    assert started >= 500, started


def test_self_loops_decide_a_game_in_the_probe():
    # its doomed vertices no longer climb to TOP one tree block at a time,
    # so the probe finishes this game: 40 lifts, where climbing took 321
    # and left one subgame to `_decompose`
    g = random_game(29, 16, (1, 3), seed=9)
    r = solve(g)
    assert (r.stats.lifts, r.stats.changes, r.stats.subgames) == (40, 27, 0)
    assert r.regions == zielonka(g)


def test_only_doomed_self_loops_start_at_top():
    # Even measures (priorities 1, 2, 4).  Odd's 3 can loop on priority 1
    # forever, and Even's 4 has no move but its loop, given twice: both
    # start at TOP.  Even's 0 has a loop of priority 1 but moves to 1,
    # which Even wins, and Odd's 5 loops on priority 2: neither starts there
    g = GameGraph(
        [EVEN, EVEN, ODD, ODD, EVEN, ODD, EVEN],
        [1, 2, 4, 1, 1, 2, 4],
        [[0, 1], [1], [2], [3, 1], [4, 4], [5, 0], [6]],
        d=4,
    )
    mu = Measure(g, EVEN, 3)
    solver._doomed_at_top(g, mu)
    top = mu.top
    assert mu.values == [0, 0, 0, top, top, 0, 0] and mu.target[3] == mu.target[4] == top
    assert doomed(g, EVEN) == {3, 4}
    r = solve(g)
    assert r.stats.player == EVEN
    assert r.regions == zielonka(g)
    assert r.regions.odd == frozenset({3, 4})


def ladder(k):
    """A Buchi ladder, one strongly connected component.  Odd's x0 loops
    on priority 1 and may jump to x_k; for i = 1..k, b_i of priority 2
    moves to x_{i-1}, and Even's x_i of priority 1 moves to b_i or loops.
    Odd wins everywhere, and removing b_i is what cuts x_i off from
    Even's attractor of the priority-2 vertices.  Vertex 2i is x_i and
    vertex 2i - 1 is b_i."""
    owner = [ODD] + [EVEN] * 2 * k
    priority = [1] + [2, 1] * k
    succ = [[0, 2 * k]] + [s for i in range(1, k + 1) for s in ([2 * i - 2], [2 * i - 1, 2 * i])]
    return GameGraph(owner, priority, succ, d=2)


def test_buchi_loop_peels_once_per_top_vertex_and_once_more(monkeypatch):
    # the loop peels {x_{i-1}, b_i} for i = 1..k and then {x_k}, so it
    # peels |b| + 1 times, the width of Odd's one-level tree sized by
    # eta = |b|: that size is tight, and one less trips the bound.
    # Swapped sizing, by the count of priority 1, cannot fail here or on
    # any game with two priorities: each nonempty U is a fresh set of
    # low-priority vertices, so the loop also peels at most that many
    # times.  A sizing that fails needs trees of more than one level.
    # Odd wins everything, and lifting in the order the loop decided the
    # vertices, x_0 first, lifts each vertex once and x_0 twice; in
    # ascending order it would take about k * k lifts
    buchi = solver._buchi
    calls = []

    def recorded(g, live, b, size, winner):
        calls.append((len(live), b, size))
        return buchi(g, live, b, size, winner)

    monkeypatch.setattr(solver, "_buchi", recorded)
    for k in (1, 2, 3, 10, SLICE, 600):
        g = ladder(k)
        calls.clear()
        r = solve(g)
        assert calls == [(g.n, 2, k)]  # the whole game, in one call
        assert r.stats.lifts == 2 * k + 2
        assert r.regions.odd == frozenset(range(g.n))
    assert r.regions == zielonka(g)

    def undersized(g, live, b, size, winner):
        return buchi(g, live, b, size - 1, winner)

    monkeypatch.setattr(solver, "_buchi", undersized)
    for k in (1, 10, SLICE):
        with pytest.raises(AssertionError, match=f"Buchi loop peeled more than {k} times"):
            solve(ladder(k))


def test_one_level_games_are_decided_whole(monkeypatch):
    # neither SCC search and no probe: the Buchi loop decides the game, and
    # the completion still reaches the measured player's least fixpoint,
    # also with one priority, with priorities 2 and 3 (b odd), with
    # repeated successors and under every policy and the full tree
    def no_search(g, *order):
        raise AssertionError("a one-level game searched for components")

    monkeypatch.setattr(solver, "_finish_order", no_search)
    monkeypatch.setattr(solver, "_components", no_search)
    rng = random.Random(89)
    checked = 0
    for i, g in enumerate(seeded_games(20, (1, 400), (2,), seed=89)):
        p = rng.choice((1, 2))
        variants = (
            g,
            GameGraph(g.owner, [q + 1 for q in g.priority], g.succ, d=4),
            GameGraph(g.owner, [p] * g.n, g.succ, d=2),
            GameGraph(g.owner, g.priority, [s + s[::-1] for s in g.succ], d=2),
        )
        for h in variants:
            assert one_level(h)
            regions = zielonka(h)
            expected = {full: whole_game_values(h, full) for full in (False, True)}
            for options in (
                dict(worklist="fifo"),
                dict(worklist="lifo"),
                dict(worklist="random", seed=i),
                dict(full_tree=True),
            ):
                r = solve(h, **options)
                assert r.measure.values == expected[options.get("full_tree", False)]
                assert r.regions == regions
                assert r.stats.subgames == r.stats.round_size == 0
                checked += 1
    assert checked == 20 * 4 * 4


def test_decomposition_under_full_tree():
    # criterion 7's games never get past the probe; these do, and their
    # rounds size both sides by the subgame's own vertex count
    decomposed = 0
    for g in seeded_games(6, (100, 300), (4, 8, 12, 16), seed=29):
        full = solve(g, full_tree=True)
        assert full.regions == solve(g).regions == zielonka(g)
        decomposed += full.stats.subgames > 0
    assert decomposed


def test_single_vertex_subgame_decided_by_its_self_loop():
    # a chain of self-loops, each its own component; v's other successor,
    # v - 1, is won by v's owner's opponent, so no attractor takes v, and
    # the Buchi loop gives each vertex to the player of its priority, by
    # its self-loop
    n = 3 * SLICE
    succ = [[0]] + [[v, v - 1] for v in range(1, n)]
    owner = [(v + 1) % 2 for v in range(n)]  # the loser of v - 1 owns v
    priority = [v % 2 + 1 for v in range(n)]  # 1, 2, 1, 2, ...
    g = GameGraph(owner, priority, succ, d=2)
    r = solve(g)
    assert r.stats.subgames == 0
    assert r.regions == zielonka(g)
    assert r.regions.even == frozenset(range(1, n, 2))


def test_repeated_edge_counts_once_in_the_attractor():
    # an Even path 0 -> 1 -> ... with a self-loop at its end, and Odd's u,
    # whose one move into 0 is listed twice: Even's attractor in the Buchi
    # loop takes u, which has no self-loop to decide it by, and the
    # completion lifts each vertex once
    n = SLICE + 45
    succ = [[v + 1] for v in range(n - 2)] + [[n - 2], [0, 0]]
    g = GameGraph([EVEN] * (n - 1) + [ODD], [2] * (n - 1) + [1], succ, d=2)
    r = solve(g)
    assert r.stats.lifts == n
    assert r.regions == zielonka(g)
    assert n - 1 in r.regions.even


def test_lift_count_ignores_successor_order():
    # the first search visits predecessors, which are listed ascending,
    # and the second floods whole components, so the order of a successor
    # list cannot reach the queue, nor the random policy's picks from it.  The
    # probe finishes every small game; most larger ones go on to
    # `_decompose` and the completion run
    rng = random.Random(61)
    decomposed = 0
    for g in itertools.chain(
        seeded_games(300, (1, 12), (2, 4, 6, 8), seed=59),
        seeded_games(20, (100, 300), (8, 16), seed=62),
    ):
        shuffled = [list(s) for s in g.succ]
        for s in shuffled:
            rng.shuffle(s)
        h = GameGraph(g.owner, g.priority, shuffled, d=g.d)
        for policy in WORKLIST_POLICIES:
            a, b = solve(g, worklist=policy), solve(h, worklist=policy)
            assert a.stats.lifts == b.stats.lifts
            assert a.stats.changes == b.stats.changes
            assert a.measure.values == b.measure.values
            decomposed += a.stats.lifts > SLICE  # the probe stopped
    assert decomposed >= 50


def test_opponent_vertices_are_lifted_only_to_rise(monkeypatch):
    # a changed vertex queues only the predecessors its new target exceeds,
    # so a vertex the measured player does not own, which needs every
    # target, rises at each lift but the first.  Only games lifted by one
    # run count: one-level games and those the probe finishes
    calls = []

    def recording(g, mu, v):
        new = lift(g, mu, v)
        calls.append((v, mu.values[v], new))
        return new

    monkeypatch.setattr(solver, "lift", recording)
    checked = 0
    for g in seeded_games(400, (1, 12), (2, 4, 6), seed=67):
        calls.clear()
        r = solve(g)
        if r.stats.subgames or r.stats.lifts >= SLICE:
            continue
        assert len(calls) == r.stats.lifts
        lifted = set()
        for v, old, new in calls:
            if g.owner[v] != r.stats.player:
                assert v not in lifted or new > old
                lifted.add(v)
        checked += 1
    assert checked >= 300


def test_lift_calls_reconcile_through_the_decomposition(monkeypatch):
    # perfbench's tracer replaces solver.lift before each verdict and
    # requires one call per counted lift, so the probe, every round and
    # the completion must call the module's lift as it is when they run
    calls = [0]

    def counting(g, mu, v):
        calls[0] += 1
        return lift(g, mu, v)

    monkeypatch.setattr(solver, "lift", counting)
    checked = 0
    # 55 of these 120 solves reach `_decompose`
    for i, g in enumerate(seeded_games(40, (32, 64), (8, 16), seed=83)):
        for options in (dict(worklist="fifo"), dict(worklist="lifo"), dict(worklist="random", seed=i)):
            calls[0] = 0
            r = solve(g, **options)
            if r.stats.subgames >= 1:
                assert calls[0] == r.stats.lifts
                checked += 1
    assert checked >= 45


def test_a_lift_that_lowers_a_value_is_refused(monkeypatch):
    # criterion 8's policies reach one fixpoint only because no lift
    # lowers a value; `_worklist` checks every lift for it
    def lowering(g, mu, v):
        old = mu.values[v]
        return old - 1 if old > 0 else lift(g, mu, v)

    monkeypatch.setattr(solver, "lift", lowering)
    with pytest.raises(AssertionError, match="lift tried to decrease a value"):
        solve(random_game(60, 8, (1, 3), seed=3))


def test_unknown_worklist_rejected():
    g = random_game(3, 2, (1, 2), seed=0)
    with pytest.raises(ValueError, match="worklist"):
        solve(g, worklist="sideways")


def one_level(g):
    """At most one priority of each parity: `solve` decides such a game
    whole by the Buchi loop, with no probe."""
    present = set(g.priority)
    return len(present) == 1 or len(present) == 2 and sum(present) % 2 == 1


def test_change_count_bound():
    # the probe lifts every vertex it does not start at TOP at least once;
    # a one-level game sets the vertices the measured player loses to TOP,
    # where none is lifted
    one = 0
    for g in seeded_games(200, (1, 10), (2, 4, 6), seed=47):
        r = solve(g)
        assert r.stats.changes <= g.n * (r.stats.tree_width + 1)
        if one_level(g):
            won = r.regions.even if r.stats.player == EVEN else r.regions.odd
            assert r.stats.lifts >= len(won)
            one += 1
        else:
            assert r.stats.lifts >= g.n - len(doomed(g, r.stats.player))
    assert 20 <= one <= 180


def test_fixpoint_is_locally_consistent():
    for g in seeded_games(100, (1, 8), (2, 4, 6), seed=3):
        r = solve(g)
        for v in range(g.n):
            assert vertex_consistent(g, r.measure, v)


def test_stats_fields():
    g = random_game(8, 4, (1, 3), seed=9)
    r = solve(g)
    odd = sum(p % 2 for p in g.priority)
    assert r.stats.player in (EVEN, ODD)
    assert r.stats.eta == min(odd, g.n - odd)
    assert r.stats.tree_width == r.measure.ranks.width == r.measure.top
    height = max(len(live_levels(g.priority, r.stats.player)), 1)
    padded = with_stop_branches(universal_tree(max(r.stats.eta, 1), height))
    assert r.stats.tree_width == leaf_count(padded)
    assert r.stats.changes <= r.stats.lifts
    assert r.stats.subgames == r.stats.round_size == 0  # the probe finishes
    # the measured player and eta come from the counts of odd and even
    # priorities: ties go to Even, and eta = n // 2 on a half-odd game
    for priorities, player, eta in (
        ([1, 2, 2, 4, 3], EVEN, 2),
        ([2, 4], EVEN, 0),
        ([1, 1, 2], ODD, 1),
        ([1, 1, 1, 2, 2, 2], EVEN, 3),
    ):
        n = len(priorities)
        stats = solve(GameGraph([EVEN] * n, priorities, [[0]] * n, d=4)).stats
        assert (stats.player, stats.eta) == (player, eta)
    assert eta == n // 2


# -- exhaustive and structured corpora ----------------------------------------


def forced_play_winner(priorities, succ, start):
    # with out-degree 1 the play from each vertex is unique; the winner is
    # the parity of the maximum priority on the reached cycle, no game
    # theory needed
    seen = {}
    v = start
    order = []
    while v not in seen:
        seen[v] = len(order)
        order.append(v)
        v = succ[v][0]
    cycle = order[seen[v]:]
    return 0 if max(priorities[u] for u in cycle) % 2 == 0 else 1


def test_forced_play_games_closed_form():
    import itertools

    for n in (1, 2, 3):
        for succ_choice in itertools.product(range(n), repeat=n):
            succ = [[w] for w in succ_choice]
            for priorities in itertools.product(range(1, 5), repeat=n):
                d = max(priorities) + (max(priorities) % 2)
                g = GameGraph([EVEN] * n, priorities, succ, d=d)
                expected = frozenset(
                    v for v in range(n)
                    if forced_play_winner(priorities, succ, v) == 0
                )
                assert solve(g).regions.even == expected
                assert zielonka(g).even == expected
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(2, 25)
        succ = [[rng.randrange(n)] for _ in range(n)]
        priorities = [rng.randint(1, 8) for _ in range(n)]
        owners = [rng.randint(0, 1) for _ in range(n)]
        d = max(priorities) + (max(priorities) % 2)
        g = GameGraph(owners, priorities, succ, d=d)
        expected = frozenset(
            v for v in range(n) if forced_play_winner(priorities, succ, v) == 0
        )
        assert solve(g).regions.even == expected
        assert zielonka(g).even == expected


def tiny_games(sizes):
    # every game with n in sizes and priorities in 1..4: all owner
    # assignments, all priority vectors, all nonempty successor sets
    for n in sizes:
        succ_options = [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]
        for priorities in itertools.product(range(1, 5), repeat=n):
            d = max(priorities) + (max(priorities) % 2)
            for owners in itertools.product((EVEN, ODD), repeat=n):
                for succs in itertools.product(succ_options, repeat=n):
                    yield GameGraph(owners, priorities, succs, d=d)


def test_exhaustive_tiny_games():
    checked = 0
    for g in tiny_games((1, 2, 3)):
        assert solve(g).regions == zielonka(g), (g.owner, g.priority, g.succ)
        checked += 1
    assert checked == 176_200


def test_brute_force_agrees_with_zielonka_on_every_tiny_game():
    checked = 0
    for g in tiny_games((1, 2)):
        assert brute_force_solve(g) == zielonka(g), (g.owner, g.priority, g.succ)
        checked += 1
    assert checked == 584


def test_structured_families():
    def chain(priorities, owners=None, loop_last=True):
        n = len(priorities)
        owners = owners or [EVEN] * n
        succ = [[i + 1] for i in range(n - 1)] + [[n - 1 if loop_last else 0]]
        d = max(priorities) + (max(priorities) % 2)
        return GameGraph(owners, priorities, succ, d=d)

    def ladder(levels, d):
        owners, priorities, succ = [], [], []
        for i in range(levels):
            p = (i % d) + 1
            for rail in (EVEN, ODD):
                owners.append(rail)
                priorities.append(p)
                below = 2 * ((i + 1) % levels)
                succ.append([below, below + 1])
        d_norm = max(priorities) + (max(priorities) % 2)
        return GameGraph(owners, priorities, succ, d=d_norm)

    import itertools

    cases = []
    for n in range(1, 6):
        for pr in itertools.product(range(1, 5), repeat=n):
            cases.append(chain(list(pr)))
            cases.append(chain(list(pr), owners=[ODD] * n))
            cases.append(chain(list(pr), owners=[i % 2 for i in range(n)], loop_last=False))
    for levels in range(1, 10):
        for d in (2, 4, 6, 8):
            cases.append(ladder(levels, d))
    rng = random.Random(0)
    for n in (2, 3, 4):
        for _ in range(100):
            pr = [rng.randint(1, 8) for _ in range(n)]
            ow = [rng.randint(0, 1) for _ in range(n)]
            d = max(pr) + (max(pr) % 2)
            cases.append(GameGraph(ow, pr, [list(range(n))] * n, d=d))
    for g in cases:
        assert solve(g).regions == zielonka(g), (g.owner, g.priority, g.succ)
