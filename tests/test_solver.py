"""Lifting solver against its two independent reference solvers."""

import random
from bisect import bisect_left

import pytest

from pgtrees.game import EVEN, ODD, GameError, GameGraph, random_game
from pgtrees.solver import (
    LeafRanks,
    Measure,
    brute_force_solve,
    edge_consistent,
    lift,
    live_levels,
    solve,
    vertex_consistent,
    zielonka,
)
from pgtrees.trees import leaf_count, universal_tree, with_stop_branches


def seeded_games(count, n_range, d_choices, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*n_range)
        d = rng.choice(d_choices)
        yield random_game(n, d, (1, rng.randint(1, 3)), seed=rng.getrandbits(48))


# -- prefix lengths ----------------------------------------------------------


def test_measure_k_even_measure():
    g = GameGraph([EVEN] * 4, [4, 3, 2, 1], [[0]] * 4, d=4)
    assert Measure(g, EVEN, LeafRanks(1, 2)).k == (0, 1, 1, 2)
    g2 = GameGraph([EVEN] * 2, [2, 1], [[0]] * 2, d=2)
    assert Measure(g2, EVEN, LeafRanks(1, 1)).k == (0, 1)


def test_measure_k_odd_measure():
    g = GameGraph([EVEN] * 4, [4, 3, 2, 1], [[0]] * 4, d=4)
    assert Measure(g, ODD, LeafRanks(1, 2)).k == (1, 1, 2, 2)


def test_live_levels():
    g = GameGraph([0] * 4, [1, 2, 2, 6], [[0]] * 4, d=6)
    assert live_levels(g, EVEN) == [1]
    assert live_levels(g, ODD) == [2, 6]


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
    assert list(t.leaf_paths()) == [
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
            leaves = list(tree.leaf_paths())
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
    rng = random.Random(11)
    ranks = LeafRanks(5, 3)
    for _ in range(200):
        r, s = sorted(rng.randrange(ranks.width) for _ in range(2))
        k = rng.randint(1, ranks.height)
        loose = ranks.successor(r, k, False)
        strict = ranks.successor(r, k, True)
        assert loose <= r < strict  # TOP is above every leaf
        assert ranks.successor(loose, k, True) == strict  # same block
        assert loose <= ranks.successor(s, k, False)
        assert strict <= ranks.successor(s, k, True)


def test_target_cache_matches_values():
    # a missed refresh would leave a stale target behind
    for i, g in enumerate(seeded_games(100, (1, 10), (2, 4, 6, 8), seed=29)):
        for policy in ("fifo", "lifo", "random"):
            mu = solve(g, worklist=policy, seed=i).measure
            assert mu.target == [mu.fresh_target(w) for w in range(g.n)]


# -- edge condition and lift on explicit states ------------------------------


def test_edge_condition_self_loop_examples():
    # priority 1 self-loop: a strict edge onto itself never holds on a leaf
    g = GameGraph([ODD], [1], [[0]], d=2)
    mu = Measure(g, EVEN, LeafRanks(1, 1))
    assert mu.values[0] == 0
    assert not edge_consistent(g, mu, 0, 0)
    mu.set(0, mu.top - 1)  # the last leaf
    assert not edge_consistent(g, mu, 0, 0)

    # priority 2 self-loop: empty prefix, vacuously consistent
    g2 = GameGraph([ODD], [2], [[0]], d=2)
    mu2 = Measure(g2, EVEN, LeafRanks(1, 1))
    assert edge_consistent(g2, mu2, 0, 0)

    # top value dominates everything
    mu.set(0, mu.top)
    assert edge_consistent(g, mu, 0, 0)


def test_lift_self_loop_examples():
    # padded single path: leaves 0 (stop branch) and 1; strict steps to
    # the next leaf, and from the last one to TOP
    g = GameGraph([EVEN], [1], [[0]], d=2)
    mu = Measure(g, EVEN, LeafRanks(1, 1))
    assert mu.top == 2
    assert lift(g, mu, 0) == 1
    mu.set(0, 1)
    assert lift(g, mu, 0) == mu.top

    g2 = GameGraph([EVEN], [2], [[0]], d=2)
    mu2 = Measure(g2, EVEN, LeafRanks(1, 1))
    assert lift(g2, mu2, 0) == 0  # already consistent, no-op


def test_lift_never_decreases_on_random_states():
    rng = random.Random(23)
    for g in seeded_games(150, (1, 8), (2, 4, 6), seed=8):
        counts = g.priority_counts()
        player = EVEN if counts.odd <= counts.even else ODD
        ranks = solve(g).measure.ranks
        mu = Measure(g, player, ranks)
        for v in range(g.n):
            mu.set(v, rng.randrange(ranks.width + 1))  # a leaf rank or TOP
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


def test_zielonka_deterministic():
    g = random_game(9, 6, (1, 3), seed=4)
    assert zielonka(g) == zielonka(g)


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


def test_worklist_policies_reach_same_fixpoint():
    for i, g in enumerate(seeded_games(60, (1, 10), (2, 4, 6), seed=13)):
        fifo = solve(g, worklist="fifo")
        lifo = solve(g, worklist="lifo")
        rand = solve(g, worklist="random", seed=i)
        assert fifo.measure.values == lifo.measure.values == rand.measure.values
        assert fifo.regions == lifo.regions == rand.regions


def test_unknown_worklist_rejected():
    g = random_game(3, 2, (1, 2), seed=0)
    with pytest.raises(ValueError, match="worklist"):
        solve(g, worklist="sideways")


def test_change_count_bound():
    for g in seeded_games(200, (1, 10), (2, 4, 6), seed=47):
        r = solve(g)
        assert r.stats.changes <= g.n * (r.stats.tree_width + 1)
        assert r.stats.lifts >= g.n


def test_fixpoint_is_locally_consistent():
    for g in seeded_games(100, (1, 8), (2, 4, 6), seed=3):
        r = solve(g)
        for v in range(g.n):
            assert vertex_consistent(g, r.measure, v)


def test_stats_fields():
    g = random_game(8, 4, (1, 3), seed=9)
    r = solve(g)
    counts = g.priority_counts()
    assert r.stats.player in (EVEN, ODD)
    assert r.stats.eta == min(counts.odd, counts.even)
    assert r.stats.tree_width == r.measure.ranks.width == r.measure.top
    padded = with_stop_branches(universal_tree(max(r.stats.eta, 1), g.d // 2))
    assert r.stats.tree_width == leaf_count(padded)
    assert r.stats.changes <= r.stats.lifts


def test_measure_rejects_short_tree():
    g = GameGraph([EVEN, EVEN], [1, 3], [[1], [0]], d=4)
    with pytest.raises(ValueError, match="live levels"):
        Measure(g, EVEN, LeafRanks(2, 1))


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


def test_exhaustive_tiny_games():
    # every game with n <= 3 and priorities in 1..4: all owner assignments,
    # all priority vectors, all nonempty successor sets
    import itertools

    checked = 0
    for n in (1, 2, 3):
        vertices = list(range(n))
        succ_options = [
            s for r in range(1, n + 1) for s in itertools.combinations(vertices, r)
        ]
        for priorities in itertools.product(range(1, 5), repeat=n):
            d = max(priorities) + (max(priorities) % 2)
            for owners in itertools.product((EVEN, ODD), repeat=n):
                for succs in itertools.product(succ_options, repeat=n):
                    g = GameGraph(owners, priorities, succs, d=d)
                    assert solve(g).regions == zielonka(g), (owners, priorities, succs)
                    checked += 1
    assert checked == 176_200


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
