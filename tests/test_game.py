"""Game graph construction, the PGSolver format, and the generator."""

import random

import pytest

from pgtrees.game import (
    EVEN,
    ODD,
    GameError,
    GameGraph,
    ParseError,
    normalize_priorities,
    parse_pgsolver,
    random_game,
    serialize_pgsolver,
)


def test_parse_single_vertex():
    g = parse_pgsolver("parity 0;\n0 2 0 0;")
    assert g.n == 1
    assert g.priority == (2,)
    assert g.owner == (EVEN,)
    assert g.succ == ((0,),)
    assert g.d == 2


def test_parse_two_vertices():
    g = parse_pgsolver("parity 1;\n0 1 0 1;\n1 2 1 0;")
    assert g.n == 2
    assert g.priority == (1, 2)
    assert g.owner == (EVEN, ODD)
    assert g.succ == ((1,), (0,))


def test_parse_accepts_bytes_names_and_comments():
    text = b'-- a comment\nparity 2;\n0 4 0 1,2 "start";\n1 3 1 1; -- trailing\n2 2 0 0;\n'
    g = parse_pgsolver(text)
    assert g.n == 3
    assert g.succ[0] == (1, 2)
    assert g.priority == (4, 3, 2)


def test_parse_remaps_sparse_ids_in_declaration_order():
    g = parse_pgsolver("10 2 0 20;\n20 1 1 10;")
    assert g.n == 2
    assert g.succ == ((1,), (0,))
    assert g.priority == (2, 1)


def test_parse_empty_successor_list_is_rejected():
    with pytest.raises(ParseError, match="vertex 0 has no successors"):
        parse_pgsolver("parity 0;\n0 2 0 ;")


def test_parse_duplicate_id_rejected():
    with pytest.raises(ParseError, match="duplicate vertex id 0"):
        parse_pgsolver("0 2 0 0;\n0 1 1 0;")


def test_parse_undeclared_successor_rejected():
    with pytest.raises(ParseError, match="undeclared successor 7"):
        parse_pgsolver("0 2 0 7;")


def test_parse_syntax_error_reports_location():
    with pytest.raises(ParseError, match=r"line 2"):
        parse_pgsolver("parity 1;\nnot a vertex;\n")


def test_parse_missing_terminator():
    with pytest.raises(ParseError, match="not terminated"):
        parse_pgsolver("parity 0;\n0 2 0 0")


def test_normalize_priorities_examples():
    assert normalize_priorities([0, 1]) == ([2, 3], 4)
    assert normalize_priorities([1, 2]) == ([1, 2], 2)
    assert normalize_priorities([3, 5]) == ([1, 3], 4)


def test_normalize_preserves_parity_and_stays_close():
    rng = random.Random(5)
    for _ in range(200):
        raw = [rng.randint(0, 30) for _ in range(rng.randint(1, 12))]
        shifted, d = normalize_priorities(raw)
        assert d % 2 == 0
        assert min(shifted) in (1, 2)
        assert max(shifted) <= d <= max(shifted) + 1
        assert max(shifted) <= max(raw) + 2
        for a, b in zip(raw, shifted):
            assert a % 2 == b % 2


def test_serialize_single_vertex_golden():
    g = parse_pgsolver("parity 0;\n0 2 0 0;")
    assert serialize_pgsolver(g) == "parity 0;\n0 2 0 0;\n"


def test_round_trip_on_seeded_games():
    rng = random.Random(17)
    for _ in range(1000):
        n = rng.randint(1, 10)
        d = rng.choice([2, 4, 6])
        g = random_game(n, d, (1, rng.randint(1, 3)), seed=rng.getrandbits(48))
        g2 = parse_pgsolver(serialize_pgsolver(g))
        # parsing normalizes: owners and edges survive unchanged, priorities
        # may all shift by one even constant when min(priority) > 2
        assert g2.owner == g.owner
        assert all(set(a) == set(b) for a, b in zip(g2.succ, g.succ))
        shifts = {a - b for a, b in zip(g2.priority, g.priority)}
        assert len(shifts) == 1
        assert shifts.pop() % 2 == 0
        # from the normalized image onward the round trip is the identity
        g3 = parse_pgsolver(serialize_pgsolver(g2))
        assert g3.structurally_equal(g2)


def test_serialize_parse_idempotent():
    raw = "parity 2;\n0 0 0 1,2;\n1 7 1 0;\n2 4 0 2;\n"
    s1 = serialize_pgsolver(parse_pgsolver(raw))
    s2 = serialize_pgsolver(parse_pgsolver(s1))
    assert s1 == s2


def test_random_game_deterministic():
    a = random_game(5, 4, (1, 2), seed=42)
    b = random_game(5, 4, (1, 2), seed=42)
    assert a.structurally_equal(b)
    c = random_game(5, 4, (1, 2), seed=43)
    assert not a.structurally_equal(c)


def test_random_game_degrees_and_priorities():
    for seed in range(100):
        g = random_game(7, 6, (2, 4), seed=seed)
        for v in range(g.n):
            assert 2 <= len(g.succ[v]) <= 4
            assert len(set(g.succ[v])) == len(g.succ[v])
            assert 1 <= g.priority[v] <= 6


def test_random_game_clamps_degree_to_n():
    g = random_game(3, 2, (1, 10), seed=1)
    assert all(1 <= len(s) <= 3 for s in g.succ)


def test_random_game_priority_histogram_roughly_uniform():
    # chi-square sanity over fixed seeds; deterministic, generous bound
    counts = [0] * 4
    for seed in range(1000):
        g = random_game(12, 4, (1, 3), seed=seed)
        for p in g.priority:
            counts[p - 1] += 1
    expected = sum(counts) / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 30.0


def test_priority_counts():
    g = GameGraph([0, 0, 1, 1, 0], [1, 2, 2, 4, 3], [[0]] * 5, d=4)
    counts = g.priority_counts()
    assert counts.odd == 2
    assert counts.even == 3

    g_even = GameGraph([0, 1], [2, 4], [[1], [0]], d=4)
    assert g_even.priority_counts().odd == 0

    # bound is tight for a half-odd half-even game
    g_half = GameGraph([0] * 6, [1, 1, 1, 2, 2, 2], [[0]] * 6, d=2)
    c = g_half.priority_counts()
    assert min(c.odd, c.even) == 3 == g_half.n // 2


def test_constructor_rejects_bad_games():
    with pytest.raises(GameError, match="no successors"):
        GameGraph([0], [2], [[]], d=2)
    with pytest.raises(GameError, match="priority"):
        GameGraph([0], [3], [[0]], d=2)
    with pytest.raises(GameError, match="even"):
        GameGraph([0], [1], [[0]], d=3)
    with pytest.raises(GameError, match="unknown vertex"):
        GameGraph([0], [2], [[5]], d=2)
    with pytest.raises(GameError, match="at least one vertex"):
        GameGraph([], [], [], d=2)


def test_predecessors():
    g = GameGraph([0, 1, 0], [1, 2, 1], [[1], [0, 2], [2]], d=2)
    assert g.preds == ((1,), (0,), (1, 2))
    assert g.edge_count == 4
