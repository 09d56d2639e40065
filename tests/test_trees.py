"""Ordered trees: construction, enumeration, embedding, text format."""

import random
from functools import lru_cache
from math import prod

import pytest

import pgtrees.trees as trees_module
from pgtrees.trees import (
    OrderedTree,
    embeds,
    enumerate_trees,
    find_counterexample,
    leaf_count,
    universal_tree,
    verify_universal,
)
from pgtrees.widths import width_recursive
from reference import (
    dp_embeds,
    leaf_paths,
    recursive_enumerate_trees,
    recursive_universal_tree,
    subtree_sizes,
    with_stop_branches,
)

# a height-4 tree whose first counterexample of width <= 5 comes late
LATE_COUNTEREXAMPLE_TARGET = (
    "((((.)))(((.))((.)(..)))(((.))((.)(..))((.)(..)(.....)(.)(..))((.))((.)(..)))"
    "(((.)))(((.))((.)(.))))"
)

# -- independent oracles -----------------------------------------------------


@lru_cache(maxsize=None)
def count_trees(h, w):
    # trees of height h and width exactly w, via the composition recursion
    if h == 0:
        return 1 if w == 1 else 0
    total = 0

    def comps(remaining, parts):
        nonlocal total
        if remaining == 0:
            if parts:
                total += prod(count_trees(h - 1, p) for p in parts)
            return
        for first in range(1, remaining + 1):
            comps(remaining - first, parts + [first])

    comps(w, [])
    return total


# -- construction ------------------------------------------------------------


def test_construct_small_shapes():
    assert universal_tree(3, 1).to_text() == "(...)"
    assert universal_tree(3, 1).width == 3
    t = universal_tree(3, 2)
    assert t.to_text() == "((.)(...)(.))"
    assert [c.arity for c in t.children] == [1, 3, 1]
    assert t.width == 5


def test_construct_single_path():
    for h in range(7):
        t = universal_tree(1, h)
        assert t.width == 1
        assert t.height == h
        assert leaf_paths(t) == [(0,) * h]


def test_construct_empty_and_leaf():
    assert universal_tree(0, 3) is None
    assert leaf_count(None) == 0
    assert universal_tree(4, 0).width == 1
    for n, h in ((-1, 2), (2, -1), (-1, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            universal_tree(n, h)


def test_construct_root_arity_is_n():
    for n in range(1, 20):
        for h in range(1, 4):
            assert universal_tree(n, h).arity == n


def test_width_matches_recursion():
    for n in range(17):
        for h in range(5):
            assert leaf_count(universal_tree(n, h)) == width_recursive(n, h)


def test_construct_matches_recursive_reference():
    assert universal_tree(0, 4) is recursive_universal_tree(0, 4) is None
    for n in range(1, 65):
        for h in range(7):
            t = universal_tree(n, h)
            want = recursive_universal_tree(n, h)
            assert t.to_text() == want.to_text(), (n, h)


def test_construct_wide_roots_follow_the_reference_sizes():
    # the root's children, left to right, have the sizes S(n), at roots far
    # wider than test_construct_matches_recursive_reference builds
    for n in (100, 1000, 4097):
        for h in (1, 2):
            t = universal_tree(n, h)
            assert t.arity == n
            assert leaf_count(t) == width_recursive(n, h)
            widths = [c.width for c in t.children]
            assert widths == [width_recursive(s, h - 1) for s in subtree_sizes(n)], (n, h)


def test_construct_deep_trees():
    # heights far beyond the interpreter's recursion limit
    assert universal_tree(1, 5000).height == 5000
    assert universal_tree(2, 1000).width == width_recursive(2, 1000)


# -- enumeration -------------------------------------------------------------


def test_enumerate_height_two_width_three():
    got = [t for t in enumerate_trees(2, 3) if t.width == 3]
    assert [t.to_text() for t in got] == [
        "((...))",
        "((.)(..))",
        "((..)(.))",
        "((.)(.)(.))",
    ]


def test_enumerate_height_one():
    got = list(enumerate_trees(1, 5))
    assert len(got) == 5
    assert [t.width for t in got] == [1, 2, 3, 4, 5]


def test_enumerate_counts_match_composition_recursion():
    for h in range(4):
        seen = {}
        for t in enumerate_trees(h, 5):
            seen[t.width] = seen.get(t.width, 0) + 1
        for w in range(1, 6):
            assert seen.get(w, 0) == count_trees(h, w)


def test_enumerate_yields_each_tree_once():
    for h in range(4):
        texts = [t.to_text() for t in enumerate_trees(h, 4)]
        assert len(texts) == len(set(texts))


def test_enumerate_respects_budget():
    assert all(t.width <= 3 for t in enumerate_trees(3, 3))
    assert list(enumerate_trees(2, 0)) == []
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_trees(-1, 3)


def test_enumerated_nodes_carry_the_height_and_width_of_their_shape():
    # enumeration sets each node's height and width itself, from the level
    # and the row's running width, instead of through the checking constructor
    for h in range(5):
        for n in range(8):
            stack, seen = list(enumerate_trees(h, n)), set()
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    shape = OrderedTree.from_text(node.to_text())
                    assert (node.height, node.width) == (shape.height, shape.width), (h, n, node)
                    stack.extend(node.children)


def test_enumerate_deep_trees():
    # heights far beyond the interpreter's recursion limit: one path and
    # one tree per level at which a second leaf branches off
    assert len(list(enumerate_trees(600, 2))) == 601


# -- embedding ---------------------------------------------------------------


def test_embeds_reflexive():
    for t in enumerate_trees(2, 4):
        assert embeds(t, t)


def test_embeds_needs_capacity():
    two = OrderedTree.from_text("(..)")
    one = OrderedTree.from_text("(.)")
    assert not embeds(two, one)
    assert embeds(one, two)


def test_embeds_height_mismatch():
    with pytest.raises(ValueError, match="height"):
        embeds(OrderedTree.from_text("(.)"), OrderedTree.from_text("((.))"))


def test_all_width_three_trees_embed_into_universal():
    t = universal_tree(3, 2)
    small = [s for s in enumerate_trees(2, 3) if s.width == 3]
    assert len(small) == 4
    for s in small:
        assert embeds(s, t)


def test_embeds_monotone_in_width():
    trees = list(enumerate_trees(2, 4))
    for a in trees:
        for b in trees:
            if embeds(a, b):
                assert a.width <= b.width


def test_embeds_transitive_sample():
    trees = list(enumerate_trees(2, 4))
    rng = random.Random(3)
    for _ in range(300):
        a, b, c = (rng.choice(trees) for _ in range(3))
        if embeds(a, b) and embeds(b, c):
            assert embeds(a, c)


def test_embeds_deep_trees():
    # heights far beyond the interpreter's recursion limit
    path, two = universal_tree(1, 5000), universal_tree(2, 5000)
    assert embeds(path, two)
    assert not embeds(two, path)


def test_enumerate_and_embeds_match_recursive_references():
    for h in range(5):
        for w in range(6):
            got = [t.to_text() for t in enumerate_trees(h, w)]
            assert got == [t.to_text() for t in recursive_enumerate_trees(h, w)], (h, w)
    for h in range(4):
        trees = list(enumerate_trees(h, 4))
        for a in trees:
            for b in trees:
                assert embeds(a, b) == dp_embeds(a, b), (a, b)
    for n in range(1, 7):
        for h in range(4):
            t = universal_tree(n, h)
            for s in enumerate_trees(h, n + 1):
                assert embeds(s, t) == dp_embeds(s, t), (n, s)


def test_find_counterexample_matches_a_fresh_reference_scan():
    # one embeds memo serves every candidate of a check; the first
    # counterexample must still be the one a memo-free dp_embeds scan finds
    for h in range(1, 4):
        for t in enumerate_trees(h, 4):
            for n in (2, 4, 5):
                fresh = next((s for s in enumerate_trees(h, n) if not dp_embeds(s, t)), None)
                got = find_counterexample(t, n)
                assert (got and got.to_text()) == (fresh and fresh.to_text()), (t, n)
    # a late counterexample, candidate 176 of 341, after many memo hits
    late = OrderedTree.from_text(LATE_COUNTEREXAMPLE_TARGET)
    assert find_counterexample(late, 5).to_text() == "((((...)))(((..))))"


def test_embeds_memo_reused_across_calls():
    # trees of one height share their lower-height subtrees; one memo serves
    # every pair of every height, in shuffled order, and must agree with
    # the memo-free dynamic program
    trees = [list(enumerate_trees(h, 4)) for h in range(4)]
    pairs = [(a, b) for level in trees for a in level for b in level]
    random.Random(7).shuffle(pairs)
    decided = {}
    for a, b in pairs:
        assert embeds(a, b, decided) == dp_embeds(a, b), (a, b)
    assert decided
    # the root pair is never stored, so a memo does not keep a checked tree alive
    roots = {t for level in trees for t in level}
    assert not any(roots & row.keys() for row in decided.values())
    # a wide root at height 3: one memo for every candidate of a check, as
    # find_counterexample shares it; it holds one bool per pair and no roots
    target = universal_tree(8, 3)
    candidates = list(enumerate_trees(3, 9))
    decided = {}
    verdicts = [embeds(s, target, decided) for s in candidates]
    assert (len(candidates), verdicts.count(False)) == (9841, 386)
    for s, verdict in zip(candidates[::7], verdicts[::7]):
        assert verdict == dp_embeds(s, target), s
    assert all(type(fits) is bool for row in decided.values() for fits in row.values())
    roots = {target, *candidates}
    assert not any(roots & row.keys() for row in decided.values())


def test_find_counterexample_calls_embeds_once_per_candidate(monkeypatch):
    # the benchmark counts trees checked by wrapping the module-level embeds
    calls = [0]
    real = trees_module.embeds

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(trees_module, "embeds", counted)
    for n in range(1, 6):
        for h in range(4):
            calls[0] = 0
            assert find_counterexample(universal_tree(n, h), n) is None
            assert calls[0] == sum(1 for _ in enumerate_trees(h, n)), (n, h)
    calls[0] = 0
    late = OrderedTree.from_text(LATE_COUNTEREXAMPLE_TARGET)
    assert find_counterexample(late, 5).to_text() == "((((...)))(((..))))"
    assert calls[0] == 176


def test_verify_universal():
    assert verify_universal(universal_tree(3, 2), 3)
    complete = OrderedTree.from_text("((...)(...)(...))")
    assert verify_universal(complete, 3)
    assert not verify_universal(OrderedTree.from_text("(.)"), 2)
    assert find_counterexample(OrderedTree.from_text("(.)"), 2).to_text() == "(..)"


def test_universal_small_grid():
    for n in range(1, 5):
        for h in range(3):
            assert verify_universal(universal_tree(n, h), n)


# -- text format and padding -------------------------------------------------


def test_text_round_trip():
    for h in range(4):
        for t in enumerate_trees(h, 4):
            text = t.to_text()
            assert OrderedTree.from_text(text).to_text() == text


def test_from_text_rejects_garbage():
    for bad in ["", "(", "(.))", "()", "(.)x"]:
        with pytest.raises(ValueError):
            OrderedTree.from_text(bad)


def test_from_text_error_messages():
    cases = {
        "": "unexpected end",
        "x": "expected '\\(' or '\\.' at position 0",
        "(.x)": "expected '\\(' or '\\.' at position 2",
        "((.)": "unbalanced",
        "(()": "no children",
        "(.)(.)": "trailing characters at position 3",
        "(.(.))": "same height",
        ")": "expected '\\(' or '\\.' at position 0",
        "..": "trailing characters at position 1",
        "(.))": "trailing characters at position 3",
        "()": "no children",
    }
    for bad, message in cases.items():
        with pytest.raises(ValueError, match=message):
            OrderedTree.from_text(bad)
    leaf = OrderedTree.from_text(".")
    assert (leaf.height, leaf.width, leaf.children) == (0, 1, ())


def test_from_text_deep_nesting():
    # nesting far beyond the interpreter's recursion limit, both ways
    text = "(" * 5000 + "." + ")" * 5000
    tree = OrderedTree.from_text(text)
    assert tree.height == 5000
    assert tree.to_text() == text
    with pytest.raises(ValueError, match="unbalanced"):
        OrderedTree.from_text("(" * 5000 + "." + ")" * 4999)


def test_stop_branch_padding():
    t = universal_tree(2, 2)
    padded = with_stop_branches(t)
    assert padded.height == t.height
    # one leaf per node of the original tree
    nodes = 1 + t.arity + sum(c.arity for c in t.children)
    assert padded.width == nodes
    assert embeds(t, padded)
    # padding preserves universality
    assert verify_universal(padded, 2)


def test_ordered_tree_validates_uniform_depth():
    leaf = OrderedTree()
    tall = OrderedTree((leaf,))
    with pytest.raises(ValueError, match="same height"):
        OrderedTree((leaf, tall))
