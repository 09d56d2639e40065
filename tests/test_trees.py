"""Ordered trees: construction, enumeration, embedding, text format."""

import random
from functools import lru_cache
from math import prod

import pytest

from pgtrees.trees import (
    OrderedTree,
    embeds,
    enumerate_trees,
    find_counterexample,
    leaf_count,
    universal_tree,
    verify_universal,
    with_stop_branches,
)
from pgtrees.widths import width_recursive

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
        assert list(t.leaf_paths()) == [(0,) * h]


def test_construct_empty_and_leaf():
    assert universal_tree(0, 3) is None
    assert leaf_count(None) == 0
    assert universal_tree(4, 0).width == 1


def test_construct_root_arity_is_n():
    for n in range(1, 20):
        for h in range(1, 4):
            assert universal_tree(n, h).arity == n


def test_width_matches_recursion():
    for n in range(17):
        for h in range(5):
            assert leaf_count(universal_tree(n, h)) == width_recursive(n, h)


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
            assert OrderedTree.from_text(t.to_text()) == t


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
    }
    for bad, message in cases.items():
        with pytest.raises(ValueError, match=message):
            OrderedTree.from_text(bad)


def test_from_text_deep_nesting():
    # nesting far beyond the interpreter's recursion limit
    assert OrderedTree.from_text("(" * 5000 + "." + ")" * 5000).height == 5000
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
