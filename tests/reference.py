"""Reference tree builders that the tests compare the package against.

None of these is used by the package itself.  `recursive_universal_tree`
is the universal tree's defining recursion, which `trees.universal_tree`
computes height by height; `with_stop_branches` builds the padded tree
whose leaves `solver.LeafRanks` numbers without building it; `leaf_paths`
lists a tree's leaves.  All three recurse once per level, so they suit
the shallow trees of the tests only.
"""

from functools import lru_cache

from pgtrees.trees import OrderedTree


@lru_cache(maxsize=None)
def recursive_universal_tree(n: int, h: int) -> OrderedTree | None:
    """Tree of height h embedding every ordered tree of height h, width <= n.

    Recursive shape: the root's children are, left to right, the root
    children of the (n//2, h) tree, one fresh child carrying the
    (n, h-1) tree, and the root children of the (n-1-n//2, h) tree.
    n=0 gives the empty tree (None), which contributes no children when
    grafted; h=0 gives a single leaf node.
    """
    if n == 0:
        return None
    if h == 0:
        return OrderedTree()
    left = recursive_universal_tree(n // 2, h)
    mid = recursive_universal_tree(n, h - 1)
    right = recursive_universal_tree(n - 1 - n // 2, h)
    children = (left.children if left else ()) + (mid,) + (right.children if right else ())
    return OrderedTree(children)


@lru_cache(maxsize=None)
def _blank_path(h: int) -> OrderedTree:
    t = OrderedTree()
    for _ in range(h):
        t = OrderedTree((t,))
    return t


@lru_cache(maxsize=None)
def with_stop_branches(t: OrderedTree) -> OrderedTree:
    """Insert a leftmost single-path branch below every internal node.

    The result's leaves correspond one-to-one with the nodes of ``t``
    (follow the copy of a node, then drop into its blank branch), laid
    out so that a node's image precedes the images of its descendants.
    ``t`` embeds into the result, so padding a tree that embeds every
    width-w tree of its height yields another such tree.
    """
    if not t.children:
        return t
    children = (_blank_path(t.height - 1),)
    children += tuple(with_stop_branches(c) for c in t.children)
    return OrderedTree(children)


def leaf_paths(t: OrderedTree) -> list[tuple[int, ...]]:
    """All root-to-leaf child-index paths of t, in increasing order."""
    if not t.children:
        return [()]
    return [(i,) + rest for i, child in enumerate(t.children) for rest in leaf_paths(child)]
