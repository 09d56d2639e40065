"""Ordered trees of uniform leaf depth and the compact universal family.

A tree of height h has every leaf at depth exactly h; its width is its
number of leaves.  Leaves are addressed by root-to-leaf child-index paths
(tuples of ints) and ordered lexicographically, leftmost child least.

`universal_tree(n, h)` builds a tree of height h into which every ordered
tree of height h and width at most n embeds; its width is exactly
`widths.width_recursive(n, h)`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

LeafPath = tuple  # tuple of child indices, one per level


class OrderedTree:
    """Immutable ordered tree; a node with no children is a single leaf.

    All children of a node must share one height so leaves stay at a
    uniform depth.  Structural equality and hashing are by shape.
    """

    __slots__ = ("children", "height", "width", "_hash")

    def __init__(self, children: tuple["OrderedTree", ...] | list = ()):
        children = tuple(children)
        if children:
            h = children[0].height
            for c in children[1:]:
                if c.height != h:
                    raise ValueError("children must all have the same height")
            self.height = h + 1
            self.width = sum(c.width for c in children)
        else:
            self.height = 0
            self.width = 1
        self.children = children
        self._hash = hash(children)

    @property
    def arity(self) -> int:
        return len(self.children)

    def leaf_paths(self) -> Iterator[LeafPath]:
        """All leaf paths in increasing (lexicographic) order."""
        if not self.children:
            yield ()
            return
        for i, child in enumerate(self.children):
            for rest in child.leaf_paths():
                yield (i,) + rest

    def to_text(self) -> str:
        if not self.children:
            return "."
        return "(" + "".join(c.to_text() for c in self.children) + ")"

    @classmethod
    def from_text(cls, text: str) -> "OrderedTree":
        tree, pos = cls._parse(text)
        if pos != len(text):
            raise ValueError(f"trailing characters at position {pos}: {text[pos:]!r}")
        return tree

    @classmethod
    def _parse(cls, text: str) -> tuple["OrderedTree", int]:
        # One tree from the start of text, and the position after it.  An
        # explicit stack of the open nodes' child lists replaces recursion,
        # so nesting depth is not bounded by the interpreter's stack.
        if not text:
            raise ValueError("unexpected end of tree text")
        open_nodes: list[list] = []
        pos = 0
        while True:
            # a node starts at pos
            if text[pos] == "(":
                open_nodes.append([])
            elif text[pos] == ".":
                if not open_nodes:
                    return cls(), pos + 1
                open_nodes[-1].append(cls())
            else:
                raise ValueError(f"expected '(' or '.' at position {pos}")
            pos += 1
            # close every node that ends here; stop where a child starts
            while True:
                if pos >= len(text):
                    raise ValueError("unbalanced '(' in tree text")
                if text[pos] != ")":
                    break
                children = open_nodes.pop()
                if not children:
                    raise ValueError("internal node with no children")
                node = cls(children)
                pos += 1
                if not open_nodes:
                    return node, pos
                open_nodes[-1].append(node)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, OrderedTree):
            return NotImplemented
        if self._hash != other._hash or self.width != other.width:
            return False
        return self.children == other.children

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"OrderedTree.from_text({self.to_text()!r})"


def leaf_count(t: OrderedTree | None) -> int:
    """Number of leaves; the empty tree (None) has none."""
    return 0 if t is None else t.width


@lru_cache(maxsize=None)
def universal_tree(n: int, h: int) -> OrderedTree | None:
    """Tree of height h embedding every ordered tree of height h, width <= n.

    Recursive shape: the root's children are, left to right, the root
    children of universal_tree(n//2, h), one fresh child carrying
    universal_tree(n, h-1), and the root children of
    universal_tree(n-1-n//2, h).  n=0 gives the empty tree (None), which
    contributes no children when grafted; h=0 gives a single leaf node.
    Subtrees are shared, so the result must be treated as read-only.
    """
    if n < 0 or h < 0:
        raise ValueError("n and h must be nonnegative")
    if n == 0:
        return None
    if h == 0:
        return OrderedTree()
    left = universal_tree(n // 2, h)
    mid = universal_tree(n, h - 1)
    right = universal_tree(n - 1 - n // 2, h)
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


def enumerate_trees(h: int, max_width: int) -> Iterator[OrderedTree]:
    """Every ordered tree of height exactly h and width <= max_width, once.

    Canonical order: lexicographic on the preorder arity sequence, so the
    single-path tree comes first and trees with fewer root children come
    before wider roots.
    """
    if max_width < 1:
        return
    if h == 0:
        yield OrderedTree()
        return
    for k in range(1, max_width + 1):
        for children in _child_tuples(k, h - 1, max_width):
            yield OrderedTree(children)


def _child_tuples(k: int, h: int, budget: int) -> Iterator[tuple]:
    # k-tuples of height-h trees with total width <= budget, in canonical order
    if k == 1:
        for t in enumerate_trees(h, budget):
            yield (t,)
        return
    for first in enumerate_trees(h, budget - (k - 1)):
        for rest in _child_tuples(k - 1, h, budget - first.width):
            yield (first,) + rest


def embeds(t1: OrderedTree, t2: OrderedTree) -> bool:
    """Does t1 embed into t2 (same height)?

    An embedding maps nodes injectively, children to children, preserving
    each node's left-to-right child order.  Decided recursively: a node u
    fits at v iff u's child sequence admits an order-preserving injective
    assignment to v's children with each child fitting its target, which
    is a two-index dynamic program over the child lists.
    """
    if t1.height != t2.height:
        raise ValueError(f"height mismatch: {t1.height} vs {t2.height}")
    memo: dict[tuple[int, int], bool] = {}

    def fits(u: OrderedTree, v: OrderedTree) -> bool:
        if not u.children:
            return True
        if u.width > v.width or len(u.children) > len(v.children):
            return False
        key = (id(u), id(v))
        cached = memo.get(key)
        if cached is None:
            cached = _assign(u.children, v.children)
            memo[key] = cached
        return cached

    def _assign(us: tuple, vs: tuple) -> bool:
        # prev[i]: us[:i] assignable into the vs prefix scanned so far
        prev = [True] + [False] * len(us)
        for v in vs:
            cur = [True]
            for i in range(1, len(us) + 1):
                cur.append(prev[i] or (prev[i - 1] and fits(us[i - 1], v)))
            if cur[-1]:
                return True
            prev = cur
        return prev[-1]

    return fits(t1, t2)


def find_counterexample(t: OrderedTree, n: int) -> OrderedTree | None:
    """First tree (canonical order) of height(t), width <= n, not embedding in t."""
    for s in enumerate_trees(t.height, n):
        if not embeds(s, t):
            return s
    return None


def verify_universal(t: OrderedTree, n: int) -> bool:
    """Exhaustively check that every height-h tree of width <= n embeds in t.

    Feasible only for small n and h; the number of candidate trees grows
    super-exponentially.
    """
    return find_counterexample(t, n) is None
