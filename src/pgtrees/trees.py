"""Ordered trees of uniform leaf depth and the compact universal family.

A tree of height h has every leaf at depth exactly h; its width is its
number of leaves.  Leaves are addressed by root-to-leaf child-index paths
(tuples of ints) and ordered lexicographically, leftmost child least.

`universal_tree(n, h)` builds a tree of height h into which every ordered
tree of height h and width at most n embeds; its width is exactly
`widths.width_recursive(n, h)`.  Its shape is one split rule, the child
sizes S(m) of its docstring, which the solver's leaf ranks follow as well.
`enumerate_trees` builds its candidates height by height too, without the
checking constructor: a node's children come from the list one height
below, and its width is its row's running width.  `embeds` matches
children greedily, leftmost first; neither recurses.
Its memo holds, per pair of subtrees below the root pair, whether one
embeds in the other.
Trees compare by identity; their shapes compare by `to_text()`, which
`from_text` reads back in one pass.
"""

from __future__ import annotations

from typing import Iterator

from .widths import halving_sizes


class OrderedTree:
    """Immutable ordered tree; a node with no children is a single leaf.

    All children of a node must share one height so leaves stay at a
    uniform depth.  Trees compare and hash by identity; compare shapes
    by `to_text()`.
    """

    __slots__ = ("children", "height", "width")

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

    @property
    def arity(self) -> int:
        return len(self.children)

    def to_text(self) -> str:
        # preorder with an explicit stack, where None closes a node, so
        # that height is not bounded by the interpreter's stack
        parts = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node is None:
                parts.append(")")
            elif not node.children:
                parts.append(".")
            else:
                parts.append("(")
                stack.append(None)
                stack.extend(reversed(node.children))
        return "".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "OrderedTree":
        # one pass over a stack of the open nodes' child lists, whose bottom
        # list receives the root, so nesting depth is not bounded by the
        # interpreter's stack
        open_nodes: list[list] = [[]]
        for pos, ch in enumerate(text):
            if open_nodes[0]:
                raise ValueError(f"trailing characters at position {pos}: {text[pos:]!r}")
            if ch == "(":
                open_nodes.append([])
            elif ch == ".":
                open_nodes[-1].append(cls())
            elif ch == ")" and len(open_nodes) > 1:
                children = open_nodes.pop()
                if not children:
                    raise ValueError("internal node with no children")
                open_nodes[-1].append(cls(children))
            else:
                raise ValueError(f"expected '(' or '.' at position {pos}")
        if len(open_nodes) > 1:
            raise ValueError("unbalanced '(' in tree text")
        if not open_nodes[0]:
            raise ValueError("unexpected end of tree text")
        return open_nodes[0][0]

    def __repr__(self):
        return f"OrderedTree.from_text({self.to_text()!r})"


def leaf_count(t: OrderedTree | None) -> int:
    """Number of leaves; the empty tree (None) has none."""
    return 0 if t is None else t.width


def universal_tree(n: int, h: int) -> OrderedTree | None:
    """Tree of height h embedding every ordered tree of height h, width <= n.

    The root has size n, and a size-m node of height t >= 1 has one child
    of height t - 1 for each size in S(m), where S(0) is empty and
    S(m) = S(m // 2) + (m,) + S(m - 1 - m // 2): the children of the
    size-(m // 2) half, one child of size m a level lower, then the
    children of the other half.  So a size-m node has m children.  The
    sizes in S(n) are those `widths.halving_sizes(n)` lists, halves first,
    so each S(m) is joined from its halves' in one walk.  The tree is
    built height by height, one node per size at each height, so equal
    subtrees are shared and the result must be treated as read-only.
    n=0 gives the empty tree (None); h=0 gives a single leaf node.
    """
    if n < 0 or h < 0:
        raise ValueError("n and h must be nonnegative")
    if n == 0:
        return None
    kids = {0: ()}
    for m in halving_sizes(n):  # halves are smaller, so their tuples are ready
        kids[m] = kids[m // 2] + (m,) + kids[m - 1 - m // 2]
    del kids[0]
    level = dict.fromkeys(kids, OrderedTree())
    for _ in range(h):
        level = {m: OrderedTree([level[s] for s in sizes]) for m, sizes in kids.items()}
    return level[n]


def enumerate_trees(h: int, max_width: int) -> Iterator[OrderedTree]:
    """Every ordered tree of height exactly h and width <= max_width, once.

    Canonical order: lexicographic on the preorder arity sequence, so the
    single-path tree comes first and trees with fewer root children come
    before wider roots.  Each height below h is built once, as a list of
    shared subtrees that stays in memory while height h is streamed.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    level = [OrderedTree()] if max_width > 0 else []
    for height in range(1, h):
        level = list(_rows(level, max_width, height))
    return _rows(level, max_width, h) if h else iter(level)


def _node(children: tuple, height: int, width: int) -> OrderedTree:
    # children of one height, whose widths sum to width: no checks needed
    node = OrderedTree.__new__(OrderedTree)
    node.children, node.height, node.width = children, height, width
    return node


def _rows(trees: list, budget: int, height: int) -> Iterator[OrderedTree]:
    # trees of the given height whose children, from trees, have total width
    # <= budget, fewer children first, then lexicographic; a stack holds one
    # iterator per open position, and the last position loops in place
    fitting = [[t for t in trees if t.width <= spare + 1] for spare in range(budget)]
    for k in range(1, budget + 1):
        row: list = []
        spare = budget - k  # width free beyond one leaf per child
        stack = [iter(fitting[spare])]
        while stack:
            if len(row) == k - 1:  # once the last child counts, width = budget - spare
                head, rest = tuple(row), budget - spare - 1
                for t in stack[-1]:
                    yield _node(head + (t,), height, rest + t.width)
            elif (t := next(stack[-1], None)) is not None:
                row.append(t)
                spare -= t.width - 1
                stack.append(iter(fitting[spare]))
                continue
            stack.pop()
            spare += row.pop().width - 1 if row else 0


# the row of a target subtree with nothing decided yet; never written to
_NO_ROW: dict = {}


def embeds(t1: OrderedTree, t2: OrderedTree, decided: dict | None = None) -> bool:
    """Does t1 embed into t2 (same height)?

    An embedding maps nodes injectively, children to children, preserving
    each node's left-to-right child order.  Greedy leftmost matching
    decides it: each child of u goes to the leftmost remaining child of v
    that it fits, since any valid placement shifts left onto that one.

    ``decided`` is a memo the call reads and extends: ``decided[v][u]``
    says whether subtree u embeds into subtree v of the same height, for
    every pair below the root pair.  One dict passed to many calls decides
    each pair once across them all.  It holds its trees alive, so share it
    only among calls whose trees share subtrees.  The root pair (t1, t2)
    is never stored, so t1 can be freed after the call.
    """
    if t1.height != t2.height:
        raise ValueError(f"height mismatch: {t1.height} vs {t2.height}")
    if t1.height < 2:  # leaves fit anywhere, so width alone decides
        return t1.width <= t2.width
    if decided is None:
        decided = {}
    rest = iter(t2.children)
    for a in t1.children:
        for b in rest:
            fits = a.width <= b.width and (a.height == 1 or decided.get(b, _NO_ROW).get(a))
            if fits is None:
                fits = _fits(a, b, decided)
            if fits:
                break
        else:
            return False
    return True


def _fits(t1: OrderedTree, t2: OrderedTree, decided: dict) -> bool:
    """Does t1 embed into t2, both of height >= 2?  Stores every pair it
    decides in ``decided``, (t1, t2) included."""
    # frame [u, v, i, j]: u's children before i sit on v's children before
    # j, and the pair (u.children[i], v.children[j]) is tried next
    stack = [[t1, t2, 0, 0]]
    while stack:
        frame = stack[-1]
        u, v, i, j = frame
        us, vs = u.children, v.children
        k, m = len(us), len(vs)
        while i < k and k - i <= m - j:
            a, b = us[i], vs[j]
            fits = a.width <= b.width and (a.height == 1 or decided.get(b, _NO_ROW).get(a))
            if fits is None:
                frame[2:] = i, j
                stack.append([a, b, 0, 0])
                break
            i += fits
            j += 1
        else:
            stack.pop()
            row = decided.get(v)
            if row is None:
                decided[v] = row = {}
            row[u] = i == k
    return decided[t2][t1]


def find_counterexample(t: OrderedTree, n: int) -> OrderedTree | None:
    """First tree (canonical order) of height(t), width <= n, not embedding in t.

    Every candidate is built from the same shared lower-height subtrees,
    so one `embeds` memo serves the whole check: each pair of a candidate
    subtree and a subtree of t is decided once, not once per candidate.
    """
    return _search(t, n)[0]


def _search(t: OrderedTree, n: int) -> tuple[OrderedTree | None, int]:
    # (first counterexample or None, candidates checked), one embeds call each
    decided: dict = {}
    checked = 0  # n = 0 has no candidates
    for checked, s in enumerate(enumerate_trees(t.height, n), 1):
        if not embeds(s, t, decided):
            return s, checked
    return None, checked


def verify_universal(t: OrderedTree, n: int) -> bool:
    """Exhaustively check that every height-h tree of width <= n embeds in t.

    Feasible only for small n and h; the number of candidate trees grows
    super-exponentially.
    """
    return find_counterexample(t, n) is None
