"""Reference code that the tests compare the package against.

None of these is used by the package itself.  `reference_parse_pgsolver`
reads PGSolver text in two steps: a tokenizer splits the text into
comment-free records at each ';' outside a name, then each record is
matched against a vertex grammar; `game.parse_pgsolver` does both in one
regex scan and must agree with it on every text.  `subtree_sizes` lists
S(m), the child sizes of a size-m node of `trees.universal_tree`, by
their recursion, where `trees.universal_tree` joins them over the halving
sizes.  `recursive_universal_tree` is the universal tree's defining
recursion, which `trees.universal_tree` computes height by height;
`recursive_enumerate_trees` enumerates trees by recursion over the root's
children, which `trees.enumerate_trees` does height by height;
`dp_embeds` decides embedding by a two-index dynamic program, where
`trees.embeds` matches children greedily; `with_stop_branches` builds the
padded tree whose leaves `solver.LeafRanks` numbers without building it,
and `padded_width` counts those leaves height by height over
`subtree_sizes`, where `LeafRanks` sums block rows over the halves of
each size; `leaf_paths` lists a tree's leaves; `finishing_order` is the
depth-first search over predecessors whose order `solver._components`
lists each component in;
`measure_setup` builds a `solver.Measure`'s per-priority tables and first
targets from the game's vertices, where the solver reads the tables from a
cache keyed by the priorities present.
All of them but `padded_width` recurse once or twice per level, so they
suit the shallow trees and small games of the tests only.
"""

import re
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from typing import Iterator

from pgtrees import solver
from pgtrees.game import EVEN, GameGraph, ParseError, normalize_priorities
from pgtrees.trees import OrderedTree

# One vertex record: id, priority, owner, comma separated successors and an
# optional quoted name.  The ';' terminator is stripped before matching.
_VERTEX_RE = re.compile(
    r"\s*(\d+)\s+(\d+)\s+([01])(?:\s+(\d+(?:\s*,\s*\d+)*))?\s*(?:\"[^\"]*\")?\s*"
)
_HEADER_RE = re.compile(r"\s*parity\s+(\d+)\s*")
# A '--' comment to the end of the line, a quoted name (closed by its quote
# or by the end of its line; ';' and '--' are literal inside), a terminator,
# a run of other text, or a lone dash.
_TOKEN_RE = re.compile(r'--[^\n]*|"[^"\n]*"?|;|[^-";]+|-')


def _where(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _records(text: str) -> list[tuple[str, int]]:
    """Split on ';' into (record text without comments, offset) pairs.

    The offset is that of the record's first non-blank character, or of
    its ';' when it has none.
    """
    records = []
    parts: list[str] = []
    start: int | None = None
    for m in _TOKEN_RE.finditer(text):
        token = m.group()
        if token == ";":
            records.append(("".join(parts), m.start() if start is None else start))
            parts = []
            start = None
        elif not token.startswith("--"):
            if start is None and not token.isspace():
                start = m.start() + len(token) - len(token.lstrip())
            parts.append(token)
    if start is not None:
        raise ParseError("record is not terminated by ';'", *_where(text, start))
    return records


def reference_parse_pgsolver(text: str) -> GameGraph:
    """Tokenize into records, then match each against the vertex grammar.

    Integers of more than the interpreter's digit limit raise its own
    ``ValueError``, not a `ParseError`.
    """
    records = _records(text)
    if records and records[0][0].lstrip().startswith("parity"):
        header, pos = records.pop(0)
        if not _HEADER_RE.fullmatch(header):
            raise ParseError("malformed 'parity' header", *_where(text, pos))
    decl: dict[int, tuple[int, int, list[int], int]] = {}
    for chunk, pos in records:
        m = _VERTEX_RE.fullmatch(chunk)
        if not m:
            raise ParseError("cannot parse vertex record", *_where(text, pos))
        vid, prio, owner, succs = m.groups()
        vid = int(vid)
        if vid in decl:
            raise ParseError(f"duplicate vertex id {vid}", *_where(text, pos))
        if succs is None:
            raise ParseError(f"vertex {vid} has no successors", *_where(text, pos))
        decl[vid] = (int(prio), int(owner), [int(s.strip()) for s in succs.split(",")], pos)
    if not decl:
        raise ParseError("no vertex records found")
    index = {vid: i for i, vid in enumerate(decl)}
    owners, raw_prios, succ_lists = [], [], []
    for vid, (prio, owner, succs, pos) in decl.items():
        for s in succs:
            if s not in index:
                raise ParseError(
                    f"vertex {vid} references undeclared successor {s}", *_where(text, pos)
                )
        owners.append(owner)
        raw_prios.append(prio)
        succ_lists.append([index[s] for s in succs])
    priorities, d = normalize_priorities(raw_prios)
    return GameGraph(owners, priorities, succ_lists, d=d)


def subtree_sizes(m: int) -> tuple[int, ...]:
    """S(m), as defined in `trees.universal_tree`."""
    if m == 0:
        return ()
    return subtree_sizes(m // 2) + (m,) + subtree_sizes(m - 1 - m // 2)


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


def padded_width(size: int, height: int) -> int:
    """Leaves of ``with_stop_branches(universal_tree(size, height))``.

    The defining recursion, P(m, 0) = 1 and P(m, t) = 1 + the sum of
    P(s, t - 1) over the sizes s in `subtree_sizes(m)`, the 1 being the
    stop branch, evaluated one height at a time over the sizes that
    ``size`` reaches, each child size counted once with its multiplicity.
    """
    children = {m: Counter(subtree_sizes(m)) for m in set(subtree_sizes(size))}
    widths = dict.fromkeys(children, 1)
    for _ in range(height):
        widths = {m: 1 + sum(c * widths[s] for s, c in kids.items()) for m, kids in children.items()}
    return widths[size]


def leaf_paths(t: OrderedTree) -> list[tuple[int, ...]]:
    """All root-to-leaf child-index paths of t, in increasing order."""
    if not t.children:
        return [()]
    return [(i,) + rest for i, child in enumerate(t.children) for rest in leaf_paths(child)]


def recursive_enumerate_trees(h: int, max_width: int) -> Iterator[OrderedTree]:
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
        for t in recursive_enumerate_trees(h, budget):
            yield (t,)
        return
    for first in recursive_enumerate_trees(h, budget - (k - 1)):
        for rest in _child_tuples(k - 1, h, budget - first.width):
            yield (first,) + rest


def dp_embeds(t1: OrderedTree, t2: OrderedTree) -> bool:
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


def finishing_order(succ) -> list[int]:
    """Every vertex in the order its depth-first search over predecessors
    ends.

    The search starts from the vertices in ascending order and visits
    each vertex's predecessors, the vertices with an edge into it, in
    ascending order, recursing on one not yet found; a vertex finishes
    once all its predecessors have been visited.
    """
    found = [False] * len(succ)
    order: list[int] = []

    def visit(v: int) -> None:
        found[v] = True
        for u in range(len(succ)):
            if v in succ[u] and not found[u]:
                visit(u)
        order.append(v)

    for v in range(len(succ)):
        if not found[v]:
            visit(v)
    return order


def measure_setup(g: GameGraph, player: int, size: int) -> tuple:
    """A `solver.Measure`'s ``(k, strict, target, rows)`` for player over
    the tree of this size: ``k``, ``strict`` and ``rows`` map each priority
    present to a vertex's prefix length, strictness (0 or 1) and memo row,
    ``target`` is the first target of each vertex.

    The live levels are the distinct priorities of the opponent's parity;
    a vertex's prefix length k counts those at or above its priority, and
    its edges are strict at the opponent's parity.  An edge into a vertex
    at the least leaf 0 admits 0, or strictly 1, or TOP at k = 0.  Its
    memo row is that of its (k, strict) in ``leaf_ranks(size, height)``.
    """
    opp_parity = 1 if player == EVEN else 0
    levels = sorted({p for p in g.priority if p % 2 == opp_parity})
    ranks = solver.leaf_ranks(size, max(len(levels), 1))
    k = {p: len(levels) - bisect_left(levels, p) for p in g.priority}
    strict = {p: 1 if p % 2 == opp_parity else 0 for p in g.priority}
    target = [(1 if k[p] else ranks.width) if strict[p] else 0 for p in g.priority]
    rows = {p: ranks.memo[k[p]][strict[p]] for p in g.priority}
    return k, strict, target, rows
