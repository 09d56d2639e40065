"""Parity game solvers: tree lifting plus two independent references.

`solve` labels every vertex with a leaf of a working ordered tree or the
sentinel TOP above all leaves.  The working tree is the compact
universal tree sized by eta = min(#odd-priority, #even-priority)
vertices (<= n // 2) at height d/2, with a leftmost "stop" branch padded
below every internal node (`trees.with_stop_branches`).  Padding keeps
the tree universal for the same width while giving every ancestor
prefix its own least leaf, which is what lets unconstrained vertices
rest low instead of being dragged upward; without it the eta-sized tree
is too small in games where both players win somewhere.

The padded tree is fully determined by (eta, d/2), so it is never built.
A leaf is its rank 0..W-1 in leaf order and TOP is W, the tree's width
(`LeafRanks`).  Leaf order is lexicographic path order, so every subtree
owns a contiguous block of ranks, and "the length-k path prefix of a is
>= (or >) that of b" reads "a >= the first rank (or the end) of b's
depth-k block".  A non-blank node of size m has m + 1 children: the stop
branch, one leaf wide, then padded subtrees of the sizes
S(m) = S(m // 2) + (m,) + S(m - 1 - m // 2) that `trees.universal_tree`
grafts below it.  Per-height tables of child offsets locate a rank's
block with one bisection per level.

One side is the measured player: Even when odd-priority vertices are no
more numerous than even-priority ones, Odd otherwise.  A vertex label
must dominate its successors' labels on the leaf-path prefix determined
by each edge's priority, strictly so at priorities of the opponent's
parity.  An edge carries the priority of the vertex it *enters* (the
standard reduction from vertex priorities to edge priorities redirects
every edge into a copy of its target, so the target's priority is the
one seen when the edge is traversed).  Keying the comparison by the
entered vertex is essential for the eta bound: every strict update over
a vertex w computes the same "least leaf strictly above mu(w) at w's
prefix length", so at most one fresh branch circulates per
opponent-parity vertex.  It also means that the cheapest value any edge
into w admits depends on w alone, so the measure keeps it per vertex
(`Measure.target`) and recomputes it only when w's value changes.

Prefix lengths are anchored at the opponent-parity priorities actually
present in the game: an absent priority would add a comparison level
that nothing ever resets, skewing the labelling.  The tree still has
the standard height d/2; comparisons simply never reach the trailing
coordinates.

Labels start at the least leaf and only ever increase toward TOP, so
iterating the local repair `lift` to a fixpoint yields the least
solution; the measured player wins exactly the vertices that end below
TOP.  The fixpoint is independent of the worklist policy, which is
therefore configurable for testing.

`zielonka` (recursive attractor decomposition) and `brute_force_solve`
(positional strategy enumeration) are independent oracles used to
cross-validate `solve`.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .game import EVEN, ODD, GameError, GameGraph

WORKLIST_POLICIES = ("fifo", "lifo", "random")


@dataclass(frozen=True)
class WinningRegions:
    even: frozenset
    odd: frozenset

    def __post_init__(self):
        if self.even & self.odd:
            raise ValueError("winning regions must be disjoint")


@dataclass
class SolveStats:
    player: int          # measured player
    eta: int             # min(#odd-priority, #even-priority) vertices
    tree_width: int      # leaves of the tree actually used
    lifts: int           # lift applications (worklist pops)
    changes: int         # lifts that increased a value


@dataclass
class SolveResult:
    regions: WinningRegions
    stats: SolveStats
    measure: "Measure"   # final labelling, for inspection and tests


def live_levels(g: GameGraph, player: int) -> list[int]:
    """Distinct opponent-parity priorities present in g, ascending.

    Only these can force progress: a priority of the opponent's parity
    that labels no vertex would add a measure level that nothing ever
    resets, skewing the labelling, so such levels are dropped.
    """
    opp_parity = 1 if player == EVEN else 0
    return sorted({p for p in g.priority if p % 2 == opp_parity})


def _subtree_sizes(m: int) -> tuple[int, ...]:
    # S(m): sizes of the universal subtrees grafted below a size-m node
    if m == 0:
        return ()
    return _subtree_sizes(m // 2) + (m,) + _subtree_sizes(m - 1 - m // 2)


class LeafRanks:
    """Leaf ranks of ``with_stop_branches(universal_tree(size, height))``.

    Leaves are numbered 0..width-1 in leaf order, and ``width`` doubles as
    TOP.  A node is known by its size m: m >= 1 for a padded universal
    subtree, 0 for a stop branch, which is a single path to one leaf.
    ``_levels[t][m]`` holds, for a size-m node of height t >= 1, the
    start offsets of its children followed by its width, and its
    children's sizes.  The tables are built bottom-up over the heights.
    """

    __slots__ = ("size", "height", "width", "_levels")

    def __init__(self, size: int, height: int):
        if size < 1 or height < 0:
            raise ValueError("size must be positive and height nonnegative")
        # S(size) holds size itself and, by induction, every size below it
        kids = {m: (0,) + _subtree_sizes(m) for m in set(_subtree_sizes(size))}
        # widths at the height below the level being built; a stop
        # branch is one leaf wide at every height
        widths = dict.fromkeys([0, *kids], 1)
        levels: list[dict] = [{}]
        for _ in range(height):
            level = {}
            for m, children in kids.items():
                bounds = [0]
                for s in children:
                    bounds.append(bounds[-1] + widths[s])
                level[m] = (tuple(bounds), children)
            levels.append(level)
            widths.update((m, bounds[-1]) for m, (bounds, _) in level.items())
        self.size = size
        self.height = height
        self.width = widths[size]
        self._levels = levels

    def successor(self, r: int, k: int, strict: bool) -> int:
        """Least rank whose length-k path prefix is >= (strict: >) r's.

        That is the first rank of the depth-k block holding r, or the
        rank just past it under ``strict``; ``width`` (TOP) when that
        block is the last one.  k = 0 prefixes are all equal, so strict
        gives TOP and non-strict the least leaf.
        """
        if not 0 <= r < self.width:
            raise ValueError(f"{r!r} is not a leaf rank below {self.width}")
        if not 0 <= k <= self.height:
            raise ValueError(f"prefix length {k} outside 0..{self.height}")
        levels = self._levels
        m = self.size
        base, end = 0, self.width
        for t in range(self.height, self.height - k, -1):
            if not m:
                break  # inside a stop branch: the block is already one leaf
            bounds, children = levels[t][m]
            i = bisect_right(bounds, r - base) - 1
            base, end = base + bounds[i], base + bounds[i + 1]
            m = children[i]
        return end if strict else base


@lru_cache(maxsize=256)
def leaf_ranks(size: int, height: int) -> LeafRanks:
    """Cached `LeafRanks`; the tables depend only on (size, height)."""
    return LeafRanks(size, height)


class Measure:
    """Per-vertex leaf ranks plus the fixed context of one lifting run.

    ``values[v]`` is a leaf rank of ``ranks`` or ``top`` (its width),
    starting at the least leaf 0.  ``k[w]`` and ``strict[w]`` describe
    the comparison an edge *into* w imposes, and ``target[w]`` caches the
    least value such an edge admits; `set` keeps it in step with
    ``values[w]``.  The tree may be taller than the number of live levels
    (the standard sizing uses height d/2); comparisons then never reach
    the trailing coordinates, and a truncated universal tree is still
    universal, so the extra height is harmless.
    """

    __slots__ = ("values", "target", "player", "ranks", "top", "k", "strict")

    def __init__(self, g: GameGraph, player: int, ranks: LeafRanks):
        levels = live_levels(g, player)
        if ranks.height < len(levels):
            raise ValueError(
                f"tree height {ranks.height} below the {len(levels)} live levels"
            )
        opp_parity = 1 if player == EVEN else 0
        self.values = [0] * g.n
        self.player = player
        self.ranks = ranks
        self.top = ranks.width
        # k(p) = number of live levels with priority >= p
        self.k = tuple(len(levels) - bisect_left(levels, p) for p in g.priority)
        self.strict = tuple(p % 2 == opp_parity for p in g.priority)
        self.target = [self.fresh_target(w) for w in range(g.n)]

    def fresh_target(self, w: int) -> int:
        """Least value an edge into w admits, computed from ``values[w]``.

        TOP when w is at TOP; otherwise the least rank whose prefix at w's
        length dominates w's, strictly at opponent-parity vertices.
        """
        r = self.values[w]
        if r == self.top:
            return r
        return self.ranks.successor(r, self.k[w], self.strict[w])

    def set(self, v: int, value: int) -> None:
        """Give v a new value and refresh its cached target."""
        self.values[v] = value
        self.target[v] = self.fresh_target(v)


def edge_consistent(g: GameGraph, mu: Measure, v: int, w: int) -> bool:
    """Does the edge (v, w) satisfy the local progress condition?

    True when mu(v) is TOP; otherwise mu(w) must not be TOP and the
    length-k prefix of mu(v) must be >= that of mu(w), strictly when the
    edge enters a vertex of the opponent's parity; k is the prefix length
    of the entered vertex's priority.  In ranks that is mu(v) >= the
    least value the edge admits, recomputed here rather than read from
    the cache so that this check stays independent of `lift`.
    """
    return mu.values[v] >= mu.fresh_target(w)


def lift(g: GameGraph, mu: Measure, v: int) -> int:
    """Least value >= mu(v) restoring v's local consistency; never smaller.

    Each edge (v, w) admits ``mu.target[w]`` and above.  Measured
    vertices need one admissible edge (min over targets), opponent
    vertices all of them (max).
    """
    targets = map(mu.target.__getitem__, g.succ[v])
    best = min(targets) if g.owner[v] == mu.player else max(targets)
    old = mu.values[v]
    return best if best > old else old


def _run_worklist(g: GameGraph, mu: Measure, policy: str, seed: int) -> tuple[int, int]:
    n = g.n
    preds = g.preds
    values = mu.values
    queued = [True] * n
    lifts = changes = 0
    if policy == "fifo":
        queue = deque(range(n))
        pop = queue.popleft
        push = queue.append
    elif policy == "lifo":
        queue = list(range(n))
        pop = queue.pop
        push = queue.append
    elif policy == "random":
        rng = random.Random(seed)
        queue = list(range(n))

        def pop():
            i = rng.randrange(len(queue))
            queue[i], queue[-1] = queue[-1], queue[i]
            return queue.pop()

        push = queue.append
    else:
        raise ValueError(
            f"unknown worklist policy {policy!r}; expected one of {WORKLIST_POLICIES}"
        )
    while queue:
        v = pop()
        queued[v] = False
        lifts += 1
        new = lift(g, mu, v)
        old = values[v]
        if new != old:
            if not old < new:
                raise AssertionError("lift tried to decrease a value")
            mu.set(v, new)
            changes += 1
            for u in preds[v]:
                if not queued[u]:
                    queued[u] = True
                    push(u)
    return lifts, changes


def solve(
    g: GameGraph,
    *,
    full_tree: bool = False,
    worklist: str = "fifo",
    seed: int = 0,
) -> SolveResult:
    """Winning regions by lifting over the compact universal tree.

    The measured player is Even when eta_odd <= eta_even, Odd otherwise
    (ties to Even), so the tree size parameter is eta = min of the two
    counts.  ``full_tree=True`` sizes the tree by n instead, for
    cross-checking that the smaller tree loses nothing.  ``worklist``
    picks the fixpoint scheduling policy; the result is the same for all
    of them, only the lift counts differ.
    """
    counts = g.priority_counts()
    player = EVEN if counts.odd <= counts.even else ODD
    eta = min(counts.odd, counts.even)
    size = g.n if full_tree else max(eta, 1)
    ranks = leaf_ranks(size, g.d // 2)
    mu = Measure(g, player, ranks)
    lifts, changes = _run_worklist(g, mu, worklist, seed)
    won = frozenset(v for v in range(g.n) if mu.values[v] != mu.top)
    lost = frozenset(range(g.n)) - won
    regions = (
        WinningRegions(even=won, odd=lost)
        if player == EVEN
        else WinningRegions(even=lost, odd=won)
    )
    stats = SolveStats(
        player=player,
        eta=eta,
        tree_width=ranks.width,
        lifts=lifts,
        changes=changes,
    )
    return SolveResult(regions=regions, stats=stats, measure=mu)


def vertex_consistent(g: GameGraph, mu: Measure, v: int) -> bool:
    """Fixpoint condition at v: measured vertices need one admissible
    successor edge, opponent vertices need all of them."""
    edges_ok = (edge_consistent(g, mu, v, w) for w in g.succ[v])
    return any(edges_ok) if g.owner[v] == mu.player else all(edges_ok)


# ---------------------------------------------------------------------------
# reference solvers


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def zielonka(g: GameGraph) -> WinningRegions:
    """Classical recursive solver: peel the attractor of the top priority,
    recurse, and flip on an opponent counterexample region."""
    n = g.n
    owner = g.owner
    priority = g.priority
    preds = g.preds
    succ_mask = [0] * n
    for v in range(n):
        for w in g.succ[v]:
            succ_mask[v] |= 1 << w

    def attract(target: int, player: int, alive: int) -> int:
        attr = target
        stack = list(_bits(target))
        while stack:
            w = stack.pop()
            for u in preds[w]:
                bit = 1 << u
                if not alive & bit or attr & bit:
                    continue
                if owner[u] == player or not succ_mask[u] & alive & ~attr:
                    attr |= bit
                    stack.append(u)
        return attr

    def win(alive: int) -> tuple[int, int]:
        if not alive:
            return 0, 0
        top = max(priority[v] for v in _bits(alive))
        player = EVEN if top % 2 == 0 else ODD
        tops = 0
        for v in _bits(alive):
            if priority[v] == top:
                tops |= 1 << v
        region = attract(tops, player, alive)
        w_even, w_odd = win(alive & ~region)
        w_opp = w_odd if player == EVEN else w_even
        if not w_opp:
            return (alive, 0) if player == EVEN else (0, alive)
        counter = attract(w_opp, 1 - player, alive)
        w_even, w_odd = win(alive & ~counter)
        if player == EVEN:
            return w_even, w_odd | counter
        return w_even | counter, w_odd

    w_even, w_odd = win((1 << n) - 1)
    return WinningRegions(
        even=frozenset(_bits(w_even)), odd=frozenset(_bits(w_odd))
    )


def brute_force_solve(g: GameGraph, max_strategies: int = 10**6) -> WinningRegions:
    """Enumerate Even's positional strategies; Even wins from v iff some
    strategy leaves no odd-dominated cycle reachable from v.

    Positional determinacy licenses both the enumeration and reading the
    Odd region as the complement.  Guarded: the product of Even-vertex
    out-degrees must not exceed ``max_strategies``.
    """
    n = g.n
    even_vertices = [v for v in range(n) if g.owner[v] == EVEN]
    total = 1
    for v in even_vertices:
        total *= len(g.succ[v])
        if total > max_strategies:
            raise GameError(
                f"too many positional strategies (> {max_strategies}); "
                "brute force is limited to small instances"
            )
    odd_priorities = sorted({p for p in g.priority if p % 2 == 1})
    even_wins: set[int] = set()
    for choice in itertools.product(*(g.succ[v] for v in even_vertices)):
        sub = [list(g.succ[v]) for v in range(n)]
        for v, w in zip(even_vertices, choice):
            sub[v] = [w]
        # vertices of priority p lying on a cycle within priorities <= p
        seeds = set()
        for p in odd_priorities:
            allowed = [v for v in range(n) if g.priority[v] <= p]
            allowed_set = set(allowed)
            for u in allowed:
                if g.priority[u] != p:
                    continue
                stack = [w for w in sub[u] if w in allowed_set]
                seen = set(stack)
                hit = False
                while stack:
                    x = stack.pop()
                    if x == u:
                        hit = True
                        break
                    for y in sub[x]:
                        if y in allowed_set and y not in seen:
                            seen.add(y)
                            stack.append(y)
                if hit:
                    seeds.add(u)
        # everything that can reach a seed loses for Even under this strategy
        bad = set(seeds)
        grew = True
        while grew:
            grew = False
            for v in range(n):
                if v not in bad and any(w in bad for w in sub[v]):
                    bad.add(v)
                    grew = True
        even_wins.update(set(range(n)) - bad)
    return WinningRegions(
        even=frozenset(even_wins), odd=frozenset(range(n)) - frozenset(even_wins)
    )


def format_regions(regions: WinningRegions, stats: SolveStats | None = None) -> str:
    """Two-line text form, plus a stats line when given."""
    lines = [
        "EVEN:" + "".join(f" {v}" for v in sorted(regions.even)),
        "ODD:" + "".join(f" {v}" for v in sorted(regions.odd)),
    ]
    if stats is not None:
        name = "EVEN" if stats.player == EVEN else "ODD"
        lines.append(
            f"stats: player={name} eta={stats.eta} "
            f"tree_width={stats.tree_width} lifts={stats.lifts} "
            f"changes={stats.changes}"
        )
    return "\n".join(lines) + "\n"
