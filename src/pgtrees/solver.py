"""Parity game solvers: tree lifting plus two independent references.

`solve` lifts a progress measure for the measured player over the padded
universal tree sized by eta = min(#odd-priority, #even-priority)
vertices, at most n // 2 (`LeafRanks`, `Measure`).  That player is Even
unless odd-priority vertices outnumber even-priority ones, and it wins
exactly the vertices whose value ends below TOP.  A vertex it loses
climbs all the way to TOP, so a solve takes three steps, of which a
one-level game, with at most one priority of each parity, skips the
first two: the Buchi loop (`_buchi`) decides it whole.

1. a probe lifts the measure for at most SLICE lifts (`_worklist`), from
   TOP at each vertex that its own strict self-loop puts at TOP in every
   fixpoint (`_doomed_at_top`); a game it finishes is done;
2. otherwise the components it finished are final, and the others are
   decided one at a time, on g's own vertex ids (`_decompose`);
3. the vertices the measured player loses go to TOP, their value in the
   least fixpoint, and one completion run lifts the rest up to it.

`zielonka` (recursive attractor decomposition) and `brute_force_solve`
(positional strategy enumeration) are independent oracles for `solve`.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import contains, mod

from .game import EVEN, ODD, GameError, GameGraph
from .widths import halving_sizes

WORKLIST_POLICIES = ("fifo", "lifo", "random")
# lifts of the measured player's probe
SLICE = 256
# successor memo entries kept per cached tree
MEMO_CAP = 4096
# (priorities present, player) pairs whose `Measure` set-up is cached
SETUP_CAP = 1024
# Even's positional strategies `brute_force_solve` may enumerate
MAX_STRATEGIES = 10**6


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
    lifts: int           # calls of `lift`, summed over every run
    changes: int         # lifts that increased a value, summed likewise
    subgames: int        # subgames of 2+ vertices `_decompose` decided; 0 if one-level
    round_size: int      # largest tree size of any round; 0 if no round ran


@dataclass
class SolveResult:
    regions: WinningRegions
    stats: SolveStats
    measure: "Measure"   # final labelling, for inspection and tests


def live_levels(priorities, player: int) -> list[int]:
    """Distinct opponent-parity values of ``priorities``, ascending: the
    live levels of player's measure, one tree level each.  An absent
    priority would add a comparison level that nothing ever resets,
    skewing the labelling; with every one present there are d/2."""
    opp_parity = 1 if player == EVEN else 0
    return sorted({p for p in priorities if p % 2 == opp_parity})


class LeafRanks:
    """Leaf ranks of the padded universal tree of this size and height.

    The padded tree is ``universal_tree(size, height)`` with a "stop"
    branch, a single path to one leaf, as the leftmost child of every
    internal node.  The padding keeps the tree universal for its width
    while giving every ancestor prefix its own least leaf, so that
    unconstrained vertices rest low; without it the eta tree is too small
    in games where both players win somewhere.

    The tree is never built.  Leaves are numbered 0..width-1 in leaf
    order, lexicographic path order, and ``width`` doubles as TOP.  So
    every subtree owns a contiguous block of ranks, and "the length-k path
    prefix of a is >= (or >) that of b" reads "a >= the first rank (or the
    end) of b's depth-k block".  A node of size m >= 1 is a padded
    universal subtree whose children are a stop branch and subtrees of the
    sizes S(m) of `trees.universal_tree`, that is S(m // 2) + (m,) + S(m -
    1 - m // 2): the children of two halves around a size-m child one
    level lower.  ``_blocks[m][t]`` counts the leaves below the non-stop
    children of a size-m node of height t, for each size halving reaches
    (0 for an empty half), so a rank's block takes one walk down the
    halves per level.

    ``memo[k][strict]``, strict 0 or 1, maps a rank r to ``successor(r,
    k, strict)`` for every run over the tree.  A `Measure` holds the row of
    each priority present (``rows``), and `Measure.set` fills it, with at
    most MEMO_CAP entries in all (``entries``): the 256 trees `leaf_ranks`
    caches hold at most 256 * MEMO_CAP however many games are solved.
    The `Measure` set-up cache (`_setup`) keeps no tree, so no tree that
    `leaf_ranks` has dropped outlives the measures over it.
    """

    __slots__ = ("size", "height", "width", "_blocks", "memo", "entries")

    def __init__(self, size: int, height: int):
        if size < 1 or height < 0:
            raise ValueError("size must be positive and height nonnegative")
        # B(m, t) = B(m // 2, t) + B(m, t - 1) + 1 + B(m - 1 - m // 2, t) over
        # the sizes of S(size): size itself and every size halving reaches
        blocks = {0: [0] * (height + 1)}
        for m in halving_sizes(size):  # halves first
            halves = zip(blocks[m // 2][1:], blocks[m - 1 - m // 2][1:])
            blocks[m] = list(itertools.accumulate((a + b + 1 for a, b in halves), initial=0))
        self.size = size
        self.height = height
        self.width = blocks[size][height] + 1
        self._blocks = blocks
        self.memo = [({}, {}) for _ in range(height + 1)]
        self.entries = 0

    def successor(self, r: int, k: int, strict: bool) -> int:
        """Least rank whose length-k path prefix is >= (strict: >) r's.

        That is the first rank of the depth-k block holding r, or the
        rank just past it under ``strict``; ``width`` (TOP) when that
        block is the last one.  k = 0 prefixes are all equal, so strict
        gives TOP and non-strict the least leaf.  Every leaf lies at
        depth ``height``, so a block of that depth is the leaf itself.
        """
        if not 0 <= r < self.width:
            raise ValueError(f"{r!r} is not a leaf rank below {self.width}")
        if not 0 <= k <= self.height:
            raise ValueError(f"prefix length {k} outside 0..{self.height}")
        if k == self.height:
            return r + strict
        blocks = self._blocks
        m, base = self.size, 0
        for t in range(self.height, self.height - k, -1):
            # r lies in the block of a size-m node of height t at base
            if r == base:
                return base + strict  # its stop branch: a block of one leaf
            base += 1
            while True:  # the halves of S(m) around its size-m child
                half = blocks[m // 2][t]
                if r < base + half:
                    m //= 2
                    continue
                base += half
                middle = blocks[m][t - 1] + 1
                if r < base + middle:
                    break
                base += middle
                m -= 1 + m // 2
        return base + blocks[m][self.height - k] + 1 if strict else base


@lru_cache(maxsize=256)
def leaf_ranks(size: int, height: int) -> LeafRanks:
    """Cached `LeafRanks`; its block rows depend only on (size, height)."""
    return LeafRanks(size, height)


@lru_cache(maxsize=SETUP_CAP)
def _setup(present: frozenset, player: int) -> tuple[int, dict, dict]:
    """What a `Measure` of player's needs of the priorities ``present``:
    its tree height and, per priority p, the prefix length ``k[p]`` and
    strictness ``strict[p]`` (1 at the opponent's parity, else 0) of an edge
    into p.  None of it depends on the tree, so an entry holds none; solves only read it."""
    levels = live_levels(present, player)
    opp_parity = 1 if player == EVEN else 0
    # k(p) = number of live levels with priority >= p
    k = {p: len(levels) - bisect_left(levels, p) for p in present}
    strict = {p: int(p % 2 == opp_parity) for p in present}
    return max(len(levels), 1), k, strict


class Measure:
    """Per-vertex leaf ranks plus the fixed context of one lifting run.

    ``ranks`` has one level per live level, at least one, so that even a
    game with none gets a tree whose width grows with its size.
    ``values[v]`` is a leaf rank or ``top`` (the width), starting at the
    least leaf 0.  A value must dominate each successor w's on the prefix
    of length ``k[p]`` set by w's priority p, strictly (``strict[p]``) at
    the opponent's parity.  Keying each edge by the vertex it enters, as
    the standard reduction to edge priorities does, gives the eta bound:
    every strict update over w computes the same least leaf strictly above
    mu(w) at w's prefix length, so at most one fresh branch circulates per
    opponent-parity vertex.  It also makes the least value an edge into w
    admits depend on w alone: ``target[w]``, which `set` keeps in step.

    ``values`` and ``target`` are the only per-vertex state.  Prefix
    length, strictness and memo row depend on a vertex's priority p alone
    (``priority`` is the game's own sequence): ``k[p]`` and ``strict[p]``
    come from `_setup`, cached per (priorities present, player) up to
    SETUP_CAP pairs, and ``rows[p]`` is this run's memo row
    ``ranks.memo[k[p]][strict[p]]``.  `_setup` holds no tree: the tree
    comes from `leaf_ranks` on every run, so `LeafRanks`' memo bound stands.

    A round of `_decompose` passes ``shared``: its subgame's priorities,
    which set the tree's height, and the ``values`` and ``target`` lists
    its rounds share, which it sets on the subgame and its rim itself.
    `lift` reads ``get_target``, ``target.__getitem__`` bound once per run,
    and ``pick[owner]``: min for the player's vertices, max for the others.
    """

    __slots__ = ("values", "target", "get_target", "pick", "priority", "rows", "player", "ranks",
                 "top", "k", "strict")

    def __init__(self, g: GameGraph, player: int, size: int, shared: tuple | None = None):
        present, values, target = shared or (frozenset(g.priority), [0] * g.n, None)
        height, k, strict = _setup(present, player)
        self.values = values
        self.priority = g.priority
        self.player = player
        self.ranks = ranks = leaf_ranks(size, height)
        self.top = ranks.width
        self.k, self.strict = k, strict
        # every value starts at the least leaf 0, the root's stop branch,
        # a block of its own at every depth k >= 1: an edge into a vertex
        # at 0 admits 0, or strictly 1, a strict vertex's priority being a
        # live level, so that its k >= 1
        self.target = target if shared else list(map(strict.__getitem__, g.priority))
        self.get_target = self.target.__getitem__
        self.pick = (min, max) if player == EVEN else (max, min)
        self.rows = {p: ranks.memo[k[p]][strict[p]] for p in k}

    def fresh_target(self, w: int) -> int:
        """Least value an edge into w admits, computed from ``values[w]``.

        TOP when w is at TOP; otherwise the least rank whose prefix at w's
        length dominates w's, strictly at opponent-parity vertices.
        """
        r = self.values[w]
        if r == self.top:
            return r
        p = self.priority[w]
        return self.ranks.successor(r, self.k[p], self.strict[p])

    def set(self, v: int, value: int) -> None:
        """Give v a new value and refresh its cached target.

        The target is read from the memo row of v's priority p
        (``rows[p]``); a miss computes it and stores it while the tree
        holds fewer than MEMO_CAP entries.
        """
        self.values[v] = value
        row = self.rows[self.priority[v]]
        target = row.get(value)
        if target is None:
            target = self.fresh_target(v)
            ranks = self.ranks
            if value != self.top and ranks.entries < MEMO_CAP:
                row[value] = target
                ranks.entries += 1
        self.target[v] = target


def edge_consistent(g: GameGraph, mu: Measure, v: int, w: int) -> bool:
    """Does the edge (v, w) satisfy the local progress condition
    (`Measure`)?  In ranks that is mu(v) >= the least value the edge
    admits, recomputed here rather than read from the cache so that this
    check stays independent of `lift`."""
    return mu.values[v] >= mu.fresh_target(w)


def lift(g: GameGraph, mu: Measure, v: int) -> int:
    """Least value >= mu(v) restoring v's local consistency; never smaller.

    Each edge (v, w) admits ``mu.target[w]`` and above.  Measured
    vertices need one admissible edge (min over targets), opponent
    vertices all of them (max): ``mu.pick[g.owner[v]]``.
    """
    best = mu.pick[g.owner[v]](map(mu.get_target, g.succ[v]))
    old = mu.values[v]
    return best if best > old else old


def _components(g: GameGraph) -> list[list[int]]:
    """Strongly connected components of g, sinks first, each in the order
    its vertices finish the first of Kosaraju's two searches (Sharir 1981).

    The first search walks ``g.preds`` from the vertices in ascending
    order.  `GameGraph` lists each predecessor once, ascending, whatever
    the successor lists hold, so the finishing order, and with it the
    output, does not depend on the order of a successor list; a stack of
    iterators spares long paths Python recursion.  The second takes the
    vertices latest finished first, and each one not yet placed floods the
    unplaced vertices it reaches over ``g.succ``.  Any other component it
    reaches holds a vertex finished later, an edge into a component being
    one out of it in the first search, so it is placed already: the flood
    takes exactly its component, and the sinks come first.
    """
    n = g.n
    succ, preds = g.succ, g.preds
    found = [False] * n
    order = []  # finishing order
    for root in range(n):
        if found[root]:
            continue
        found[root] = True
        frames = [(root, iter(preds[root]))]
        while frames:
            v, predecessors = frames[-1]
            for w in predecessors:
                if not found[w]:
                    found[w] = True
                    frames.append((w, iter(preds[w])))
                    break
            else:
                frames.pop()
                order.append(v)
    place: list[list[int] | None] = [None] * n  # each vertex's component
    components = []
    for v in reversed(order):
        if place[v] is None:
            place[v] = component = []
            components.append(component)
            reached = [v]
            for u in reached:  # reached grows while it is read
                for w in succ[u]:
                    if place[w] is None:
                        place[w] = component
                        reached.append(w)
    for v in order:
        place[v].append(v)
    return components


def _worklist(
    g: GameGraph, mu: Measure, components: list, policy: str, seed: int, counts: list,
    limit: int | None = None, queued: list | None = None,
) -> int | None:
    """Lift mu to its least fixpoint above its current values and return
    None; or stop once ``limit`` lifts are made and return the index of
    the component holding the next vertex it would lift.

    `lift` never lowers a value, so every order reaches that fixpoint;
    the order sets only the lift count.  A lift reads only successors, so
    each of ``components``, sinks first, is lifted to its fixpoint before
    the next.  A component starts as the queue, and LIFO lifts first its
    last vertex, the one `_components`' first search finished last, which
    every other vertex of the component reaches; so a vertex tends to
    follow those it reaches.  FIFO and a ``seed``-ed random order remain
    for testing.  A change at v queues only the predecessors u that v's
    new target exceeds.  A vertex off the queue is consistent, and such a
    u stays so.  An opponent vertex needs every target at most its value,
    and only v's moved.  A measured vertex needs one, and v's new target
    serves if its old one did.

    ``counts`` is ``[lifts, changes]`` and gains this run's share.
    A vertex in no component counts as queued, so it is never lifted;
    `_decompose` shares one ``queued`` between rounds and resets it.
    Each lift calls the module's `lift`, read once per run, so a wrapper
    set in its place before a solve (perfbench's tracer) counts every lift.
    """
    lift_one, preds, priority = lift, g.preds, g.priority
    values, target, rows = mu.values, mu.target, mu.rows
    top = mu.top
    # a vertex waiting for its component's turn counts as queued, so no
    # change below it pushes it early
    queued = [True] * g.n if queued is None else queued
    if policy == "fifo":
        queue = deque()
        pop = queue.popleft
    elif policy == "lifo":
        queue = []
        pop = queue.pop
    elif policy == "random":
        rng = random.Random(seed)
        queue = []

        def pop():
            i = rng.randrange(len(queue))
            queue[i], queue[-1] = queue[-1], queue[i]
            return queue.pop()

    else:
        raise ValueError(
            f"unknown worklist policy {policy!r}; expected one of {WORKLIST_POLICIES}"
        )
    push = queue.append
    lifts = changes = 0
    for i, component in enumerate(components):
        queue.extend(component)
        while queue:
            v = pop()
            queued[v] = False
            old = values[v]
            if old == top:
                continue  # nothing lies above TOP, so its lift would be a no-op
            if lifts == limit:
                counts[0] += lifts
                counts[1] += changes
                return i
            lifts += 1
            new = lift_one(g, mu, v)
            if new > old:
                t = rows[priority[v]].get(new)
                if t is None:
                    mu.set(v, new)
                    t = target[v]
                else:  # `set`, inlined for a memo hit
                    values[v] = new
                    target[v] = t
                changes += 1
                for u in preds[v]:
                    if not queued[u] and t > values[u]:
                        queued[u] = True
                        push(u)
            elif new != old:
                raise AssertionError("lift tried to decrease a value")
    counts[0] += lifts
    counts[1] += changes
    return None


def _sides(priorities: list, full_tree: bool) -> tuple[list[tuple[int, int]], int]:
    """Both players with their tree sizes, the measured player first, and
    eta, for a game or subgame with these vertex ``priorities``.  A tree is
    sized by the count of its player's opponent's parity, at least 1, or by
    n under ``full_tree``; the measured player has the smaller count, eta,
    and ties go to Even."""
    n = len(priorities)
    odd = sum(map(mod, priorities, itertools.repeat(2)))  # counted in C, no bytecode per vertex
    even = n - odd
    size_even, size_odd = (n, n) if full_tree else (max(odd, 1), max(even, 1))
    if odd <= even:
        return [(EVEN, size_even), (ODD, size_odd)], odd
    return [(ODD, size_odd), (EVEN, size_even)], even


def _attractor(g: GameGraph, attr: list, player: int, live: set, left: dict, within) -> list:
    """player's attractor inside live of the target list attr, grown in
    place.  A vertex u of ``live`` reached by an edge joins when player
    owns it or when ``left[u]``, its count of distinct successors in
    ``within`` outside the attractor, falls to 0; the count is taken when u
    is first reached.  Joiners leave ``live``, and counts fall in place."""
    owner, preds, succ = g.owner, g.preds, g.succ
    for w in attr:  # attr grows while it is read
        for u in preds[w]:
            if u in live:
                if owner[u] != player:
                    # a stored count is never 0: u would have joined
                    k = (left.get(u) or len(within.intersection(succ[u]))) - 1
                    left[u] = k
                    if k:
                        continue
                live.remove(u)
                attr.append(u)
    return attr


def _buchi(g: GameGraph, live: set, b: int, size: int, winner: list) -> list:
    """Decide ``live``, with priority b on top and at most one other, by
    the universal attractor decomposition of Jurdzinski and Morvan (2020)
    over a one-level tree; return its vertices in the order decided.

    A move out of ``live`` enters a vertex won by the mover's opponent, so
    attractors count only live successors.  With t b's player and o the
    other, while t's attractor of the live b-vertices leaves a rest U, o
    wins its attractor of U, which leaves ``live``; then t wins what is
    left.  A peel that takes no b-vertex leaves t's attractor whole, so
    there are at most |b| + 1 peels, the width of o's one-level tree,
    ``size`` = |b|; more raise AssertionError.
    """
    priority = g.priority
    t = b % 2  # EVEN is 0
    order, peels = [], 0
    while True:
        attr = [v for v in live if priority[v] == b]
        rest = live.difference(attr)
        left = {}  # t's attractor counts o's vertices, o's t's
        _attractor(g, attr, t, rest, left, live)
        if not rest:
            break
        peels += 1
        if peels > size + 1:
            raise AssertionError(f"the Buchi loop peeled more than {size + 1} times")
        won = _attractor(g, list(rest), 1 - t, set(attr), left, live)
        for v in won:
            winner[v] = 1 - t
        order += won
        live.difference_update(won)
    for v in attr:
        winner[v] = t
    return order + attr


def _decompose(
    g: GameGraph, components: list, winner: list, full_tree: bool,
    policy: str, seed: int, tally: list,
) -> tuple[list, int, int]:
    """Decide the vertices ``winner`` leaves at -1, one component of
    ``components`` at a time, sinks first, as in Oink (van Dijk, TACAS
    2018); return the winners, the subgame count and the largest tree
    size a round used, 0 if none ran.

    Both players' attractors of all that is decided are removed, so what
    stays undecided of a component is a subgame in which every vertex
    keeps a successor, and none can move into a vertex its owner has won.
    ``unwon[p][u]`` counts u's distinct successors that p has not won.  A
    one-level subgame goes to `_buchi`, as a one-level game goes whole
    from `solve`.  Any other is decided in rounds s = 1, 2, 4, ...: each
    side, the subgame's measured player first, lifts a measure over the
    tree of size min(s, its own size) and wins what stays below TOP, and
    at its own size loses the rest.  A measure into any ordered tree is
    sound, one into the own-size tree is complete, and most games need far
    less (the bounded dominions of Jurdzinski, Paterson and Zwick, SODA
    2006, and Schewe, FSTTCS 2007).

    Rounds lift over g's vertex ids, with one ``values``, ``target`` and
    ``queued`` list for all, and touch only the subgame and its rim, the
    decided successors outside it: ``target[w]`` of a rim vertex is TOP
    if the side's player p lost w, else 0.  No subgame vertex moves into a
    vertex its owner won, so p's vertices see TOP there and the opponent's
    0, and each lift equals the one over inner edges.  Rim vertices are
    never queued, so never lifted.

    Each side's decisions are attracted as soon as it has run, and the
    second side starts from them: what the first side and its attractor
    won is at TOP in the second side's least fixpoint, by soundness, so it
    starts there and never climbs.  Every vertex is handed to `attract`
    once; a second time would lower the ``unwon`` counts twice, so it
    raises AssertionError.
    """
    succ, priority = g.succ, g.priority
    undecided = set(range(g.n))
    everything = frozenset(undecided)  # unwon counts decided successors as well
    unwon = [{}, {}]  # indexed by player, EVEN = 0
    subgames = largest = 0
    values, target, queued = [0] * g.n, [0] * g.n, [True] * g.n

    def attract(decided: list) -> None:
        # both players' attractors of the newly decided vertices; one passed
        # twice would lower the unwon counts twice and attract wrongly
        if not undecided.issuperset(decided):
            raise AssertionError("a vertex was decided twice")
        undecided.difference_update(decided)
        for p in (EVEN, ODD):
            won = [v for v in decided if winner[v] == p]
            for u in _attractor(g, won, p, undecided, unwon[p], everything):
                winner[u] = p

    attract([v for v in range(g.n) if winner[v] >= 0])
    for component in components:
        sub = [v for v in component if winner[v] < 0]
        subgames += len(sub) > 1
        s = 1
        while sub:
            priorities = list(map(priority.__getitem__, sub))
            present = frozenset(priorities)
            if len(present) == len({p % 2 for p in present}):
                b = max(present)
                _buchi(g, set(sub), b, priorities.count(b), winner)
                attract(sub)
                break
            rim = set(itertools.chain.from_iterable(map(succ.__getitem__, sub))).difference(sub)
            for p, size in _sides(priorities, full_tree)[0]:
                m = Measure(g, p, min(s, size), (present, values, target))
                top, strict = m.top, m.strict
                for v, q in zip(sub, priorities):  # as in a fresh `Measure`
                    if winner[v] < 0:
                        values[v], target[v] = 0, strict[q]
                    else:  # what the other side won is at TOP
                        values[v] = target[v] = top
                for w in rim:
                    target[w] = top if winner[w] != p else 0
                _worklist(g, m, [sub], policy, seed, tally, queued=queued)  # sub as one component
                largest = max(largest, m.ranks.size)
                decided = []
                for v in sub:
                    queued[v] = True
                    if winner[v] < 0 and (values[v] != top or s >= size):
                        # at an exact tree p loses the rest
                        winner[v] = p if values[v] != top else 1 - p
                        decided.append(v)
                attract(decided)
                if -1 not in map(winner.__getitem__, sub):  # all decided
                    break
            s *= 2
            sub = [v for v in sub if winner[v] < 0]
    return winner, subgames, largest


def _doomed_at_top(g: GameGraph, mu: Measure) -> None:
    """Start at TOP each vertex with a strict self-loop (at the opponent's
    parity) that is the opponent's, free to take it forever, or that is
    the player's only move.  That edge needs the vertex's value strictly
    above itself on its own prefix, so it is at TOP in every fixpoint, and
    lifting from there reaches the same least fixpoint, minus the climb."""
    succ = g.succ
    for v in itertools.compress(range(g.n), map(contains, succ, range(g.n))):  # self-loops, in C
        if mu.strict[g.priority[v]] and (g.owner[v] != mu.player or set(succ[v]) == {v}):
            mu.values[v] = mu.target[v] = mu.top


def solve(
    g: GameGraph,
    *,
    full_tree: bool = False,
    worklist: str = "lifo",
    seed: int = 0,
) -> SolveResult:
    """Winning regions by lifting over the compact universal tree.

    The measured player's tree is sized by eta, or by n under
    ``full_tree=True``, to cross-check that the smaller tree loses
    nothing.  ``worklist`` picks the scheduling policy of every lifting
    run (`_worklist`); the result is the same for all of them, only the
    lift counts differ.  ``measure``, ``player`` and ``tree_width`` are
    the measured player's least fixpoint over its tree (module
    docstring), and the lift and change counts add up every run.
    """
    [(player, size), _], eta = _sides(g.priority, full_tree)
    mu = Measure(g, player, size)
    tally = [0, 0]
    subgames = round_size = 0
    winner = None
    if len(mu.k) == len({p % 2 for p in mu.k}):  # mu.k: keyed by the priorities present
        # one level: the Buchi loop decides it whole; LIFO lifts the first decided first
        winner = [-1] * g.n
        b = max(mu.k)
        rest = [_buchi(g, set(range(g.n)), b, g.priority.count(b), winner)[::-1]]
    else:
        components = _components(g)
        _doomed_at_top(g, mu)
        start = _worklist(g, mu, components, worklist, seed, tally, SLICE)
        if start is not None:
            winner = [-1] * g.n
            for v in itertools.chain(*components[:start]):  # final in mu
                winner[v] = player if mu.values[v] != mu.top else 1 - player
            rest = components[start:]
            winner, subgames, round_size = _decompose(
                g, rest, winner, full_tree, worklist, seed, tally
            )
    if winner is not None:
        values, target, top = mu.values, mu.target, mu.top
        for v in itertools.compress(range(g.n), map(player.__ne__, winner)):
            values[v] = target[v] = top  # `set` at TOP, whose target is TOP
        _worklist(g, mu, rest, worklist, seed, tally)
        # the completion would silently repair a vertex wrongly given to the
        # measured player by its climb to TOP, where only the lost ones were put
        if values.count(top) + winner.count(player) != g.n:
            raise AssertionError("the decomposition gave the measured player a vertex it loses")
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
        tree_width=mu.top,
        lifts=tally[0],
        changes=tally[1],
        subgames=subgames,
        round_size=round_size,
    )
    return SolveResult(regions=regions, stats=stats, measure=mu)


def vertex_consistent(g: GameGraph, mu: Measure, v: int) -> bool:
    """Fixpoint condition at v: measured vertices need one admissible
    successor edge, opponent vertices need all of them."""
    edges_ok = (edge_consistent(g, mu, v, w) for w in g.succ[v])
    return any(edges_ok) if g.owner[v] == mu.player else all(edges_ok)


# ---------------------------------------------------------------------------
# reference solvers


def _bits(mask: int) -> list[int]:
    # set-bit positions, lowest first, from one pass over the binary
    # digits, so a mask of n bits takes O(n) time
    s = bin(mask)[:1:-1]
    bits = []
    i = s.find("1")
    while i >= 0:
        bits.append(i)
        i = s.find("1", i + 1)
    return bits


def zielonka(g: GameGraph) -> WinningRegions:
    """Classical Zielonka solver: peel the attractor of the top priority and
    solve the rest; where the opponent wins some of it, give the opponent
    its attractor of that region and loop on what is left.

    The recursion runs on an explicit stack with one frame per pending
    call, so a game with many distinct priorities needs no Python
    recursion.
    """
    n = g.n
    owner = g.owner
    priority = g.priority
    preds = g.preds
    succ_mask = [0] * n
    with_priority: dict[int, int] = {}
    for v in range(n):
        for w in g.succ[v]:
            succ_mask[v] |= 1 << w
        with_priority[priority[v]] = with_priority.get(priority[v], 0) | 1 << v
    # (priority, mask of its vertices) for each priority present, highest
    # first, so a sparse range of priorities costs nothing per absent one
    levels = sorted(with_priority.items(), reverse=True)

    def attract(attr: int, player: int, alive: int, stack: list) -> int:
        # player's attractor of attr inside alive; stacked vertices have edges into attr
        while stack:
            u = stack.pop()
            bit = 1 << u
            if alive & bit and not attr & bit and (
                owner[u] == player or not succ_mask[u] & alive & ~attr
            ):
                attr |= bit
                stack.extend(preds[u])
        return attr

    # a frame [alive, k, top_attr, won_even, won_odd] is a call on the
    # subgame alive waiting for its call on alive minus top_attr, the
    # attractor of levels[k]'s priority; won_* hold what it peeled off
    frames: list[list[int]] = []
    alive, won = (1 << n) - 1, [0, 0]  # a call on nothing returns won
    k = 0  # a call's subgame lies in its caller's, so its top is no higher
    while alive or frames:
        if alive:
            while not levels[k][1] & alive:
                k += 1
            top, tops = levels[k][0], levels[k][1] & alive
            top_attr = attract(tops, top % 2, alive, [u for w in _bits(tops) for u in preds[w]])
            frames.append([alive, k, top_attr, *won])
            alive, won = alive & ~top_attr, [0, 0]
            continue
        # the top frame's nested call has returned won
        alive, k, top_attr, *outer = frames.pop()
        player = levels[k][0] % 2  # EVEN is 0
        lost = won[1 - player]
        if lost:
            # the opponent keeps its attractor of what it won and loops on the
            # rest; lost is closed under it outside top_attr, so it grows there
            seeds = [u for u in _bits(top_attr) if succ_mask[u] & lost]
            lost = attract(lost, 1 - player, alive, seeds)
            outer[1 - player] |= lost
            alive &= ~lost
        else:
            outer[player] |= alive
            alive = 0
        won = outer
    return WinningRegions(even=frozenset(_bits(won[EVEN])), odd=frozenset(_bits(won[ODD])))


def brute_force_solve(g: GameGraph) -> WinningRegions:
    """Enumerate Even's positional strategies; Even wins from v iff some
    strategy leaves no odd-dominated cycle reachable from v.

    One search, `reached`, does both steps under a strategy: it finds the
    seeds, the vertices u of odd priority that return to u through
    priorities at most u's, and then the vertices from which a seed is
    reachable, which Even loses under that strategy.  Positional
    determinacy licenses both the enumeration and reading the Odd region
    as the complement.  Guarded: the product of Even-vertex out-degrees
    must not exceed MAX_STRATEGIES.
    """
    n = g.n
    even_vertices = [v for v in range(n) if g.owner[v] == EVEN]
    total = 1
    for v in even_vertices:
        total *= len(g.succ[v])
        if total > MAX_STRATEGIES:
            raise GameError(
                f"too many positional strategies (> {MAX_STRATEGIES}); "
                "brute force is limited to small instances"
            )

    def reached(succ, start: int, allowed) -> set[int]:
        # the vertices of allowed that start reaches in one or more moves
        found: set[int] = set()
        stack = [start]
        while stack:
            for w in succ[stack.pop()]:
                if w in allowed and w not in found:
                    found.add(w)
                    stack.append(w)
        return found

    prio = g.priority
    below = {u: {w for w in range(n) if prio[w] <= prio[u]} for u in range(n) if prio[u] % 2}
    even_wins: set[int] = set()
    for choice in itertools.product(*(g.succ[v] for v in even_vertices)):
        succ = list(g.succ)
        for v, w in zip(even_vertices, choice):
            succ[v] = (w,)
        seeds = {u for u, allowed in below.items() if u in reached(succ, u, allowed)}
        # a seed reaches itself, so Even loses at it too
        even_wins.update(v for v in range(n) if seeds.isdisjoint(reached(succ, v, range(n))))
    won = frozenset(even_wins)
    return WinningRegions(even=won, odd=frozenset(range(n)) - won)


def format_regions(regions: WinningRegions, stats: SolveStats | None = None) -> str:
    """Two-line text form, plus a stats line when given."""
    lines = [
        "EVEN:" + "".join(f" {v}" for v in sorted(regions.even)),
        "ODD:" + "".join(f" {v}" for v in sorted(regions.odd)),
    ]
    if stats is not None:
        names = {EVEN: "EVEN", ODD: "ODD"}
        lines.append(
            f"stats: player={names[stats.player]} eta={stats.eta} "
            f"tree_width={stats.tree_width} lifts={stats.lifts} "
            f"changes={stats.changes} subgames={stats.subgames}"
        )
    return "\n".join(lines) + "\n"
