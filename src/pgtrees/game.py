"""Parity game graphs, the PGSolver text format, and seeded random instances.

Priorities live on vertices and range over 1..d with d even; player Even
wins a play iff the highest priority occurring infinitely often is even.
Owner code 0 means Even and 1 means Odd, matching the PGSolver convention.
"""

from __future__ import annotations

import random
import re
from itertools import repeat
from operator import mod
from typing import Iterable, NamedTuple, Sequence

EVEN = 0
ODD = 1


class GameError(ValueError):
    """Raised for structurally invalid games."""


class ParseError(GameError):
    """Malformed PGSolver input; carries the source location when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class PriorityCounts(NamedTuple):
    odd: int
    even: int


class GameGraph:
    """Immutable directed game graph with per-vertex owner and priority.

    Every vertex has at least one successor.  ``d`` is an even upper bound
    on the priorities; it may exceed the largest priority actually present
    (e.g. when a generator was asked for priorities up to d but drew none
    of the top ones).
    """

    __slots__ = ("n", "d", "owner", "priority", "succ", "preds")

    def __init__(
        self,
        owners: Iterable[int],
        priorities: Iterable[int],
        successors: Iterable[Iterable[int]],
        d: int,
    ):
        owner = tuple(owners)
        priority = tuple(priorities)
        succ = tuple(tuple(s) for s in successors)
        n = len(owner)
        if n == 0:
            raise GameError("a game needs at least one vertex")
        if len(priority) != n or len(succ) != n:
            raise GameError("owner, priority and successor sequences differ in length")
        if d < 2 or d % 2 != 0:
            raise GameError(f"d must be a positive even number, got {d}")
        for v in range(n):
            if owner[v] not in (EVEN, ODD):
                raise GameError(f"vertex {v} has owner {owner[v]}, expected 0 or 1")
            if not 1 <= priority[v] <= d:
                raise GameError(f"vertex {v} has priority {priority[v]} outside 1..{d}")
            if not succ[v]:
                raise GameError(f"vertex {v} has no successors")
            for w in succ[v]:
                if not 0 <= w < n:
                    raise GameError(f"vertex {v} has edge to unknown vertex {w}")
        preds: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            for w in set(succ[v]):
                preds[w].append(v)
        self.n = n
        self.d = d
        self.owner = owner
        self.priority = priority
        self.succ = succ
        self.preds = tuple(tuple(p) for p in preds)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.succ)

    def priority_counts(self) -> PriorityCounts:
        """Counts of odd- and even-priority vertices; their minimum is <= n // 2."""
        odd = sum(map(mod, self.priority, repeat(2)))  # counted in C, no bytecode per vertex
        return PriorityCounts(odd, self.n - odd)

    def __repr__(self) -> str:
        return f"<GameGraph n={self.n} m={self.edge_count} d={self.d}>"


def normalize_priorities(raw: Sequence[int]) -> tuple[list[int], int]:
    """Shift raw nonnegative priorities into 1..d with d even.

    The shift is a single even constant chosen so the minimum lands on 1
    or 2; parities, and therefore winners, are unchanged.  Returns the
    shifted priorities and d (the maximum rounded up to an even number).
    """
    raw = list(raw)
    if not raw:
        raise GameError("cannot normalize an empty priority list")
    if min(raw) < 0:
        raise GameError("priorities must be nonnegative")
    m = min(raw)
    shift = (1 - m) if m % 2 else (2 - m)
    shifted = [p + shift for p in raw]
    top = max(shifted)
    return shifted, top + (top % 2)


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


def parse_pgsolver(text: str | bytes) -> GameGraph:
    """Parse a PGSolver-format game description.

    Accepts an optional ``parity <max-id>;`` header, then one record per
    vertex.  Vertex ids are remapped to 0..n-1 in declaration order and
    priorities are normalized via `normalize_priorities`.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
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


def serialize_pgsolver(g: GameGraph) -> str:
    """Emit PGSolver text: header, then vertices in id order, no names."""
    lines = [f"parity {g.n - 1};"]
    for v in range(g.n):
        succs = ",".join(str(w) for w in g.succ[v])
        lines.append(f"{v} {g.priority[v]} {g.owner[v]} {succs};")
    return "\n".join(lines) + "\n"


def random_game(
    n: int,
    d: int,
    out_degree: tuple[int, int] = (1, 3),
    seed: int = 0,
) -> GameGraph:
    """Seeded random game: uniform priorities in 1..d, uniform owners,
    out-degree uniform in ``out_degree`` with distinct targets.

    Deterministic in ``seed`` (Python's Mersenne Twister; the draw order
    per vertex is priority, owner, out-degree, then the target sample).
    An out-degree bound above n is clamped to n.
    """
    if n < 1:
        raise GameError("n must be positive")
    if d < 2 or d % 2 != 0:
        raise GameError("d must be a positive even number")
    lo, hi = out_degree
    if lo < 1:
        raise GameError("out-degree lower bound must be at least 1")
    if lo > hi:
        raise GameError(f"out-degree range {lo}:{hi} is reversed")
    hi = min(hi, n)
    lo = min(lo, hi)
    rng = random.Random(seed)
    owners, priorities, succ_lists = [], [], []
    for _ in range(n):
        priorities.append(rng.randint(1, d))
        owners.append(rng.randint(0, 1))
        deg = rng.randint(lo, hi)
        succ_lists.append(rng.sample(range(n), deg))
    return GameGraph(owners, priorities, succ_lists, d=d)
