"""Parity game graphs, the PGSolver text format, and seeded random instances.

Priorities live on vertices and range over 1..d with d even; player Even
wins a play iff the highest priority occurring infinitely often is even.
Owner code 0 means Even and 1 means Odd, matching the PGSolver convention.

`parse_pgsolver` builds canonical text, the form `serialize_pgsolver` writes
with ids 0..n-1 in order, in bulk from one `json.loads` of its records.  Every
other text, canonical text that is not a valid game, and canonical text with a
zero-padded number, which JSON refuses, is scanned record by record with one
regex, which alone locates errors; the two give the same graph.
"""

from __future__ import annotations

import json
import random
import re
import sys
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

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


class GameGraph:
    """Immutable directed game graph with per-vertex owner and priority.

    Every vertex has at least one successor.  ``d`` is an even upper bound
    on the priorities; it may exceed the largest priority actually present
    (e.g. when a generator was asked for priorities up to d but drew none
    of the top ones).  ``succ[v]`` keeps v's successors as given, repeats
    included; ``preds[w]`` lists each vertex with an edge into w once, in
    ascending order, whatever the order of the successor lists.
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
        succ = tuple(map(tuple, successors))
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
        self._store(owner, priority, succ, d)

    def _store(self, owner: tuple, priority: tuple, succ: tuple, d: int) -> GameGraph:
        # keeps columns that pass the checks above; on a bare __new__, the unchecked constructor
        preds: list[list[int]] = [[] for _ in owner]
        for v, s in enumerate(succ):
            if len(s) == 1:
                preds[s[0]].append(v)
            else:
                for w in set(s):
                    preds[w].append(v)
        self.n = len(owner)
        self.d = d
        self.owner = owner
        self.priority = priority
        self.succ = succ
        self.preds = tuple(map(tuple, preds))
        return self

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.succ)

    def __repr__(self) -> str:
        return f"<GameGraph n={self.n} m={self.edge_count} d={self.d}>"


def normalize_priorities(raw: Sequence[int]) -> tuple[Sequence[int], int]:
    """Shift raw nonnegative priorities into 1..d with d even.

    The shift is a single even constant chosen so the minimum lands on 1
    or 2; parities, and therefore winners, are unchanged.  Returns the
    shifted priorities, ``raw`` itself when the shift is 0, and d (the
    maximum rounded up to an even number).
    """
    if not raw:
        raise GameError("cannot normalize an empty priority list")
    m = min(raw)
    if m < 0:
        raise GameError("priorities must be nonnegative")
    shift = (1 - m) if m % 2 else (2 - m)
    shifted = [p + shift for p in raw] if shift else raw
    top = max(shifted)
    return shifted, top + (top % 2)


# A quoted name, closed by its quote or by the end of its line (';' and '--'
# are literal inside), or a '--' comment to the end of the line.
_COMMENT_RE = re.compile(r'"[^"\n]*"?|--[^\n]*')
# The record grammar, matched record after record over the text with its
# comments blanked: leading blanks (group 1), then a vertex (groups 2-5: id,
# priority, owner, successors; a name spans lines only if its later lines hold
# no ';' and its closing quote is followed by blanks to the end of its line),
# the header (6), or other text up to a ';' outside a name (7, then the ';').
_RECORD_RE = re.compile(
    r'(\s*)(?:(\d+)\s+(\d+)\s+([01])(?:\s+(\d+(?:\s*,\s*\d+)*))?\s*'
    r'(?:(?:"[^"\n]*"|"[^"\n]*\n[^";]*"(?=[^\S\n]*\n))\s*)?;'
    r'|(parity\s+\d+\s*;)|((?:[^";]+|"[^"\n]*"?)*)(;)?)'
)
_COMMA_RE = re.compile(r"\s*,\s*")
# Canonical text, as `serialize_pgsolver` and generators write it: an optional
# header, then one record per line with single spaces, ASCII digits, at least
# one successor and no name or comment.
_CANONICAL_RE = re.compile(
    r"(?:parity [0-9]+;\n)?(?:[0-9]+ [0-9]+ [01] [0-9]+(?:,[0-9]+)*;(?:\n|\Z))+"
)


def _blank_comment(m: re.Match) -> str:
    token = m.group()
    return token if token[0] == '"' else " " * len(token)


def _where(text: str, record: re.Match) -> tuple[int, int]:
    """1-based line and column of the first non-blank character of ``record``."""
    pos = record.end(1)
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _too_long(text: str, record: re.Match) -> ParseError:
    limit = sys.get_int_max_str_digits()
    return ParseError(f"number has more than {limit} digits", *_where(text, record))


def parse_pgsolver(text: str | bytes) -> GameGraph:
    """Parse a PGSolver-format game from text or UTF-8 bytes; a leading BOM is dropped.

    Accepts an optional ``parity <max-id>;`` header, then one record per
    vertex.  Vertex ids are remapped to 0..n-1 in declaration order and
    priorities are normalized via `normalize_priorities`.  Canonical text
    (`_CANONICAL_RE`) with ids 0..n-1 in order is built in bulk; any other
    text goes through the record scan, which gives the same graph or raises
    the located `ParseError`.
    """
    text = (text.decode("utf-8") if isinstance(text, bytes) else text).removeprefix("\ufeff")
    g = _parse_canonical(text)
    return g if g is not None else _parse_records(text)


def _parse_canonical(text: str) -> GameGraph | None:
    """Build the game of canonical text column by column from one `json.loads`
    of its records, with no loop per record.  Returns None, leaving the text to
    the record scan, when it is not canonical, JSON refuses a number (zero
    padding such as ``01``, or past the digit limit), its ids are not 0..n-1 in
    order, or a successor is n or more."""
    if not _CANONICAL_RE.fullmatch(text):
        return None
    if text[0] == "p":
        text = text.partition("\n")[2]
    records = text.rstrip("\n")[:-1].replace(" ", ",").replace(";\n", "],[")
    try:
        rows = json.loads("[[" + records + "]]")
    except ValueError:
        return None
    n = len(rows)
    succ = tuple(map(tuple, map(itemgetter(slice(3, None)), rows)))
    if list(map(itemgetter(0), rows)) != list(range(n)) or max(chain.from_iterable(succ)) >= n:
        return None
    priorities, d = normalize_priorities(list(map(itemgetter(1), rows)))
    owner = tuple(map(itemgetter(2), rows))
    return GameGraph.__new__(GameGraph)._store(owner, tuple(priorities), succ, d)


def _parse_records(text: str) -> GameGraph:
    """Scan ``text`` record by record; raises the first located `ParseError`."""
    # the scan ends with an empty match at the end of the text
    *records, _ = _RECORD_RE.finditer(_COMMENT_RE.sub(_blank_comment, text))
    if records and records[-1].lastindex == 7:  # text after the last ';'
        tail = records.pop()
        if tail[7]:  # reported before any other error
            raise ParseError("record is not terminated by ';'", *_where(text, tail))
    if records and (records[0][6] or records[0][7] or "").startswith("parity"):
        header = records.pop(0)
        if not header[6]:
            raise ParseError("malformed 'parity' header", *_where(text, header))
    decl: dict[int, re.Match] = {}
    for m in records:
        if m[2] is None:
            raise ParseError("cannot parse vertex record", *_where(text, m))
        try:
            vid = int(m[2])
        except ValueError:
            raise _too_long(text, m) from None
        if vid in decl:
            raise ParseError(f"duplicate vertex id {vid}", *_where(text, m))
        if m[5] is None:
            raise ParseError(f"vertex {vid} has no successors", *_where(text, m))
        decl[vid] = m
    if not decl:
        raise ParseError("no vertex records found")
    get = {vid: i for i, vid in enumerate(decl)}.__getitem__
    owners, raw_prios, succ_lists = [], [], []
    for vid, m in decl.items():
        prio, owner, succs = m.group(3, 4, 5)
        try:
            succ_lists.append(list(map(get, map(int, _COMMA_RE.split(succs)))))
            raw_prios.append(int(prio))
        except KeyError as exc:
            message = f"vertex {vid} references undeclared successor {exc.args[0]}"
            raise ParseError(message, *_where(text, m)) from None
        except ValueError:
            raise _too_long(text, m) from None
        owners.append(int(owner))
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
