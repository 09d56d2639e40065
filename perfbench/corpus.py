"""Seeded inputs for the verdict benchmark.

Games are drawn here rather than with ``pgtrees.random_game``, so that a
change to the program cannot change a workload.  The draw follows
``random_game``'s distribution: per vertex, a priority uniform in 1..d, an
owner uniform in {0, 1}, an out-degree uniform in the degree range (its
upper end clamped to n) and that many distinct targets, uniform over all
vertices.  The program only ever sees the PGSolver text.
"""

from __future__ import annotations

import hashlib
import random

# A game as plain data: priorities, owners and successor lists by vertex.
Game = tuple[list[int], list[int], list[list[int]]]


def draw_game(rng: random.Random, n: int, d: int, degree: tuple[int, int]) -> Game:
    lo, hi = degree
    hi = min(hi, n)
    lo = min(lo, hi)
    priorities, owners, successors = [], [], []
    for _ in range(n):
        priorities.append(rng.randint(1, d))
        owners.append(rng.randint(0, 1))
        successors.append(rng.sample(range(n), rng.randint(lo, hi)))
    return priorities, owners, successors


def shuffle_successors(game: Game, rng: random.Random) -> Game:
    """The same game with each successor list in a random order."""
    priorities, owners, successors = game
    shuffled = [list(s) for s in successors]
    for s in shuffled:
        rng.shuffle(s)
    return priorities, owners, shuffled


def pgsolver_text(game: Game) -> str:
    priorities, owners, successors = game
    lines = [f"parity {len(priorities) - 1};"]
    for v, (p, o, s) in enumerate(zip(priorities, owners, successors)):
        lines.append(f"{v} {p} {o} {','.join(map(str, s))};")
    return "\n".join(lines) + "\n"


def digest(parts) -> str:
    """Short sha256 over the given strings, to show two runs saw the same inputs."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def count_trees(h: int, max_width: int) -> int:
    """Ordered trees of height exactly h with 1..max_width leaves.

    Independent of ``pgtrees``: with A_0 = x and A_h = A_{h-1} / (1 - A_{h-1})
    (a node is a nonempty sequence of subtrees), the answer is the sum of
    the coefficients of x^1..x^max_width in A_h.
    """
    a = [0, 1] + [0] * (max_width - 1)  # coefficients of x^0..x^max_width
    for _ in range(h):
        # b = a + a*b, i.e. b = a / (1 - a), truncated at x^max_width
        b = [0] * (max_width + 1)
        for w in range(1, max_width + 1):
            b[w] = a[w] + sum(a[i] * b[w - i] for i in range(1, w))
        a = b
    return sum(a)
