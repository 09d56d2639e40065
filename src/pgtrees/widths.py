"""Exact width formulas for the compact universal-tree family, with bounds.

All counting is done in exact integer arithmetic (Python ints); floats
appear only in the exponential bound and the ratio columns of the report.
`width_recursive` evaluates the defining recursion; `width_closed_form`
and `width_report` read the closed form from one column of prefix sums
per height.  Every function here is pure and keeps no state between calls.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add
from typing import NamedTuple, Sequence

# exponent constant for the exponential bound: 1 + log2(e) ~= 2.4427
_EXPONENT_BASE = 1.0 + math.log2(math.e)


def floor_log2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return n.bit_length() - 1


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length()


def halving_sizes(n: int) -> list[int]:
    """The positive sizes that splitting n, and each part in turn, into
    its halves m // 2 and m - 1 - m // 2 reaches, n included, ascending:
    about 2 log2(n) of them, the distinct entries of the n child sizes
    S(n) of `trees.universal_tree`, found without listing S(n)."""
    reached, stack = set(), [n]
    while stack:
        m = stack.pop()
        if m > 0 and m not in reached:
            reached.add(m)
            stack += (m // 2, m - 1 - m // 2)
    return sorted(reached)


def width_recursive(n: int, h: int) -> int:
    """Width of universal_tree(n, h) by its defining recursion.

    Bases: 0 for n = 0, 1 for h = 0 (and n >= 1).  Otherwise the sum of
    the widths of the three grafted parts: a height-reduced middle and
    the two halves n//2 and n-1-n//2 at full height.  Evaluated bottom-up
    over the sizes that halving reaches from n and the heights up to h,
    so a large n or h needs no Python recursion.
    """
    if n < 0 or h < 0:
        raise ValueError("n and h must be nonnegative")
    # rows[m][t] == width_recursive(m, t) for t <= h
    rows = {0: [0] * (h + 1)}
    for m in halving_sizes(n):  # halves are smaller, so their rows are ready
        left, right = rows[m // 2], rows[m - 1 - m // 2]
        rows[m] = list(accumulate(map(add, left[1:], right[1:]), initial=1))
    return rows[n][h]


def _column(h: int, top: int) -> tuple[list[int], list[int]]:
    """The closed form's column for height h >= 1, for floor(lg n) <= top.

    Returns (comb, sums): comb[i] = C(h-1+i, h-1) for i <= top, and
    sums[i] = the sum of 2^i' * comb[i'] over i' < i, for i <= top + 1.
    """
    comb = [math.comb(h - 1 + i, i) for i in range(top + 1)]
    return comb, list(accumulate((c << i for i, c in enumerate(comb)), initial=0))


def width_closed_form(n: int, h: int) -> int:
    """Closed form for width_recursive(n, h), n >= 1 and h >= 1.

    sum over i < floor(lg n) of 2^i * C(h-1+i, h-1), plus
    (n - 2^floor(lg n) + 1) * C(h-1+floor(lg n), h-1).
    """
    if n < 1 or h < 1:
        raise ValueError("closed form requires n >= 1 and h >= 1")
    lg = floor_log2(n)
    comb, sums = _column(h, lg)
    return sums[lg] + (n - (1 << lg) + 1) * comb[lg]


def bound_binomial(n: int, h: int) -> int:
    """Exact upper bound n * C(h-1+floor(lg n), floor(lg n))."""
    if n < 1 or h < 1:
        raise ValueError("bound requires n >= 1 and h >= 1")
    lg = floor_log2(n)
    return n * math.comb(h - 1 + lg, lg)


def bound_old(n: int, h: int) -> int:
    """Previous bound 2^ceil(lg n) * C(h-1+ceil(lg n), ceil(lg n))."""
    if n < 1 or h < 1:
        raise ValueError("bound requires n >= 1 and h >= 1")
    lg = ceil_log2(n)
    return (1 << lg) * math.comb(h - 1 + lg, lg)


def bound_exponential(n: int, h: int) -> float:
    """Float bound n ** (1 + log2 e + log2(1 + (h-1)/log2 n)), n >= 2.

    Dominates the exact width; returns inf if the float range overflows.
    """
    if n < 2:
        raise ValueError("exponential bound requires n >= 2")
    if h < 1:
        raise ValueError("bound requires h >= 1")
    return _exponential(n, math.log2(n), h)


def _exponential(x: int | float, lg: float, h: int) -> float:
    # the bound for lg = log2(x); an int x too large for a float gives inf
    try:
        return x ** (_EXPONENT_BASE + math.log2(1.0 + (h - 1) / lg))
    except OverflowError:
        return math.inf


class WidthRow(NamedTuple):
    n: int
    h: int
    width: int
    bound_binomial: int
    bound_old: int
    bound_exponential: float
    ratio_old_new: float
    ratio_half: float


CSV_HEADER = "n,h,f,bound_binomial,bound_old,bound_exponential,ratio_old_new,ratio_half"


class WidthTable:
    """Rows keyed by (n, h); iteration preserves insertion order."""

    def __init__(self):
        self.rows: dict[tuple[int, int], WidthRow] = {}

    def __iter__(self):
        return iter(self.rows.values())

    def __getitem__(self, key: tuple[int, int]) -> WidthRow:
        return self.rows[key]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self:
            lines.append(
                f"{r.n},{r.h},{r.width},{r.bound_binomial},{r.bound_old},"
                f"{r.bound_exponential:.6g},{r.ratio_old_new:.6g},{r.ratio_half:.6g}"
            )
        return "\n".join(lines) + "\n"


def width_report(n_values: Sequence[int], h_values: Sequence[int]) -> WidthTable:
    """Tabulate exact widths, the three bounds, and comparison ratios.

    ratio_old_new is bound_old divided by the exact width; ratio_half is
    the exact width divided by the width at n//2 (inf when n = 1, whose
    half has width 0).  The exponential bound column is nan for n = 1.
    Each h gets one closed-form column (`_column`) up to the largest
    ceil(lg n), so every width, every half's and both binomial bounds are
    read from it in O(1), and each n's logarithms are taken once.
    """
    if not n_values or not h_values:
        raise ValueError("both grids must be nonempty")
    if min(n_values) < 1 or min(h_values) < 1:
        raise ValueError("closed form requires n >= 1 and h >= 1")
    top = ceil_log2(max(n_values))
    columns = [(h, *_column(h, top)) for h in h_values]
    table = WidthTable()
    for n in n_values:
        lg, clg = floor_log2(n), ceil_log2(n)
        # n // 2 has floor log lg - 1; its width is 0 when n = 1
        lead, half_lead = n - (1 << lg) + 1, n // 2 - (1 << lg >> 1) + 1
        # below 2^1023 n fits a float; larger ints are converted in the guard
        x, log_n = float(n) if n.bit_length() < 1024 else n, math.log2(n)
        for h, comb, sums in columns:
            w = sums[lg] + lead * comb[lg]
            bb = n * comb[lg]
            bo = (1 << clg) * comb[clg]
            if not w <= bb <= bo:
                raise AssertionError(f"bound ordering violated at ({n}, {h})")
            be = _exponential(x, log_n, h) if n >= 2 else math.nan
            half = sums[lg - 1] + half_lead * comb[lg - 1] if lg else 0
            row = (n, h, w, bb, bo, be, bo / w, w / half if half else math.inf)
            table.rows[n, h] = tuple.__new__(WidthRow, row)  # skips NamedTuple's Python __new__
    return table
