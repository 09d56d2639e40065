"""Exact width formulas for the compact universal-tree family, with bounds.

All counting is done in exact integer arithmetic (Python ints); floats
appear only in the exponential bound and the ratio columns of the report.
Every function here is pure and keeps no state between calls.
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


def _width_rows(sizes: Sequence[int], h: int) -> dict[int, list[int]]:
    """rows[m][t] == width_recursive(m, t) for t <= h, for m = 0, every
    positive size given and every size that halving reaches from one.

    A row is summed from its two halves' rows, so the rows are filled
    bottom-up, smallest size first, without recursion.
    """
    reached, stack = set(), list(sizes)
    while stack:
        m = stack.pop()
        if m > 0 and m not in reached:
            reached.add(m)
            stack += (m // 2, m - 1 - m // 2)
    rows = {0: [0] * (h + 1)}
    for m in sorted(reached):  # halves are smaller, so their rows are ready
        left, right = rows[m // 2], rows[m - 1 - m // 2]
        rows[m] = list(accumulate(map(add, left[1:], right[1:]), initial=1))
    return rows


def width_recursive(n: int, h: int) -> int:
    """Width of universal_tree(n, h) by its defining recursion.

    Bases: 0 for n = 0, 1 for h = 0 (and n >= 1).  Otherwise the sum of
    the widths of the three grafted parts: a height-reduced middle and
    the two halves n//2 and n-1-n//2 at full height.  Evaluated bottom-up
    over the sizes and heights, so a large n or h needs no Python recursion.
    """
    if n < 0 or h < 0:
        raise ValueError("n and h must be nonnegative")
    return _width_rows([n], h)[n][h]


def width_closed_form(n: int, h: int) -> int:
    """Closed form for width_recursive(n, h), n >= 1 and h >= 1.

    sum over i < floor(lg n) of 2^i * C(h-1+i, h-1), plus
    (n - 2^floor(lg n) + 1) * C(h-1+floor(lg n), h-1).
    """
    if n < 1 or h < 1:
        raise ValueError("closed form requires n >= 1 and h >= 1")
    lg = floor_log2(n)
    total = sum((1 << i) * math.comb(h - 1 + i, h - 1) for i in range(lg))
    return total + (n - (1 << lg) + 1) * math.comb(h - 1 + lg, h - 1)


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
    exponent = _EXPONENT_BASE + math.log2(1.0 + (h - 1) / math.log2(n))
    try:
        return float(n) ** exponent
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

    def add(self, row: WidthRow) -> None:
        self.rows[(row.n, row.h)] = row

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
    Every width, and every half's, is read from one bottom-up table of
    `width_recursive` over the grid, which `width_closed_form` equals.
    """
    if not n_values or not h_values:
        raise ValueError("both grids must be nonempty")
    if min(n_values) < 1 or min(h_values) < 1:
        raise ValueError("closed form requires n >= 1 and h >= 1")
    widths = _width_rows(n_values, max(h_values))  # holds every n // 2 too
    table = WidthTable()
    for n in n_values:
        row, half_row = widths[n], widths[n // 2]
        for h in h_values:
            w = row[h]
            bb = bound_binomial(n, h)
            bo = bound_old(n, h)
            if not w <= bb <= bo:
                raise AssertionError(f"bound ordering violated at ({n}, {h})")
            be = bound_exponential(n, h) if n >= 2 else math.nan
            half = half_row[h]
            table.add(WidthRow(n, h, w, bb, bo, be, bo / w, w / half if half else math.inf))
    return table
