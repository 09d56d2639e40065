"""Width formulas, bounds, and the comparison report."""

import math
import random
from fractions import Fraction

import pytest

from pgtrees.widths import (
    CSV_HEADER,
    WidthRow,
    bound_binomial,
    bound_exponential,
    bound_old,
    ceil_log2,
    floor_log2,
    width_closed_form,
    width_recursive,
    width_report,
)


def naive_width(n, h, memo=None):
    # direct translation of the defining recursion, kept independent of
    # the library implementation
    if memo is None:
        memo = {}
    if n == 0:
        return 0
    if h == 0:
        return 1
    if (n, h) not in memo:
        memo[(n, h)] = (
            naive_width(n, h - 1, memo)
            + naive_width(n // 2, h, memo)
            + naive_width(n - 1 - n // 2, h, memo)
        )
    return memo[(n, h)]


def test_recursion_base_cases():
    assert width_recursive(0, 7) == 0
    assert width_recursive(5, 0) == 1


def test_recursion_hand_values():
    assert width_recursive(3, 2) == 5
    assert width_recursive(4, 2) == 8
    assert width_recursive(5, 2) == 11
    assert width_recursive(5, 3) == 19


def test_recursion_matches_naive():
    memo = {}
    for n in range(30):
        for h in range(6):
            assert width_recursive(n, h) == naive_width(n, h, memo)


def test_recursion_deep_height():
    # a height far past the recursion limit
    assert width_recursive(3, 500) == width_closed_form(3, 500)
    assert width_recursive(500, 500) == width_closed_form(500, 500)
    assert width_recursive(10**6, 40) == width_closed_form(10**6, 40)


def test_recursion_domain():
    with pytest.raises(ValueError):
        width_recursive(-1, 2)
    with pytest.raises(ValueError):
        width_recursive(2, -1)


def test_closed_form_hand_values():
    # 1 + 2*2 and 1 + 4 + 1*3
    assert width_closed_form(3, 2) == 5
    assert width_closed_form(4, 2) == 8


def test_closed_form_matches_recursion_grid():
    for n in range(1, 129):
        for h in range(1, 9):
            assert width_closed_form(n, h) == width_recursive(n, h)


def test_closed_form_domain():
    with pytest.raises(ValueError):
        width_closed_form(0, 1)
    with pytest.raises(ValueError):
        width_closed_form(1, 0)


def test_log_helpers():
    assert [floor_log2(n) for n in (1, 2, 3, 4, 5, 8)] == [0, 1, 1, 2, 2, 3]
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8)] == [0, 1, 2, 2, 3, 3]


def test_bound_binomial_values():
    assert bound_binomial(3, 2) == 6
    for h in range(1, 10):
        assert bound_binomial(1, h) == 1 == width_closed_form(1, h)


def test_bound_old_values():
    assert bound_old(5, 9) == 8 * math.comb(11, 3) == 1320
    assert bound_binomial(5, 9) == 5 * math.comb(10, 2) == 225


def test_bound_old_power_of_two_coincides():
    for k in range(5):
        n = 2 ** k
        for h in (1, 3, 7):
            assert bound_old(n, h) == (2 ** ceil_log2(n)) * math.comb(
                h - 1 + floor_log2(n), floor_log2(n)
            )
            # same binomial on both sides when n is a power of two
            assert bound_old(n, h) * n == bound_binomial(n, h) * (2 ** ceil_log2(n))


def test_binomial_quotient_for_non_powers():
    # quotient of the two binomial coefficients, exactly
    for n in (3, 5, 100, 200):
        lg_c, lg_f = ceil_log2(n), floor_log2(n)
        assert lg_c == lg_f + 1
        for h in (2, 5, 17):
            q = Fraction(math.comb(h - 1 + lg_c, lg_c), math.comb(h - 1 + lg_f, lg_f))
            assert q == Fraction(h - 1 + lg_c, lg_c)


def test_bounds_dominate_width():
    for n in range(1, 65):
        for h in range(1, 9):
            w = width_closed_form(n, h)
            assert w <= bound_binomial(n, h) <= bound_old(n, h)
            if n >= 2:
                assert w <= bound_exponential(n, h)


def test_bound_exponential_values():
    assert math.isclose(bound_exponential(2, 1), 2 * math.e, rel_tol=1e-12)
    assert bound_exponential(2, 1) >= width_closed_form(2, 1) == 2
    for n in (2, 5, 37, 256):
        assert bound_exponential(n, 1) >= bound_binomial(n, 1) == n
    with pytest.raises(ValueError):
        bound_exponential(1, 3)


def test_bound_exponential_overflows_to_inf():
    # n beyond the float range gives inf, in the bound and in the report; so
    # do both sides of 2^1024, whether or not n itself converts to a float
    assert bound_exponential(2**1100, 2) == math.inf
    assert width_report([2**1100], [2])[2**1100, 2].bound_exponential == math.inf
    for n in (2**1023, 2**1024 - 1, 2**1024):
        for h in (1, 2):
            assert width_report([n], [h])[n, h].bound_exponential == bound_exponential(n, h)


def test_width_monotone_in_each_argument():
    for n in range(1, 40):
        for h in range(1, 7):
            assert width_recursive(n, h) >= width_recursive(n - 1, h)
            assert width_recursive(n, h) >= width_recursive(n, h - 1)


def test_report_row_3_2():
    table = width_report([3], [2])
    row = table[(3, 2)]
    assert row.width == 5
    assert row.bound_binomial == 6
    assert row.bound_old == 12
    assert row.ratio_old_new == pytest.approx(2.4)


def test_report_csv_format():
    table = width_report([3, 5], [2, 9])
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "n,h,f,bound_binomial,bound_old,bound_exponential,ratio_old_new,ratio_half"
    assert len(lines) == 5
    by_key = {}
    for line in lines[1:]:
        parts = line.split(",")
        by_key[(int(parts[0]), int(parts[1]))] = parts
    assert by_key[(3, 2)][2] == "5"
    assert by_key[(5, 9)][3] == "225"
    assert by_key[(5, 9)][4] == "1320"
    # float columns parse back
    for parts in by_key.values():
        float(parts[5]), float(parts[6]), float(parts[7])


def test_report_rejects_empty_grids():
    for n_values, h_values in (([], [2]), ([3], []), ([], [])):
        with pytest.raises(ValueError, match="both grids must be nonempty"):
            width_report(n_values, h_values)


def test_report_handles_n_equal_one():
    row = width_report([1], [3])[(1, 3)]
    assert math.isnan(row.bound_exponential)
    assert row.ratio_half == math.inf


def test_report_ratio_half_monotone_in_h():
    for n in (4, 9, 33):
        ratios = [width_report([n], [h])[(n, h)].ratio_half for h in range(1, 8)]
        assert all(a <= b for a, b in zip(ratios, ratios[1:]))


def test_report_ratio_half_values():
    memo = {}
    for row in width_report(range(1, 65), range(1, 7)):
        if row.n == 1:
            assert row.ratio_half == math.inf
        else:
            half = naive_width(row.n // 2, row.h, memo)
            assert row.ratio_half == naive_width(row.n, row.h, memo) / half


def test_report_widths_equal_both_formulas():
    # the report reads widths from its own table, not from the closed form
    for row in width_report(range(1, 65), range(1, 9)):
        assert row.width == width_closed_form(row.n, row.h) == width_recursive(row.n, row.h)


def test_report_computes_large_rows():
    # reported, not asserted beyond sanity: the half-width gap keeps growing
    row = width_report([1024], [64])[(1024, 64)]
    assert row.width == width_closed_form(1024, 64)
    assert row.ratio_half > 2.0
    assert math.isfinite(row.ratio_half)


def test_report_old_new_ratio_slope():
    # bound_old / bound_binomial is linear in h; its slope is
    # (2^ceil(lg n) / n) / ceil(lg n), the binomial quotient slope scaled
    # by the leading factors
    n = 100
    hs = list(range(32, 257, 32))
    ratios = [bound_old(n, h) / bound_binomial(n, h) for h in hs]
    xbar = sum(hs) / len(hs)
    ybar = sum(ratios) / len(ratios)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(hs, ratios)) / sum(
        (x - xbar) ** 2 for x in hs
    )
    expected = (2 ** ceil_log2(n) / n) / ceil_log2(n)
    assert slope == pytest.approx(expected, rel=1e-9)


def test_report_rows_equal_rows_from_the_recursion_and_bounds():
    # the report reads its columns from the closed form; every row must
    # still equal one built from the defining recursion and the bound
    # functions, floats and nan included, and be a `WidthRow`
    rng = random.Random(20)
    # n = 1, the powers of two up to 2000 and their neighbours, and a sample
    near_powers = {(1 << k) + d for k in range(11) for d in (-1, 0, 1)} - {0}
    n_values = sorted(near_powers | {2000} | set(rng.sample(range(1, 2001), 16)))
    h_values = list(range(1, 65))
    rows = list(width_report(n_values, h_values))
    assert [(r.n, r.h) for r in rows] == [(n, h) for n in n_values for h in h_values]
    for r in rows:
        n, h = r.n, r.h
        w, half = width_recursive(n, h), width_recursive(n // 2, h)
        bo = bound_old(n, h)
        want = (
            n, h, w, bound_binomial(n, h), bo,
            bound_exponential(n, h) if n >= 2 else math.nan,
            bo / w, w / half if half else math.inf,
        )
        assert type(r) is WidthRow
        assert len(r) == len(want)
        assert all(a == b or (a != a and b != b) for a, b in zip(r, want)), (r, want)
