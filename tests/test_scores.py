"""Score thresholds and residual fill counts against brute enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from kronrig.matrix import all_digits
from kronrig.scores import (
    CountBudgetError,
    WeightScheme,
    delta_grid,
    mean_score,
    neighborhood_counts,
    score_distribution,
    score_of_tuple,
    threshold_counts,
    threshold_masks,
)

UNIFORM = WeightScheme.uniform()


def enumerate_tuples(dims):
    return list(itertools.product(*[range(1, d + 1) for d in dims]))


def brute_counts(dims, weights, offset):
    """Recompute everything by walking the full product space."""
    m = mean_score(dims, weights)
    tuples = enumerate_tuples(dims)
    scores = {t: score_of_tuple(t, dims, weights) for t in tuples}
    high = {t for t in tuples if scores[t] >= m + offset}
    low = {t for t in tuples if scores[t] <= m - offset}

    def compatible(x, y):
        return all(yi in (xi, di) for xi, yi, di in zip(x, y, dims))

    row_fill = col_fill = 0
    for x in tuples:
        if x in low:
            continue
        row_fill = max(row_fill,
                       sum(1 for y in tuples if y not in high and compatible(x, y)))
    for y in tuples:
        if y in high:
            continue
        col_fill = max(col_fill,
                       sum(1 for x in tuples if x not in low and compatible(x, y)))
    return len(high), len(low), col_fill, row_fill


def test_mean_score_frozen():
    assert mean_score((2, 2), UNIFORM) == 1
    assert mean_score((2, 3, 4), UNIFORM) == Fraction(13, 12)
    w = WeightScheme({2: Fraction(3), 3: Fraction(1, 2)})
    assert mean_score((2, 3), w) == Fraction(3, 2) + Fraction(1, 6)


def test_score_distribution_sums_to_product_size():
    for dims in [(2, 2, 2), (2, 3, 4), (5, 5)]:
        dist = score_distribution(dims, UNIFORM)
        assert sum(dist.values()) == math.prod(dims)
    # binomial shape for equal orders and unit weights
    dist = score_distribution((3, 3, 3, 3), UNIFORM)
    for s in range(5):
        assert dist[Fraction(s)] == math.comb(4, s) * 2 ** (4 - s)


def test_threshold_counts_worked_example():
    # two binary coordinates, offset 1: only the all-top column tuple is
    # high, only the no-top row tuple is low, one residual entry per line
    hi, lo = threshold_counts((2, 2), UNIFORM, 1)
    assert (hi, lo) == (1, 1)
    assert neighborhood_counts((2, 2), UNIFORM, 1) == (1, 1)


def test_single_coordinate_split_removes_everything():
    # with one binary coordinate and offset 0.4 both tuples are peeled
    # off (one as a row, one as a column), so the residual is empty
    hi, lo = threshold_counts((2,), UNIFORM, Fraction(2, 5))
    assert (hi, lo) == (1, 1)
    assert neighborhood_counts((2,), UNIFORM, Fraction(2, 5)) == (0, 0)


def test_counts_against_enumeration_uniform():
    rng = np.random.default_rng(2)
    for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4), (4, 2, 3), (5,)]:
        m = mean_score(dims, UNIFORM)
        offsets = {Fraction(0), Fraction(1, 3), Fraction(1), m,
                   Fraction(rng.integers(0, 4)) / 3}
        for off in offsets:
            want = brute_counts(dims, UNIFORM, off)
            hi, lo = threshold_counts(dims, UNIFORM, off)
            col_fill, row_fill = neighborhood_counts(dims, UNIFORM, off)
            assert (hi, lo, col_fill, row_fill) == want, (dims, off)


def test_counts_against_enumeration_weighted():
    w = WeightScheme({2: Fraction(2), 3: Fraction(1, 2), 4: Fraction(5, 3)})
    for dims in [(2, 3), (2, 3, 4), (3, 3, 2), (4, 4)]:
        for off in [Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(7, 3)]:
            want = brute_counts(dims, w, off)
            hi, lo = threshold_counts(dims, w, off)
            col_fill, row_fill = neighborhood_counts(dims, w, off)
            assert (hi, lo, col_fill, row_fill) == want, (dims, off)


def test_masks_agree_with_tuple_scores():
    for dims in [(2, 3), (3, 2, 2), (4, 3)]:
        for off in [Fraction(0), Fraction(1, 2), Fraction(1)]:
            high, low = threshold_masks(dims, UNIFORM, off)
            m = mean_score(dims, UNIFORM)
            # itertools.product runs in row-major order: factor 1 most significant
            for idx, t in enumerate(enumerate_tuples(dims)):
                s = score_of_tuple(t, dims, UNIFORM)
                assert high[idx] == (s >= m + off)
                assert low[idx] == (s <= m - off)
            assert (int(high.sum()), int(low.sum())) == \
                threshold_counts(dims, UNIFORM, off)


def test_masks_row_order_matches_digit_table():
    dims = (2, 3)
    high, low = threshold_masks(dims, UNIFORM, Fraction(1, 2))
    digits = all_digits(dims)
    assert len(high) == len(digits) == 6


def test_weight_scheme_validation():
    with pytest.raises(ValueError):
        WeightScheme({2: 0})
    with pytest.raises(ValueError):
        WeightScheme({3: Fraction(-1, 2)})
    assert WeightScheme({2: 1}) == WeightScheme({2: Fraction(1)})
    assert WeightScheme.uniform().weight(17) == 1


def test_offset_must_be_nonnegative():
    with pytest.raises(ValueError):
        threshold_counts((2, 2), UNIFORM, Fraction(-1, 2))
    with pytest.raises(ValueError):
        neighborhood_counts((2, 2), UNIFORM, -1)


def test_combo_budget_refusal():
    # 30 distinct weights over 30 coordinates: 2**30 patterns
    dims = tuple(range(2, 32))
    w = WeightScheme({d: Fraction(1, d) for d in dims})
    with pytest.raises(CountBudgetError):
        neighborhood_counts(dims, w, Fraction(1, 100))


def test_delta_grid_shape():
    g = delta_grid(0.5, 4)
    assert len(g) == 64
    assert g[0] == pytest.approx(0.5 / 400)
    assert all(0 < x < 0.25 for x in g)
    assert all(a < b for a, b in zip(g, g[1:]))
    with pytest.raises(ValueError):
        delta_grid(0.0, 4)
