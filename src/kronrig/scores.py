"""Coordinate scores over product index sets, threshold sets, and fill counts.

An index of the product space is a tuple x with x_i in [1, d_i].  Its
score is the weighted count of coordinates sitting at their maximum:

    s(x) = sum_i w(d_i) * [x_i == d_i]

High-score column tuples and low-score row tuples get peeled off into
the low-rank part of a split; everything here computes the relevant
cardinalities exactly, without enumerating the product space unless a
mask over concrete indices is requested.  The counts run on integer
scores: the weights are scaled by the lcm of their denominators, and a
rational threshold becomes the integer bound it implies.
"""

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

from .matrix import all_digits

# Budget for weight-class subset-pattern enumeration; past this the
# exact fill computation refuses rather than grinding.
COMBO_BUDGET = 200_000


class CountBudgetError(ValueError):
    """Exact counting would exceed the enumeration budget."""


class WeightScheme:
    """Positive rational weight attached to each factor order."""

    def __init__(self, mapping=None):
        self._map = {}
        for d, v in (mapping or {}).items():
            w = Fraction(v)
            if w <= 0:
                raise ValueError(f"weight for order {d} must be positive, got {w}")
            self._map[int(d)] = w

    @classmethod
    def uniform(cls):
        return cls()

    def weight(self, d):
        return self._map.get(int(d), Fraction(1))

    def items(self):
        return dict(self._map)

    def __eq__(self, other):
        return isinstance(other, WeightScheme) and self._map == other._map

    def __repr__(self):
        if not self._map:
            return "WeightScheme(uniform)"
        return f"WeightScheme({self._map})"


def score_of_tuple(x, dims, weights=None):
    weights = weights or WeightScheme.uniform()
    s = Fraction(0)
    for xi, di in zip(x, dims):
        if not 1 <= xi <= di:
            raise ValueError(f"digit {xi} out of [1, {di}]")
        if xi == di:
            s += weights.weight(di)
    return s


def mean_score(dims, weights=None):
    """Expected score of a uniform random tuple."""
    weights = weights or WeightScheme.uniform()
    return sum((weights.weight(d) / d for d in dims), Fraction(0))


def _int_classes(dims, weights):
    """Coordinates grouped by (weight, order), sorted for determinism, as
    (scaled weight, order, count), and the scale: the lcm of the weights'
    denominators, which makes every scaled weight an integer."""
    classes = sorted((weights.weight(d), d, j)
                     for d, j in Counter(int(d) for d in dims).items())
    scale = math.lcm(*(w.denominator for w, _, _ in classes))
    return [(w.numerator * (scale // w.denominator), d, j)
            for w, d, j in classes], scale


def _scaled_bounds(classes, scale, offset):
    """floor((mean - offset) * scale) and ceil((mean + offset) * scale).

    An integer score S is <= x iff S <= floor(x), and >= x iff S >= ceil(x).
    """
    den = math.lcm(*(d for _, d, _ in classes))
    mean = sum(j * w * (den // d) for w, d, j in classes)  # mean*scale*den
    b = offset.denominator
    shift = offset.numerator * scale * den
    lo = (mean * b - shift) // (den * b)
    hi = -((-mean * b - shift) // (den * b))
    return lo, hi


def _int_distribution(classes):
    """Map scaled score -> number of tuples attaining it.

    A class of j coordinates of order d and scaled weight w puts u of
    them at the top in C(j, u) * (d - 1)**(j - u) ways, adding u * w.
    """
    dist = {0: 1}
    for w, d, j in classes:
        terms = [(u * w, math.comb(j, u) * (d - 1) ** (j - u))
                 for u in range(j + 1)]
        new = defaultdict(int)
        for s, c in dist.items():
            for t, m in terms:
                new[s + t] += c * m
        dist = new
    return dist


def score_distribution(dims, weights=None):
    """Exact map score -> number of tuples attaining it, by ascending score."""
    classes, scale = _int_classes(dims, weights or WeightScheme.uniform())
    return {Fraction(s, scale): c
            for s, c in sorted(_int_distribution(classes).items())}


def threshold_counts(dims, weights, offset):
    """(|high columns|, |low rows|) for the symmetric offset around the mean.

    High set: score >= mean + offset (inclusive).  Low set: score <=
    mean - offset (inclusive).  Their complements are strict.
    """
    offset = Fraction(offset)
    if offset < 0:
        raise ValueError("offset must be nonnegative")
    classes, scale = _int_classes(dims, weights or WeightScheme.uniform())
    lo, hi = _scaled_bounds(classes, scale, offset)
    dist = _int_distribution(classes)
    return (sum(c for s, c in dist.items() if s >= hi),
            sum(c for s, c in dist.items() if s <= lo))


def _subset_ways(classes, dim_mult):
    """ways(v, a, top): the list C(a, u) * (d_v - 1)**u for u = 0..top (the
    power only when dim_mult) -- the ways to pick u of a available
    coordinates of class v when each chosen one additionally ranges over
    the d_v - 1 non-top values.  Each list is kept, and extended when a
    larger top asks for it, for as long as ways lives."""
    mults = [d - 1 if dim_mult else 1 for _, d, _ in classes]
    rows = {}

    def ways(v, a, top):
        row = rows.setdefault((v, a), [1])
        while len(row) <= top:
            u = len(row) - 1
            row.append(row[-1] * (a - u) * mults[v] // (u + 1))
        return row
    return ways


def _count_weighted_subsets(classes, avail, bound, ways):
    """Subsets U of the available coordinates with total scaled weight < bound.

    Picking u from class v contributes ways(v, avail_v, .)[u] choices
    (see _subset_ways).
    """
    acc = {0: 1}
    for v, ((w, _, _), a) in enumerate(zip(classes, avail)):
        if a == 0:
            continue
        # every weight in acc is >= 0, so no more than top coordinates fit
        top = min(a, (bound - 1) // w)
        mult = ways(v, a, top)
        new = defaultdict(int)
        for s, c in acc.items():
            for u in range(min(top, (bound - 1 - s) // w) + 1):
                new[s + u * w] += c * mult[u]
        acc = new
        if not acc:
            break
    # every weight left in acc is below the bound, unless no class was used
    return sum(acc.values()) if bound > 0 else 0


def neighborhood_counts(dims, weights, offset):
    """Exact residual fill (max_col_fill, max_row_fill) of a split.

    After removing rows in the low set and columns in the high set from
    the compatibility pattern (y_i in {x_i, d_i} for all i), this is the
    largest number of surviving entries in any column resp. row.  The
    maxima range over surviving columns/rows only; if none survive the
    count is 0.
    """
    offset = Fraction(offset)
    if offset < 0:
        raise ValueError("offset must be nonnegative")
    classes, scale = _int_classes(dims, weights)
    combos = 1
    for _, _, j in classes:
        combos *= j + 1
    if combos > COMBO_BUDGET:
        raise CountBudgetError(
            f"{combos} top-set patterns across {len(classes)} weight classes "
            f"exceeds the budget of {COMBO_BUDGET}")
    # rows survive iff score > lo, columns iff score < hi
    lo, hi = _scaled_bounds(classes, scale, offset)
    row_ways, col_ways = _subset_ways(classes, False), _subset_ways(classes, True)
    max_row = 0
    max_col = 0
    for t_vec in itertools.product(*[range(j + 1) for _, _, j in classes]):
        s_top = sum(t * w for t, (w, _, _) in zip(t_vec, classes))
        if s_top > lo:
            # surviving row: entries sit at supersets of its top set
            avail = [j - t for t, (_, _, j) in zip(t_vec, classes)]
            cnt = _count_weighted_subsets(classes, avail, hi - s_top, row_ways)
            if cnt > max_row:
                max_row = cnt
        if s_top < hi:
            # surviving column: entries drop subsets of its top set
            cnt = _count_weighted_subsets(classes, t_vec, s_top - lo, col_ways)
            if cnt > max_col:
                max_col = cnt
    return max_col, max_row


def threshold_masks(dims, weights, offset):
    """Boolean masks (high_cols, low_rows) over all flat indices, exact.

    Materializes the digit table, so only valid for products small
    enough to index explicitly.
    """
    offset = Fraction(offset)
    classes, scale = _int_classes(dims, weights or WeightScheme.uniform())
    by_order = {d: w for w, d, _ in classes}
    W = np.array([by_order[int(d)] for d in dims], dtype=np.int64)
    digits = all_digits(dims)
    top = digits == np.asarray(dims, dtype=np.int64)
    s_int = top @ W
    lo, hi = _scaled_bounds(classes, scale, offset)
    # clamped to just outside the scores, the bounds fit in int64
    max_s = int(W.sum())
    return s_int >= min(hi, max_s + 1), s_int <= max(lo, -1)


def delta_grid(eps, d_max, points=64):
    """Geometric grid of margin rates in [eps/(100*d_max), 1/d_max)."""
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    lo = eps / (100.0 * d_max)
    hi = 1.0 / d_max
    ratio = hi / lo
    return [lo * ratio ** (i / points) for i in range(points)]

