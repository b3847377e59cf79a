"""The integer claim arithmetic against the Fraction arithmetic it replaced.

`threshold_counts` and `neighborhood_counts` once ran on Fraction scores.
The reference copies below are those versions, without their input
checks, so the integer versions are checked against them at every offset
candidate the search scores, over uniform and non-integer weights.
"""

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from kronrig import cli, scores
from kronrig.pipeline import _offset_candidates
from kronrig.scores import (
    WeightScheme,
    mean_score,
    neighborhood_counts,
    score_distribution,
    threshold_counts,
)

GOLDEN = Path(__file__).parent / "data" / "golden"


# ----------------------------------------------------------------------
# reference: the Fraction versions


def ref_score_distribution(dims, weights=None):
    weights = weights or WeightScheme.uniform()
    dist = {Fraction(0): 1}
    for d in dims:
        w = weights.weight(d)
        new = defaultdict(int)
        for s, c in dist.items():
            new[s] += c * (d - 1)
            new[s + w] += c
        dist = dict(new)
    return dist


def ref_threshold_counts(dims, weights, offset):
    offset = Fraction(offset)
    m = mean_score(dims, weights)
    dist = ref_score_distribution(dims, weights)
    hi = sum(c for s, c in dist.items() if s >= m + offset)
    lo = sum(c for s, c in dist.items() if s <= m - offset)
    return hi, lo


def ref_weight_classes(dims, weights):
    cnt = Counter((weights.weight(d), int(d)) for d in dims)
    return [(w, d, j) for (w, d), j in sorted(cnt.items())]


def ref_count_weighted_subsets(classes, avail, bound, dim_mult):
    acc = {Fraction(0): 1}
    for (w, d, _), a in zip(classes, avail):
        if a == 0:
            continue
        mult = [math.comb(a, u) * ((d - 1) ** u if dim_mult else 1)
                for u in range(a + 1)]
        new = defaultdict(int)
        for s, c in acc.items():
            for u in range(a + 1):
                ns = s + u * w
                if ns < bound:
                    new[ns] += c * mult[u]
        acc = dict(new)
        if not acc:
            break
    return sum(c for s, c in acc.items() if s < bound)


def ref_neighborhood_counts(dims, weights, offset):
    offset = Fraction(offset)
    classes = ref_weight_classes(dims, weights)
    m = mean_score(dims, weights)
    lo = m - offset
    hi = m + offset
    max_row = 0
    max_col = 0
    for t_vec in itertools.product(*[range(j + 1) for _, _, j in classes]):
        s_top = sum((t * w for t, (w, _, _) in zip(t_vec, classes)), Fraction(0))
        if s_top > lo:
            avail = [j - t for t, (_, _, j) in zip(t_vec, classes)]
            cnt = ref_count_weighted_subsets(classes, avail, hi - s_top,
                                             dim_mult=False)
            max_row = max(max_row, cnt)
        if s_top < hi:
            cnt = ref_count_weighted_subsets(classes, list(t_vec), s_top - lo,
                                             dim_mult=True)
            max_col = max(max_col, cnt)
    return max_col, max_row


# ----------------------------------------------------------------------
# integer versions agree with the reference at every candidate


UNIFORM = WeightScheme.uniform()
FRACTIONAL = WeightScheme({2: Fraction(1, 2), 3: Fraction(5, 3),
                           4: Fraction(7, 4)})
MIXED = WeightScheme({2: Fraction(7, 4), 3: Fraction(1), 5: Fraction(1, 2)})

DIMS = [
    (2,), (3,), (2, 2), (2, 3), (2, 3, 4), (4, 3, 2, 2),
    (2,) * 12, (3,) * 6 + (2,) * 6, (2, 3, 4) * 4, (5, 3, 2, 2, 3, 5, 2),
]


@pytest.mark.parametrize("weights", [UNIFORM, FRACTIONAL, MIXED],
                         ids=["uniform", "fractional", "mixed"])
@pytest.mark.parametrize("dims", DIMS, ids=lambda d: ",".join(map(str, d)))
def test_counts_match_fraction_reference(dims, weights):
    cands = _offset_candidates(dims, weights, Fraction(1, 2))
    # also zero, past every score, and up to 16 exact score gaps, where
    # an integer bound meets a score exactly
    m = mean_score(dims, weights)
    gaps = sorted({abs(s - m) for s in ref_score_distribution(dims, weights)})
    extra = [Fraction(0), 2 * m + 1] + gaps[::max(1, len(gaps) // 16)]
    for off in cands + extra:
        assert threshold_counts(dims, weights, off) == \
            ref_threshold_counts(dims, weights, off), (dims, off)
        assert neighborhood_counts(dims, weights, off) == \
            ref_neighborhood_counts(dims, weights, off), (dims, off)


@pytest.mark.parametrize("weights", [UNIFORM, FRACTIONAL, MIXED],
                         ids=["uniform", "fractional", "mixed"])
def test_score_distribution_keeps_fraction_keys(weights):
    for dims in DIMS:
        got = score_distribution(dims, weights)
        want = ref_score_distribution(dims, weights)
        assert got == want
        assert list(got) == sorted(want)
        assert all(type(s) is Fraction for s in got)


def test_counts_build_no_fraction_distribution(monkeypatch):
    """The search builds the Fraction-keyed distribution once, for the
    score gaps; the per-candidate counts use the integer one."""
    calls = []
    real = scores.score_distribution

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scores, "score_distribution", counted)
    dims = (2,) * 10
    for off in (Fraction(0), Fraction(1, 40), Fraction(3, 2)):
        threshold_counts(dims, UNIFORM, off)
        neighborhood_counts(dims, UNIFORM, off)
    assert calls == []


def test_predict_k128_golden(capsys):
    dims = ",".join(["2"] * 128)
    assert cli.main(["predict", "--dims", dims, "--epsilon", "0.5"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "predict_k128.out").read_text()
