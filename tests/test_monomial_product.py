"""Products with a monomial operand, and transposes by radix sort.

A product with a monomial matrix (exactly one nonzero in every row and
every column) is a row gather and scale on the left, or a column relabel
and scale on the right.  Each such product is compared with
`_expand_matmul`, the expansion path, which forms every product
a[i, k] * b[k, j] and sums them; near-misses must take the general path.
Transposes and column permutations sort by a uint16 radix sort up to
2**16 columns and by the int64 sort past it.
"""

from fractions import Fraction

import numpy as np
import pytest

from kronrig import matrix
from kronrig.field import QQ, PrimeField
from kronrig.matrix import ExactMatrix

FIELDS = [PrimeField(2), PrimeField(5), PrimeField(257), PrimeField(2147483659), QQ]


def _value(field, rng):
    """A nonzero field value; over Q with a denominator and either sign."""
    if field is QQ:
        return Fraction(int(rng.choice([-1, 1])) * int(rng.integers(1, 40)),
                        int(rng.integers(1, 7)))
    return int(rng.integers(1, field.p))


def _monomial(field, n, rng):
    sigma = rng.permutation(n)
    return ExactMatrix.from_coo(field, n, n, np.arange(n), sigma,
                                [_value(field, rng) for _ in range(n)])


def _partner(field, rows, cols, rng, dense):
    """A random sparse matrix (a third of its cells set), stored dense or
    sparse."""
    mask = rng.random((rows, cols)) < 1 / 3
    ri, ci = np.nonzero(mask)
    m = ExactMatrix.from_coo(field, rows, cols, ri, ci,
                             [_value(field, rng) for _ in range(len(ri))])
    if dense:
        m = ExactMatrix(field, rows, cols, dense=m.num_dense(), den=m.den)
    assert m.is_dense == dense
    return m


@pytest.fixture
def paths(monkeypatch):
    """The monomial paths taken, by name; every product is large enough
    to pass the small-product kernel."""
    taken = []
    for name in ("_gather_rows", "_relabel_cols"):
        real = getattr(matrix, name)

        def spy(*args, real=real, name=name):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(matrix, name, spy)
    monkeypatch.setattr(matrix, "_SMALL_CELLS", 0)
    return taken


def _reference(a, b):
    return matrix._expand_matmul(a, b, a.den * b.den)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.header)
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_monomial_products_equal_the_expansion(field, dense, paths):
    rng = np.random.default_rng(field.p if field is not QQ else 0)
    for n, other in ((7, 5), (33, 40)):
        mono = _monomial(field, n, rng)
        b = _partner(field, n, other, rng, dense)
        a = _partner(field, other, n, rng, dense)
        paths.clear()
        left, right = mono @ b, a @ mono
        assert paths == ["_gather_rows", "_relabel_cols"]
        assert left == _reference(mono, b) and right == _reference(a, mono)
        assert left.is_dense == right.is_dense == dense
        assert left.to_dense().tolist() == _reference(mono, b).to_dense().tolist()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.header)
def test_permutation_products_keep_the_partner_values(field, paths):
    """All scales 1 (over Q numerators 1 over a denominator): the gather
    and the relabel leave the values unscaled."""
    rng = np.random.default_rng(3)
    n = 12
    sigma = rng.permutation(n)
    ones = [Fraction(1, 3) if field is QQ else 1] * n
    perm = ExactMatrix.from_coo(field, n, n, np.arange(n), sigma, ones)
    b = _partner(field, n, 9, rng, False)
    assert perm @ b == _reference(perm, b)
    assert b.T @ perm == _reference(b.T, perm)
    assert paths == ["_gather_rows", "_relabel_cols"]


def _near_misses(field, rng):
    n = 6
    vals = [_value(field, rng) for _ in range(n)]
    repeated = ExactMatrix.from_coo(field, n, n, np.arange(n),
                                    [0, 1, 2, 3, 4, 4], vals)
    rows = [0, 1, 2, 3, 5, 5]
    empty_row = ExactMatrix.from_coo(field, n, n, rows, [0, 1, 2, 3, 4, 5], vals)
    wide = ExactMatrix.from_coo(field, n, n + 1, np.arange(n), np.arange(n), vals)
    return [repeated, empty_row, wide]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.header)
def test_near_misses_take_the_general_path(field, paths):
    """A repeated column, an empty row and a non-square operand are not
    monomial: each product runs on the general path and agrees with the
    expansion."""
    rng = np.random.default_rng(11)
    for m in _near_misses(field, rng):
        b = _partner(field, m.cols, 4, rng, False)
        a = _partner(field, 4, m.rows, rng, True)
        assert m @ b == _reference(m, b)
        assert a @ m == _reference(a, m)
    assert paths == []


def test_one_by_one_products_keep_the_general_path(paths):
    """A 1 x 1 product is one multiply on every path; the dtype sites of
    tests/test_exact_dtype.py run on 1 x 1 operands."""
    one = ExactMatrix.from_coo(PrimeField(5), 1, 1, [0], [0], [3])
    assert (one @ one)[0, 0] == 4
    assert paths == []


# ----------------------------------------------------------------------
# transposes and column permutations


@pytest.fixture
def sort_dtypes(monkeypatch):
    """The dtype of every array numpy's argsort is handed."""
    seen = []
    real = np.argsort

    def spy(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np, "argsort", spy)
    return seen


def _wide(field, cols, rng):
    """3 x cols with entries in the first and last columns of each row."""
    ri = np.repeat(np.arange(3), 20)
    ci = np.concatenate([np.sort(rng.choice(cols, 20, replace=False)) for _ in range(3)])
    ci[::20], ci[19::20] = 0, cols - 1
    vals = [_value(field, rng) for _ in range(len(ri))]
    return ExactMatrix.from_coo(field, 3, cols, ri, ci, vals), list(zip(ri, ci, vals))


@pytest.mark.parametrize("cols, dtype", [(1 << 16, np.uint16), ((1 << 16) + 1, np.int64)])
@pytest.mark.parametrize("field", [PrimeField(5), QQ], ids=lambda f: f.header)
def test_transposes_sort_by_radix_up_to_two_to_the_sixteen(cols, dtype, field,
                                                            sort_dtypes):
    rng = np.random.default_rng(cols)
    m, trips = _wide(field, cols, rng)
    sort_dtypes.clear()
    t = m.T
    assert sort_dtypes == [np.dtype(dtype)]
    want = ExactMatrix.from_coo(field, cols, 3, [c for _, c, _ in trips],
                                [r for r, _, _ in trips], [v for _, _, v in trips])
    assert t == want and t.T == m

    perm = rng.permutation(cols)
    sort_dtypes.clear()
    moved = m.permute_cols(perm)
    # by new column, then by row: three rows always fit uint16
    assert sort_dtypes == [np.dtype(dtype), np.dtype(np.uint16)]
    inv = np.argsort(perm)
    want = ExactMatrix.from_coo(field, 3, cols, [r for r, _, _ in trips],
                                [inv[c] for _, c, _ in trips], [v for _, _, v in trips])
    assert moved == want


@pytest.mark.parametrize("field", [PrimeField(5), QQ], ids=lambda f: f.header)
def test_a_relabel_that_keeps_each_rows_order_sorts_nothing(field, sort_dtypes):
    """Columns relabelled so that each row's columns keep their order
    (the first half moved past the second): the triplets stay canonical
    as they are, and no sort runs."""
    rng = np.random.default_rng(5)
    _, trips = _wide(field, 300, rng)
    half = [(r, c, v) for r, c, v in trips if c < 150]

    def shifted(by):
        return ExactMatrix.from_coo(field, 3, 300, [r for r, _, _ in half],
                                    [c + by for _, c, _ in half], [v for _, _, v in half])
    swap = np.concatenate([np.arange(150, 300), np.arange(150)])  # its own inverse
    sort_dtypes.clear()
    assert shifted(0).permute_cols(swap) == shifted(150)
    assert shifted(150).permute_cols(swap) == shifted(0)
    assert sort_dtypes == []
