"""Exact matrix storage, arithmetic, rank, and Kronecker indexing."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from kronrig import matrix
from kronrig.field import PrimeField, QQ
from kronrig.hadamard import paley_type_one
from kronrig.matrix import (
    ExactMatrix,
    KroneckerSpec,
    SizeCapError,
    all_digits,
    hstack,
    kron_list,
    mixed_radix_strides,
    rank_of_product,
    random_dense,
    random_invertible,
    vstack,
    _canon_coo,
)
from kronrig.vfactor import v_matrix

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


def brute_rank_mod_p(rows, p):
    """Independent rank oracle: count kernel vectors by exhaustion."""
    rows = [[x % p for x in r] for r in rows]
    n = len(rows[0]) if rows else 0
    solutions = 0
    for idx in range(p**n):
        vec = []
        t = idx
        for _ in range(n):
            vec.append(t % p)
            t //= p
        if all(sum(a * x for a, x in zip(r, vec)) % p == 0 for r in rows):
            solutions += 1
    nullity = 0
    while p**nullity < solutions:
        nullity += 1
    assert p**nullity == solutions
    return n - nullity


def to_sympy(mat):
    return sympy.Matrix([[sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)
                          for v in row] for row in mat.to_dense()])


# ----------------------------------------------------------------------
# storage and canonical form


def test_triplets_are_canonical():
    m = ExactMatrix.from_triplets(F5, 3, 4, [(2, 1, 3), (0, 0, 2), (2, 1, 2), (1, 3, 5)])
    ri, ci, vals = m.triplets()
    # (2,1) merged to 3+2=0 and dropped; (1,3,5) is an explicit zero mod 5
    assert list(zip(ri.tolist(), ci.tolist(), vals.tolist())) == [(0, 0, 2)]
    assert m.nnz == 1
    assert m[2, 1] == 0 and m[0, 0] == 2


def test_dense_sparse_round_trip():
    rng = np.random.default_rng(3)
    for f in [F3, F7, QQ]:
        d = random_dense(f, 5, 7, rng)
        trips = list(zip(*d.triplets()))
        s = ExactMatrix.from_triplets(f, 5, 7, [(int(i), int(j), v) for i, j, v in trips])
        assert s == d
        assert (s.to_dense() == d.to_dense()).all()


def test_out_of_range_triplet_rejected():
    with pytest.raises(IndexError):
        ExactMatrix.from_triplets(F5, 2, 2, [(2, 0, 1)])


def _ref_canon(field, ri, ci, vals):
    """Canonical triplet lists by a dict: values summed per cell (mod p
    over F_p), zeros dropped, cells in row-major order."""
    cells = {}
    for i, j, v in zip(ri.tolist(), ci.tolist(), vals.tolist()):
        cells[i, j] = cells.get((i, j), 0) + v
    if isinstance(field, PrimeField):
        cells = {k: v % field.p for k, v in cells.items()}
    keys = sorted(k for k, v in cells.items() if v != 0)
    return [i for i, _ in keys], [j for _, j in keys], [cells[k] for k in keys]


@pytest.mark.parametrize("f", [F5, PrimeField(2147483659), QQ],
                         ids=["Fp5", "Fp2^31+11", "Q"])
def test_canon_coo_sorts_only_what_is_not_canonical(f, monkeypatch):
    """Triplets already in canonical order come back as they are, with no
    sort; unsorted triplets, duplicates (over Q summing past 2**63) and
    explicit zeros take the sort and merge, and out-of-range indices raise,
    whatever the order."""
    sorts = []
    for name in ("lexsort", "argsort"):  # the shape decides which sorts
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, real=real, **kw:
                            sorts.append(1) or real(*a, **kw))
    big = 1 << 62 if f is QQ else f.p - 1

    def arrays(trips):
        ri, ci, vals = zip(*trips)
        out = np.empty(len(vals), dtype=f.dtype)
        out[:] = vals
        return np.array(ri, dtype=np.int64), np.array(ci, dtype=np.int64), out

    canonical = [(0, 1, 3), (0, 4, big), (1, 0, 1), (3, 2, 2)]
    cases = [
        (canonical, False),
        (canonical[::-1], True),
        ([(0, 1, big), (0, 1, big), (0, 1, big), (2, 2, 1)], True),
        ([(0, 1, 3), (1, 1, 0), (2, 2, 1)], True),
        ([(0, 1, 3), (0, 1, 0), (2, 2, 1)], True),
    ]
    for trips, sorted_ in cases:
        sorts.clear()
        ri, ci, vals = arrays(trips)
        got = _canon_coo(f, (4, 5), ri, ci, vals)
        assert bool(sorts) == sorted_
        assert [a.tolist() for a in got] == list(_ref_canon(f, ri, ci, vals))
    sum_past_int64 = _canon_coo(f, (4, 5), *arrays(cases[2][0]))[2]
    assert sum_past_int64.dtype == (object if f is QQ else f.dtype)
    # a shape of more than 2**63 cells has no int64 row-major key
    got = _canon_coo(f, (4, 1 << 70), *arrays(canonical))
    assert [a.tolist() for a in got] == list(_ref_canon(f, *arrays(canonical)))
    for bad in ([(0, 1, 1), (4, 0, 1)], [(4, 0, 1), (0, 1, 1)], [(0, 1, 1), (1, 5, 1)],
                [(0, -1, 1), (1, 1, 1)]):
        with pytest.raises(IndexError):
            _canon_coo(f, (4, 5), *arrays(bad))


@pytest.mark.parametrize("f", [F5, PrimeField(2147483659), QQ],
                         ids=["Fp5", "Fp2^31+11", "Q"])
def test_storage_is_read_only(f):
    """Writing into a matrix's arrays raises and leaves the matrix, and
    every matrix sharing its storage, as it was."""
    rng = np.random.default_rng(23)
    m = random_dense(f, 3, 4, rng)
    want = m.to_dense().copy()
    s = ExactMatrix.from_coo(f, 3, 4, *m.triplets())
    shared = m._like(m.rows, m.cols, dense=m.num_dense())
    arrays = [m.num_dense(), m.num_triplets()[2], m.num_triplets()[0],
              s.num_triplets()[2], s.num_dense()]
    if isinstance(f, PrimeField):  # field values are the stored residues
        arrays.append(m.to_dense())
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] += 1
    for x in (m, s, shared):
        assert (x.to_dense() == want).all()


def test_dense_cap_guard():
    big = ExactMatrix.zeros(F5, 1 << 13, 1 << 13)
    with pytest.raises(SizeCapError):
        big.to_dense()


# ----------------------------------------------------------------------
# ring operations, all storage combinations


def _storage_variants(m):
    dense = ExactMatrix.from_dense(m.field, m.to_dense())
    trips = [(int(i), int(j), v) for i, j, v in zip(*m.triplets())]
    sparse = ExactMatrix.from_triplets(m.field, m.rows, m.cols, trips)
    return [dense, sparse]


def test_matmul_storage_agreement():
    rng = np.random.default_rng(11)
    for f in [F2, F5, QQ]:
        a = random_dense(f, 4, 6, rng)
        b = random_dense(f, 6, 3, rng)
        ref = None
        for av in _storage_variants(a):
            for bv in _storage_variants(b):
                got = av @ bv
                if ref is None:
                    ref = got
                assert got == ref


def test_sparse_matmul_canonical_triplets():
    """A sparse product over F_p comes back as canonical triplets: row-major,
    and without the entries whose integer sum is a nonzero multiple of p."""
    rng = np.random.default_rng(5)
    a = np.where(rng.random((60, 40)) < 0.04, rng.integers(1, 5, (60, 40)), 0)
    b = np.where(rng.random((40, 70)) < 0.04, rng.integers(1, 5, (40, 70)), 0)
    raw = a @ b
    want = raw % 5
    assert ((raw != 0) & (want == 0)).any()
    _, sa = _storage_variants(ExactMatrix.from_dense(F5, a))
    _, sb = _storage_variants(ExactMatrix.from_dense(F5, b))
    prod = sa @ sb
    assert not prod.is_dense
    ri, ci = np.nonzero(want)
    pr, pc, pv = prod.triplets()
    assert pr.tolist() == ri.tolist() and pc.tolist() == ci.tolist()
    assert pv.tolist() == want[ri, ci].tolist()


def test_matmul_frozen_example():
    # unit upper-triangular square: [[1,1],[0,1]]^2 == [[1,2],[0,1]]
    for f in [F5, QQ]:
        g = ExactMatrix.from_dense(f, [[1, 1], [0, 1]])
        assert (g @ g).to_dense().tolist() == ExactMatrix.from_dense(
            f, [[1, 2], [0, 1]]).to_dense().tolist()


def test_matmul_against_numpy_int():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.integers(0, 7, size=(5, 4))
        b = rng.integers(0, 7, size=(4, 6))
        want = (a @ b) % 7
        got = (ExactMatrix.from_dense(F7, a) @ ExactMatrix.from_dense(F7, b)).to_dense()
        assert (got == want).all()


def test_add_sub_neg():
    rng = np.random.default_rng(9)
    for f in [F3, QQ]:
        a = random_dense(f, 4, 4, rng)
        b = random_dense(f, 4, 4, rng)
        assert (a + b) - b == a
        assert a + (-a) == ExactMatrix.zeros(f, 4, 4)
        assert a - a == ExactMatrix.zeros(f, 4, 4)


def test_scale():
    a = ExactMatrix.from_dense(F5, [[1, 2], [3, 4]])
    assert a.scale(2).to_dense().tolist() == [[2, 4], [1, 3]]
    assert a.scale(0).is_zero()


def test_shape_and_field_mismatch_raise():
    a = ExactMatrix.from_dense(F5, [[1, 2], [3, 4]])
    b = ExactMatrix.from_dense(F5, [[1, 2, 3]])
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b
    c = ExactMatrix.from_dense(F7, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        a @ c


def test_big_prime_matmul_exact():
    p = (1 << 61) - 1
    f = PrimeField(p)
    a = ExactMatrix.from_dense(f, [[1 << 60, 1], [0, 1 << 59]])
    got = (a @ a).to_dense()
    assert got[0][0] == pow(1 << 60, 2, p)
    assert got[0][1] == ((1 << 60) + (1 << 59)) % p


# ----------------------------------------------------------------------
# rank


def test_rank_brute_force_oracle_fp():
    rng = np.random.default_rng(17)
    for f, p in [(F2, 2), (F3, 3)]:
        for _ in range(25):
            rows = rng.integers(0, p, size=(3, 3)).tolist()
            m = ExactMatrix.from_dense(f, rows)
            assert m.exact_rank() == brute_rank_mod_p(rows, p)


def test_rank_frozen_examples():
    assert ExactMatrix.identity(F5, 4).exact_rank() == 4
    assert ExactMatrix.zeros(F5, 3, 3).exact_rank() == 0
    # det [[1,2],[3,4]] == -2, nonzero mod 5, zero mod 2
    assert ExactMatrix.from_dense(F5, [[1, 2], [3, 4]]).exact_rank() == 2
    assert ExactMatrix.from_dense(F2, [[1, 2], [3, 4]]).exact_rank() == 1
    sign_square = ExactMatrix.from_dense(QQ, [[1, 1], [1, -1]])
    assert sign_square.exact_rank() == 2
    assert ExactMatrix.from_dense(QQ, [[1, 2], [2, 4]]).exact_rank() == 1


def test_rank_q_against_sympy():
    rng = np.random.default_rng(23)
    for trial in range(20):
        raw = rng.integers(-4, 5, size=(4, 5))
        rows = [[Fraction(int(x), int(rng.integers(1, 4))) for x in r] for r in raw]
        if trial % 3 == 0:
            rows[3] = [a + b for a, b in zip(rows[0], rows[1])]
        m = ExactMatrix.from_dense(QQ, rows)
        assert m.exact_rank() == to_sympy(m).rank()


def _known_rank_matrix(rng, p, shape, core, ones):
    """An integer matrix of `shape` over F_p whose rank is rank(core) + ones.

    L @ diag(core, I_ones, 0) @ U with L unit lower and U unit upper
    triangular (so both invertible), rows and columns shuffled, then
    spread over `shape` with zero rows and columns in between.
    """
    m, n = shape[0] - 3, shape[1] - 5
    # int64 holds every sum of 500 products of residues below 2**26
    dtype = np.int64 if p < 2**26 else object
    d = np.zeros((m, n), dtype=dtype)
    k = len(core)
    d[:k, :k] = core
    d[k + np.arange(ones), k + np.arange(ones)] = 1

    def unit_triangular(size, lower):
        t = np.tril(rng.integers(0, p, size=(size, size)).astype(dtype), -1)
        t = t + np.eye(size, dtype=dtype)
        return t if lower else t.T

    a = unit_triangular(m, True).dot(d) % p
    a = a.dot(unit_triangular(n, False)) % p
    a = a[rng.permutation(m)][:, rng.permutation(n)]
    out = np.zeros(shape, dtype=dtype)
    rows = np.sort(rng.choice(shape[0], m, replace=False))
    cols = np.sort(rng.choice(shape[1], n, replace=False))
    out[np.ix_(rows, cols)] = a
    return out


@pytest.mark.parametrize("p,shapes", [
    (2, [(300, 500), (500, 300)]),
    (5, [(300, 500), (500, 300)]),
    (33554393, [(300, 500), (120, 90)]),     # largest prime of the float64 path
    (33554467, [(90, 120)]),                 # int64 residues
    (2147483659, [(40, 60), (60, 40)]),      # object residues, p >= 2**31
])
def test_rank_kernel_known_ranks_fp(p, shapes):
    rng = np.random.default_rng(p % 1000)
    f = PrimeField(p)
    for shape in shapes:
        for ones in (0, min(shape) // 3, min(shape) - 10):
            if p < 10:
                core = rng.integers(0, p, size=(5, 5))
                core[4] = (core[0] + core[1]) % p
                core_rank = brute_rank_mod_p(core.tolist(), p)
            else:
                core, core_rank = np.zeros((0, 0), dtype=np.int64), 0
            arr = _known_rank_matrix(rng, p, shape, core, ones)
            m = ExactMatrix.from_dense(f, arr)
            assert m.exact_rank() == core_rank + ones, (p, shape, ones)


def test_rank_kernel_brute_force_recursing_sizes():
    # the largest sizes the brute-force oracle can enumerate
    rng = np.random.default_rng(53)
    for f, p, shape in [(F2, 2, (14, 11)), (F2, 2, (11, 14)), (F3, 3, (10, 9))]:
        for _ in range(3):
            rows = rng.integers(0, p, size=shape)
            rows[rng.integers(shape[0])] = 0
            rows[:, rng.integers(shape[1])] = 0
            rows[-2] = (rows[0] + 2 * rows[1]) % p
            rows = rows.tolist()
            cols = [list(c) for c in zip(*rows)]
            want = brute_rank_mod_p(rows if shape[1] <= shape[0] else cols, p)
            assert ExactMatrix.from_dense(f, rows).exact_rank() == want


# ----------------------------------------------------------------------
# the elimination kernel against the reference elimination
# (`reference_basis_rows` in conftest.py)


def _deficient(rng, p, shape, rank):
    """A `shape` array of rank at most `rank` mod p (Python ints for
    p >= 2**31, as dense storage holds them), with a zero row, a zero
    column and a repeated row where the shape has room for them, so that
    pivots skip rows and columns and rows swap."""
    m, n = shape
    x = rng.integers(0, p, size=(m, rank)).astype(object)
    y = rng.integers(0, p, size=(rank, n)).astype(object)
    a = x.dot(y) % p if rank else np.zeros(shape, dtype=object)
    if m > 3 and n > 3:
        a[int(rng.integers(m))] = 0
        a[:, int(rng.integers(n))] = 0
        a[m - 1] = a[0]
    return a if p >= 1 << 31 else a.astype(np.int64)


# the primes on each side of every switch of the kernel's dtype: p(p - 1)
# around 2**22 (float32), 2**50 (float64, p around 2**25) and
# 2**63 (int64), and around 2**31, where storage turns to Python ints
DTYPE_SWITCH_PRIMES = [
    (2039, np.float32), (2053, np.float64),
    (33554393, np.float64), (33554467, np.int64),
    (2147483647, np.int64), (2147483659, np.int64),
    (3037000493, np.int64), (3037000507, object),
]


@pytest.mark.parametrize("p,dtype", DTYPE_SWITCH_PRIMES)
def test_kernel_matches_reference_at_dtype_switches(p, dtype, reference_basis_rows,
                                                    elimination_dtype):
    assert elimination_dtype(p) is dtype
    rng = np.random.default_rng(p % 1009)
    b = matrix._PANEL
    for shape, rank in [((b + 30, b + 8), b + 2), ((b + 8, b + 30), b + 2),
                        ((b + 9, b + 9), b + 9), ((5, 80), 5), ((80, 5), 3)]:
        a = _deficient(rng, p, shape, rank)
        want = reference_basis_rows(a, p)
        assert matrix._basis_rows_mod_p(a, p) == want, (p, shape)
        m = ExactMatrix.from_dense(PrimeField(p), a.tolist())
        assert m.exact_rank() == len(want)


@pytest.mark.parametrize("p", [2, 5, 251, 2039, 65521])
@pytest.mark.parametrize("offset", [-1, 0, 1, matrix._PANEL + 1])
def test_kernel_matches_reference_around_the_panel_width(p, offset, reference_basis_rows):
    """b - 1, b, b + 1 and 2b + 1 columns eliminated, b = _PANEL: a
    panel short of full, one full panel, one full and a second of one
    column, two and one; tall, wide and square, of full and lower rank."""
    width = matrix._PANEL + offset
    rng = np.random.default_rng(width * p)
    for shape in [(width + 7, width), (width, width + 7), (width, width)]:
        for rank in (width, width - 3, 1):
            a = _deficient(rng, p, shape, rank)
            assert matrix._basis_rows_mod_p(a, p) == reference_basis_rows(a, p)


def test_kernel_zero_and_degenerate_shapes(reference_basis_rows):
    rng = np.random.default_rng(67)
    for p in [2, 5, 65521, 2147483659, (1 << 61) - 1]:
        for shape in [(0, 0), (0, 7), (7, 0), (1, 1), (1, 9), (9, 1), (6, 6), (40, 50)]:
            zero = np.zeros(shape, dtype=np.int64)
            assert matrix._basis_rows_mod_p(zero, p) == []
            a = _deficient(rng, p, shape, min(shape))
            assert matrix._basis_rows_mod_p(a, p) == reference_basis_rows(a, p)
        # zero columns ahead of and between the pivots; a wide matrix whose
        # first rows vanish
        a = _deficient(rng, p, (50, 45), 20)
        a[:, :10] = 0
        a[:, 20:30] = 0
        assert matrix._basis_rows_mod_p(a, p) == reference_basis_rows(a, p)
        a = _deficient(rng, p, (45, 50), 20)
        a[:12] = 0
        assert matrix._basis_rows_mod_p(a, p) == reference_basis_rows(a, p)


def _limits_at(monkeypatch, limit):
    """The kernel's float32 limit (_reduce's float32 margin) set to `limit`."""
    monkeypatch.setitem(matrix._REDUCE_MARGIN, np.float32, limit)


def test_delayed_reduction_flushes_exactly_at_the_limit(monkeypatch, reference_basis_rows,
                                                        elimination_dtype):
    """With the float32 limit at 4 + 3 * 16 over F_5 (a residue and three
    products of residues) a bound that reaches the limit takes no flush
    and the next update does: one below it the kernel flushes more often.
    Every array reduced holds values within the limit, and the basis
    rows are the reference's in both."""
    p = 5
    rng = np.random.default_rng(71)
    b = matrix._PANEL
    cases = [_deficient(rng, p, shape, rank) for shape, rank in
             [((2 * b + 5, 2 * b + 3), 2 * b), ((b + 3, 3 * b), b + 3), ((80, 80), 80)]]
    wants = [reference_basis_rows(a, p) for a in cases]
    real = matrix._reduce
    calls = {}
    for limit in (4 + 3 * 16, 4 + 3 * 16 - 1, 4 + 16):
        _limits_at(monkeypatch, limit)
        assert elimination_dtype(p) is np.float32
        assert matrix._reduce_limit(np.float32) == limit
        seen = []

        def spy(x, q):
            if x.dtype == np.float32:
                assert x.size == 0 or x.max() <= limit
                seen.append(x.size)
            return real(x, q)
        monkeypatch.setattr(matrix, "_reduce", spy)
        for a, want in zip(cases, wants):
            assert matrix._basis_rows_mod_p(a, p) == want
        calls[limit] = len(seen)
    assert calls[4 + 16] > calls[4 + 3 * 16 - 1] > calls[4 + 3 * 16]
    # below p(p - 1) = 20 float32 cannot hold one update: float64 takes over
    _limits_at(monkeypatch, 19)
    assert elimination_dtype(p) is np.float64


def test_rank_q_multimodular_basis_rows_are_the_reference_mod_each_prime(
        monkeypatch, reference_basis_rows):
    """Over Q every prime's basis rows are the reference elimination's of
    the numerators (divided by their row content) mod that prime, and the
    rows returned are those of the first prime that reaches the rank."""
    rng = np.random.default_rng(73)
    cases = []
    for shape, rank in [((12, 9), 5), ((9, 30), 9), ((40, 35), 34)]:
        x = rng.integers(-2**20, 2**20, size=(shape[0], rank))
        y = rng.integers(-2**10, 2**10, size=(rank, shape[1]))
        cases.append((x.astype(object).dot(y.astype(object)), rank))
    # 131071, the first prime tried, divides the only 2x2 minor
    cases.append((np.array([[1, 0], [0, 131071]], dtype=object), 2))
    cases.append((np.array([[1, 1], [1, 131072], [2, 2]], dtype=object), 2))
    real = matrix._basis_rows_mod_p
    for nums, rank in cases:
        seen = []
        monkeypatch.setattr(matrix, "_basis_rows_mod_p",
                            lambda a, q: seen.append((a, q, real(a, q))) or seen[-1][2])
        m = ExactMatrix.from_num_dense(QQ, nums)
        rows = matrix._basis_rows(QQ, m.num_dense())
        assert len(rows) == rank == m.exact_rank()
        for a, q, got in seen:
            assert got == reference_basis_rows(a, q)
        assert rows == next(got for _, _, got in seen if len(got) == rank)


def test_rank_q_multimodular_against_sympy(monkeypatch):
    import kronrig.matrix as km
    calls = []
    real = km._basis_rows_mod_p
    monkeypatch.setattr(km, "_basis_rows_mod_p",
                        lambda a, p: calls.append(p) or real(a, p))
    rng = np.random.default_rng(59)
    for shape, rank in [((12, 10), 6), ((30, 40), 17), ((40, 30), 30)]:
        x = [[Fraction(int(rng.integers(-2**40, 2**40)), int(rng.integers(1, 4)))
              for _ in range(rank)] for _ in range(shape[0])]
        y = [[Fraction(int(rng.integers(-2**20, 2**20)), int(rng.integers(1, 3)))
              for _ in range(shape[1])] for _ in range(rank)]
        m = ExactMatrix.from_dense(QQ, x) @ ExactMatrix.from_dense(QQ, y)
        calls.clear()
        assert m.exact_rank() == DomainMatrix.from_Matrix(to_sympy(m)).rank() == rank
        # full rank settles at the first prime; a rank drop needs the bound
        assert (len(calls) == 1) == (rank == min(shape))
    # 131071 is the first prime tried and divides the only 2x2 minor
    m = ExactMatrix.from_dense(QQ, [[1, 0], [0, 131071]])
    assert m.exact_rank() == 2
    # the same determinant from short rows: the bound must take both norms
    m = ExactMatrix.from_dense(QQ, [[362, 27], [-1, 362]])
    assert m.exact_rank() == 2
    m = ExactMatrix.from_dense(QQ, [[Fraction(1, 131071), 1], [1, 131071]])
    assert m.exact_rank() == 1


def test_sparse_rank_matches_dense_within_cap(monkeypatch):
    rng = np.random.default_rng(31)
    for f in [F5, QQ]:
        trips = [(int(i), int((i * 13 + j) % 40), f.canon(int(rng.integers(1, 4))))
                 for i in range(40) for j in range(3)]
        m = ExactMatrix.from_triplets(f, 40, 40, trips)
        want = ExactMatrix.from_dense(f, m.to_dense()).exact_rank()
        assert ExactMatrix.from_triplets(f, 40, 40, trips).exact_rank() == want
        # the occupied 40x40 block passes the cap: refused
        with monkeypatch.context() as mp:
            mp.setattr(matrix, "DENSE_CELL_CAP", 40 * 40 - 1)
            with pytest.raises(SizeCapError):
                ExactMatrix.from_triplets(f, 40, 40, trips).exact_rank()


def _dependent_top(m):
    """m with row 0 zeroed and row 1 a copy of row 2, so its first rows
    are no basis."""
    vals = m.to_dense().copy()
    vals[0] = 0
    vals[1] = vals[2]
    return ExactMatrix.from_dense(m.field, vals)


def test_basis_rows_span_both_orientations():
    rng = np.random.default_rng(43)
    for f in [F5, FBIG, QQ]:
        for rows, cols in [(9, 4), (4, 9)]:
            m = _dependent_top(random_dense(f, rows, 2, rng) @ random_dense(f, 2, cols, rng))
            basis = matrix._basis_rows(f, m.num_dense())
            sub = m.submatrix(basis, range(cols))
            assert len(basis) == m.exact_rank() == sub.exact_rank()
            assert vstack([sub, m]).exact_rank() == len(basis)


def test_rank_of_product_avoids_materializing(monkeypatch):
    rng = np.random.default_rng(41)
    cases = []
    for f in [F5, FBIG, QQ]:
        cases.append((_dependent_top(random_dense(f, 8, 3, rng)),
                      random_dense(f, 3, 8, rng)))
        # a wide u of rank 2: its basis rows come from the transposed elimination
        cases.append((_dependent_top(random_dense(f, 4, 2, rng) @ random_dense(f, 2, 6, rng)),
                      random_dense(f, 6, 8, rng)))
    # engineered rank drop: u's columns collide
    cases.append((ExactMatrix.from_dense(F5, [[1, 1], [2, 2], [0, 0]]),
                  ExactMatrix.from_dense(F5, [[1, 0, 4], [3, 1, 0]])))
    # 131071, the first prime tried, divides the minor of u's first two rows
    u = ExactMatrix.from_dense(QQ, [[1, 1], [1, 131072], [2, 2]])
    assert len(matrix._basis_rows_mod_p(u.num_dense(), 131071)) == 1
    cases.append((u, ExactMatrix.from_dense(QQ, [[1, 2, 3], [Fraction(1, 2), 0, 7]])))
    wants = [(u @ v).exact_rank() for u, v in cases]
    assert wants[-2:] == [1, 2]
    formed = []
    matmul = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        lambda a, b: formed.append((a.rows, b.cols)) or matmul(a, b))
    for (u, v), want in zip(cases, wants):
        monkeypatch.setattr(matrix, "DENSE_CELL_CAP", u.rows * v.cols - 1)
        formed.clear()
        assert rank_of_product(u, v) == want
        assert formed and (u.rows, v.cols) not in formed


def test_basis_rows_of_zero_and_full_rank():
    rng = np.random.default_rng(53)
    for f in [F5, FBIG, QQ]:
        for rows, cols in [(6, 3), (3, 6), (5, 5)]:
            zero = np.zeros((rows, cols), dtype=f.dtype)
            assert list(matrix._basis_rows(f, zero)) == []
            if rows <= cols:
                # full row rank: every row is needed
                full = hstack([random_invertible(f, rows, rng),
                               random_dense(f, rows, cols - rows, rng)])
                assert list(matrix._basis_rows(f, full.num_dense())) == list(range(rows))
            else:
                full = vstack([random_invertible(f, cols, rng),
                               random_dense(f, rows - cols, cols, rng)])
                basis = list(matrix._basis_rows(f, full.num_dense()))
                assert basis == sorted(set(basis)) and len(basis) == cols


def test_sparse_rank_gathers_occupied_block_of_a_large_shape():
    # 2**14 x 2**13 cells pass the real cap; the occupied 30x20 block does not
    rng = np.random.default_rng(61)
    rows, cols = 1 << 14, 1 << 13
    assert rows * cols > matrix.DENSE_CELL_CAP
    rsel = np.sort(rng.choice(rows, 30, replace=False))
    csel = np.sort(rng.choice(cols, 20, replace=False))
    for f in [F5, FBIG, QQ]:
        block = random_dense(f, 30, 3, rng) @ random_dense(f, 3, 20, rng)
        vals = block.to_dense()
        trips = [(int(rsel[i]), int(csel[j]), vals[i][j])
                 for i in range(30) for j in range(20) if vals[i][j] != 0]
        m = ExactMatrix.from_triplets(f, rows, cols, trips)
        assert not m.is_dense
        assert m.exact_rank() == block.exact_rank() == 3
        with pytest.raises(SizeCapError):
            m.num_dense()


def test_rank_of_product_above_cap_of_a_zero_factor(monkeypatch):
    rng = np.random.default_rng(67)
    formed = []
    matmul = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        lambda a, b: formed.append((a.rows, b.cols)) or matmul(a, b))
    for f in [F5, FBIG, QQ]:
        for u, v in [(ExactMatrix.zeros(f, 9, 3), random_dense(f, 3, 7, rng)),
                     (ExactMatrix.zeros(f, 9, 3, dense=True), random_dense(f, 3, 7, rng)),
                     (random_dense(f, 9, 3, rng), ExactMatrix.zeros(f, 3, 7))]:
            monkeypatch.setattr(matrix, "DENSE_CELL_CAP", u.rows * v.cols - 1)
            formed.clear()
            assert rank_of_product(u, v) == 0
            assert (u.rows, v.cols) not in formed


def test_rank_of_product_above_cap_of_sparse_factors(monkeypatch):
    rng = np.random.default_rng(71)
    cases = []
    for f in [F5, FBIG, QQ]:
        # sparse u of rank 3 (rows repeat), sparse v with an empty column
        base = random_dense(f, 4, 4, rng).to_dense()
        u_trips = [(i, j, base[i % 3][j]) for i in range(12) for j in range(4)
                   if base[i % 3][j] != 0]
        v_trips = [(i, j, f.canon((i + 2 * j) % 4 + 1)) for i in range(4)
                   for j in range(10) if j != 5 and (i + j) % 3]
        cases.append((ExactMatrix.from_triplets(f, 12, 4, u_trips),
                      ExactMatrix.from_triplets(f, 4, 10, v_trips)))
    wants = [ExactMatrix.from_dense(u.field, (u @ v).to_dense()).exact_rank()
             for u, v in cases]
    formed = []
    matmul = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        lambda a, b: formed.append((a.rows, b.cols)) or matmul(a, b))
    for (u, v), want in zip(cases, wants):
        assert not u.is_dense and not v.is_dense
        monkeypatch.setattr(matrix, "DENSE_CELL_CAP", u.rows * v.cols - 1)
        formed.clear()
        assert rank_of_product(u, v) == want
        assert formed and (u.rows, v.cols) not in formed


def test_rank_of_product_takes_the_given_product_within_cap(monkeypatch):
    rng = np.random.default_rng(73)
    u, v = random_dense(QQ, 6, 2, rng), random_dense(QQ, 2, 6, rng)
    uv = u @ v
    formed = []
    matmul = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        lambda a, b: formed.append((a.rows, b.cols)) or matmul(a, b))
    assert rank_of_product(u, v, uv) == uv.exact_rank()
    assert formed == []
    # above the cap the given product is not consulted
    monkeypatch.setattr(matrix, "DENSE_CELL_CAP", u.rows * v.cols - 1)
    assert rank_of_product(u, v, ExactMatrix.zeros(QQ, 6, 6)) == uv.exact_rank()
    assert formed and (u.rows, v.cols) not in formed


# ----------------------------------------------------------------------
# structure: transpose, permutation, stacking, nnz profiles


def test_transpose_round_trip():
    rng = np.random.default_rng(47)
    for f in [F3, QQ]:
        m = random_dense(f, 3, 5, rng)
        assert m.T.T == m
        for v in _storage_variants(m):
            assert v.T == m.T


def test_row_col_nnz_frozen():
    # unit triangular with a dense final column: rows hold <=2, last col holds 3
    g = ExactMatrix.from_dense(F5, [[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    assert g.row_col_nnz() == (2, 3)
    assert ExactMatrix.zeros(F5, 2, 2).row_col_nnz() == (0, 0)


def test_permutations():
    m = ExactMatrix.from_dense(F5, [[1, 2, 3], [4, 0, 1], [2, 2, 2]])
    perm = [2, 0, 1]
    assert m.permute_rows(perm).to_dense().tolist() == [[2, 2, 2], [1, 2, 3], [4, 0, 1]]
    assert m.permute_cols(perm).to_dense().tolist() == [[3, 1, 2], [1, 4, 0], [2, 2, 2]]
    for v in _storage_variants(m):
        assert v.permute_rows(perm) == m.permute_rows(perm)
        assert v.permute_cols(perm) == m.permute_cols(perm)
    # multiplying by the matrix of a coordinate swap matches index swaps
    t = ExactMatrix.from_dense(F5, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert t @ m == m.permute_rows([2, 1, 0])
    assert m @ t == m.permute_cols([2, 1, 0])


def test_stacking():
    a = ExactMatrix.from_dense(F5, [[1, 2], [3, 4]])
    b = ExactMatrix.from_dense(F5, [[0, 1], [1, 0]])
    assert hstack([a, b]).to_dense().tolist() == [[1, 2, 0, 1], [3, 4, 1, 0]]
    assert vstack([a, b]).to_dense().tolist() == [[1, 2], [3, 4], [0, 1], [1, 0]]


FBIG = PrimeField(2147483659)  # residues held as Python ints


def _old_hstack(mats):
    """hstack by a full sort of the shifted triplets, the route it replaced."""
    f, rows = mats[0].field, mats[0].rows
    shifts = np.cumsum([0] + [m.cols for m in mats])
    trips = [m.triplets() for m in mats]
    coo = _canon_coo(f, (rows, shifts[-1]),
                     np.concatenate([t[0] for t in trips]),
                     np.concatenate([t[1] + s for t, s in zip(trips, shifts)]),
                     np.concatenate([t[2] for t in trips]))
    return ExactMatrix.from_coo(f, rows, int(shifts[-1]), *coo)


def _old_vstack(mats):
    """vstack as the transpose of an hstack, the route it replaced."""
    return _old_hstack([m.T for m in mats]).T


def _is_canonical(m):
    ri, ci, vals = m.triplets()
    key = ri * m.cols + ci
    return bool((np.diff(key) > 0).all() and (vals != 0).all())


@pytest.mark.parametrize("f", [F5, FBIG, QQ], ids=["F5", "Fp2^31+11", "Q"])
def test_stacking_matches_sorting_route(f):
    rng = np.random.default_rng(61)
    dense = random_dense(f, 3, 4, rng)
    sparse = ExactMatrix.from_triplets(
        f, 5, 4, [(0, 3, f.one), (2, 0, f.canon(3)), (4, 1, f.canon(-1))])
    empty = ExactMatrix.zeros(f, 0, 4)
    zero = ExactMatrix.zeros(f, 2, 4)
    zero_dense = ExactMatrix.zeros(f, 2, 4, dense=True)
    blocks = [dense, sparse, empty, zero, zero_dense]
    for mats in ([dense, sparse], [sparse, dense], blocks, blocks[::-1],
                 [empty], [empty, empty], [zero, zero_dense], [dense]):
        got = vstack(mats)
        assert got == _old_vstack(mats)
        assert got.shape == (sum(m.rows for m in mats), 4)
        assert not got.is_dense and _is_canonical(got)
        want = [row for m in mats for row in m.to_dense().tolist()]
        assert got.to_dense().tolist() == want
        tmats = [m.T for m in mats]
        got = hstack(tmats)
        assert got == _old_hstack(tmats) == vstack(mats).T
        assert not got.is_dense and _is_canonical(got)
    with pytest.raises(ValueError):
        vstack([dense, ExactMatrix.zeros(f, 2, 3)])
    with pytest.raises(ValueError):
        hstack([dense, ExactMatrix.zeros(f, 2, 4)])


def test_kron_reduces_object_residues():
    p = FBIG.p
    a = ExactMatrix.from_dense(FBIG, [[1, p - 1], [2, 3]])
    k = a.kron(a)
    assert k == ExactMatrix.from_dense(FBIG, k.to_dense().tolist())
    assert all(0 <= int(v) < p for v in k.to_dense().ravel())
    assert k[0, 3] == 1  # (p - 1)**2 = 1 mod p
    # the same product through the sparse branch
    sa = ExactMatrix.from_triplets(FBIG, 2, 2, list(zip(*a.triplets())))
    assert sa.kron(sa) == k


def test_dense_add_reduces_object_residues():
    p = FBIG.p
    a = ExactMatrix.from_dense(FBIG, [[p - 1, 1], [2, p - 2]])
    total = a + a
    assert total.is_dense
    assert total == ExactMatrix.from_dense(FBIG, [[p - 2, 2], [4, p - 4]])
    assert all(0 <= int(v) < p for v in total.to_dense().ravel())


def test_submatrix():
    m = ExactMatrix.from_dense(F7, [[0, 1, 2], [3, 4, 5], [6, 0, 1]])
    sub = m.submatrix([0, 2], [1, 2])
    assert sub.to_dense().tolist() == [[1, 2], [0, 1]]


# ----------------------------------------------------------------------
# Kronecker products and mixed-radix indexing


def test_kron_against_numpy():
    rng = np.random.default_rng(53)
    a = rng.integers(0, 5, size=(3, 3))
    b = rng.integers(0, 5, size=(4, 4))
    want = np.kron(a, b) % 5
    am, bm = ExactMatrix.from_dense(F5, a), ExactMatrix.from_dense(F5, b)
    for av in _storage_variants(am):
        for bv in _storage_variants(bm):
            assert (av.kron(bv).to_dense() == want).all()


@pytest.mark.parametrize("f", [F5, FBIG, QQ], ids=["Fp5", "Fp2^31+11", "Q"])
def test_sparse_kron_is_row_major_without_a_sort(f, monkeypatch):
    """The sparse Kronecker product's triplets equal every pair of
    entries sorted row-major, with no sort: over random sparse operands
    with empty rows, 1 x 1 factors and an all-zero factor."""
    rng = np.random.default_rng(61)
    top = 1 << 40 if f is QQ else f.p

    def rand(rows, cols, empty_rows=()):
        vals = np.where(rng.random((rows, cols)) < 0.4,
                        rng.integers(1, top, (rows, cols)), 0).astype(object)
        vals[list(empty_rows)] = 0
        if f is QQ:
            vals = [[Fraction(int(v), 3) for v in r] for r in vals]
        m = ExactMatrix.from_dense(f, vals)
        return ExactMatrix(f, rows, cols, coo=m.num_triplets(), den=m.den)
    sorts = []
    for name in ("argsort", "lexsort", "sort"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, real=real, **kw:
                            sorts.append(1) or real(*a, **kw))
    pairs = [(rand(1, 1), rand(1, 1)), (rand(1, 1), rand(5, 3, [2])),
             (rand(6, 4, [0, 3]), rand(1, 1)), (rand(7, 5, [1, 6]), rand(4, 6, [0, 2])),
             (rand(1, 8), rand(9, 1, [4])), (rand(3, 3, [0, 1, 2]), rand(2, 2)),
             (rand(12, 10, [5]), rand(3, 7, [1]))]
    for a, b in pairs:
        want = sorted(
            (i * b.rows + k, j * b.cols + m, x * y if f is QQ else x * y % f.p)
            for i, j, x in zip(*a.triplets()) for k, m, y in zip(*b.triplets()))
        sorts.clear()
        got = a.kron(b)
        assert not sorts
        ri, ci, vals = got.triplets()
        assert list(zip(ri.tolist(), ci.tolist(), vals.tolist())) == want
        assert not got.is_dense and ri.dtype == ci.dtype == np.int64


def test_kron_sign_square_frozen():
    h = ExactMatrix.from_dense(QQ, [[1, 1], [1, -1]])
    hh = h.kron(h)
    assert [int(v) for v in hh.to_dense()[3]] == [1, -1, -1, 1]
    assert hh.exact_rank() == 4


def test_kron_rank_multiplies():
    rng = np.random.default_rng(59)
    a = random_dense(F7, 3, 3, rng)
    b = random_dense(F7, 4, 4, rng)
    assert a.kron(b).exact_rank() == a.exact_rank() * b.exact_rank()


def test_kron_spec_materialize():
    rng = np.random.default_rng(61)
    mats = [random_dense(F5, d, d, rng) for d in (2, 3, 2)]
    spec = KroneckerSpec(mats)
    assert spec.dims == (2, 3, 2) and spec.n == 12
    got = spec.materialize().to_dense()
    want = np.kron(np.kron(mats[0].to_dense(), mats[1].to_dense()),
                   mats[2].to_dense()) % 5
    assert (got == want).all()
    assert kron_list(mats) == spec.materialize()


def _stored(m, dense):
    """The same matrix in dense or in sparse storage."""
    if dense:
        return m._like(m.rows, m.cols, dense=m.num_dense())
    return m._like(m.rows, m.cols, coo=m.num_triplets())


def _storage_cases(field, rng):
    """Factor lists with zeros (monomial, v_matrix, Paley's core) and
    without, each factor in either storage."""
    def full(d):
        return ExactMatrix.from_dense(
            field, [[field.rand_nonzero(rng) for _ in range(d)] for _ in range(d)])

    def mono(d):
        return ExactMatrix.from_coo(field, d, d, np.arange(d), rng.permutation(d),
                                    [field.rand_nonzero(rng) for _ in range(d)])

    def vm(d):
        return v_matrix(field, [field.rand_nonzero(rng) for _ in range(d)])

    cases = [[full(2), _stored(full(3), False)],           # no zeros: dense
             [mono(3), _stored(mono(2), True), mono(2)],   # 12 of 144: sparse
             [vm(3), full(2)],                             # 20 of 36: dense
             [vm(2), _stored(vm(2), True), vm(2), vm(2)],  # 81 of 256: sparse
             [_stored(mono(2), True)] * 13]                # beyond the cell cap
    if field != F2:  # sign matrices need an odd characteristic
        # a Paley conference core has a zero diagonal: 6 of 9 cells
        core = ExactMatrix.from_dense(field, [[0, 1, 1], [1, 0, -1], [1, -1, 0]])
        cases += [[core, _stored(paley_type_one(field, 3), False)],  # 96 of 144
                  [core, core, mono(2)],                   # 72 of 324: sparse
                  [core, core]]                            # 36 of 81: dense
    return cases


@pytest.mark.parametrize("field", [F2, F5, PrimeField(2147483659), QQ],
                         ids=lambda f: f.header)
def test_kron_spec_storage_follows_fill(field):
    rng = np.random.default_rng(62)
    for factors in _storage_cases(field, rng):
        spec = KroneckerSpec(factors)
        got = spec.materialize()
        nnz = math.prod(m.nnz for m in factors)
        assert got.nnz == nnz
        assert got.is_dense == matrix._prefers_dense(spec.n, spec.n, nnz)
        if spec.n * spec.n > matrix.DENSE_CELL_CAP:
            continue  # no dense reference at this size
        want = factors[0].to_dense()
        for m in factors[1:]:
            want = np.kron(want, m.to_dense())
            if isinstance(field, PrimeField):
                want %= field.p
        assert (got.to_dense() == want).all()


def test_kron_spec_validation_and_cap():
    a = ExactMatrix.from_dense(F5, [[1]])
    with pytest.raises(ValueError):
        KroneckerSpec([a])
    two = ExactMatrix.identity(F5, 2)
    spec = KroneckerSpec([two] * 17)             # order 131072
    assert spec.n == 1 << 17
    with pytest.raises(SizeCapError):
        spec.materialize()


def test_mixed_radix_digits_and_strides():
    assert mixed_radix_strides((2, 3, 4)).tolist() == [12, 4, 1]
    for dims in [(2, 3, 4), (5,), (3, 2), (2, 2, 2, 2)]:
        n = math.prod(dims)
        digits = all_digits(dims)
        # every 1-based digit tuple once, factor 1 most significant
        want = list(itertools.product(*[range(1, d + 1) for d in dims]))
        assert [tuple(row) for row in digits.tolist()] == want
        # the strides take each row of the table back to its flat index
        assert ((digits - 1) @ mixed_radix_strides(dims)).tolist() == list(range(n))


def test_kron_digit_consistency():
    # entry of a Kronecker product factors through the digit tuples
    rng = np.random.default_rng(67)
    mats = [random_dense(F7, d, d, rng) for d in (2, 3)]
    spec = KroneckerSpec(mats)
    M = spec.materialize().to_dense()
    digs = all_digits(spec.dims)
    for i in range(spec.n):
        for j in range(spec.n):
            want = 1
            for t, m in enumerate(mats):
                want = want * int(m.to_dense()[digs[i, t] - 1, digs[j, t] - 1]) % 7
            assert M[i, j] == want


def test_random_invertible():
    rng = np.random.default_rng(73)
    for f in [F2, F5]:
        m = random_invertible(f, 3, rng)
        assert m.exact_rank() == 3
    for n in (0, -2):
        with pytest.raises(ValueError, match="order >= 1"):
            random_invertible(F5, n, rng)


# ----------------------------------------------------------------------
# Q as integer numerators over one common denominator, checked against
# a plain Fraction reference.  The numerators span values that fit
# float64 exactly, values next to 2**63 and values beyond it, so the
# float64, int64 and Python-int routes of every kernel all run.

_EDGE = [(1 << 63) - 1, (1 << 63) - 2, 1 << 62, 3 << 61]
_BIG = [1 << 63, (1 << 63) + 1, 1 << 70, 12345678901234567890123]


def _random_q(rng, rows, cols, kind):
    """Fraction rows; about a third of the cells are zero.  'small':
    +-a/b; 'mid' and 'wide': integers of 24-28 and 30-34 bits over small
    denominators, whose products pass 2**50 (float64) and 2**63 (int64);
    'edge': integers just below 2**63; 'big': numerators and
    denominators beyond 2**63."""
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.3:
                row.append(Fraction(0))
                continue
            sign = int(rng.choice([-1, 1]))
            if kind == "small":
                v = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            elif kind in ("mid", "wide"):
                lo = 24 if kind == "mid" else 30
                v = Fraction(int(rng.integers(1 << lo, 1 << (lo + 4))),
                             int(rng.integers(1, 4)))
            elif kind == "edge":
                v = Fraction(_EDGE[int(rng.integers(0, len(_EDGE)))]
                             - int(rng.integers(0, 3)))
            else:
                v = Fraction(_BIG[int(rng.integers(0, len(_BIG)))] + int(rng.integers(0, 9)),
                             _BIG[int(rng.integers(0, len(_BIG)))] - int(rng.integers(1, 9)))
            row.append(sign * v)
        out.append(row)
    return out


def _ref_matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _ref_rank(a):
    a = [row[:] for row in a]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _num_canonical(m):
    """den > 0 and coprime to the numerators (1 for zero); int64 exactly
    when every numerator fits."""
    _, _, nums = m.num_triplets()
    dense = m.num_dense()
    ints = [int(v) for v in nums.tolist()]
    fits = all(abs(v) < 1 << 63 for v in ints)
    assert dense.dtype == (np.int64 if fits else object)
    return m.den > 0 and math.gcd(m.den, *ints) == 1 and (ints or m.den == 1)


def _q_storage(rows):
    """The dense and the sparse form of a Fraction matrix."""
    d = ExactMatrix.from_dense(QQ, rows)
    trips = [(i, j, v) for i, r in enumerate(rows) for j, v in enumerate(r) if v]
    return [d, ExactMatrix.from_triplets(QQ, len(rows), len(rows[0]), trips)]


def _as_rows(m):
    return m.to_dense().tolist()


Q_KINDS = ["small", "mid", "wide", "edge", "big"]


@pytest.mark.parametrize("kind", Q_KINDS)
def test_q_numerator_add_neg_scale(kind):
    rng = np.random.default_rng(101 + Q_KINDS.index(kind))
    for _ in range(4):
        a, b = _random_q(rng, 4, 5, kind), _random_q(rng, 4, 5, kind)
        c = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        for av in _q_storage(a):
            for bv in _q_storage(b):
                for got, want in [
                        (av + bv, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
                        (av - bv, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
                        (-av, [[-x for x in r] for r in a]),
                        (av.scale(c), [[x * c for x in r] for r in a]),
                        (av.scale(1 << 64), [[x * (1 << 64) for x in r] for r in a])]:
                    assert _as_rows(got) == want
                    assert _num_canonical(got)
            assert (av - av).is_zero() and (av - av).den == 1


@pytest.mark.parametrize("kind", Q_KINDS)
def test_q_numerator_matmul_all_storage_orders(kind):
    rng = np.random.default_rng(111 + Q_KINDS.index(kind))
    for shape in [(3, 4, 2), (5, 5, 5), (1, 6, 3)]:
        a = _random_q(rng, shape[0], shape[1], kind)
        b = _random_q(rng, shape[1], shape[2], kind)
        want = _ref_matmul(a, b)
        for av in _q_storage(a):        # dense, sparse
            for bv in _q_storage(b):
                got = av @ bv
                assert _as_rows(got) == want, (av.is_dense, bv.is_dense)
                assert _num_canonical(got)


def test_q_numerator_matmul_past_float64_exactness():
    """3 * (2**26 + 1)**2 needs 54 bits: float64 would drop its last one."""
    x = (1 << 26) + 1
    want = Fraction(3 * x * x, 4)
    for av in _q_storage([[Fraction(x, 2)] * 3]):
        for bv in _q_storage([[Fraction(x, 2)]] * 3):
            assert (av @ bv)[0, 0] == want


def test_q_numerator_matmul_large_sparse_int64_and_object(monkeypatch):
    """Products with a sparse operand go through scipy (int64) or the
    triplet expansion (Python ints); both agree with the dense route.
    The sparse-by-sparse products have fewer multiply-adds than
    _EXPAND_MADDS, so they run once with it lowered to 0, which sends the
    int64 one to scipy, and once as they are, in the expansion."""
    rng = np.random.default_rng(117)
    for top in [3, (1 << 40), (1 << 62)]:
        a = np.where(rng.random((70, 120)) < 0.05, rng.integers(-top, top, (70, 120)), 0)
        b = np.where(rng.random((120, 90)) < 0.05, rng.integers(-top, top, (120, 90)), 0)
        fa = [[Fraction(int(x), 6) for x in r] for r in a.tolist()]
        fb = [[Fraction(int(x), 35) for x in r] for r in b.tolist()]
        sa, sb = _q_storage(fa)[1], _q_storage(fb)[1]
        want = ExactMatrix.from_dense(QQ, fa) @ ExactMatrix.from_dense(QQ, fb)
        assert 0 < matrix._madds(sa, sb) <= matrix._EXPAND_MADDS
        for limit in (0, matrix._EXPAND_MADDS):
            monkeypatch.setattr(matrix, "_EXPAND_MADDS", limit)
            for got in (sa @ sb, sa @ _q_storage(fb)[0], _q_storage(fa)[0] @ sb):
                assert got == want
                assert _num_canonical(got)
        assert want.to_dense()[5, 7] == sum(fa[5][t] * fb[t][7] for t in range(120))


@pytest.mark.parametrize("kind", Q_KINDS)
def test_q_numerator_kron_transpose_permute(kind):
    rng = np.random.default_rng(121 + Q_KINDS.index(kind))
    a, b = _random_q(rng, 3, 2, kind), _random_q(rng, 2, 3, kind)
    pr, pc = rng.permutation(3), rng.permutation(2)
    for av in _q_storage(a):
        for bv in _q_storage(b):
            got = av.kron(bv)
            assert _as_rows(got) == _ref_kron(a, b)
            assert _num_canonical(got)
        assert _as_rows(av.T) == [list(c) for c in zip(*a)]
        assert _as_rows(av.permute_rows(pr)) == [a[i] for i in pr]
        assert _as_rows(av.permute_cols(pc)) == [[r[j] for j in pc] for r in a]
        for m in (av.T, av.permute_rows(pr), av.permute_cols(pc)):
            assert _num_canonical(m)


@pytest.mark.parametrize("kind", Q_KINDS)
def test_q_numerator_equality_and_rank(kind):
    rng = np.random.default_rng(131 + Q_KINDS.index(kind))
    for rows, cols, r in [(4, 4, 2), (5, 3, 3), (6, 6, 6), (3, 7, 1)]:
        x, y = _random_q(rng, rows, r, kind), _random_q(rng, r, cols, kind)
        a = _ref_matmul(x, y)
        want = _ref_rank(a)
        d, s = _q_storage(a)
        assert d == s and s == d
        assert d.exact_rank() == s.exact_rank() == want
        # the same values stored over a multiple of the denominator
        scaled = ExactMatrix(QQ, rows, cols, dense=d.num_dense().astype(object) * 6,
                             den=d.den * 6)
        assert scaled == d and scaled.den == d.den
        if want:
            i, j = next((i, j) for i in range(rows) for j in range(cols) if a[i][j])
            other = [row[:] for row in a]
            other[i][j] += Fraction(1, 3)
            assert ExactMatrix.from_dense(QQ, other) != d
            assert d[i, j] == a[i][j]


def test_duplicate_triplets_sum_past_int64():
    """Entries at one position are summed exactly, also where the sum, but
    no single entry, passes 2**63; a sum that fits is stored as int64."""
    big = 999999999999999999
    for trips, want in [([(0, 0, 1 << 62)] * 2, 1 << 63),
                        ([(0, 0, -(1 << 62))] * 2 + [(0, 0, -1)], -(1 << 63) - 1),
                        ([(0, 1, big)] * 10, 10 * big),
                        ([(0, 1, Fraction(big, 2))] * 10 + [(0, 0, 1)], 5 * big)]:
        m = ExactMatrix.from_triplets(QQ, 1, 2, trips)
        assert m[trips[0][0], trips[0][1]] == want
        assert _num_canonical(m)
    ri = np.zeros(2, dtype=np.int64)
    m = ExactMatrix.from_num_coo(QQ, 1, 1, ri, ri, np.array([1 << 62] * 2), 3)
    assert m[0, 0] == Fraction(1 << 63, 3) and m.den == 3
    m = ExactMatrix.from_triplets(QQ, 1, 1, [(0, 0, 1 << 62)] * 3 + [(0, 0, -(1 << 63))])
    assert m[0, 0] == 1 << 62 and m.num_triplets()[2].dtype == np.int64
    for f in (F5, FBIG):
        m = ExactMatrix.from_triplets(f, 1, 1, [(0, 0, f.p - 1)] * 7)
        assert m[0, 0] == 7 * (f.p - 1) % f.p
        assert m.num_triplets()[2].dtype == f.dtype


@pytest.mark.parametrize("f", [QQ, FBIG], ids=["Q", "Fp2^31+11"])
def test_expand_matmul_in_row_blocks(f, monkeypatch):
    """Python-int products formed a few rows at a time, down to one row,
    equal the reference, with either operand dense or sparse."""
    rng = np.random.default_rng(19)
    top, den = (1 << 62, 6) if f is QQ else (f.p, 1)

    def rand(rows, cols):
        return np.where(rng.random((rows, cols)) < 0.1,
                        rng.integers(0, top, (rows, cols)), 0).astype(object)
    a, b = rand(60, 150), rand(150, 70)
    a[3] = 0  # an empty row of a
    prod = a.dot(b)
    want = ExactMatrix.from_dense(
        f, [[Fraction(v, den * den) for v in r] for r in prod] if f is QQ else prod % f.p)
    ad = ExactMatrix.from_dense(f, [[Fraction(v, den) for v in r] for r in a])
    bd = ExactMatrix.from_dense(f, [[Fraction(v, den) for v in r] for r in b])
    asp = ExactMatrix.from_coo(f, 60, 150, *ad.triplets())
    bsp = ExactMatrix.from_coo(f, 150, 70, *bd.triplets())
    calls = []
    expand = matrix._expand_matmul
    monkeypatch.setattr(matrix, "_expand_matmul", lambda *args: calls.append(1) or expand(*args))
    for block in (1, 7, 1 << 20):
        monkeypatch.setattr(matrix, "_EXPAND_BLOCK", block)
        for x, y in [(ad, bsp), (asp, bd), (asp, bsp)]:
            got = x @ y
            assert got == want
            if f is QQ:
                assert _num_canonical(got)
        assert (ExactMatrix.zeros(f, 60, 150, dense=f is FBIG) @ bsp).is_zero()
    assert len(calls) >= 9  # the nine products above all ran the expansion
