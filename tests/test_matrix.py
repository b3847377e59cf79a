"""Exact matrix storage, arithmetic, rank, and Kronecker indexing."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from kronrig.field import PrimeField, QQ
from kronrig.matrix import (
    ExactMatrix,
    KroneckerSpec,
    MonomialMatrix,
    SizeCapError,
    all_digits,
    hstack,
    index_to_tuple,
    kron_list,
    mixed_radix_strides,
    rank_of_product,
    random_dense,
    random_invertible,
    transposition,
    tuple_to_index,
    vstack,
    _rank_streaming,
)

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
    # more columns than one leaf of the kernel, few enough to enumerate
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


def test_rank_q_multimodular_against_sympy(monkeypatch):
    import kronrig.matrix as km
    calls = []
    real = km._rank_mod_p
    monkeypatch.setattr(km, "_rank_mod_p", lambda a, p: calls.append(p) or real(a, p))
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


def test_rank_streaming_matches_dense():
    rng = np.random.default_rng(31)
    for f in [F5, QQ]:
        trips = [(int(i), int((i * 13 + j) % 40), f.canon(int(rng.integers(1, 4))))
                 for i in range(40) for j in range(3)]
        m = ExactMatrix.from_triplets(f, 40, 40, trips)
        assert _rank_streaming(m) == ExactMatrix.from_dense(f, m.to_dense()).exact_rank()


def test_rank_of_product_avoids_materializing():
    rng = np.random.default_rng(41)
    for f in [F5, QQ]:
        u = random_dense(f, 8, 3, rng)
        v = random_dense(f, 3, 8, rng)
        assert rank_of_product(u, v) == (u @ v).exact_rank()
    # engineered rank drop: u's columns collide
    u = ExactMatrix.from_dense(F5, [[1, 1], [2, 2], [0, 0]])
    v = ExactMatrix.from_dense(F5, [[1, 0, 4], [3, 1, 0]])
    assert rank_of_product(u, v) == 1


def test_row_basis_spans():
    m = ExactMatrix.from_dense(F7, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    rb = m.row_basis()
    assert rb.rows == 2
    stacked = vstack([rb, m])
    assert stacked.exact_rank() == rb.exact_rank() == m.exact_rank()


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
    assert g.per_row_nnz().tolist() == [2, 2, 1]
    assert g.per_col_nnz().tolist() == [1, 1, 3]
    assert ExactMatrix.zeros(F5, 2, 2).row_col_nnz() == (0, 0)


def test_permutations():
    m = ExactMatrix.from_dense(F5, [[1, 2, 3], [4, 0, 1], [2, 2, 2]])
    perm = [2, 0, 1]
    assert m.permute_rows(perm).to_dense().tolist() == [[2, 2, 2], [1, 2, 3], [4, 0, 1]]
    assert m.permute_cols(perm).to_dense().tolist() == [[3, 1, 2], [1, 4, 0], [2, 2, 2]]
    for v in _storage_variants(m):
        assert v.permute_rows(perm) == m.permute_rows(perm)
        assert v.permute_cols(perm) == m.permute_cols(perm)
    # conjugating by a transposition matrix matches index swaps
    t = transposition(F5, 3, 0, 2).to_matrix()
    assert t @ m == m.permute_rows([2, 1, 0])
    assert m @ t == m.permute_cols([2, 1, 0])


def test_stacking():
    a = ExactMatrix.from_dense(F5, [[1, 2], [3, 4]])
    b = ExactMatrix.from_dense(F5, [[0, 1], [1, 0]])
    assert hstack([a, b]).to_dense().tolist() == [[1, 2, 0, 1], [3, 4, 1, 0]]
    assert vstack([a, b]).to_dense().tolist() == [[1, 2], [3, 4], [0, 1], [1, 0]]


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


def test_kron_spec_validation_and_cap():
    a = ExactMatrix.from_dense(F5, [[1]])
    with pytest.raises(ValueError):
        KroneckerSpec([a])
    two = ExactMatrix.identity(F5, 2)
    spec = KroneckerSpec([two] * 17)             # order 131072
    assert spec.n == 1 << 17
    with pytest.raises(SizeCapError):
        spec.materialize()


def test_mixed_radix_round_trip():
    dims = (2, 3, 4)
    assert mixed_radix_strides(dims).tolist() == [12, 4, 1]
    n = 24
    seen = set()
    for idx in range(n):
        t = index_to_tuple(idx, dims)
        assert tuple_to_index(t, dims) == idx
        seen.add(t)
    assert len(seen) == n
    digits = all_digits(dims)
    assert digits.shape == (n, 3)
    assert digits[0].tolist() == [1, 1, 1]
    assert digits[n - 1].tolist() == [2, 3, 4]
    # factor 1 is most significant: second half of rows has first digit 2
    assert (digits[12:, 0] == 2).all()
    with pytest.raises(ValueError):
        tuple_to_index((0, 1, 1), dims)


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


# ----------------------------------------------------------------------
# monomial matrices


def test_monomial_against_materialized():
    rng = np.random.default_rng(71)
    for f in [F5, QQ]:
        s1 = rng.permutation(4)
        s2 = rng.permutation(4)
        m1 = MonomialMatrix(f, s1, [f.rand_nonzero(rng) if f is not QQ else
                                    Fraction(int(rng.integers(1, 5))) for _ in range(4)])
        m2 = MonomialMatrix(f, s2)
        assert m1.compose(m2).to_matrix() == m1.to_matrix() @ m2.to_matrix()
        assert m1.kron(m2).to_matrix() == m1.to_matrix().kron(m2.to_matrix())
        assert m1.transpose().to_matrix() == m1.to_matrix().T
        ident = m1.compose(m1.inverse()).to_matrix()
        assert ident == ExactMatrix.identity(f, 4)


def test_monomial_diagonal():
    d = MonomialMatrix.diagonal(F5, [2, 0, 3])
    assert d.is_diagonal
    assert d.to_matrix().to_dense().tolist() == [[2, 0, 0], [0, 0, 0], [0, 0, 3]]
    assert d.to_matrix().exact_rank() == 2


def test_monomial_rejects_non_bijection():
    with pytest.raises(ValueError):
        MonomialMatrix(F5, [0, 0, 1])


def test_random_invertible():
    rng = np.random.default_rng(73)
    for f in [F2, F5]:
        m = random_invertible(f, 3, rng)
        assert m.exact_rank() == 3
