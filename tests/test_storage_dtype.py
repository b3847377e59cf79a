"""Dense F_p storage in the narrowest dtype that holds p - 1.

A dense matrix over F_p stores its residues in uint8 for p <= 2**8, in
uint16 for p <= 2**16, in int64 below 2**31 and in Python ints beyond;
triplets, `to_dense()` and indexing still give `field.dtype`.  Every ring
op is checked here against Python-int arithmetic at primes on either side
of each limit: 251/257 (uint8), 65521/65537 (uint16), 181/191 (residue
products in int16), and 2**31 - 1/2147483659 (int64).  A sum of two
residues of p > 128 passes uint8, a negation or a difference is negative,
and a product passes both: each must be lifted before it is formed.
"""

import numpy as np
import pytest

from kronrig import matrix
from kronrig.field import PrimeField
from kronrig.fileio import parse_matrix, read_cert, read_matrix, render_matrix
from kronrig.hadamard import walsh_factors
from kronrig.matrix import ExactMatrix, KroneckerSpec, random_invertible

PRIMES = [2, 5, 181, 191, 251, 257, 65521, 65537, 2**31 - 1, 2147483659]
STORE = {2: np.uint8, 5: np.uint8, 181: np.uint8, 191: np.uint8, 251: np.uint8,
         257: np.uint16, 65521: np.uint16, 65537: np.int64, 2**31 - 1: np.int64,
         2147483659: object}


def _cells(p, rows, cols, rng, density=1.0):
    """A rows x cols list of Python-int residues, about `density` of them
    nonzero, with p - 1 (the largest residue) in a corner."""
    out = [[int(rng.integers(1, p)) if rng.random() < density else 0
            for _ in range(cols)] for _ in range(rows)]
    out[0][0] = out[-1][-1] = p - 1
    return out


def _matrices(f, cells):
    """The matrix of `cells` stored dense and stored sparse."""
    dense = ExactMatrix.from_dense(f, cells)
    sparse = ExactMatrix(f, dense.rows, dense.cols, coo=dense.num_triplets())
    assert dense.is_dense and not sparse.is_dense
    return dense, sparse


def _ref(m):
    """The values of m as Python ints, row by row."""
    return [[int(v) for v in row] for row in m.to_dense()]


def _matmul(p, a, b):
    prod = np.dot(np.array(a, dtype=object), np.array(b, dtype=object)) % p
    return [[int(v) for v in row] for row in prod]


def _check_storage(m):
    """m's dense storage is in its field's storage dtype, and what it
    gives out is in field.dtype."""
    f = m.field
    if m.is_dense:
        assert m.num_dense().dtype == STORE[f.p]
    assert m.to_dense().dtype == f.dtype
    assert m.num_triplets()[2].dtype == f.dtype
    assert m.triplets()[2].dtype == f.dtype


def _rank_mod_p(rows, p):
    """Rank of a list of Python-int rows modulo p, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, len(rows)):
            g = rows[i][c] * inv % p
            rows[i] = [(x - g * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", PRIMES)
def test_store_dtype_is_the_narrowest_that_holds_p_minus_1(p):
    f = PrimeField(p)
    assert matrix._store_dtype(f) is STORE[p]
    m = ExactMatrix.zeros(f, 2, 3, dense=True)
    assert m.num_dense().dtype == STORE[p]
    _check_storage(m)
    _check_storage(ExactMatrix.from_dense(f, [[p - 1, 0, 1]]))


@pytest.mark.parametrize("p", PRIMES)
def test_add_neg_sub_scale_against_python_ints(p):
    f = PrimeField(p)
    rng = np.random.default_rng(p % 1000)
    a, b = _cells(p, 7, 9, rng), _cells(p, 7, 9, rng, 0.5)
    b[0][0] = b[3][4] = p - 1  # (p - 1) + (p - 1) passes uint8 for p > 128
    a[3][4] = p - 1
    want_add = [[(x + y) % p for x, y in zip(r, s)] for r, s in zip(a, b)]
    want_sub = [[(x - y) % p for x, y in zip(r, s)] for r, s in zip(a, b)]
    for am in _matrices(f, a):
        _check_storage(-am)
        assert _ref(-am) == [[-x % p for x in r] for r in a]
        for c in (2, p - 1):
            got = am.scale(c)
            _check_storage(got)
            assert _ref(got) == [[x * c % p for x in r] for r in a]
        for bm in _matrices(f, b):
            for got, want in ((am + bm, want_add), (am - bm, want_sub),
                              (bm + am, want_add)):
                _check_storage(got)
                assert _ref(got) == want


def _spy_sums(monkeypatch):
    """The dtype of every dense array that a sum of matrices hands the
    constructor."""
    seen, inside = [], []
    init, add = ExactMatrix.__init__, ExactMatrix.__add__

    def spy_init(self, *args, dense=None, **kwargs):
        if inside and dense is not None:
            seen.append(dense.dtype)
        init(self, *args, dense=dense, **kwargs)

    def spy_add(self, other):
        inside.append(1)
        try:
            return add(self, other)
        finally:
            inside.pop()
    monkeypatch.setattr(ExactMatrix, "__init__", spy_init)
    monkeypatch.setattr(ExactMatrix, "__add__", spy_add)
    return seen


@pytest.mark.parametrize("p,dtype", [(127, np.uint8), (131, np.uint16),
                                     (251, np.uint16), (257, np.uint16),
                                     (32749, np.uint16), (32771, np.uint32),
                                     (65521, np.uint32)])
def test_dense_sum_in_the_narrowest_unsigned_dtype(p, dtype, monkeypatch):
    """A dense sum of residues is formed in the narrowest unsigned dtype
    that holds 2(p - 1), and equals the Python-int sum, (p - 1) + (p - 1)
    included; so is the routed rank's identity - inv_cr @ z_rc."""
    f = PrimeField(p)
    rng = np.random.default_rng(p)
    a, b = _cells(p, 6, 8, rng), _cells(p, 6, 8, rng, 0.5)
    b[2][3] = a[2][3] = p - 1
    want = [[(x + y) % p for x, y in zip(r, s)] for r, s in zip(a, b)]
    seen = _spy_sums(monkeypatch)
    for am in _matrices(f, a):
        for bm in _matrices(f, b):
            got = am + bm
            assert _ref(got) == want
            assert not got.is_dense or got.num_dense().dtype == matrix._store_dtype(f)
    assert seen and set(seen) == {np.dtype(dtype)}
    spec = KroneckerSpec([random_invertible(f, d, rng) for d in (2, 3, 2)])
    n = spec.n
    z = [[0] * n for _ in range(n)]
    for j in range(0, n, 2):
        z[int(rng.integers(n))][j] = int(rng.integers(1, p))
    full = _ref(spec.materialize())
    seen.clear()
    assert matrix._rank_of_difference(spec, ExactMatrix.from_dense(f, z)) == _rank_mod_p(
        [[(x - y) % p for x, y in zip(r, s)] for r, s in zip(full, z)], p)
    assert seen == [np.dtype(dtype)]


@pytest.mark.parametrize("p", PRIMES)
def test_matmul_against_python_ints(p):
    """Dense and sparse operands in every pairing, small (numpy) and above
    _SMALL_CELLS (the blocked kernel, scipy or the expansion), and a
    sparse pair thin enough for the expansion."""
    f = PrimeField(p)
    rng = np.random.default_rng(p % 997)
    for rows, inner, cols, density in ((5, 6, 4, 0.5), (72, 120, 72, 0.3),
                                       (72, 120, 72, 0.02)):
        a = _cells(p, rows, inner, rng, density)
        b = _cells(p, inner, cols, rng, density)
        want = _matmul(p, a, b)
        for am in _matrices(f, a):
            for bm in _matrices(f, b):
                got = am @ bm
                _check_storage(got)
                assert _ref(got) == want


@pytest.mark.parametrize("p", PRIMES)
def test_kron_against_python_ints(p):
    f = PrimeField(p)
    rng = np.random.default_rng(p % 991)
    a, b = _cells(p, 5, 4, rng, 0.6), _cells(p, 3, 6, rng, 0.6)
    want = [[a[i // 3][j // 6] * b[i % 3][j % 6] % p for j in range(24)]
            for i in range(15)]
    for am in _matrices(f, a):
        for bm in _matrices(f, b):
            got = am.kron(bm)
            _check_storage(got)
            assert _ref(got) == want


@pytest.mark.parametrize("p", PRIMES)
def test_structural_ops_and_equality_against_python_ints(p):
    f = PrimeField(p)
    rng = np.random.default_rng(p % 983)
    a = _cells(p, 6, 8, rng, 0.5)
    perm_r, perm_c = rng.permutation(6), rng.permutation(8)
    rows, cols = [4, 0, 5], [7, 1, 2, 6]
    dense, sparse = _matrices(f, a)
    assert dense == sparse and sparse == dense
    for m in (dense, sparse):
        for got, want in (
                (m.T, [list(r) for r in zip(*a)]),
                (m.permute_rows(perm_r), [a[i] for i in perm_r]),
                (m.permute_cols(perm_c), [[r[j] for j in perm_c] for r in a]),
                (m.submatrix(rows, cols), [[a[i][j] for j in cols] for i in rows])):
            _check_storage(got)
            assert _ref(got) == want
        assert type(m[0, 0]) is (int if p > 2**31 else np.int64)
        assert int(m[0, 0]) == p - 1 and int(m[5, 7]) == p - 1
    other = [list(r) for r in a]
    other[2][3] = (other[2][3] + 1) % p
    for m in _matrices(f, other):
        assert m != dense and m != sparse


@pytest.mark.parametrize("p", PRIMES)
def test_exact_rank_against_python_ints(p):
    """A full-rank block and a rank-deficient one: row 3 is row 0 plus
    (p - 1) times row 1, so rank 4 of 5 rows."""
    f = PrimeField(p)
    rng = np.random.default_rng(p % 977)
    for cells in (_cells(p, 6, 9, rng), _cells(p, 5, 7, rng, 0.5)):
        if len(cells) == 5:
            cells[3] = [(x + (p - 1) * y) % p for x, y in zip(cells[0], cells[1])]
        for m in _matrices(f, cells):
            assert m.exact_rank() == _rank_mod_p(cells, p)


@pytest.mark.parametrize("p", PRIMES)
def test_routed_rank_against_python_ints(p):
    """rank(A - Z) from Z's nonzero rows and columns and the factors'
    inverses (`_rank_of_difference`), whose gathered entries multiply
    past uint8 and uint16, with Z in a third of the columns (one of them
    a column of A) and in all of them."""
    f = PrimeField(p)
    rng = np.random.default_rng(p % 953)
    spec = KroneckerSpec([random_invertible(f, d, rng) for d in (2, 3, 2)])
    a, n = _ref(spec.materialize()), spec.n
    for cols in (range(0, n, 3), range(n)):
        z = [[0] * n for _ in range(n)]
        for j in cols:
            z[int(rng.integers(n))][j] = int(rng.integers(1, p))
        for i in range(n):
            z[i][0] = a[i][0]
        zm = ExactMatrix.from_dense(f, z)
        want = _rank_mod_p([[(x - y) % p for x, y in zip(r, s)] for r, s in zip(a, z)], p)
        assert want < n
        assert matrix._rank_of_difference(spec, zm) == want


@pytest.mark.parametrize("p", PRIMES)
def test_first_mismatch_against_python_ints(p, monkeypatch):
    """(uv + z)[i, j] against the target cell by cell, in blocks of two
    rows: equal everywhere, then off where z is zero, where z is not
    (and uv + z passes p, or uv - target wraps in an unsigned dtype), and
    where the target is p - 1 with uv 0 (so uv - target wraps)."""
    monkeypatch.setattr(matrix, "_BLOCK_CELLS", 16)
    f = PrimeField(p)
    rng = np.random.default_rng(p % 971)
    uv_cells = _cells(p, 8, 8, rng)
    z_cells = [[0] * 8 for _ in range(8)]
    z_cells[2][5] = z_cells[4][6] = z_cells[6][1] = p - 1
    uv_cells[2][5] = uv_cells[6][1] = p - 1
    uv_cells[4][6] = uv_cells[7][2] = 0
    target = [[(x + y) % p for x, y in zip(r, s)] for r, s in zip(uv_cells, z_cells)]
    uv = ExactMatrix.from_dense(f, uv_cells)
    z = ExactMatrix.from_coo(f, 8, 8, [2, 4, 6], [5, 6, 1], [p - 1] * 3)
    assert matrix.first_mismatch(uv, z, ExactMatrix.from_dense(f, target)) is None
    for i, j, v in ((4, 3, None), (4, 6, 0), (6, 1, None), (7, 2, p - 1)):
        bad = [list(r) for r in target]
        bad[i][j] = (bad[i][j] + 1) % p if v is None else v
        assert bad[i][j] != target[i][j]
        tm = ExactMatrix.from_dense(f, bad)
        assert matrix.first_mismatch(uv, z, tm) == (i, j)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("fmt", ["dense", "sparse"])
def test_matrix_file_round_trip(p, fmt):
    f = PrimeField(p)
    rng = np.random.default_rng(p % 967)
    cells = _cells(p, 6, 5, rng, 0.6)
    for m in _matrices(f, cells):
        text = render_matrix(m, fmt)
        assert text.splitlines()[4:] == (
            [" ".join(map(str, r)) for r in cells] if fmt == "dense" else
            [f"{i} {j} {v}" for i, r in enumerate(cells) for j, v in enumerate(r) if v])
        got = parse_matrix(text)
        assert got.is_dense == (fmt == "dense")
        _check_storage(got)
        assert got == m and _ref(got) == cells


def test_fp_walsh_target_and_product_hold_a_byte_a_cell(fp_walsh_cert):
    """The fp_walsh-shaped target (n = 1024, F_5) and its U @ V are stored
    in one byte a cell, and still give int64 values out."""
    path, decompose, _ = fp_walsh_cert
    c = read_cert(path)
    files = [decompose[i + 1] for i, t in enumerate(decompose) if t == "--factors"]
    target = KroneckerSpec(walsh_factors(c.field, 8)
                           + [read_matrix(name) for name in files]).materialize()
    uv = c.u @ c.v
    for m in (target, uv):
        assert m.is_dense and m.shape == (1024, 1024)
        assert m.num_dense().nbytes <= 1024 * 1024
        assert m.to_dense().dtype == np.int64
        assert m.triplets()[2].dtype == np.int64
    assert matrix.first_mismatch(uv, c.z, target) is None


@pytest.mark.parametrize("p", PRIMES)
def test_matrix_files_with_unreduced_values(p):
    """Values written outside [0, p), negative or past p - 1 (and past
    int32 for the largest primes), are reduced on reading."""
    f = PrimeField(p)
    head = f"field: Fp {p}\nrows: 2\ncols: 3\nformat: "
    dense = parse_matrix(head + f"dense\n-1 {p} {p + 1}\n{1 - p} 0 {2 * p - 1}\n")
    sparse = parse_matrix(head + f"sparse\n0 0 -1\n0 1 {p}\n0 2 {p + 1}\n"
                          f"1 0 {1 - p}\n1 2 {2 * p - 1}\n")
    for m in (dense, sparse):
        _check_storage(m)
        assert _ref(m) == [[p - 1, 0, 1], [1, 0, p - 1]]
    assert len(sparse.num_triplets()[0]) == 4
    # tokens of at most 4 digits are decoded as int32, whatever p
    short = parse_matrix(head + "dense\n-1 0 5\n-7 3 0\n")
    _check_storage(short)
    assert _ref(short) == [[p - 1, 0, 5 % p], [-7 % p, 3 % p, 0]]


def test_values_past_int64_are_not_wrapped():
    """A list of ints up to 2**64 becomes a uint64 array in numpy; a value
    past int64 must not wrap to a negative int64 before its reduction."""
    big = 2**63 + 5
    m = ExactMatrix.from_triplets(PrimeField(2147483659), 1, 1, [(0, 0, big)])
    assert int(m[0, 0]) == big % 2147483659
    try:
        m = ExactMatrix.from_triplets(PrimeField(5), 1, 1, [(0, 0, big)])
    except OverflowError:
        return
    assert int(m[0, 0]) == big % 5
