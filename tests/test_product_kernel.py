"""The blocked product kernel of products with a sparse operand.

`_matmul` forms a @ b against a dense operand in the first of int16,
float32, float64 and int64 that `exact_dtype` proves exact for the
product's bound, a block of rows at a time, and reduces each block into
the result, stored as dense matrices store it.  These tests compare it with an object-dtype
reference in every field, at the int16 and float32 bounds and one past
each, and pin where `_densify` sends a sparse-by-sparse product.  The
dense Kronecker product over F_p runs in int16 by the same bound.

A sparse-by-sparse product of at most `_EXPAND_MADDS` multiply-adds runs
in `_expand_matmul` instead, summed by a float64 bincount, in int64 or in
Python ints by the same kind of bound; the last tests check it against
the reference, at each bound and at the threshold.
"""

from fractions import Fraction

import numpy as np
import pytest

from kronrig import matrix
from kronrig.field import QQ, PrimeField
from kronrig.fileio import read_cert
from kronrig.matrix import ExactMatrix

# 65537 and 33554467 run the float64 and int64 kernels, and the Q
# numerators of _random float64; the bounds of 2**31 - 1 and 2147483659
# pass int64 at every inner dimension above 1, so they take Python ints
F5 = PrimeField(5)
FIELDS = [PrimeField(2), PrimeField(5), PrimeField(65537), PrimeField(33554467),
          PrimeField(2**31 - 1), PrimeField(2147483659), QQ]
KERNEL_DTYPE = {2: np.int16, 5: np.int16, 65537: np.float64,
                33554467: np.int64, 2**31 - 1: None, 2147483659: None}
# the dtypes a product with a sparse operand may run in
KERNEL_ACCEPTS = (np.int16, np.float32, np.float64, np.int64)


def _spy(monkeypatch):
    """The dtypes the kernel runs in, one per call."""
    seen = []
    real = matrix._matmul

    def spy(x, y, *args, **kwargs):
        seen.append(x.dtype.type)
        return real(x, y, *args, **kwargs)
    monkeypatch.setattr(matrix, "_matmul", spy)
    return seen


def _random(field, rng, rows, cols, density):
    """A sparse matrix with values over the whole field: residues up to
    p - 1, or signed Q numerators up to 2**20 over a denominator."""
    top = field.p if isinstance(field, PrimeField) else 1 << 20
    vals = np.where(rng.random((rows, cols)) < density,
                    rng.integers(-top + 1, top, (rows, cols)), 0)
    if isinstance(field, PrimeField):
        cells = [[int(v) % field.p for v in r] for r in vals]
    else:
        cells = [[Fraction(int(v), 3) for v in r] for r in vals]
    m = ExactMatrix.from_dense(field, cells)
    return ExactMatrix(field, rows, cols, coo=m.num_triplets(), den=m.den)


def _dense(m):
    """m stored dense; m itself stays sparse (num_dense would cache)."""
    return ExactMatrix(m.field, m.rows, m.cols, dense=m._scatter(), den=m.den)


def _nums(m):
    """m's stored values as Python ints, m's storage unchanged."""
    return (m._dense if m.is_dense else m._scatter()).astype(object)


def _reference(a, b):
    """a @ b in Python ints, as field values."""
    prod = np.dot(_nums(a), _nums(b))
    if isinstance(a.field, PrimeField):
        return (prod % a.field.p).tolist()
    return [[Fraction(v, a.den * b.den) for v in r] for r in prod.tolist()]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.header)
def test_kernel_matches_reference_in_every_order(field, monkeypatch):
    """Sparse by dense, dense by sparse, and sparse by sparse with either
    operand densified (int16 and float32 only), in blocks of 3 rows and of
    all 45.  The sparse-by-sparse product has about 2.7e4 multiply-adds;
    _EXPAND_MADDS is lowered below that so that it reaches the kernel."""
    rng = np.random.default_rng(41)
    a, b = _random(field, rng, 45, 300, 0.2), _random(field, rng, 300, 50, 0.2)
    want = _reference(a, b)
    monkeypatch.setattr(matrix, "_EXPAND_MADDS", matrix._madds(a, b) - 1)
    seen = _spy(monkeypatch)
    for block in (3 * 50, 1 << 18):
        monkeypatch.setattr(matrix, "_BLOCK_CELLS", block)
        monkeypatch.setattr(matrix, "_INT16_BLOCK_CELLS", block)
        for side in ("a", "b"):
            monkeypatch.setattr(matrix, "_densify", lambda a, b, madds, side=side: side)
            for x, y in ((a, _dense(b)), (_dense(a), b), (a, b)):
                assert (x @ y).to_dense().tolist() == want
    assert not a.is_dense and not b.is_dense
    dtype = KERNEL_DTYPE.get(getattr(field, "p", None), np.float64)
    assert seen == [dtype] * {np.int16: 12, np.float32: 12, None: 0}.get(dtype, 8)


def test_kernel_chooses_the_narrowest_exact_dtype():
    limit = 1 << 24
    for bound, dtype in ((0, np.int16), ((1 << 15) - 1, np.int16),
                         (1 << 15, np.float32), (limit, np.float32),
                         (limit + 1, np.float64), (1 << 50, np.float64),
                         ((1 << 50) + 1, np.int64), ((1 << 63) - 1, np.int64),
                         (1 << 63, object)):
        assert matrix.exact_dtype(bound, KERNEL_ACCEPTS,
                                  np.zeros(1, dtype=np.int64)) is dtype
    assert matrix.exact_dtype(1, KERNEL_ACCEPTS, np.zeros(1, dtype=object)) is object


def _full(field, rows, cols, value):
    m = ExactMatrix.from_dense(field, [[value] * cols] * rows)
    return ExactMatrix(field, rows, cols, coo=m.num_triplets(), den=m.den)


@pytest.mark.parametrize("inner,dtype", [(256, np.float32), (257, np.float64)])
def test_f257_at_the_float32_bound_and_one_past(inner, dtype, monkeypatch):
    """(p - 1)**2 * 256 = 2**24 for p = 257: the kernel runs in float32 at
    256 and leaves it at 257, where the one odd sum below passes 2**24 and
    float32 would round it."""
    f = PrimeField(257)
    a = _full(f, 40, inner, 256)
    b = _full(f, inner, 40, 256)
    if inner == 257:  # one entry of each 255 = 256 - 1
        a = a + ExactMatrix.from_triplets(f, 40, inner, [(0, 256, -1)])
        b = b + ExactMatrix.from_triplets(f, inner, 40, [(256, 0, -1)])
    seen = _spy(monkeypatch)
    for x, y in ((a, _dense(b)), (_dense(a), b)):
        assert (x @ y).to_dense().tolist() == _reference(a, b)
    assert seen == [dtype] * 2
    assert np.dot(_nums(a), _nums(b))[0, 0] \
        == (1 << 24) + (65025 if inner == 257 else 0)


def _check_signed_q(top, other, inner, sign, bound, dtype, monkeypatch):
    """A sparse Q matrix of numerators in [-top, top] times a dense one in
    [-other, other], whose row 0 and column 0 (rows and columns 1) reach
    the extreme sum sign * bound (bound)."""
    assert top * other * inner == bound
    rows = 8192 // inner + 3
    rng = np.random.default_rng(inner)
    a = rng.integers(-top, top + 1, (rows, inner))
    b = rng.integers(-other, other + 1, (inner, rows))
    a[0], b[:, 0] = sign * top, other
    a[1], b[:, 1] = -top, -other
    am, bm = ExactMatrix.from_dense(QQ, a.tolist()), ExactMatrix.from_dense(QQ, b.tolist())
    assert matrix._product_bound(QQ, am, bm, inner) == bound
    sa = ExactMatrix(QQ, rows, inner, coo=am.num_triplets())
    seen = _spy(monkeypatch)
    got = (sa @ bm).to_dense()
    assert got.tolist() == _reference(am, bm)
    assert got[0, 0] == sign * bound
    assert got[1, 1] == bound
    assert seen == [dtype]


@pytest.mark.parametrize("top,inner,sign,dtype", [
    (512, 64, -1, np.float32),    # 512 * 512 * 64 = 2**24
    (257, 97, 1, np.float64),     # 257 * 673 * 97 = 2**24 + 1
])
def test_signed_q_numerators_at_the_float32_bound(top, inner, sign, dtype,
                                                  monkeypatch):
    """Q numerators of both signs: at the bound the extreme sum is -2**24,
    which float32 holds; one past it, the extreme sum is 2**24 + 1, which
    it does not."""
    other = (1 << 24) // (top * inner) if dtype is np.float32 else 673
    _check_signed_q(top, other, inner, sign, (1 << 24) + (dtype is np.float64),
                    dtype, monkeypatch)


@pytest.mark.parametrize("top,other,inner,sign,dtype", [
    (151, 7, 31, -1, np.int16),   # 151 * 7 * 31 = 2**15 - 1
    (128, 8, 32, 1, np.float32),  # 128 * 8 * 32 = 2**15
])
def test_signed_q_numerators_at_the_int16_bound(top, other, inner, sign, dtype,
                                                monkeypatch):
    """At the int16 bound the extreme sum is -(2**15 - 1), which int16
    holds; one past it, the extreme sum is 2**15, which it does not."""
    _check_signed_q(top, other, inner, sign, top * other * inner, dtype,
                    monkeypatch)


@pytest.mark.parametrize("inner,dtype", [(2047, np.int16), (2048, np.float32)])
def test_f5_at_the_int16_bound_and_one_past(inner, dtype, monkeypatch):
    """(p - 1)**2 * 2047 = 2**15 - 17 for p = 5: the kernel runs in int16
    at 2047 and leaves it at 2048, where every sum below is 4 * 4 * 2048 =
    2**15, one past int16's largest value, and int16 would wrap it."""
    f = PrimeField(5)
    a, b = _full(f, 6, inner, 4), _full(f, inner, 6, 4)
    seen = _spy(monkeypatch)
    for x, y in ((a, _dense(b)), (_dense(a), b)):
        assert (x @ y).to_dense().tolist() == _reference(a, b)
    assert seen == [dtype] * 2
    sums = np.dot(_nums(a), _nums(b))
    assert (sums == 16 * inner).all()
    assert (np.full(inner, 16, dtype=np.int16).sum(dtype=np.int16) < 0) \
        == (inner == 2048)


@pytest.mark.parametrize("p,narrow", [(181, True), (191, False), (251, False),
                                      (257, False), (65521, False), (65537, False)])
def test_dense_kron_over_fp_in_int16_and_past_it(p, narrow, monkeypatch):
    """180**2 = 32400 fits int16 and 190**2 = 36100 does not, and 65520**2
    fits uint32 and 65536**2 does not: the dense Kronecker product over
    F_181 runs in int16, from F_191 to F_65521 in uint32 and over F_65537
    in int64, each reduced in that dtype, stored in its storage dtype and
    equal to the object-dtype product, extreme residues included."""
    f = PrimeField(p)
    rng = np.random.default_rng(p)
    a, b = rng.integers(0, p, (7, 5)), rng.integers(0, p, (6, 9))
    a[0, 0] = b[0, 0] = a[6, 4] = b[5, 8] = p - 1
    am, bm = ExactMatrix.from_dense(f, a.tolist()), ExactMatrix.from_dense(f, b.tolist())
    assert am.is_dense and bm.is_dense
    reduced = []
    real = matrix._reduce
    monkeypatch.setattr(matrix, "_reduce",
                        lambda x, q: reduced.append(x.dtype) or real(x, q))
    got = am.kron(bm)
    assert got.is_dense and got.num_dense().dtype == matrix._store_dtype(f)
    want = np.kron(a.astype(object), b.astype(object)) % p
    assert got.num_dense().tolist() == want.tolist()
    wide = np.uint32 if (p - 1) ** 2 < 1 << 32 else np.int64
    assert reduced == [np.dtype(np.int16 if narrow else wide)]


# ----------------------------------------------------------------------
# the cost rule


def test_cost_rule_densifies_the_fp_walsh_product(fp_walsh_cert):
    """The certificate's U (1024 x 1544) times V: the float32 kernel's
    nnz(U) * 1024 multiply-adds against Gustavson's ~9.5 M."""
    cert = read_cert(fp_walsh_cert[0])
    u, v = cert.u, cert.v
    assert (u.rows, u.cols) == (1024, 1544) and not u.is_dense and not v.is_dense
    assert matrix._densify(u, v, matrix._madds(u, v)) == "b"


def test_madds_counted_once_per_sparse_product(monkeypatch):
    """A sparse-by-sparse product counts its multiply-adds once, for the
    expansion test and for _densify alike, and is unchanged: expanded,
    densified, and left to scipy (_CELL_COST too high to densify)."""
    rng = np.random.default_rng(43)
    a, b = _random(F5, rng, 45, 300, 0.2), _random(F5, rng, 300, 50, 0.2)
    want = _reference(a, b)
    madds = matrix._madds(a, b)
    calls, paths = [], []

    def spy(name, into):
        real = getattr(matrix, name)

        def wrapped(*args, **kwargs):
            into.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(matrix, name, wrapped)
    spy("_madds", calls)
    spy("_expand_matmul", paths)
    spy("_matmul", paths)
    for limit, cell_cost, path in ((madds, 16, ["_expand_matmul"]),
                                   (madds - 1, 16, ["_matmul"]),
                                   (madds - 1, 1 << 40, [])):
        monkeypatch.setattr(matrix, "_EXPAND_MADDS", limit)
        monkeypatch.setattr(matrix, "_CELL_COST", cell_cost)
        calls.clear()
        paths.clear()
        assert (a @ b).to_dense().tolist() == want
        assert calls == ["_madds"] and paths == path
    assert not a.is_dense and not b.is_dense


def test_cost_rule_declines_a_permutation_like_product(fp_walsh_cert):
    """V times a permutation with a few doubled rows: the sparse product
    does about nnz(V) multiply-adds, far fewer than densifying costs."""
    cert = read_cert(fp_walsh_cert[0])
    v = cert.v
    rng = np.random.default_rng(7)
    n = v.cols
    cols = rng.permutation(n)
    ri = np.concatenate([np.arange(n), np.arange(0, n, 64)])
    ci = np.concatenate([cols, np.roll(cols, 1)[:len(ri) - n]])
    b = ExactMatrix.from_coo(v.field, n, n, ri, ci, np.ones(len(ri), dtype=np.int64))
    assert matrix._densify(v, b, matrix._madds(v, b)) is None
    got = v @ b
    assert not got.is_dense
    assert got == matrix._expand_matmul(v, b, 1)


# ----------------------------------------------------------------------
# the expansion

EXPAND_FIELDS = [PrimeField(2), PrimeField(5), PrimeField(2147483659), QQ]


def _forms(monkeypatch):
    """The accumulations _expand_matmul runs, one per product: "float64"
    for the dense bincount, else the dtype of the merged products."""
    seen = []
    real_merge, real_bincount = matrix._merge_products, np.bincount

    def merge(f, cols, ri, flat, vals):
        seen.append(vals.dtype.name)
        return real_merge(f, cols, ri, flat, vals)

    def bincount(x, weights=None, minlength=0):
        if weights is not None:
            seen.append(weights.dtype.name)
        return real_bincount(x, weights=weights, minlength=minlength)
    monkeypatch.setattr(matrix, "_merge_products", merge)
    monkeypatch.setattr(np, "bincount", bincount)
    return seen


def _pattern(m):
    return (_nums(m) != 0).astype(np.int64)


@pytest.mark.parametrize("field", EXPAND_FIELDS, ids=lambda f: f.header)
@pytest.mark.parametrize("rows,density,dense", [(40, 0.05, True),
                                                (200, 0.01, False)])
def test_expansion_matches_reference(field, rows, density, dense, monkeypatch):
    """Random sparse products routed to the expansion, with cells that sum
    several products: a result that may be dense (3 * products > cells)
    is summed by a float64 bincount when its bound allows, any other in
    int64 by a sort and merge, and over F_2147483659 in Python ints."""
    rng = np.random.default_rng(rows + getattr(field, "p", 0))
    a = _random(field, rng, rows, 300, density)
    b = _random(field, rng, 300, rows, density)
    madds = matrix._madds(a, b)
    assert max(rows, rows) * 300 > matrix._SMALL_CELLS
    assert 0 < madds <= matrix._EXPAND_MADDS
    assert matrix._prefers_dense(rows, rows, madds) == dense
    assert ((_pattern(a) @ _pattern(b)) > 1).any()  # duplicate cells
    forms = _forms(monkeypatch)
    got = a @ b
    assert got.to_dense().tolist() == _reference(a, b)
    big = getattr(field, "p", 0) > 1 << 31
    assert forms == ["object" if big else "float64" if dense else "int64"]
    ri, ci, _ = got.num_triplets()
    key = ri * rows + ci
    assert (key[1:] > key[:-1]).all()


def _q_signed(rows, cols, top, axis):
    """A sparse Q matrix of numerators top, negated in row 1 (axis 0) or
    column 1 (axis 1)."""
    nums = np.full((rows, cols), top, dtype=object)
    if axis == 0:
        nums[1] = -top
    else:
        nums[:, 1] = -top
    if matrix._bound(nums) <= matrix._INT64_MAX:
        nums = nums.astype(np.int64)
    return ExactMatrix(QQ, rows, cols, coo=ExactMatrix(
        QQ, rows, cols, dense=nums).num_triplets())


@pytest.mark.parametrize("top,other,inner,form", [
    (1 << 24, 1 << 25, 2, "float64"),        # 2**24 * 2**25 * 2 = 2**50
    ((1 << 50) + 1, 1, 1, "int64"),          # 2**50 + 1
    ((1 << 63) - 1, 1, 1, "int64"),          # 2**63 - 1
    (1317624576693539401, 1, 7, "int64"),    # 7 * 1317624576693539401 = 2**63 - 1
    (1 << 60, 1, 8, "object"),               # 8 * 2**60 = 2**63
])
def test_expansion_accumulates_at_each_bound(top, other, inner, form, monkeypatch):
    """Q numerators whose extreme sums reach the bound: float64 up to
    2**50, int64 from one past it up to 2**63 - 1, Python ints
    from 2**63, which int64 would wrap.  Every cell sums `inner`
    products, and each result may be dense (3 * products > cells)."""
    a, b = _q_signed(3, inner, top, 0), _q_signed(inner, 3, other, 1)
    bound = top * other * inner
    assert matrix._product_bound(QQ, a, b, inner) == bound
    assert matrix._prefers_dense(3, 3, matrix._madds(a, b))
    forms = _forms(monkeypatch)
    got = matrix._expand_matmul(a, b, 1)
    assert forms == [form]
    assert got.to_dense().tolist() == _reference(a, b)
    assert got[0, 0] == got[1, 1] == bound and got[0, 1] == got[1, 0] == -bound


def test_expansion_bounds_by_the_terms_of_a_cell(monkeypatch):
    """Inner dimension 64 but at most 2 products a cell: the bound with
    the inner dimension, 2**24 * 2**25 * 64 = 2**55, passes 2**50;
    with the 2 terms of a cell's sum it is 2**50, so the sums run in
    float64."""
    top = 1 << 24
    inner = 64
    a = np.zeros((3, inner), dtype=np.int64)
    a[:, :2] = top
    a[1, :2] = -top
    b = np.zeros((inner, 3), dtype=np.int64)
    b[:2, :] = 1 << 25
    am = ExactMatrix(QQ, 3, inner, dense=a)
    bm = ExactMatrix(QQ, inner, 3, dense=b)
    sa = ExactMatrix(QQ, 3, inner, coo=am.num_triplets())
    sb = ExactMatrix(QQ, inner, 3, coo=bm.num_triplets())
    assert matrix._product_bound(QQ, am, bm, inner) == 1 << 55
    forms = _forms(monkeypatch)
    got = matrix._expand_matmul(sa, sb, 1)
    assert forms == ["float64"]
    assert got.to_dense().tolist() == _reference(sa, sb)
    assert got[0, 0] == 1 << 50 and got[1, 2] == -(1 << 50)


@pytest.mark.parametrize("field", EXPAND_FIELDS, ids=lambda f: f.header)
def test_expansion_runs_up_to_the_threshold(field, monkeypatch):
    """A sparse x sparse product of _EXPAND_MADDS multiply-adds runs in
    the expansion; one with one more runs the other paths.  Both equal
    the reference."""
    n = 256
    rng = np.random.default_rng(3)
    top = field.p if isinstance(field, PrimeField) else 1 << 20

    def pair(madds):
        k, extra = divmod(madds, n)
        ri = np.concatenate([np.repeat(np.arange(n), k), np.zeros(extra, int)])
        ci = np.concatenate([np.tile(np.arange(k), n), np.full(extra, k)])
        rows = np.arange(k + extra)
        return (ExactMatrix.from_coo(field, n, n, ri, ci,
                                     rng.integers(1, top, len(ri))),
                ExactMatrix.from_coo(field, n, n, rows, rng.integers(0, n, len(rows)),
                                     rng.integers(1, top, len(rows))))
    calls = []
    real = matrix._expand_matmul
    monkeypatch.setattr(matrix, "_expand_matmul",
                        lambda *args: calls.append(1) or real(*args))
    big = getattr(field, "p", 0) > 1 << 31
    for madds, expanded in ((matrix._EXPAND_MADDS, True),
                            (matrix._EXPAND_MADDS + 1, big)):
        a, b = pair(madds)
        assert matrix._madds(a, b) == madds and not (a.is_dense or b.is_dense)
        calls.clear()
        assert (a @ b).to_dense().tolist() == _reference(a, b)
        assert calls == [1] * expanded  # Python ints always expand
