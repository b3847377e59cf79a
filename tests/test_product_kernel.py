"""The blocked product kernel of products with a sparse operand.

`_blocked_matmul` forms a @ b against a dense operand in the narrowest of
float32, float64 and int64 that `_kernel_dtype` proves exact for the
product's bound, a block of rows at a time, and reduces each block into
the int64 result.  These tests compare it with an object-dtype reference
in every field, at the float32 bound and one past it, and pin where
`_densify` sends a sparse-by-sparse product.
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
FIELDS = [PrimeField(2), PrimeField(5), PrimeField(65537), PrimeField(33554467),
          PrimeField(2**31 - 1), PrimeField(2147483659), QQ]
KERNEL_DTYPE = {2: np.float32, 5: np.float32, 65537: np.float64,
                33554467: np.int64, 2**31 - 1: None, 2147483659: None}


def _spy(monkeypatch):
    """The dtypes the kernel runs in, one per call."""
    seen = []
    real = matrix._blocked_matmul

    def spy(f, x, y):
        seen.append(x.dtype.type)
        return real(f, x, y)
    monkeypatch.setattr(matrix, "_blocked_matmul", spy)
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
    operand densified (float32 only), in blocks of 3 rows and of all 45."""
    rng = np.random.default_rng(41)
    a, b = _random(field, rng, 45, 300, 0.2), _random(field, rng, 300, 50, 0.2)
    want = _reference(a, b)
    seen = _spy(monkeypatch)
    for block in (3 * 50, 1 << 18):
        monkeypatch.setattr(matrix, "_BLOCK_CELLS", block)
        for side in ("a", "b"):
            monkeypatch.setattr(matrix, "_densify", lambda a, b, side=side: side)
            for x, y in ((a, _dense(b)), (_dense(a), b), (a, b)):
                assert (x @ y).to_dense().tolist() == want
    assert not a.is_dense and not b.is_dense
    dtype = KERNEL_DTYPE.get(getattr(field, "p", None), np.float64)
    assert seen == [dtype] * {np.float32: 12, None: 0}.get(dtype, 8)


def test_kernel_chooses_the_narrowest_exact_dtype():
    limit = 1 << 24
    for bound, dtype in ((0, np.float32), (limit, np.float32),
                         (limit + 1, np.float64), (1 << 50, np.float64),
                         ((1 << 50) + 1, np.int64), ((1 << 63) - 1, np.int64),
                         (1 << 63, None)):
        assert matrix._kernel_dtype(bound, np.zeros(1, dtype=np.int64)) is dtype
    assert matrix._kernel_dtype(1, np.zeros(1, dtype=object)) is None


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


@pytest.mark.parametrize("top,inner,sign,dtype", [
    (512, 64, -1, np.float32),    # 512 * 512 * 64 = 2**24
    (257, 97, 1, np.float64),     # 257 * 673 * 97 = 2**24 + 1
])
def test_signed_q_numerators_at_the_float32_bound(top, inner, sign, dtype,
                                                  monkeypatch):
    """Q numerators of both signs: at the bound the extreme sum is -2**24,
    which float32 holds; one past it, the extreme sum is 2**24 + 1, which
    it does not."""
    rows = 8192 // inner + 3
    other = (1 << 24) // (top * inner) if dtype is np.float32 else 673
    rng = np.random.default_rng(inner)
    a = rng.integers(-top, top + 1, (rows, inner))
    b = rng.integers(-other, other + 1, (inner, rows))
    a[0], b[:, 0] = sign * top, other
    a[1], b[:, 1] = -top, -other
    am, bm = ExactMatrix.from_dense(QQ, a.tolist()), ExactMatrix.from_dense(QQ, b.tolist())
    assert matrix._product_bound(QQ, am.num_dense(), bm.num_dense(), inner) \
        == (1 << 24) + (dtype is np.float64)
    sa = ExactMatrix(QQ, rows, inner, coo=am.num_triplets())
    seen = _spy(monkeypatch)
    got = (sa @ bm).to_dense()
    assert got.tolist() == _reference(am, bm)
    assert got[0, 0] == sign * top * other * inner
    assert got[1, 1] == top * other * inner
    assert seen == [dtype]


# ----------------------------------------------------------------------
# the cost rule


def test_cost_rule_densifies_the_fp_walsh_product(fp_walsh_cert):
    """The certificate's U (1024 x 1544) times V: the float32 kernel's
    nnz(U) * 1024 multiply-adds against Gustavson's ~9.5 M."""
    cert = read_cert(fp_walsh_cert[0])
    u, v = cert.u, cert.v
    assert (u.rows, u.cols) == (1024, 1544) and not u.is_dense and not v.is_dense
    assert matrix._densify(u, v) == "b"


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
    assert matrix._densify(v, b) is None
    got = v @ b
    assert not got.is_dense
    assert got == matrix._expand_matmul(v, b, 1)
