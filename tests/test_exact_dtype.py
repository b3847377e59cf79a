"""The one dtype table and the one dense product kernel.

Every site that maps a bound to a dtype asks `exact_dtype`, which answers
from the table `_EXACT`.  The first test pins the dtype each site picks
on both sides of every switch: at primes on either side of each limit,
and at Q numerators at each limit and one past it.  The rest check
`_matmul` at its boundaries against a Python-int product in each dtype
it runs in: row blocks of one row, an exact multiple of the block and
one row past it; an inner dimension at exactly the length its limit
allows without a cut and one past it; with and without an accumulator.
"""

import sys

import numpy as np
import pytest

from kronrig import matrix
from kronrig.field import QQ, PrimeField
from kronrig.matrix import ExactMatrix

# (site, dtype) at each prime: stored residues, dense sum, entrywise
# (Kronecker) product, product of dense operands, product with a sparse
# operand, sparse x sparse expansion and elimination
F, I16, U8, U16, U32 = np.float32, np.int16, np.uint8, np.uint16, np.uint32
D, L, O = np.float64, np.int64, object
PRIME_SITES = {
    181: (U8, U16, I16, D, I16, D, F),
    191: (U8, U16, U32, D, F, D, F),
    251: (U8, U16, U32, D, F, D, F),
    257: (U16, U16, U32, D, F, D, F),
    2039: (U16, U16, U32, D, F, D, F),
    2053: (U16, U16, U32, D, D, D, D),
    65521: (U16, U32, U32, D, D, D, D),
    65537: (L, L, L, D, D, D, D),
    33554393: (L, L, L, D, D, D, D),
    33554467: (L, L, L, L, L, L, L),
    2**31 - 1: (L, L, L, L, L, L, L),
    2147483659: (O, O, O, O, O, L, L),
    3037000493: (O, O, O, O, O, L, L),
    3037000507: (O, O, O, O, O, O, O),
}
# (entrywise product, dense operands, a sparse operand, expansion) for a
# Q numerator B times 1
Q_SITES = {
    (1 << 15) - 1: (L, D, I16, D),
    1 << 15: (L, D, F, D),
    1 << 24: (L, D, F, D),
    (1 << 24) + 1: (L, D, D, D),
    1 << 50: (L, D, D, D),
    (1 << 50) + 1: (L, L, L, L),
    (1 << 63) - 1: (L, L, L, L),
    1 << 63: (O, O, O, O),
}


def _sites(monkeypatch):
    """(site, dtype) of every exact_dtype call, the site being the
    calling function, or _lift's caller for _lift."""
    seen = []
    real = matrix.exact_dtype

    def spy(*args, **kwargs):
        dtype = real(*args, **kwargs)
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_lift":
            frame = frame.f_back
        seen.append((frame.f_code.co_name, dtype))
        return dtype
    monkeypatch.setattr(matrix, "exact_dtype", spy)
    # 1 x 1 products take the paths of large ones
    monkeypatch.setattr(matrix, "_SMALL_CELLS", 0)
    return seen


def _picked(seen, op, site):
    """The dtype `site` picked while `op` ran."""
    seen.clear()
    op()
    return next(dtype for name, dtype in seen if name == site)


def _pair(field, value):
    """A 1 x 1 matrix of `value`, stored dense and stored sparse."""
    dense = ExactMatrix.from_dense(field, [[value]])
    return dense, ExactMatrix(field, 1, 1, coo=dense.num_triplets(), den=dense.den)


@pytest.mark.parametrize("p", sorted(PRIME_SITES))
def test_each_site_picks_its_dtype_at_every_prime_switch(p, monkeypatch):
    f = PrimeField(p)
    seen = _sites(monkeypatch)
    dense, sparse = _pair(f, p - 1)
    got = (
        _picked(seen, lambda: ExactMatrix.from_dense(f, [[p - 1]]), "_store_dtype"),
        _picked(seen, lambda: dense + dense, "__add__"),
        _picked(seen, lambda: dense.kron(dense), "_product_operands"),
        _picked(seen, lambda: dense @ dense, "_product"),
        _picked(seen, lambda: sparse @ dense, "_product"),
        _picked(seen, lambda: sparse @ sparse, "_expand_matmul"),
        _picked(seen, lambda: dense.exact_rank(), "_basis_rows_mod_p"),
    )
    assert got == PRIME_SITES[p]
    assert dense.num_dense().dtype == np.dtype(PRIME_SITES[p][0])
    assert (dense @ dense)[0, 0] == (sparse @ dense)[0, 0] == 1
    assert (dense + dense)[0, 0] == p - 2 and dense.kron(dense)[0, 0] == 1


@pytest.mark.parametrize("bound", sorted(Q_SITES))
def test_each_site_picks_its_dtype_at_every_q_switch(bound, monkeypatch):
    seen = _sites(monkeypatch)
    a, sa = _pair(QQ, bound)
    b, sb = _pair(QQ, 1)
    got = (
        _picked(seen, lambda: a.kron(b), "_product_operands"),
        _picked(seen, lambda: a @ b, "_product"),
        _picked(seen, lambda: sa @ b, "_product"),
        _picked(seen, lambda: sa @ sb, "_expand_matmul"),
    )
    assert got == Q_SITES[bound]
    for m in (a.kron(b), a @ b, sa @ b, sa @ sb):
        assert m[0, 0] == bound


# ----------------------------------------------------------------------
# the kernel at its boundaries

# each dtype the kernel reduces in, with the prime it is tested at: each
# of these primes allows one or two products a cut
KERNEL_PRIMES = [(np.int16, 181), (np.float32, 2039), (np.float64, 33554393),
                 (np.int64, 2**31 - 1), (object, 3037000507)]


def _operands(rng, p, rows, inner, cols, dtype):
    """Random residues, with a first row and column of p - 1, so that the
    sums reach the bound, as kernel arrays and as Python ints."""
    x = rng.integers(0, p, (rows, inner)).astype(object)
    y = rng.integers(0, p, (inner, cols)).astype(object)
    x[0], y[:, 0] = p - 1, p - 1
    return x.astype(dtype), y.astype(dtype), x, y


def _reduced(monkeypatch, limit):
    """The sizes of the arrays _reduce takes, each checked within `limit`."""
    sizes = []
    real = matrix._reduce

    def spy(x, p):
        if limit is not None and x.size:
            assert x.max() <= limit
        sizes.append(x.size)
        return real(x, p)
    monkeypatch.setattr(matrix, "_reduce", spy)
    return sizes


@pytest.mark.parametrize("dtype,p", KERNEL_PRIMES)
@pytest.mark.parametrize("block,rows", [(1, 5), (3, 6), (3, 7)])
@pytest.mark.parametrize("with_acc", [False, True])
def test_kernel_row_blocks_match_python_ints(dtype, p, block, rows, with_acc,
                                             monkeypatch):
    """Blocks of one row, a row count that is an exact multiple of the
    block, and one row past it: every block is formed and written once."""
    cols = 4
    monkeypatch.setattr(matrix, "_BLOCK_CELLS", block * cols)
    monkeypatch.setattr(matrix, "_INT16_BLOCK_CELLS", block * cols)
    rng = np.random.default_rng(p % 1000 + rows)
    x, y, xo, yo = _operands(rng, p, rows, 1, cols, dtype)
    co = rng.integers(0, p, (rows, cols)).astype(object)
    c = co.astype(dtype) if with_acc else None
    sizes = _reduced(monkeypatch, matrix._reduce_limit(x.dtype.type))
    got = matrix._matmul(x, y, p, c)
    want = (xo.dot(yo) + (co if with_acc else 0)) % p
    assert got.dtype == x.dtype and got.astype(object).tolist() == want.tolist()
    assert sizes == [min(block, rows - lo) * cols for lo in range(0, rows, block)]


@pytest.mark.parametrize("dtype,p", KERNEL_PRIMES)
@pytest.mark.parametrize("past", [0, 1])
@pytest.mark.parametrize("with_acc", [False, True])
def test_kernel_cuts_the_inner_dimension_at_its_limit(dtype, p, past, with_acc,
                                                      monkeypatch):
    """An inner dimension of `step`, the most terms whose sums with a
    residue stay within _reduce_limit, takes one product a block; one
    more takes a cut.  The first row and column reach the bound, every
    array reduced stays within the limit, and an accumulator may be the
    output itself.  Python ints are never cut."""
    limit = matrix._reduce_limit(np.dtype(dtype).type)
    step = 3 if limit is None else (limit - p) // (p - 1) ** 2
    assert limit is None or (p - 1) ** 2 * step + p <= limit < (p - 1) ** 2 * (step + 1) + p
    inner = step + past
    rng = np.random.default_rng(p % 1000 + inner)
    x, y, xo, yo = _operands(rng, p, 5, inner, 3, dtype)
    co = rng.integers(0, p, (5, 3)).astype(object)
    c = co.astype(dtype) if with_acc else None
    sizes = _reduced(monkeypatch, limit)
    got = matrix._matmul(x, y, p, c, c)
    want = (xo.dot(yo) + (co if with_acc else 0)) % p
    assert got.astype(object).tolist() == want.tolist()
    assert got is c or not with_acc
    assert len(sizes) == (1 if limit is None else -(-inner // step))


@pytest.mark.parametrize("dtype,bound", [(np.int16, (1 << 15) - 1), (np.float32, 1 << 24),
                                         (np.float64, 1 << 50), (np.int64, (1 << 63) - 1),
                                         (object, 1 << 70)])
@pytest.mark.parametrize("block,rows", [(1, 4), (2, 4), (2, 5)])
def test_kernel_without_p_sums_exactly_to_its_bound(dtype, bound, block, rows,
                                                    monkeypatch):
    """Without p (over Q, and the elimination's unreduced updates) nothing
    is cut or reduced: sums of both signs reach the dtype's bound, with
    and without an accumulator, in every row block."""
    monkeypatch.setattr(matrix, "_BLOCK_CELLS", block * 2)
    monkeypatch.setattr(matrix, "_INT16_BLOCK_CELLS", block * 2)
    sizes = _reduced(monkeypatch, None)
    half = bound // 2
    for acc in (0, 1):
        xo = np.array([[half, bound - half - acc]] * rows, dtype=object)
        xo[1::2] *= -1
        co = np.ones((rows, 2), dtype=object) * acc
        co[1::2] *= -1
        yo = np.ones((2, 2), dtype=object)
        c = co.astype(dtype) if acc else None
        got = matrix._matmul(xo.astype(dtype), yo.astype(dtype), None, c)
        want = xo.dot(yo) + co
        assert got.astype(object).tolist() == want.tolist()
        assert want.max() == bound and want.min() == -bound
    assert sizes == []
