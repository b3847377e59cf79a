"""Exact matrices over F_p / Q with dense and sparse-triplet storage.

Over F_p the stored values are residues; over Q a matrix is stored as
integer numerators over one positive common denominator `den`, as
FLINT's fmpq_mat does, in canonical form (`den` is 1 for the zero
matrix, else gcd(den, numerators) = 1).  Dense storage is a numpy
array; sparse storage is a canonical COO triple: row-major sorted,
duplicate-free, no explicit zeros.  All arithmetic is exact.

Every array is in the first dtype its site accepts that holds a bound
on its values (exact_dtype, from the one table _EXACT), else in Python
ints:

    site                      accepts, in table order        bound
    F_p storage               uint8, uint16, field.dtype     p - 1
    F_p dense sum             uint8, uint16, uint32          2(p - 1)
    entrywise, monomial scale int16, uint32, int64 (Q int64) B
    dense product             float64, int64                 p(p - 1); Q B inner
    product, sparse operand   int16, float32, float64, int64 B inner
    sparse x sparse expansion float64 (dense result), int64  B inner
    elimination mod p         float32, float64, int64        p(p - 1)
    other (_lift)             int64                          the caller's

B is (p - 1)**2 over F_p and max|a| * max|b| over Q.  Products run in
one kernel, _matmul, with three exceptions.  A product with a monomial
operand (one nonzero in every row and column) is a row gather on the
left and a column relabel on the right, each with an entrywise scale.
Sparse x sparse products of at most _EXPAND_MADDS multiply-adds run in
_expand_matmul, and some others in scipy's sparse product; scipy.sparse
is imported on first use, so a small instance never pays its import.
Triplets, `to_dense()` and indexing give F_p values in `field.dtype`
whatever the storage, and Q values as `Fraction`s, built on demand.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from .field import PrimeField, RationalField

# Materialization guards.  DENSE_CELL_CAP bounds the cells of any dense
# array we allocate; KRON_ORDER_CAP bounds the order at which a Kronecker
# product may be materialized at all.
DENSE_CELL_CAP = 1 << 25
KRON_ORDER_CAP = 65536

_INT64_MAX = (1 << 63) - 1
# a product with a sparse operand runs dense in numpy when max(rows, cols)
# times its inner dimension is at most this: scipy's set-up (0.1-0.2 ms a
# product) costs more than the dense product up to about 2**13 cells
_SMALL_CELLS = 1 << 13
# result cells _matmul forms at a time: 256 rows of 1024, whose float32
# block and int64 rows stay in cache
_BLOCK_CELLS = 1 << 18
# int16 blocks are larger: 2**20 cells, a 2 MiB block and as much for its
# reduction.  Scipy's row slicing is a fixed cost a block: the fp_walsh
# U @ V took 11.5 ms in blocks of 2**18 cells, 9.8-10.6 ms in 2**19-2**20,
# and a 4096 x 2000 x 4096 F_5 product 3-4% less at each doubling from
# 2**17 to 2**21 (medians, 2-core x86-64 VM)
_INT16_BLOCK_CELLS = 1 << 20
# _densify's costs, in multiply-adds of _matmul's float32 kernel:
# a result cell (its reduction, with the scatter and scan that come with
# a densified operand) costs about 16, and a multiply-add of scipy's
# sparse product, with the building of its result, about 32.  Fitted on
# 64 products of random sparse F_5 matrices of orders 256 to 2048 and
# densities 0.003 to 0.3 (2-core x86-64 VM, one BLAS thread): the rule
# picks the faster path in all but 3, which lose 0.04-0.14 ms.  A ratio
# with no cell term mis-picks 11 at best and loses 78 ms of the 2.9 s.
# int16 is faster per multiply-add (the fp_walsh U @ V raw product takes
# about 8 ms against 17 ms in float32), so for it these costs are
# conservative; wider dtypes are slower, so only int16 and float32 densify.
_CELL_COST = 16
_SPARSE_COST = 32
# a product of two sparse operands with at most this many multiply-adds
# runs in numpy as _expand_matmul: the crossover with the scipy paths.
# Over 304 random sparse F_5 and Q products (orders 128 to 2048, inner
# dimension n or n/2, operand nnz balanced or 8:1; 2-core x86-64 VM, one
# BLAS thread, scipy imported already) the expansion's median time over
# theirs was 0.70 at 2**12 multiply-adds, 0.83 at 2**13, 0.95 at 2**13.5,
# 1.01 at 2**14, 1.14 at 2**15 and 1.38 at 2**16
_EXPAND_MADDS = 1 << 14


class SizeCapError(ValueError):
    """Requested materialization exceeds the configured size caps."""


# ----------------------------------------------------------------------
# exact dtypes and reduction mod p

# _reduce's margin: its floor-multiply reduces a float array exactly
# while every value is at most this (see _reduce), short of the 2**24
# and 2**53 that float32 and float64 hold
_REDUCE_MARGIN = {np.float32: 1 << 22, np.float64: 1 << 50}
# The one table: each dtype exact arithmetic runs in, narrowest first,
# with the largest integer it holds exactly along with every integer of
# smaller magnitude (unsigned ones hold nonnegative values only).
# float64 is used only up to _reduce's margin, so that a float64 sum can
# always be reduced mod p.
_EXACT = {np.uint8: (1 << 8) - 1, np.int16: (1 << 15) - 1,
          np.uint16: (1 << 16) - 1, np.float32: 1 << 24,
          np.uint32: (1 << 32) - 1, np.float64: _REDUCE_MARGIN[np.float64],
          np.int64: _INT64_MAX}


def exact_dtype(bound, accepts, *arrays, p=None):
    """The first dtype of `accepts`, given in the order of _EXACT, that
    holds every integer of magnitude at most `bound`; object (Python
    ints) beyond them all, or where one of `arrays` holds Python ints
    already.

    With a prime `p` the dtype must also hold a residue plus the product
    of two, p(p - 1), within _reduce's margin: the sums of a _matmul
    reduced mod p then stay within it, its inner dimension cut where
    the bound passes it.
    """
    for x in arrays:
        if x.dtype == object:
            return object
    for dtype in accepts:
        limit = _EXACT.get(dtype)
        if limit is not None and bound <= limit and (
                p is None or p * (p - 1) <= _reduce_limit(dtype)):
            return dtype
    return object


def _reduce_limit(dtype):
    """The largest value _reduce takes exactly in `dtype`, a numpy scalar
    type, or None for Python ints."""
    return _REDUCE_MARGIN.get(dtype, _EXACT.get(dtype))


# _reduce takes float arrays of at most this many values by np.remainder:
# against the floor-multiply, medians of interleaved runs (2-core x86-64
# VM) took the ranks of 2x2 and 4x4 F_5 matrices 0.040 -> 0.028 and
# 0.086 -> 0.061 ms, the fp_walsh core 9.35 -> 8.92 ms and a 96^2 matrix
# mod 131071 4.19 -> 3.32 ms; 32 and 128 gave about the same
_SMALL_REDUCE = 64


@functools.lru_cache(maxsize=64)
def _inverse_up(p, dtype):
    """The nearest float of `dtype` at or above 1/p."""
    x = dtype(1 / p)
    if Fraction(float(x)) * p < 1:
        x = np.nextafter(x, dtype(1))
    return x


def _reduce(x, p):
    """x mod p for a nonnegative kernel array, in its dtype, in place;
    returns x.

    A float x is reduced as x - p*floor(x * pinv), pinv the nearest float
    at or above 1/p.  The quotient is never too small, and x * pinv errs
    by less than 1.5 * 2**-m relative (m = 23 for float32, 52 for
    float64), which keeps it below the next integer while x < 2**m / 1.5:
    so the reduction is exact for x up to _REDUCE_MARGIN (tests check
    every quotient of every float32 prime at both ends).  Those are four
    vectorized passes; a float x of at most _SMALL_REDUCE values takes
    numpy's remainder instead, one call, exact for any float (it is fmod)
    but not vectorized.  Integers narrower than int64 are reduced as
    x - (x // p) * p: numpy vectorizes their floor division by a scalar,
    not their remainder (int16: 0.8 against 3.9 ms a million cells;
    int32 a quarter-million: 0.33 against 0.81 ms, 2-core x86-64 VM);
    int64 and Python ints take the remainder.
    """
    if x.dtype.kind == "f":
        if x.size <= _SMALL_REDUCE:
            return np.remainder(x, p, out=x)
        q = x * _inverse_up(p, x.dtype.type)
        np.floor(q, out=q)
    elif x.dtype == object or x.itemsize == 8:
        return np.remainder(x, p, out=x)
    else:
        q = x // p
    q *= p
    x -= q
    return x


def _prefers_dense(rows, cols, nnz):
    """Whether a rows x cols matrix with nnz nonzeros is stored dense."""
    cells = rows * cols
    return cells <= DENSE_CELL_CAP and nnz * 3 > cells


def _empty_vals(field):
    return np.empty(0, dtype=field.dtype)


def _store_dtype(field, vals=None):
    """The dtype of a dense array of stored values.  Over F_p it is the
    first of uint8, uint16 and field.dtype that holds p - 1.  Over Q it
    is int64, or Python ints where `vals`, the numerators to be stored,
    are."""
    if isinstance(field, PrimeField):
        return exact_dtype(field.p - 1, (np.uint8, np.uint16, field.dtype))
    return object if vals is not None and vals.dtype == object else np.int64


def _bound(a):
    """Largest absolute value in an integer array, as a Python int."""
    if a.size == 0:
        return 0
    return max(int(a.max()), -int(a.min()))


def _fit(a):
    """An integer array as int64 when every value fits, else as Python ints."""
    if a.dtype == object:
        return a.astype(exact_dtype(_bound(a), (np.int64,)), copy=False)
    return a


def _lift(bound, *arrays):
    """The integer arrays as int64, or as Python ints unless `bound`, a
    bound on the magnitude of every value to be formed from them, fits
    int64.  Narrow arrays (dense F_p storage) are widened: a sum or a
    product of their residues may pass their range, and a difference is
    negative."""
    dtype = exact_dtype(bound, (np.int64,), *arrays)
    return tuple(x.astype(dtype, copy=False) for x in arrays)


def _product_operands(a, b, x, y):
    """x and y, arrays of stored values of the matrices a and b, in the
    dtype that their entrywise products are formed in: over F_p the
    first of int16, uint32 and int64 that holds (p - 1)**2, so that the
    residue products are reduced there (_reduce); else as _lift gives
    them for the products' bound."""
    f = a.field
    accepts = (np.int16, np.uint32, np.int64) if isinstance(f, PrimeField) else (np.int64,)
    dtype = exact_dtype(_product_bound(f, a, b, 1), accepts, x, y)
    return x.astype(dtype, copy=False), y.astype(dtype, copy=False)


def _times(a, k):
    """a * k for an integer k, in Python ints when int64 could overflow."""
    return a if k == 1 else _lift(max(_bound(a), 1) * abs(k), a)[0] * k


_to_int = np.frompyfunc(int, 1, 1)


def _canon_vals(field, vals, dtype=None):
    """Canonicalize a flat array of field values.  Over F_p the values are
    reduced mod p unless their minimum and maximum show them residues
    already, as the file decoder reads them, and given in `dtype`
    (field.dtype by default)."""
    if isinstance(field, PrimeField):
        arr = np.asarray(vals)
        if arr.dtype == np.uint64:  # a list's ints past int64 would wrap
            arr = arr.astype(object)
        if arr.dtype == object:  # to Python ints of any size, or int64
            arr = _to_int(arr) if field.dtype is object else arr.astype(np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= field.p):
            arr = (arr if arr.dtype == object
                   else arr.astype(np.int64, copy=False)) % field.p
        return arr.astype(dtype or field.dtype, copy=False)
    arr = np.empty(len(vals), dtype=object)
    arr[:] = [field.canon(v) for v in vals]
    return arr


def _num_form(field, vals):
    """(stored values, den) of a flat sequence of field values."""
    if isinstance(field, PrimeField):
        return _canon_vals(field, vals), 1
    # ints and Fractions already carry numerator and denominator
    fracs = [v if isinstance(v, (int, Fraction)) else field.canon(v) for v in vals]
    nums = np.empty(len(fracs), dtype=object)
    dens = np.empty(len(fracs), dtype=object)
    nums[:] = [v.numerator for v in fracs]
    dens[:] = [v.denominator for v in fracs]
    nums, den = over_common_den(nums, dens)
    return _fit(nums), den


def _occupied(idx, size):
    """The distinct values of the indices `idx` in range(size), ascending.
    Not np.unique: its first call imports numpy.ma (about 0.03 s)."""
    return np.flatnonzero(np.bincount(idx, minlength=size))


def over_common_den(nums, dens):
    """(numerators, den) of the rationals nums[i]/dens[i], dens > 0: den
    is the lcm of dens, and the numerators are int64 when the inputs and
    their products fit it, Python ints otherwise."""
    # the distinct dens by a sort, not np.unique (see _occupied)
    s = np.sort(dens, axis=None)
    den = math.lcm(*s[:1].tolist(), *s[1:][s[1:] != s[:-1]].tolist())
    if den == 1:
        return nums, 1
    scale = den // dens.astype(exact_dtype(den, (np.int64,), dens), copy=False)
    nums, scale = _lift(_bound(nums) * _bound(scale), nums, scale)
    return nums * scale, den


def _freeze(*arrays):
    """Make the arrays read-only: matrices share their arrays, so a write
    through one would change every matrix that shares it."""
    for a in arrays:
        a.setflags(write=False)


def _aranges(starts, lengths):
    """The concatenation of arange(s, s + n) over starts s and lengths n."""
    out = (starts - lengths.cumsum() + lengths).repeat(lengths)
    out += np.arange(len(out))
    return out


def _stable_order(idx, size):
    """A stable argsort of the indices idx in range(size): numpy's radix
    sort of them as uint16 where size is at most 2**16 (every order up
    to KRON_ORDER_CAP), else its sort of the int64 indices."""
    if size <= 1 << 16:
        idx = idx.astype(np.uint16)
    return np.argsort(idx, kind="stable")


def _canon_coo(field, shape, ri, ci, vals, assume_clean=False):
    """Sort row-major, merge duplicates, drop zeros."""
    ri = np.asarray(ri, dtype=np.int64)
    ci = np.asarray(ci, dtype=np.int64)
    if len(ri) == 0:
        return ri, ci, _empty_vals(field)
    if not assume_clean:
        if ri.min() < 0 or ri.max() >= shape[0] or ci.min() < 0 or ci.max() >= shape[1]:
            raise IndexError("triplet index out of range")
    # already canonical, as a certificate's blocks are written: row-major
    # keys (below rows * cols, the indices being in range) strictly
    # increase, and no value is zero
    if shape[0] * shape[1] <= _INT64_MAX:
        key = ri * shape[1] + ci
        if (key[1:] > key[:-1]).all() and (vals != 0).all():
            return ri, ci, vals
        # the lexsort order; a stable sort finds and merges presorted runs
        order = np.argsort(key, kind="stable")
    else:
        order = np.lexsort((ci, ri))
    ri, ci, vals = ri[order], ci[order], vals[order]
    dup = np.zeros(len(ri), dtype=bool)
    dup[1:] = (ri[1:] == ri[:-1]) & (ci[1:] == ci[:-1])
    if dup.any():
        starts = np.flatnonzero(~dup)
        if vals.dtype != object:  # the sums must fit as well
            run = int(np.diff(starts, append=len(ri)).max())
            (vals,) = _lift(_bound(vals) * run, vals)
        vals = np.add.reduceat(vals, starts)
        if isinstance(field, PrimeField):
            vals = (vals % field.p).astype(field.dtype, copy=False)
        ri, ci = ri[starts], ci[starts]
    keep = vals != 0
    if not keep.all():
        ri, ci, vals = ri[keep], ci[keep], vals[keep]
    return ri, ci, vals


class ExactMatrix:
    """Immutable exact matrix; the backing arrays are read-only.

    `den` is the common denominator of the stored values: 1 over F_p.
    """

    __slots__ = ("field", "rows", "cols", "den", "_dense", "_coo", "_max")

    def __init__(self, field, rows, cols, dense=None, coo=None, den=1):
        """From canonical storage of values over `den`.  Over Q the
        numerators and den are reduced to the canonical form here; over
        F_p a dense array is brought to _store_dtype and triplet values to
        field.dtype, without a copy where they are in it already."""
        self.field = field
        self.rows = int(rows)
        self.cols = int(cols)
        if dense is None and coo is None:
            raise ValueError("matrix needs dense or sparse data")
        if isinstance(field, RationalField):
            nums = _fit(dense if dense is not None else coo[2])
            if den != 1:
                content = int(np.gcd.reduce(nums, axis=None)) if nums.size else 0
                g = math.gcd(den, content) if content else den
                if g != 1:
                    nums = _fit(nums // g) if content else nums
                    den //= g
            if dense is not None:
                dense = nums
            else:
                coo = (coo[0], coo[1], nums)
        elif dense is not None:
            dense = dense.astype(_store_dtype(field), copy=False)
        else:
            coo = (coo[0], coo[1], coo[2].astype(field.dtype, copy=False))
        self.den = den
        self._dense = dense
        self._coo = coo
        self._max = None
        _freeze(*(coo if dense is None else (dense,)))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_dense(cls, field, data):
        arr = np.array(data, dtype=object)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        nums, den = _num_form(field, arr.ravel())
        return cls.from_num_dense(field, nums.reshape(arr.shape), den)

    @classmethod
    def from_num_dense(cls, field, arr, den=1):
        """From a 2-d array of integer values over `den` (residues over
        F_p, where den is 1)."""
        if isinstance(field, PrimeField):
            arr = _canon_vals(field, arr.ravel(), _store_dtype(field)).reshape(arr.shape)
        return cls(field, arr.shape[0], arr.shape[1], dense=arr, den=den)

    @classmethod
    def from_coo(cls, field, rows, cols, ri, ci, vals):
        """From index and value arrays in any order; duplicates are summed."""
        return cls.from_num_coo(field, rows, cols, ri, ci, *_num_form(field, vals))

    @classmethod
    def from_num_coo(cls, field, rows, cols, ri, ci, nums, den=1, in_range=False):
        """From integer values over `den` (residues over F_p, where den is
        1), with indices in any order; duplicates are summed.  The indices
        are range-checked unless `in_range` says the caller has."""
        if isinstance(field, PrimeField):
            nums = _canon_vals(field, nums)
        coo = _canon_coo(field, (rows, cols), ri, ci, nums, assume_clean=in_range)
        return cls(field, rows, cols, coo=coo, den=den)

    @classmethod
    def from_triplets(cls, field, rows, cols, triplets):
        if triplets:
            ri, ci, vals = zip(*[(int(i), int(j), v) for i, j, v in triplets])
        else:
            ri, ci, vals = (), (), ()
        return cls.from_coo(field, rows, cols, np.array(ri, dtype=np.int64),
                            np.array(ci, dtype=np.int64), list(vals))

    @classmethod
    def zeros(cls, field, rows, cols, dense=False):
        if dense:
            return cls(field, rows, cols,
                       dense=np.zeros((rows, cols), dtype=_store_dtype(field)))
        e = np.empty(0, dtype=np.int64)
        return cls(field, rows, cols, coo=(e, e.copy(), _empty_vals(field)))

    @classmethod
    def identity(cls, field, n):
        idx = np.arange(n, dtype=np.int64)
        ones = np.ones(n, dtype=field.dtype)
        return cls(field, n, n, coo=(idx, idx.copy(), ones))

    # ------------------------------------------------------------------
    # storage

    @property
    def is_dense(self):
        return self._dense is not None

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_square(self):
        return self.rows == self.cols

    def num_dense(self):
        """Dense array of the stored values over `den` (cached); guarded
        by the cell cap."""
        if self._dense is None:
            if self.rows * self.cols > DENSE_CELL_CAP:
                raise SizeCapError(
                    f"{self.rows}x{self.cols} exceeds the dense cell cap")
            self._dense = self._scatter()
            _freeze(self._dense)
        return self._dense

    def _scatter(self, dtype=None):
        """A new dense array of the stored values, from the triplets, in
        `dtype` (_store_dtype by default)."""
        ri, ci, vals = self._coo
        arr = np.zeros((self.rows, self.cols), dtype=dtype or _store_dtype(self.field, vals))
        arr[ri, ci] = vals
        return arr

    def num_triplets(self):
        """Canonical COO arrays (row, col, stored value over `den`), cached."""
        if self._coo is None:
            arr = self._dense
            ri, ci = np.nonzero(arr)
            vals = arr[ri, ci]
            if isinstance(self.field, PrimeField):
                vals = vals.astype(self.field.dtype, copy=False)
            self._coo = (ri.astype(np.int64), ci.astype(np.int64), vals)
            _freeze(*self._coo)
        return self._coo

    def _values(self, nums):
        """Field values of stored values: field.dtype residues over F_p,
        read-only as the storage they may be, and Fractions over Q."""
        if isinstance(self.field, PrimeField):
            vals = nums.astype(self.field.dtype, copy=False)
            _freeze(vals)
            return vals
        out = np.empty(nums.size, dtype=object)
        out[:] = [Fraction(x, self.den) for x in nums.ravel().tolist()]
        return out.reshape(nums.shape)

    def to_dense(self):
        """Dense array of field values; guarded by the cell cap."""
        return self._values(self.num_dense())

    def triplets(self):
        """Canonical COO arrays (row, col, field value)."""
        ri, ci, vals = self.num_triplets()
        return ri, ci, self._values(vals)

    @property
    def nnz(self):
        return len(self.num_triplets()[0])

    def _max_abs(self):
        """The largest magnitude of a stored value, as a Python int,
        computed once: the arrays are read-only."""
        if self._max is None:
            self._max = _bound(self._dense if self._dense is not None else self._coo[2])
        return self._max

    def density_preferred(self):
        """Re-wrap with the storage that suits the fill-in."""
        if _prefers_dense(self.rows, self.cols, self.nnz):
            self.num_dense()
        return self

    # ------------------------------------------------------------------
    # inspection

    def __getitem__(self, idx):
        i, j = idx
        if self._dense is not None:
            v = self._dense[i, j]
        else:
            ri, ci, vals = self._coo
            hit = np.flatnonzero((ri == i) & (ci == j))
            v = vals[hit[0]] if hit.size else 0
        if isinstance(self.field, PrimeField):
            return v if self.field.dtype is object else np.int64(v)
        return Fraction(int(v), self.den)

    def is_zero(self):
        return self.nnz == 0

    def row_col_nnz(self):
        """(max nonzeros in any row, max nonzeros in any column)."""
        ri, ci, _ = self.num_triplets()
        if len(ri) == 0:
            return (0, 0)
        rc = np.bincount(ri, minlength=self.rows)
        cc = np.bincount(ci, minlength=self.cols)
        return (int(rc.max()), int(cc.max()))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape \
                or self.den != other.den:
            return False
        if self.is_dense and other.is_dense:
            if self._dense.dtype == object or other._dense.dtype == object:
                return bool((self._dense == other._dense).all())
            return bool(np.array_equal(self._dense, other._dense))
        a, b = self.num_triplets(), other.num_triplets()
        return (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                and bool((a[2] == b[2]).all()) if len(a[0]) == len(b[0]) else False)

    __hash__ = None  # unhashable; equality is entrywise

    # ------------------------------------------------------------------
    # structural ops

    def _like(self, rows, cols, dense=None, coo=None, den=None):
        return ExactMatrix(self.field, rows, cols, dense=dense, coo=coo,
                           den=self.den if den is None else den)

    @property
    def T(self):
        if self._coo is not None:
            # a stable sort by column keeps each column's rows ascending
            ri, ci, vals = self._coo
            order = _stable_order(ci, self.cols)
            return self._like(self.cols, self.rows, coo=(ci[order], ri[order], vals[order]))
        return self._like(self.cols, self.rows, dense=self._dense.T.copy())

    def permute_rows(self, perm):
        """Rows of the result: result[i, :] = self[perm[i], :]."""
        return _gather_rows(self, np.asarray(perm, dtype=np.int64), None, self.den)

    def permute_cols(self, perm):
        """Columns of the result: result[:, j] = self[:, perm[j]]."""
        perm = np.asarray(perm, dtype=np.int64)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm), dtype=np.int64)
        return _relabel_cols(self, inv, None, self.den)

    def submatrix(self, row_idx, col_idx):
        arr = self.num_dense()
        sub = arr[np.ix_(np.asarray(row_idx, dtype=np.int64),
                         np.asarray(col_idx, dtype=np.int64))]
        return self._like(sub.shape[0], sub.shape[1], dense=sub.copy())

    # ------------------------------------------------------------------
    # ring ops

    def _check_field(self, other):
        if self.field != other.field:
            raise ValueError(
                f"field mismatch: {self.field.header} vs {other.field.header}")

    def __add__(self, other):
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        f = self.field
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        if self.is_dense or other.is_dense:
            a, b = self.num_dense(), other.num_dense()
            if a.dtype.kind == b.dtype.kind == "u":
                # residues in uint8/uint16: summed in the narrowest
                # unsigned dtype that holds 2(p - 1)
                total = a.astype(exact_dtype(2 * (f.p - 1),
                                             (np.uint8, np.uint16, np.uint32)))
                total += b
                np.subtract(total, f.p, out=total, where=total >= f.p)
            elif isinstance(f, PrimeField):
                a, b = _lift(2 * (f.p - 1), a, b)
                total = a + b
                total %= f.p
            else:
                a, b = _lift(max(_bound(a), 1) * sa + max(_bound(b), 1) * sb, a, b)
                total = a * sa + b * sb
            return self._like(self.rows, self.cols, dense=total, den=den)
        ar, ac, av = self.num_triplets()
        br, bc, bv = other.num_triplets()
        # _canon_coo sums the pairs that meet in a dtype that holds them
        coo = _canon_coo(f, self.shape, np.concatenate([ar, br]),
                         np.concatenate([ac, bc]),
                         np.concatenate([_times(av, sa), _times(bv, sb)]),
                         assume_clean=True)
        return self._like(self.rows, self.cols, coo=coo, den=den)

    def __neg__(self):
        f = self.field

        def neg(x):  # p - x, not -x: x may be unsigned
            return (f.p - x) % f.p if isinstance(f, PrimeField) else -x
        if self._dense is not None:
            return self._like(self.rows, self.cols, dense=neg(self._dense))
        ri, ci, vals = self._coo
        return self._like(self.rows, self.cols, coo=(ri.copy(), ci.copy(), neg(vals)))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        f = self.field
        c = f.canon(c)
        ri, ci, vals = self.num_triplets()
        if isinstance(f, PrimeField):
            nv, den = vals * c % f.p, 1
        else:
            nv, den = _times(vals, c.numerator), self.den * c.denominator
        coo = _canon_coo(f, self.shape, ri.copy(), ci.copy(), nv, assume_clean=True)
        out = self._like(self.rows, self.cols, coo=coo, den=den)
        return out.density_preferred() if self.is_dense else out

    # ------------------------------------------------------------------
    # multiplication

    def __matmul__(self, other):
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(f"inner dimension mismatch {self.shape} @ {other.shape}")
        f = self.field
        if self.cols == 0:
            return ExactMatrix.zeros(f, self.rows, other.cols)
        return _product(self, other, self.den * other.den)

    def kron(self, other):
        self._check_field(other)
        f = self.field
        out_r, out_c = self.rows * other.rows, self.cols * other.cols
        if max(out_r, out_c) > KRON_ORDER_CAP:
            raise SizeCapError(
                f"Kronecker output {out_r}x{out_c} beyond the order cap {KRON_ORDER_CAP}")
        den = self.den * other.den
        dense = self.is_dense and other.is_dense and out_r * out_c <= DENSE_CELL_CAP
        if dense:
            a, b = self._dense, other._dense
        else:
            (ar, ac, a), (br, bc, b) = self.num_triplets(), other.num_triplets()
            if len(a) * len(b) > DENSE_CELL_CAP:
                raise SizeCapError(
                    f"Kronecker output would hold {len(a) * len(b)} explicit "
                    f"entries, beyond the cap of {DENSE_CELL_CAP}")
        # the constructor stores the products in _store_dtype (dense) or
        # field.dtype
        a, b = _product_operands(self, other, a, b)
        if dense:
            prod = np.kron(a, b)
        else:
            # row-major without a sort: output row (i, j) = i * b.rows + j
            # holds the products of a's row i with b's row j, a's entries
            # outer, so the entries of a, and of b, that they take are aranges
            na = np.bincount(ar, minlength=self.rows)
            nb = np.bincount(br, minlength=other.rows)
            j = np.arange(out_r) % other.rows
            na_out = na.repeat(other.rows)  # entries of a in each output row
            reps = nb[j].repeat(na_out)  # products of each of them
            pa = _aranges((na.cumsum() - na).repeat(other.rows), na_out).repeat(reps)
            pb = _aranges((nb.cumsum() - nb)[j].repeat(na_out), reps)
            ri = np.arange(out_r).repeat(na_out * nb[j])
            ci = ac[pa] * other.cols + bc[pb]
            prod = a[pa] * b[pb]
        if isinstance(f, PrimeField):
            prod = _reduce(prod, f.p)
        if dense:
            return self._like(out_r, out_c, dense=prod, den=den)
        # the products are distinct cells and, a field having no zero
        # divisors, nonzero
        return self._like(out_r, out_c, coo=(ri, ci, prod), den=den)

    # ------------------------------------------------------------------
    # rank

    def exact_rank(self):
        """Exact rank: one elimination kernel over F_p, and over Q the
        multimodular rank of the numerators."""
        if min(self.rows, self.cols) == 0:
            return 0
        if not self.is_dense:
            ri, ci, _ = self.num_triplets()
            if len(ri) == 0:
                return 0
            rsel = _occupied(ri, self.rows)
            csel = _occupied(ci, self.cols)
            if len(rsel) * len(csel) > DENSE_CELL_CAP:
                raise SizeCapError(f"occupied {len(rsel)}x{len(csel)} block "
                                   "exceeds the dense cell cap")
            if self.rows * self.cols <= DENSE_CELL_CAP:
                m = self.num_dense()[np.ix_(rsel, csel)]
            else:
                m = self._gather(rsel, csel)
            return len(_basis_rows(self.field, m))
        return len(_basis_rows(self.field, self._dense))

    def _gather(self, rsel, csel):
        ri, ci, vals = self.num_triplets()
        rmap = np.empty(self.rows, dtype=np.int64)
        rmap[rsel] = np.arange(len(rsel))
        cmap = np.empty(self.cols, dtype=np.int64)
        cmap[csel] = np.arange(len(csel))
        arr = np.zeros((len(rsel), len(csel)), dtype=_store_dtype(self.field, vals))
        arr[rmap[ri], cmap[ci]] = vals
        return arr

    def __repr__(self):
        tag = "dense" if self.is_dense else f"sparse nnz={self.nnz}"
        return f"<ExactMatrix {self.rows}x{self.cols} over {self.field.header} ({tag})>"


# ----------------------------------------------------------------------
# products
#
# Over Q the kernels multiply numerators and the denominators multiply;
# each product's dtype follows the module docstring's table.


def _product_bound(field, a, b, inner):
    """A bound on every sum of `inner` products of entries of the
    matrices a and b.  Residues are bounded by p - 1 without a look at
    them, and Q numerators by each matrix's _max_abs."""
    if isinstance(field, PrimeField):
        return (field.p - 1) ** 2 * inner
    return a._max_abs() * b._max_abs() * inner


def _product(a, b, den):
    """a @ b, den the product's denominator.

    Dense operands, and any product of at most _SMALL_CELLS cells
    (max(rows, cols) times the inner dimension), run in _matmul on dense
    arrays: in float64 BLAS where exact_dtype allows it (over F_p where
    p(p - 1) is within _reduce's margin, the kernel cutting the inner
    dimension), else in int64 or Python ints.  Above that, a product
    with a monomial operand stored sparse (_is_monomial) is a row gather
    (_gather_rows) or a column relabel (_relabel_cols).  A product of
    two sparse operands with at most _EXPAND_MADDS multiply-adds
    (_madds) runs in _expand_matmul, and so does every Python-int
    product.  The rest run in the first of int16, float32, float64 and
    int64 that holds the product's bound: in _matmul against a dense
    operand when one is dense, or when int16 or float32 is exact and
    _densify picks one to densify (its costs were measured in float32,
    and int16 is faster still); else as scipy's int64 sparse product
    (Gustavson's algorithm).
    """
    f = a.field
    p = f.p if isinstance(f, PrimeField) else None
    dense_a, dense_b = a._dense is not None, b._dense is not None
    x = a._dense if dense_a else a._coo[2]
    y = b._dense if dense_b else b._coo[2]
    if (dense_a and dense_b) or max(a.rows, b.cols) * a.cols <= _SMALL_CELLS:
        dtype = exact_dtype(_product_bound(f, a, b, 1 if p else a.cols),
                            (np.float64, np.int64), x, y, p=p)
        x = x.astype(dtype, copy=False) if dense_a else a._scatter(dtype)
        y = y.astype(dtype, copy=False) if dense_b else b._scatter(dtype)
    else:
        if _is_monomial(a):
            return _gather_rows(b, a._coo[1], a, den)
        if _is_monomial(b):
            return _relabel_cols(a, b._coo[1], b, den)
        madds = None if dense_a or dense_b else _madds(a, b)
        if madds is not None and madds <= _EXPAND_MADDS:
            return _expand_matmul(a, b, den)
        if len(x) == 0 or len(y) == 0:
            return ExactMatrix.zeros(f, a.rows, b.cols)
        dtype = exact_dtype(_product_bound(f, a, b, a.cols),
                            (np.int16, np.float32, np.float64, np.int64), x, y, p=p)
        if dtype is object:
            return _expand_matmul(a, b, den)
        if not (dense_a or dense_b) and dtype in (np.int16, np.float32):
            side = _densify(a, b, madds)
            dense_a, dense_b = side == "a", side == "b"
        if not (dense_a or dense_b):
            cm = _operand(a, np.int64, False) @ _operand(b, np.int64, False)
            if p:
                cm.data %= p
            # scipy's product holds no duplicate entries
            cm.eliminate_zeros()
            if _prefers_dense(a.rows, b.cols, cm.nnz):
                cm = cm.astype(_store_dtype(f, cm.data), copy=False)
                return a._like(a.rows, b.cols, dense=cm.toarray(), den=den)
            cm.sort_indices()
            cm = cm.tocoo()
            return a._like(a.rows, b.cols, den=den, coo=(
                cm.row.astype(np.int64), cm.col.astype(np.int64), cm.data))
        x, y = _operand(a, dtype, dense_a), _operand(b, dtype, dense_b)
    out = np.empty((a.rows, b.cols), dtype=_store_dtype(f, x))
    return _product_of_array(a, b, den, _matmul(x, y, p, out=out))


def _is_monomial(m):
    """Whether m is a monomial matrix of order at least 2 stored sparse:
    exactly one nonzero in every row and every column, so that its
    triplets are (i, sigma[i], scale[i]), i = 0, 1, ...  (A product with
    a 1 x 1 matrix is one multiply on every path, and keeps the general
    one.)"""
    if m._dense is not None or m.rows != m.cols or m.rows < 2:
        return False
    ri, ci, _ = m._coo
    return (len(ri) == m.rows and bool((ri == np.arange(m.rows)).all())
            and int(np.bincount(ci, minlength=m.cols).max()) == 1)


def _scaled(m, mono, x, at):
    """x, stored values of m, times the stored values of the monomial
    matrix `mono` taken at `at` (an index array, or a broadcast shape),
    formed as entrywise products are (_product_operands); x itself where
    mono is None or all its values are 1."""
    y = None if mono is None else mono._coo[2]
    if y is None or (y == 1).all():
        return x
    x, y = _product_operands(m, mono, x, y[at])
    prod = x * y
    return _reduce(prod, m.field.p) if isinstance(m.field, PrimeField) else prod


def _gather_rows(m, sigma, mono, den):
    """M @ m over `den`, M the monomial matrix with M[i, sigma[i]] the
    value of `mono` at (i, sigma[i]), or 1 where mono is None: row i is
    row sigma[i] of m, scaled.  Stored sparse, the rows are gathered in
    their new order, so the triplets stay canonical without a sort; the
    products are nonzero, a field having no zero divisors."""
    if m._dense is not None:
        arr = _scaled(m, mono, m._dense[sigma], (slice(None), None))
        return m._like(len(sigma), m.cols, dense=arr, den=den)
    ri, ci, vals = m._coo
    starts = np.searchsorted(ri, np.arange(m.rows + 1))
    counts = np.diff(starts)[sigma]
    pos = _aranges(starts[sigma], counts)
    rows = np.arange(len(sigma)).repeat(counts)
    return m._like(len(sigma), m.cols, den=den,
                   coo=(rows, ci[pos], _scaled(m, mono, vals[pos], rows)))


def _relabel_cols(m, sigma, mono, den):
    """m @ M over `den`, M as in _gather_rows: column c of m becomes
    column sigma[c], scaled by M[c, sigma[c]].  Stored dense, the new
    columns are gathered.  Stored sparse, the triplets keep their order
    where each row's new columns still ascend, and are brought back to
    row-major order otherwise by two stable radix sorts (_stable_order),
    by new column and then by row."""
    if m._dense is not None:
        inv = np.empty_like(sigma)
        inv[sigma] = np.arange(len(sigma))
        return m._like(m.rows, len(sigma), den=den,
                       dense=_scaled(m, mono, m._dense[:, inv], (None, inv)))
    ri, ci, vals = m._coo
    cols = sigma[ci]
    if not ((cols[1:] > cols[:-1]) | (ri[1:] != ri[:-1])).all():
        order = _stable_order(cols, len(sigma))
        order = order[_stable_order(ri[order], m.rows)]
        ri, ci, vals, cols = ri[order], ci[order], vals[order], cols[order]
    return m._like(m.rows, len(sigma), den=den,
                   coo=(ri, cols, _scaled(m, mono, vals, ci)))


def _matmul(x, y, p=None, c=None, out=None):
    """c + x @ y, reduced mod p unless p is None, written into `out` (a
    new array in x's dtype by default) and returned.  x and y are kernel
    operands of one dtype, dense arrays or, one of them, a scipy CSR
    matrix (_operand); c, if given, is reduced, and may be `out` itself.

    The product is formed a block of whole rows at a time (_BLOCK_CELLS
    result cells, _INT16_BLOCK_CELLS in int16) in the operands' dtype,
    which the caller has chosen by exact_dtype, so every partial sum is
    an integer that the dtype holds exactly.  Mod p each block is reduced
    in its dtype (_reduce), and its inner dimension is cut where a
    residue plus the sums of all of it could pass _reduce_limit, with a
    reduction after each cut.  A block is written to `out` only once all
    its cuts are done, so `out` may be c, and c may be x.
    """
    rows, inner = x.shape
    if out is None:
        out = np.empty((rows, y.shape[1]), dtype=x.dtype)
    limit = None if p is None else _reduce_limit(x.dtype.type)
    step = inner if limit is None else max(1, (limit - p) // (p - 1) ** 2)
    cuts = range(0, inner, step) if step < inner else (None,)
    block = max(1, (_INT16_BLOCK_CELLS if x.dtype.type is np.int16 else _BLOCK_CELLS)
                // max(out.shape[1], 1))
    for lo in range(0, rows, block):
        rs = slice(lo, lo + block)
        acc = None if c is None else c[rs]
        for s in cuts:
            prod = x[rs] @ y if s is None else x[rs, s:s + step] @ y[s:s + step]
            if acc is not None:
                prod += acc
            acc = prod if p is None else _reduce(prod, p)
        out[rs] = acc
    return out


def _product_of_array(a, b, den, arr):
    """a @ b from `arr`, the dense array of its stored values: stored
    dense when an operand is dense or _prefers_dense says so for its
    fill, else as the canonical triplets of its nonzeros."""
    if a.is_dense or b.is_dense or _prefers_dense(
            a.rows, b.cols, np.count_nonzero(arr)):
        return a._like(a.rows, b.cols, dense=arr, den=den)
    ri, ci = np.nonzero(arr)
    return a._like(a.rows, b.cols, den=den, coo=(ri, ci, arr[ri, ci]))


def _madds(a, b):
    """The multiply-adds of the sparse product a @ b: the sum over k of
    nnz(a[:, k]) * nnz(b[k, :])."""
    return int(np.dot(np.bincount(a._coo[1], minlength=a.cols),
                      np.bincount(b._coo[0], minlength=b.rows)))


def _operand(m, dtype, dense):
    """m's stored values in `dtype`: a dense array, or a scipy CSR matrix."""
    if dense:
        return m._dense.astype(dtype, copy=False) if m.is_dense else m._scatter(dtype)
    ri, ci, vals = m._coo
    import scipy.sparse as sp  # on first use: see the module docstring
    indptr = np.searchsorted(ri, np.arange(m.rows + 1))
    return sp.csr_matrix((vals.astype(dtype), ci, indptr), shape=m.shape)


def _densify(a, b, sparse):
    """Which of the sparse operands of a @ b to densify for _matmul, "a"
    or "b", or None to keep scipy's sparse product; `sparse` is the
    sparse product's multiply-adds, _madds(a, b).

    Against a dense b the kernel does nnz(a) * b.cols multiply-adds, and
    against a dense a nnz(b) * a.rows; the cheaper side is densified
    when that count plus _CELL_COST per result cell is at most
    _SPARSE_COST times the sparse product's count, and the result and
    the densified operand stay within the cell cap.
    """
    cells = a.rows * b.cols
    if cells > DENSE_CELL_CAP:
        return None
    cost, side, m = min((len(a._coo[0]) * b.cols, "b", b),
                        (len(b._coo[0]) * a.rows, "a", a), key=lambda c: c[0])
    if (cost + _CELL_COST * cells > _SPARSE_COST * sparse
            or m.rows * m.cols > DENSE_CELL_CAP):
        return None
    return side


_EXPAND_BLOCK = 1 << 20  # products that _expand_matmul holds at once


def _expand_matmul(a, b, den):
    """a @ b by expansion: every product a[i, k] * b[k, j] is formed, and
    the products of each cell are summed in the first dtype exact_dtype
    accepts for their _product_bound.  The bound's inner dimension is
    a.cols, or where that bound needs more than the first dtype the most
    terms a cell's sum can have, min(max row nnz of a, max column nnz of
    b).

    Where the result may be stored dense (_prefers_dense, with as many
    nonzeros as products), float64 comes first: a float64 bincount over
    the flat cell indices sums them into the dense result, every partial
    sum an integer within the bound.  Otherwise, or past float64,
    _merge_products sorts and merges them, in int64 or in Python ints.
    The rows of a go in blocks of about _EXPAND_BLOCK products, so
    memory follows the size of the result.
    """
    f = a.field
    ar, ac, av = a.num_triplets()
    br, bc, bv = b.num_triplets()
    if len(ar) == 0 or len(br) == 0:
        return ExactMatrix.zeros(f, a.rows, b.cols)
    starts = np.searchsorted(br, np.arange(b.rows + 1))
    counts = np.diff(starts)[ac]  # products of each entry of a
    done = np.cumsum(counts)  # products up to each entry's last
    accepts = ((np.float64, np.int64) if _prefers_dense(a.rows, b.cols, int(done[-1]))
               else (np.int64,))
    dtype = exact_dtype(_product_bound(f, a, b, a.cols), accepts)
    if dtype is not accepts[0]:
        dtype = exact_dtype(_product_bound(f, a, b, min(
            int(np.bincount(ar, minlength=a.rows).max()),
            int(np.bincount(bc, minlength=b.cols).max()))), accepts)
    cells = a.rows * b.cols
    dense = dtype is np.float64
    av, bv = av.astype(dtype, copy=False), bv.astype(dtype, copy=False)
    row_base = ar * b.cols  # flat cell indices
    acc, pieces = None, []
    lo = 0
    while lo < len(ar):
        first = int(done[lo] - counts[lo])  # products before entry lo
        hi = len(ar)
        if done[-1] - first > _EXPAND_BLOCK:
            hi = max(int(np.searchsorted(done, first + _EXPAND_BLOCK, side="right")),
                     lo + 1)
            # whole rows, so the blocks stay apart
            hi = int(np.searchsorted(ar, ar[hi - 1], side="right"))
        reps = counts[lo:hi]
        pos = _aranges(starts[ac[lo:hi]], reps)  # the entries of b taken
        vals = np.repeat(av[lo:hi], reps) * bv[pos]
        flat = np.repeat(row_base[lo:hi], reps)
        flat += bc[pos]
        if dense:
            sums = np.bincount(flat, weights=vals, minlength=cells)
            acc = sums if acc is None else acc + sums
        else:
            pieces.append(_merge_products(f, b.cols, np.repeat(ar[lo:hi], reps),
                                          flat, vals))
        lo = hi
    if dense:
        if isinstance(f, PrimeField):
            _reduce(acc, f.p)
        return _product_of_array(a, b, den, acc.astype(_store_dtype(f)).reshape(
            a.rows, b.cols))
    ri, ci, vals = (np.concatenate(part) for part in zip(*pieces))
    out = a._like(a.rows, b.cols, coo=(ri, ci, vals), den=den)
    # a Python-int product of sparse operands stays sparse: dense arrays
    # of Python ints are slow to work with
    return out if dtype is object and not (a.is_dense or b.is_dense) \
        else out.density_preferred()


def _merge_products(f, cols, ri, flat, vals):
    """Canonical triplets of the sums of products at flat cell indices
    `flat` (row ri, column flat - ri * cols), with ri nondecreasing.  A
    stable sort by `flat` only reorders each row's products, so the
    sorted products keep their rows.  Over F_p the sums are reduced once
    merged: the caller's dtype holds them unreduced."""
    order = np.argsort(flat, kind="stable")
    flat, vals = flat[order], vals[order]
    new = np.empty(len(flat), dtype=bool)
    new[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    if not new.all():
        starts = np.flatnonzero(new)
        ri, flat, vals = ri[starts], flat[starts], np.add.reduceat(vals, starts)
    if isinstance(f, PrimeField):
        vals %= f.p
    keep = vals != 0
    if not keep.all():
        ri, flat, vals = ri[keep], flat[keep], vals[keep]
    return ri, flat - ri * cols, vals


def first_mismatch(uv, z, target):
    """The row-major first (i, j) with (uv + z)[i, j] != target[i, j], or
    None if there is none.

    With uv and target dense, D = uv - target + z is formed a block of
    rows at a time (_BLOCK_CELLS cells), and the scan stops at the first
    block that holds a mismatch.  Over F_p D is formed in the stored
    dtype: there uv - target wraps when it is unsigned, but is zero
    exactly where the residues are equal, and the entries of D that hold
    an entry of z are formed apart, lifted, and reduced mod p.  Over Q D
    is formed over the common denominator, lifted to Python ints as
    `__add__` lifts its sum.  With either stored sparse the sparse sum
    runs, as `__add__` would run it.
    """
    if not (uv.is_dense and target.is_dense):
        ri, ci, _ = (uv + z - target).num_triplets()
        return (int(ri[0]), int(ci[0])) if len(ri) else None
    f = uv.field
    a, b = uv.num_dense(), target.num_dense()
    zr, zc, zv = z.num_triplets()
    if not isinstance(f, PrimeField):
        den = math.lcm(uv.den, target.den, z.den)
        sa, sb, sz = den // uv.den, den // target.den, den // z.den
        bound = (max(_bound(a), 1) * sa + max(_bound(b), 1) * sb
                 + max(_bound(zv), 1) * sz)
    step = max(1, _BLOCK_CELLS // max(uv.cols, 1))
    for lo in range(0, uv.rows, step):
        k0, k1 = np.searchsorted(zr, (lo, lo + step))
        at = (zr[k0:k1] - lo, zc[k0:k1])
        x, y = a[lo:lo + step], b[lo:lo + step]
        if isinstance(f, PrimeField):
            d = x - y
            xz, yz, w = _lift(2 * f.p, x[at], y[at], zv[k0:k1])
            d[at] = (xz - yz + w) % f.p
        else:
            x, y, w = _lift(bound, x, y, zv[k0:k1])
            d = x - y if sa == sb == 1 else x * sa - y * sb
            d[at] += w * sz
        if d.any():
            i = int(np.flatnonzero(d)[0])
            return lo + i // uv.cols, i % uv.cols
    return None


# ----------------------------------------------------------------------
# exact rank: one elimination kernel for every field
#
# Over F_p the kernel holds residues in the first of float32, float64 and
# int64 whose _reduce_limit holds p(p - 1), a residue plus the product of
# two (exact_dtype): float32 for p <= 2039, float64 for p <= 33554393,
# int64 up to 3037000493 and Python ints beyond.  Entries are left
# unreduced until the next update could pass that limit, and the float
# kernels' block products run in BLAS.  Over Q the rank is the largest
# rank modulo enough primes.

# columns eliminated a panel at a time.  On an fp_walsh route core
# (252^2 over F_5, rank 203) and a random 1024^2 F_5 matrix, panels of
# 16, 24, 32, 48 and 64 took 7.2, 6.5, 6.3, 7.3 and 7.0 ms and 83, 78,
# 72, 70 and 80 ms (medians of interleaved runs, 2-core x86-64 VM, one
# BLAS thread)
_PANEL = 32


def _basis_rows_mod_p(a, p):
    """Indices, ascending, of rows of the array a of residues mod the
    prime p that form a basis of its row space; their number is the rank.

    The kernel (_echelon) eliminates the columns of a tall a, whose rows
    it tracks through the row swaps: with P a = L E and L unit lower
    triangular, the first rank rows of P a span the row space.  A wide a
    is eliminated as its transpose, whose pivot columns are those rows.
    Either way the kernel works on the transpose of the matrix it
    eliminates, a copy of a itself when a is wide, cast into the
    kernel's dtype.  The copy gets a spare column, so that a power-of-two
    order does not give it a power-of-two row stride, which slows it.
    """
    m, n = a.shape
    dtype = exact_dtype((p - 1) ** 2, (np.float32, np.float64, np.int64), p=p)
    src = a.T if m >= n else a
    t = np.empty((src.shape[0], src.shape[1] + 1), dtype=dtype)[:, :-1]
    np.copyto(t, src, casting="unsafe")
    pivots, labels = _echelon(t, p)
    return sorted(labels[:len(pivots)]) if m >= n else pivots


def _echelon(t, p):
    """Gaussian elimination modulo p of w = t.T, on t in place.

    Returns (pivots, labels): the columns of w that take a pivot, and
    for each place of w's rows the row of w that ends there.  The pivot
    of column c is the first nonzero at or below row r, r the pivots
    found so far, and whole rows of w are swapped to bring it to row r.
    Column c of w is row c of t, so pivot searches, multipliers and
    updates run along contiguous rows of t.

    Columns go in panels of _PANEL.  Within a panel each pivot's update
    of the panel's later columns is one outer product, with the
    multipliers -x/pivot folded into the short side.  The panel's k
    pivots then reach the later columns at once.  With H the pivots'
    columns of t from the panel's first pivot row (k x rest), D the
    diagonal of -1/pivot and S the strictly upper part of D H[:, :k], a
    later column x becomes x[k:] + x[:k] (I - S)^-1 D H[:, k:], where
    (I - S)^-1 = (I + S)(I + S^2)(I + S^4)... as S is nilpotent: a few
    k x k products and two block products.  Entries are held unreduced
    while a running bound (`held` in the panel, `bound` after it) shows
    that the next update stays within _reduce_limit of t's dtype, and
    reduced before it otherwise; _matmul cuts a product that would pass
    it alone.
    """
    cols, rows = t.shape
    labels = list(range(rows))
    pivots = []
    r = 0
    top, step = p - 1, (p - 1) ** 2
    limit = _reduce_limit(t.dtype.type)
    lim = math.inf if limit is None else limit
    bound = top
    for c0 in range(0, cols, _PANEL):
        if r == rows:
            break
        r0 = r
        panel = t[c0:c0 + _PANEL]
        if bound > top:
            _reduce(panel[:, r:], p)
        held = top
        found, moved, scale = [], [], []
        for c in range(len(panel)):
            if r == rows:
                break
            row = panel[c, r:]
            if held > top:
                _reduce(row, p)
            nz = row.nonzero()[0]
            if not len(nz):
                continue
            i = r + int(nz[0])
            if i != r:
                col = panel[:, r].copy()
                panel[:, r] = panel[:, i]
                panel[:, i] = col
                labels[r], labels[i] = labels[i], labels[r]
            neg = p - pow(int(row[0]), p - 2, p)
            if c + 1 < len(panel) and r + 1 < rows:
                x = panel[c + 1:, r]
                if held * top > lim:
                    x = _reduce(x.copy(), p)
                mult = _reduce(x * neg, p)
                later = panel[c + 1:, r + 1:]
                if held + step > lim:
                    _reduce(later, p)
                    held = top
                later += mult[:, None] * row[1:]
                held += step
            found.append(c0 + c)
            moved.append(i)
            scale.append(neg)
            r += 1
        pivots += found
        k = len(found)
        rest = t[c0 + len(panel):]
        if k == 0 or len(rest) == 0 or r == rows:
            continue
        if moved != list(range(r0, r)):
            # the panel's row swaps, in order
            order = list(range(max(moved) + 1 - r0))
            for j, i in enumerate(moved):
                order[j], order[i - r0] = order[i - r0], order[j]
            swapped = rest[:, r0:r0 + len(order)]
            swapped[...] = swapped[:, order]
        h = t[found, r0:]
        d = np.array(scale, dtype=t.dtype)
        s = _reduce(np.triu(h[:, :k], 1) * d[:, None], p)
        inv = s.copy()
        np.fill_diagonal(inv, 1)
        power, span = s, 2
        while span < k:
            power = _matmul(power, power, p)
            _matmul(inv, power, p, inv, inv)
            span *= 2
        inv = _reduce(inv * d, p)
        x = rest[:, r0:r]
        coef = _matmul(x if bound == top else _reduce(x.copy(), p), inv, p)
        x = rest[:, r:]
        if bound + k * step > lim:
            _reduce(x, p)
            bound = top
        if bound + k * step > lim:
            _matmul(coef, h[:, k:], p, x, x)
        else:
            _matmul(coef, h[:, k:], None, x, x)
            bound += k * step
    return pivots, labels


def _rank_primes():
    """Odd primes below 2**17, largest first.  With (p-1)**2 * KRON_ORDER_CAP
    below 2**50, no block product of the kernel needs a chunked inner
    dimension for them."""
    for q in range((1 << 17) - 1, 2, -2):
        if all(q % d for d in range(3, math.isqrt(q) + 1, 2)):
            yield q


def _basis_rows_rational(a):
    """Indices of rows of an integer array (the numerators of a matrix)
    that form a basis of its row space over Q.

    Each row is divided by its content.  Rank modulo p never exceeds the
    rank r over Q, and falls below it only if p divides every r-minor.
    So once the product of the primes tried exceeds the Hadamard bound on
    (s+1)-minors, s the largest rank seen, no larger rank is possible.
    Rows independent modulo p are independent over Q, so the basis rows
    of a prime that reaches the largest rank are a basis over Q.
    """
    m, n = a.shape
    g = np.gcd.reduce(a, axis=1)
    g[g == 0] = 1
    a = _fit(a // g[:, None])
    (x,) = _lift(_bound(a) ** 2 * n, a)
    sq = (x * x).sum(axis=1)
    norms = sorted((math.isqrt(s - 1) + 1 if s else 1 for s in sq.tolist()),
                   reverse=True)
    rows = []
    modulus = 1
    for q in _rank_primes():
        rows = max(rows, _basis_rows_mod_p(a % q, q), key=len)
        modulus *= q
        if len(rows) == min(m, n) or modulus > math.prod(norms[:len(rows) + 1]):
            return rows
    raise ArithmeticError("rank bound beyond the product of the kernel's primes")


def _basis_rows(field, arr):
    """Indices of rows of a dense array of stored values over `field` that
    form a basis of its row space; their number is the exact rank."""
    if isinstance(field, PrimeField):
        return _basis_rows_mod_p(arr, field.p)
    return _basis_rows_rational(arr)


def rank_of_product(u, v, uv=None, difference=None):
    """Exact rank of u @ v.  Beyond the cell cap it is the rank of
    u[S] @ v, S the rows of u that the kernel picks as a row basis, which
    has at most u.cols rows and the same row space.

    `uv`, if given, is u @ v already formed.  `difference`, if given, is
    (spec, z) for a KroneckerSpec and a matrix z with u @ v = A - z, A the
    spec's product, an identity the caller has checked; where
    `_rank_of_difference` applies, the rank is taken from z's nonzero
    columns and the factors' inverses instead of from u @ v.
    """
    if u.cols == 0 or min(u.rows, v.cols) == 0:
        return 0
    if difference is not None:
        rank = _rank_of_difference(*difference)
        if rank is not None:
            return rank
    if u.rows * v.cols <= DENSE_CELL_CAP:
        return (u @ v if uv is None else uv).exact_rank()
    rows = _basis_rows(u.field, u.num_dense())
    return (u.submatrix(rows, np.arange(u.cols)) @ v).exact_rank()


def _distinct(factors):
    """The distinct factors, in first-seen order, and each factor's index
    among them; a factor repeats one that it is or equals."""
    distinct, which = [], []
    for m in factors:
        j = next((j for j, d in enumerate(distinct) if d is m or d == m), len(distinct))
        if j == len(distinct):
            distinct.append(m)
        which.append(j)
    return distinct, which


def _rank_of_difference(spec, z):
    """rank(A - z) for A the product of `spec`, from z's nonzero rows R and
    columns C, or None where that route does not apply.

    With A invertible, A^-1 (A - z) = I - A^-1 z.  Its columns outside C
    are unit vectors, so with the indices ordered (outside C, C) it is
    block upper triangular with an identity block first, and

        rank(A - z) = n - |C| + rank(I_C - A^-1[C, R] z[R, C]).

    A^-1 is the Kronecker product of the factors' inverses.  Split into
    a first half of the factors and the rest, A^-1 = L (x) M with M of
    order n2, so A^-1[c, r] = L[c // n2, r // n2] * M[c % n2, r % n2]:
    A^-1[C, R] is the product of one gather from each half, and the core
    is I + A^-1[C, R] (-z[R, C]).  The split puts the fewest cells in L
    and M together, about n each when the orders balance.  The route
    needs every factor of full rank, |C| * |R| within the cell cap, and
    the factors' solves (about sum d^3 integer operations) within the n^2
    cells of A.  Each distinct factor is solved once, and its rank read
    off that solve; with no nonzero column in z, where no inverse is
    needed, each is only ranked.
    """
    n, dims = spec.n, spec.dims
    if sum(d ** 3 for d in dims) > n * n:
        return None
    ri, ci, vals = z.num_triplets()
    rsel, csel = _occupied(ri, n), _occupied(ci, n)
    if len(rsel) * len(csel) > DENSE_CELL_CAP:
        return None
    distinct, which = _distinct(spec.factors)
    if len(csel) == 0:
        return None if any(m.exact_rank() < m.rows for m in distinct) else n
    f = spec.field
    inv = []
    for m in distinct:
        x, pivots = solve_linear(f, m.num_dense(), np.diag([m.den] * m.rows))
        if len(pivots) < m.rows:
            return None
        inv.append(ExactMatrix.from_dense(f, x))
    inv = [inv[j] for j in which]
    h = min(range(1, len(dims)),
            key=lambda i: math.prod(dims[:i]) ** 2 + math.prod(dims[i:]) ** 2)
    left, right = kron_list(inv[:h]), kron_list(inv[h:])
    n2 = right.rows
    a, b = _product_operands(left, right, left.num_dense(), right.num_dense())
    acc = a[csel // n2][:, rsel // n2] * b[csel % n2][:, rsel % n2]
    if isinstance(f, PrimeField):
        acc = _reduce(acc, f.p)
    inv_cr = ExactMatrix(f, len(csel), len(rsel), dense=acc, den=left.den * right.den)
    z_rc = ExactMatrix(f, len(rsel), len(csel), den=z.den, coo=(
        np.searchsorted(rsel, ri), np.searchsorted(csel, ci), vals))
    # -z[R, C] is negated, not the dense product
    core = ExactMatrix.identity(f, len(csel)) + inv_cr @ -z_rc
    return n - len(csel) + core.exact_rank()


# ----------------------------------------------------------------------
# small exact linear solves


def solve_linear(field, a, b):
    """(x, pivots) for a @ x = b, a integer and b an integer vector or
    matrix: x is one exact solution with its free variables zero (a list,
    or a list of rows if b is a matrix), or None if there is none, and
    pivots are a's pivot columns in increasing order, the first of a's
    columns that span its column space (as many as a's rank).

    Over F_p the integers are taken mod p; over Q they are the system
    itself (scaling a row of it by the row's denominators clears them).
    Gauss-Jordan on integer rows: an update cross-multiplies two rows,
    then reduces the result mod p, or over Q divides it by its content,
    so only the entries of x become fractions.  The pivot columns are
    fixed by a, so x does not depend on the pivot rows chosen.
    """
    a = np.asarray(a)
    m, n = a.shape
    b = np.asarray(b, dtype=object)
    k = b.shape[1] if b.ndim == 2 else 1
    p = field.p if isinstance(field, PrimeField) else None

    def tidy(row):
        if p is not None:
            return [v % p for v in row]
        g = math.gcd(*row)
        return [v // g for v in row] if g > 1 else row

    rows = [tidy(row + [int(v) for v in rhs])
            for row, rhs in zip(a.tolist(), b.reshape(m, k).tolist())]
    pivots = []
    for c in range(n):
        r = len(pivots)
        i = next((i for i in range(r, m) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = tidy([top[c] * u - f * v for u, v in zip(row, top)])
        pivots.append(c)
    if any(any(row[n:]) for row in rows[len(pivots):]):
        return None, pivots
    x = [[field.zero] * k for _ in range(n)]
    for row, c in zip(rows, pivots):
        x[c] = [field.div(v, row[c]) for v in row[n:]]
    return (x if b.ndim == 2 else [xc[0] for xc in x]), pivots


# ----------------------------------------------------------------------
# stacking


def _stack(mats, axis):
    """Concatenated triplets of canonical blocks, shifted along `axis`
    (0 stacks rows, 1 columns) and brought over one common denominator,
    the shape of the result and that denominator."""
    other = mats[0].shape[1 - axis]
    den = math.lcm(*[m.den for m in mats])
    ri_all, ci_all, val_all = [], [], []
    shift = 0
    for m in mats:
        if m.shape[1 - axis] != other:
            raise ValueError("stacked blocks must match in their other dimension")
        ri, ci, vals = m.num_triplets()
        ri_all.append(ri + shift if axis == 0 else ri)
        ci_all.append(ci + shift if axis == 1 else ci)
        val_all.append(_times(vals, den // m.den))
        shift += m.shape[axis]
    shape = (shift, other) if axis == 0 else (other, shift)
    return (np.concatenate(ri_all), np.concatenate(ci_all),
            np.concatenate(val_all)), shape, den


def hstack(mats):
    """Blocks side by side.  A stable sort by row keeps each row's entries
    in column order, as the blocks' column ranges ascend."""
    (ri, ci, vals), shape, den = _stack(mats, 1)
    if len(ri) == 0:
        return ExactMatrix.zeros(mats[0].field, *shape)
    order = _stable_order(ri, shape[0])
    return ExactMatrix(mats[0].field, *shape, den=den,
                       coo=(ri[order], ci[order], vals[order]))


def vstack(mats):
    """Blocks one above another; with shifted rows they stay canonical."""
    (ri, ci, vals), shape, den = _stack(mats, 0)
    if len(ri) == 0:
        return ExactMatrix.zeros(mats[0].field, *shape)
    return ExactMatrix(mats[0].field, *shape, coo=(ri, ci, vals), den=den)


# ----------------------------------------------------------------------
# Kronecker structure


def mixed_radix_strides(dims):
    """Strides for factor-1-most-significant tuple indexing."""
    k = len(dims)
    strides = np.ones(k, dtype=np.int64)
    for i in range(k - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return strides


def all_digits(dims):
    """(n, k) array of 1-based digits for every flat index, row i = tuple(i)."""
    n = 1
    for d in dims:
        n *= d
    strides = mixed_radix_strides(dims)
    idx = np.arange(n, dtype=np.int64)
    return (idx[:, None] // strides[None, :]) % np.asarray(dims, dtype=np.int64) + 1


class KroneckerSpec:
    """An intended Kronecker product of square factors, not yet materialized."""

    def __init__(self, factors):
        if not factors:
            raise ValueError("need at least one factor")
        for pos, m in enumerate(factors):
            if not isinstance(m, ExactMatrix):
                raise ValueError(f"factor {pos} is not an ExactMatrix")
            if m.field != factors[0].field:
                raise ValueError(f"factor {pos} is over {m.field.header}, "
                                 f"factor 0 over {factors[0].field.header}")
            if not m.is_square or m.rows < 2:
                raise ValueError(f"factor {pos} must be square of order at "
                                 f"least 2, got shape {m.shape}")
        self.factors = list(factors)
        self.field = factors[0].field
        self.dims = tuple(m.rows for m in factors)
        self.n = math.prod(self.dims)

    @property
    def k(self):
        return len(self.factors)

    @property
    def shape(self):
        return (self.n, self.n)

    def materialize(self):
        """The product as one matrix, in the storage its fill calls for:
        dense exactly when `_prefers_dense` says so for ∏ nnz(Mᵢ)
        nonzeros, the product's exact count, as a field has no zero
        divisors.  Every factor is brought to that storage first, so each
        `kron` of the fold stays in it."""
        if self.n > KRON_ORDER_CAP:
            raise SizeCapError(
                f"order {self.n} exceeds the materialization cap {KRON_ORDER_CAP}")
        dense = _prefers_dense(self.n, self.n,
                               math.prod(m.nnz for m in self.factors))
        return kron_list([m._like(m.rows, m.cols, dense=m.num_dense()) if dense
                          else m._like(m.rows, m.cols, coo=m.num_triplets())
                          for m in self.factors])

    def __repr__(self):
        return f"<KroneckerSpec dims={self.dims} over {self.field.header}>"


def kron_list(mats):
    """The Kronecker product of the matrices, folded as two halves, so
    that only the last `kron` forms as many cells as the product."""
    if len(mats) <= 1:
        return mats[0]
    h = len(mats) // 2
    return kron_list(mats[:h]).kron(kron_list(mats[h:]))


def random_dense(field, rows, cols, rng):
    vals = [[field.rand(rng) for _ in range(cols)] for _ in range(rows)]
    return ExactMatrix.from_dense(field, vals)


def random_invertible(field, n, rng, tries=200):
    if n < 1:
        raise ValueError(f"an invertible matrix needs order >= 1, got {n}")
    for _ in range(tries):
        m = random_dense(field, n, n, rng)
        if m.exact_rank() == n:
            return m
    raise RuntimeError("failed to sample an invertible matrix")
