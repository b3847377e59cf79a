"""Exact matrices over F_p / Q with dense and sparse-triplet storage.

Dense storage is a numpy array (int64 residues for p < 2**31, Python
objects otherwise); sparse storage is a canonical COO triple: row-major
sorted, duplicate-free, no explicit zeros.  All arithmetic is exact.
Fast paths (float64 BLAS, scipy sparse kernels) are engaged only when
the result provably fits the intermediate type, and always reduce back
to canonical residues.
"""

import math

import numpy as np
import scipy.sparse as sp

from .field import PrimeField, RationalField

# Materialization guards.  DENSE_CELL_CAP bounds the cells of any dense
# array we allocate; KRON_ORDER_CAP bounds the order at which a Kronecker
# product may be materialized at all.
DENSE_CELL_CAP = 1 << 25
KRON_ORDER_CAP = 65536


class SizeCapError(ValueError):
    """Requested materialization exceeds the configured size caps."""


def _empty_vals(field):
    return np.empty(0, dtype=field.dtype)


def _canon_vals(field, vals):
    """Canonicalize a flat value array for `field`."""
    if isinstance(field, PrimeField):
        if field.dtype is np.int64:
            return np.asarray(vals, dtype=np.int64) % field.p
        arr = np.empty(len(vals), dtype=object)
        arr[:] = [int(v) % field.p for v in vals]
        return arr
    arr = np.empty(len(vals), dtype=object)
    arr[:] = [field.canon(v) for v in vals]
    return arr


def _canon_coo(field, shape, ri, ci, vals, assume_clean=False):
    """Sort row-major, merge duplicates, drop zeros."""
    ri = np.asarray(ri, dtype=np.int64)
    ci = np.asarray(ci, dtype=np.int64)
    if len(ri) == 0:
        return ri, ci, _empty_vals(field)
    if not assume_clean:
        if ri.min() < 0 or ri.max() >= shape[0] or ci.min() < 0 or ci.max() >= shape[1]:
            raise IndexError("triplet index out of range")
    order = np.lexsort((ci, ri))
    ri, ci, vals = ri[order], ci[order], vals[order]
    dup = np.zeros(len(ri), dtype=bool)
    dup[1:] = (ri[1:] == ri[:-1]) & (ci[1:] == ci[:-1])
    if dup.any():
        starts = np.flatnonzero(~dup)
        vals = np.add.reduceat(vals, starts)
        if isinstance(field, PrimeField):
            vals = vals % field.p
        ri, ci = ri[starts], ci[starts]
    keep = vals != 0
    if not keep.all():
        ri, ci, vals = ri[keep], ci[keep], vals[keep]
    return ri, ci, vals


class ExactMatrix:
    """Immutable exact matrix; do not mutate the backing arrays."""

    __slots__ = ("field", "rows", "cols", "_dense", "_coo")

    def __init__(self, field, rows, cols, dense=None, coo=None):
        self.field = field
        self.rows = int(rows)
        self.cols = int(cols)
        self._dense = dense
        self._coo = coo
        if dense is None and coo is None:
            raise ValueError("matrix needs dense or sparse data")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_dense(cls, field, data):
        arr = np.array(data, dtype=object)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        flat = _canon_vals(field, arr.ravel())
        return cls(field, arr.shape[0], arr.shape[1], dense=flat.reshape(arr.shape))

    @classmethod
    def from_triplets(cls, field, rows, cols, triplets):
        if triplets:
            ri, ci, vals = zip(*[(int(i), int(j), v) for i, j, v in triplets])
        else:
            ri, ci, vals = (), (), ()
        coo = _canon_coo(field, (rows, cols), np.array(ri, dtype=np.int64),
                         np.array(ci, dtype=np.int64), _canon_vals(field, list(vals)))
        return cls(field, rows, cols, coo=coo)

    @classmethod
    def _raw_dense(cls, field, arr):
        return cls(field, arr.shape[0], arr.shape[1], dense=arr)

    @classmethod
    def _raw_coo(cls, field, rows, cols, ri, ci, vals):
        return cls(field, rows, cols, coo=(ri, ci, vals))

    @classmethod
    def zeros(cls, field, rows, cols, dense=False):
        if dense:
            if isinstance(field, PrimeField) and field.dtype is np.int64:
                return cls._raw_dense(field, np.zeros((rows, cols), dtype=np.int64))
            arr = np.full((rows, cols), field.zero, dtype=object)
            return cls._raw_dense(field, arr)
        e = np.empty(0, dtype=np.int64)
        return cls._raw_coo(field, rows, cols, e, e.copy(), _empty_vals(field))

    @classmethod
    def identity(cls, field, n):
        idx = np.arange(n, dtype=np.int64)
        vals = _canon_vals(field, [field.one] * n)
        return cls._raw_coo(field, n, n, idx, idx.copy(), vals)

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

    def to_dense(self):
        """Dense backing array (cached); guarded by the cell cap."""
        if self._dense is None:
            if self.rows * self.cols > DENSE_CELL_CAP:
                raise SizeCapError(
                    f"{self.rows}x{self.cols} exceeds the dense cell cap")
            ri, ci, vals = self._coo
            if vals.dtype == object:
                arr = np.full((self.rows, self.cols), self.field.zero, dtype=object)
            else:
                arr = np.zeros((self.rows, self.cols), dtype=np.int64)
            arr[ri, ci] = vals
            self._dense = arr
        return self._dense

    def triplets(self):
        """Canonical COO arrays (row, col, value), cached."""
        if self._coo is None:
            arr = self._dense
            ri, ci = np.nonzero(arr != 0)
            self._coo = (ri.astype(np.int64), ci.astype(np.int64), arr[ri, ci])
        return self._coo

    @property
    def nnz(self):
        return len(self.triplets()[0])

    def density_preferred(self):
        """Re-wrap with the storage that suits the fill-in."""
        cells = self.rows * self.cols
        if cells <= DENSE_CELL_CAP and self.nnz * 3 > cells:
            self.to_dense()
        return self

    # ------------------------------------------------------------------
    # inspection

    def __getitem__(self, idx):
        i, j = idx
        if self._dense is not None:
            return self._dense[i, j]
        ri, ci, vals = self._coo
        hit = np.flatnonzero((ri == i) & (ci == j))
        return vals[hit[0]] if hit.size else self.field.zero

    def is_zero(self):
        return self.nnz == 0

    def row_col_nnz(self):
        """(max nonzeros in any row, max nonzeros in any column)."""
        ri, ci, _ = self.triplets()
        if len(ri) == 0:
            return (0, 0)
        rc = np.bincount(ri, minlength=self.rows)
        cc = np.bincount(ci, minlength=self.cols)
        return (int(rc.max()), int(cc.max()))

    def per_row_nnz(self):
        ri = self.triplets()[0]
        return np.bincount(ri, minlength=self.rows)

    def per_col_nnz(self):
        ci = self.triplets()[1]
        return np.bincount(ci, minlength=self.cols)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if self.is_dense and other.is_dense:
            if self._dense.dtype == object or other._dense.dtype == object:
                return bool((self._dense == other._dense).all())
            return bool(np.array_equal(self._dense, other._dense))
        a, b = self.triplets(), other.triplets()
        return (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                and bool((a[2] == b[2]).all()) if len(a[0]) == len(b[0]) else False)

    __hash__ = None  # unhashable; equality is entrywise

    # ------------------------------------------------------------------
    # structural ops

    @property
    def T(self):
        if self._coo is not None:
            ri, ci, vals = self._coo
            coo = _canon_coo(self.field, (self.cols, self.rows), ci.copy(), ri.copy(),
                             vals.copy(), assume_clean=True)
            return ExactMatrix._raw_coo(self.field, self.cols, self.rows, *coo)
        return ExactMatrix._raw_dense(self.field, self._dense.T.copy())

    def permute_rows(self, perm):
        """Rows of the result: result[i, :] = self[perm[i], :]."""
        perm = np.asarray(perm, dtype=np.int64)
        if self._dense is not None:
            return ExactMatrix._raw_dense(self.field, self._dense[perm])
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm), dtype=np.int64)
        ri, ci, vals = self._coo
        coo = _canon_coo(self.field, self.shape, inv[ri], ci.copy(), vals.copy(),
                         assume_clean=True)
        return ExactMatrix._raw_coo(self.field, self.rows, self.cols, *coo)

    def permute_cols(self, perm):
        """Columns of the result: result[:, j] = self[:, perm[j]]."""
        perm = np.asarray(perm, dtype=np.int64)
        if self._dense is not None:
            return ExactMatrix._raw_dense(self.field, self._dense[:, perm])
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm), dtype=np.int64)
        ri, ci, vals = self._coo
        coo = _canon_coo(self.field, self.shape, ri.copy(), inv[ci], vals.copy(),
                         assume_clean=True)
        return ExactMatrix._raw_coo(self.field, self.rows, self.cols, *coo)

    def submatrix(self, row_idx, col_idx):
        arr = self.to_dense()
        sub = arr[np.ix_(np.asarray(row_idx, dtype=np.int64),
                         np.asarray(col_idx, dtype=np.int64))]
        return ExactMatrix._raw_dense(self.field, sub.copy())

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
        if self.is_dense or other.is_dense:
            a, b = self.to_dense(), other.to_dense()
            if isinstance(self.field, PrimeField) and a.dtype != object:
                return ExactMatrix._raw_dense(self.field, (a + b) % self.field.p)
            return ExactMatrix._raw_dense(self.field, a + b)
        ar, ac, av = self.triplets()
        br, bc, bv = other.triplets()
        coo = _canon_coo(self.field, self.shape, np.concatenate([ar, br]),
                         np.concatenate([ac, bc]), np.concatenate([av, bv]),
                         assume_clean=True)
        return ExactMatrix._raw_coo(self.field, self.rows, self.cols, *coo)

    def __neg__(self):
        f = self.field

        def neg(x):
            return -x % f.p if isinstance(f, PrimeField) else -x
        if self._dense is not None:
            return ExactMatrix._raw_dense(f, neg(self._dense))
        ri, ci, vals = self._coo
        return ExactMatrix._raw_coo(f, self.rows, self.cols, ri.copy(), ci.copy(),
                                    neg(vals))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        f = self.field
        c = f.canon(c)
        ri, ci, vals = self.triplets()
        nv = vals * c
        if isinstance(f, PrimeField):
            nv = nv % f.p
        coo = _canon_coo(f, self.shape, ri.copy(), ci.copy(), nv, assume_clean=True)
        out = ExactMatrix._raw_coo(f, self.rows, self.cols, *coo)
        return out.density_preferred() if self.is_dense else out

    # ------------------------------------------------------------------
    # multiplication

    def __matmul__(self, other):
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(f"inner dimension mismatch {self.shape} @ {other.shape}")
        if self.cols == 0:
            return ExactMatrix.zeros(self.field, self.rows, other.cols)
        f = self.field
        if self.is_dense and other.is_dense:
            return ExactMatrix._raw_dense(f, _dense_matmul(f, self._dense, other._dense))
        if not self.is_dense and not other.is_dense:
            return _sparse_matmul(self, other)
        if self.is_dense:
            # dense @ sparse via the transposed sparse kernel
            return _sparse_dense_matmul(other.T, self.T, f).T
        return _sparse_dense_matmul(self, other, f)

    def kron(self, other):
        self._check_field(other)
        f = self.field
        out_r, out_c = self.rows * other.rows, self.cols * other.cols
        if max(out_r, out_c) > KRON_ORDER_CAP:
            raise SizeCapError(
                f"Kronecker output {out_r}x{out_c} beyond the order cap {KRON_ORDER_CAP}")
        if (self.is_dense and other.is_dense and out_r * out_c <= DENSE_CELL_CAP):
            a, b = self._dense, other._dense
            prod = np.kron(a, b)
            if isinstance(f, PrimeField) and prod.dtype != object:
                prod %= f.p
            return ExactMatrix._raw_dense(f, prod)
        ar, ac, av = self.triplets()
        br, bc, bv = other.triplets()
        if len(av) * len(bv) > DENSE_CELL_CAP:
            raise SizeCapError(
                f"Kronecker output would hold {len(av) * len(bv)} explicit "
                f"entries, beyond the cap of {DENSE_CELL_CAP}")
        ri = (ar[:, None] * other.rows + br[None, :]).ravel()
        ci = (ac[:, None] * other.cols + bc[None, :]).ravel()
        vals = np.multiply.outer(av, bv).ravel()
        if isinstance(f, PrimeField):
            vals = vals % f.p
        coo = _canon_coo(f, (out_r, out_c), ri, ci, vals, assume_clean=True)
        return ExactMatrix._raw_coo(f, out_r, out_c, *coo)

    # ------------------------------------------------------------------
    # rank

    def exact_rank(self):
        """Exact rank: Gaussian elimination over F_p, Bareiss over Q."""
        if min(self.rows, self.cols) == 0:
            return 0
        if not self.is_dense:
            ri, ci, _ = self.triplets()
            if len(ri) == 0:
                return 0
            rsel = np.unique(ri)
            csel = np.unique(ci)
            if len(rsel) * len(csel) <= DENSE_CELL_CAP:
                sub = self.to_dense() if self.rows * self.cols <= DENSE_CELL_CAP \
                    else None
                if sub is None:
                    m = self._gather(rsel, csel)
                else:
                    m = sub[np.ix_(rsel, csel)]
                return _dense_rank(self.field, m)
            return _rank_streaming(self)
        return _dense_rank(self.field, self._dense)

    def _gather(self, rsel, csel):
        ri, ci, vals = self.triplets()
        rmap = np.empty(self.rows, dtype=np.int64)
        rmap[rsel] = np.arange(len(rsel))
        cmap = np.empty(self.cols, dtype=np.int64)
        cmap[csel] = np.arange(len(csel))
        if vals.dtype == object:
            arr = np.full((len(rsel), len(csel)), self.field.zero, dtype=object)
        else:
            arr = np.zeros((len(rsel), len(csel)), dtype=np.int64)
        arr[rmap[ri], cmap[ci]] = vals
        return arr

    def row_basis(self):
        """Dense matrix whose rows span this matrix's row space."""
        arr = self.to_dense()
        _, rows = _echelon(self.field, arr)
        return ExactMatrix._raw_dense(self.field, rows)

    def __repr__(self):
        tag = "dense" if self.is_dense else f"sparse nnz={self.nnz}"
        return f"<ExactMatrix {self.rows}x{self.cols} over {self.field.header} ({tag})>"


# ----------------------------------------------------------------------
# dense kernels


def _dense_matmul(field, a, b):
    if isinstance(field, RationalField):
        return np.dot(a, b)
    p = field.p
    if a.dtype == object or b.dtype == object or p >= _FLOAT_P:
        return _matmul_mod(a, b, p)
    return _matmul_mod(a.astype(np.float64), b.astype(np.float64), p).astype(np.int64)


def _sparse_matmul(a, b):
    f = a.field
    ar, ac, av = a.triplets()
    if len(ar) == 0 or b.nnz == 0:
        return ExactMatrix.zeros(f, a.rows, b.cols)
    if av.dtype != object and b.triplets()[2].dtype != object:
        p = f.p
        if (p - 1) * (p - 1) * a.cols < 2**63:
            am = sp.csr_matrix((av, (ar, ac)), shape=a.shape, dtype=np.int64)
            br, bc, bv = b.triplets()
            bm = sp.csr_matrix((bv, (br, bc)), shape=b.shape, dtype=np.int64)
            cm = (am @ bm).tocoo()
            vals = cm.data % p
            coo = _canon_coo(f, (a.rows, b.cols), cm.row.astype(np.int64),
                             cm.col.astype(np.int64), vals, assume_clean=True)
            out = ExactMatrix._raw_coo(f, a.rows, b.cols, *coo)
            return out.density_preferred()
    # exact object fallback
    br, bc, bv = b.triplets()
    rows_of_b = {}
    for i, j, v in zip(br, bc, bv):
        rows_of_b.setdefault(int(i), []).append((int(j), v))
    out = {}
    for i, j, v in zip(ar, ac, av):
        for jj, w in rows_of_b.get(int(j), ()):
            key = (int(i), jj)
            prod = f.mul(v, w)
            if key in out:
                out[key] = f.add(out[key], prod)
            else:
                out[key] = prod
    trips = [(i, j, v) for (i, j), v in out.items() if v != 0]
    return ExactMatrix.from_triplets(f, a.rows, b.cols, trips)


def _sparse_dense_matmul(a, b, f):
    """a sparse, b dense -> dense."""
    bd = b.to_dense()
    ar, ac, av = a.triplets()
    if av.dtype != object and bd.dtype != object:
        p = f.p
        if (p - 1) * (p - 1) * a.cols < 2**63:
            am = sp.csr_matrix((av, (ar, ac)), shape=a.shape, dtype=np.int64)
            return ExactMatrix._raw_dense(f, np.asarray(am @ bd) % p)
    if isinstance(f, PrimeField):
        out = np.zeros((a.rows, b.cols), dtype=object)
    else:
        out = np.full((a.rows, b.cols), f.zero, dtype=object)
    for i, j, v in zip(ar, ac, av):
        out[i] = out[i] + v * bd[j]
    if isinstance(f, PrimeField):
        out = out % f.p
    return ExactMatrix._raw_dense(f, out)


# ----------------------------------------------------------------------
# exact rank: one elimination kernel for every field
#
# Over F_p the kernel holds residues as float64 when p < _FLOAT_P, so
# block products run in BLAS.  Every float it forms is a nonnegative
# integer of at most _FLOAT_LIMIT: p**2 at most outside block products,
# whose inner dimension is chunked to stay below it.  Residues are int64
# below 2**31 and Python ints above.  Over Q the rank is the largest rank
# modulo enough primes.

_FLOAT_LIMIT = 1 << 50
_FLOAT_P = 1 << 25
_LEAF = 4  # columns (and triangular-solve rows) eliminated one at a time


def _reduce(x, p):
    """x mod p for a nonnegative kernel array; overwrites a float x.

    x - p*floor(x * pinv) with pinv = 1/p rounded up is exact for x up to
    _FLOAT_LIMIT: the quotient is never too small, and x * pinv errs by
    less than 1/p, so it is never too large.
    """
    if x.dtype != np.float64:
        return x % p
    q = x * np.nextafter(1.0 / p, 1.0)
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _matmul_mod(a, b, p, c=None):
    """(c + a @ b) mod p for kernel arrays of one dtype, c defaulting to 0.
    The inner dimension is cut into chunks whose sums stay exact."""
    if a.dtype == object or b.dtype == object:
        prod = np.dot(a, b)
        return (prod if c is None else c + prod) % p
    limit = _FLOAT_LIMIT if a.dtype == np.float64 else (1 << 63) - 1
    step = max(1, (limit - p) // (p - 1) ** 2)
    for s in range(0, a.shape[-1] or 1, step):
        prod = a[..., s:s + step] @ b[s:s + step]
        if c is not None:
            prod += c
        c = _reduce(prod, p)
    return c


def _solve_unit_lower(nl, x, p):
    """Overwrite x with L^-1 @ x mod p, where the strictly lower part of nl
    is -L and L is unit lower triangular.  Splits the rows in half, as the
    kernel splits columns."""
    q = len(nl)
    if q <= _LEAF:
        for j in range(1, q):
            x[j] = _matmul_mod(nl[j, :j], x[:j], p, x[j])
        return
    h = q // 2
    _solve_unit_lower(nl[:h, :h], x[:h], p)
    x[h:] = _matmul_mod(nl[h:, :h], x[:h], p, x[h:])
    _solve_unit_lower(nl[h:, h:], x[h:], p)


def _eliminate(w, p, r0, c0, c1):
    """Eliminate columns c0:c1 of the residue array w below row r0, in place.

    Returns the pivot columns.  Whole rows of w are swapped so that pivot
    j sits in row r0 + j, and below it column pivots[j] holds the
    negated multipliers: the strictly lower part of w[r0:, pivots] is -L
    in the factorization P w[r0:, c0:c1] = L E with E in echelon form.
    The left half of the columns is eliminated first; one triangular
    solve and one block product then leave the Schur complement in the
    right half, which is eliminated in turn.
    """
    m = len(w)
    if c1 - c0 > _LEAF:
        mid = (c0 + c1) // 2
        pivots = _eliminate(w, p, r0, c0, mid)
        r1 = r0 + len(pivots)
        if r1 == m:
            return pivots
        if pivots:
            nl = w[r0:, pivots]
            top = w[r0:r1, mid:c1]
            _solve_unit_lower(nl[:len(pivots)], top, p)
            w[r1:, mid:c1] = _matmul_mod(nl[len(pivots):], top, p, w[r1:, mid:c1])
        return pivots + _eliminate(w, p, r1, mid, c1)
    pivots = []
    r = r0
    for c in range(c0, c1):
        if r == m:
            break
        nz = np.flatnonzero(w[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            w[[r, i]] = w[[i, r]]
        neg_inv = p - pow(int(w[r, c]), p - 2, p)
        g = _reduce(w[r + 1:, c] * neg_inv, p)
        w[r + 1:, c + 1:c1] = _reduce(
            w[r + 1:, c + 1:c1] + np.multiply.outer(g, w[r, c + 1:c1]), p)
        w[r + 1:, c] = g
        pivots.append(c)
        r += 1
    return pivots


def _rank_mod_p(a, p):
    """Rank modulo the prime p of an integer array."""
    dtype = np.float64 if p < _FLOAT_P else np.int64 if p < 1 << 31 else object
    w = np.remainder(a, p, out=np.empty(a.shape, dtype=dtype), casting="unsafe")
    if w.shape[1] > w.shape[0]:
        w = np.ascontiguousarray(w.T)  # the leaves loop over columns
    return len(_eliminate(w, p, 0, 0, w.shape[1]))


def _rank_primes():
    """Odd primes below 2**17, largest first.  With (p-1)**2 * KRON_ORDER_CAP
    below 2**50, no block product of the kernel needs a chunked inner
    dimension for them."""
    for q in range((1 << 17) - 1, 2, -2):
        if all(q % d for d in range(3, math.isqrt(q) + 1, 2)):
            yield q


def _rank_rational(arr):
    """Rank over Q by multimodular reduction.

    Each row is scaled to integers.  Rank modulo p never exceeds the rank
    r over Q, and falls below it only if p divides every r-minor.  So
    once the product of the primes tried exceeds the Hadamard bound on
    (s+1)-minors, s the largest rank seen, no larger rank is possible.
    """
    m, n = arr.shape
    rows = []
    norms = []
    for row in arr:
        den = math.lcm(*(v.denominator for v in row))
        ints = [v.numerator * (den // v.denominator) for v in row]
        rows.append(ints)
        sq = sum(x * x for x in ints)
        norms.append(math.isqrt(sq - 1) + 1 if sq else 1)
    ints = np.array(rows, dtype=object).reshape(m, n)
    if max(norms, default=0) < 1 << 62:  # no entry exceeds its row's norm
        ints = ints.astype(np.int64)
    norms.sort(reverse=True)
    rank = 0
    modulus = 1
    for q in _rank_primes():
        rank = max(rank, _rank_mod_p(ints, q))
        modulus *= q
        if rank == min(m, n) or modulus > math.prod(norms[:rank + 1]):
            return rank
    raise ArithmeticError("rank bound beyond the product of the kernel's primes")


def _dense_rank(field, arr):
    """Exact rank of a dense array over `field`."""
    if isinstance(field, PrimeField):
        return _rank_mod_p(arr, field.p)
    return _rank_rational(arr)


def _echelon(field, arr):
    """Row echelon (pivots normalized to 1); returns (rank, pivot rows)."""
    a = arr.copy()
    m, n = a.shape
    r = 0
    if isinstance(field, PrimeField):
        p = field.p
        for c in range(n):
            nz = np.flatnonzero(a[r:, c] != 0)
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            inv = pow(int(a[r, c]), p - 2, p)
            a[r, c:] = a[r, c:] * inv % p
            if r + 1 < m:
                fac = a[r + 1:, c]
                a[r + 1:, c:] = (a[r + 1:, c:] - np.outer(fac, a[r, c:])) % p
            r += 1
            if r == m:
                break
        return r, a[:r]
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i, c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] / a[r, c]
        for i in range(r + 1, m):
            if a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        r += 1
        if r == m:
            break
    return r, a[:r]


def _rank_streaming(mat):
    """Row-at-a-time rank for sparse matrices too large to densify."""
    f = mat.field
    ri, ci, vals = mat.triplets()
    order = np.argsort(ri, kind="stable")
    ri, ci, vals = ri[order], ci[order], vals[order]
    basis = []
    bounds = np.searchsorted(ri, np.arange(mat.rows + 1))
    if isinstance(f, PrimeField):
        p = f.p
        for i in range(mat.rows):
            lo, hi = bounds[i], bounds[i + 1]
            if lo == hi:
                continue
            row = np.zeros(mat.cols, dtype=np.int64 if f.dtype is np.int64 else object)
            row[ci[lo:hi]] = vals[lo:hi]
            for pivcol, bvec in basis:
                if row[pivcol] != 0:
                    row = (row - row[pivcol] * bvec) % p
            nz = np.flatnonzero(row != 0)
            if nz.size:
                c = int(nz[0])
                row = row * pow(int(row[c]), p - 2, p) % p
                basis.append((c, row))
        return len(basis)
    for i in range(mat.rows):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        row = np.full(mat.cols, f.zero, dtype=object)
        row[ci[lo:hi]] = vals[lo:hi]
        for pivcol, bvec in basis:
            if row[pivcol] != 0:
                row = row - row[pivcol] * bvec
        nzc = None
        for c in range(mat.cols):
            if row[c] != 0:
                nzc = c
                break
        if nzc is not None:
            row = row / row[nzc]
            basis.append((nzc, row))
    return len(basis)


def rank_of_product(u, v, uv=None):
    """Exact rank of u @ v, picking the cheaper of two exact routes.

    `uv`, if given, is u @ v already formed.
    """
    if u.cols == 0 or min(u.rows, v.cols) == 0:
        return 0
    if u.rows * v.cols <= DENSE_CELL_CAP:
        # wide inner dimensions make the echelon route the expensive one
        return (u @ v if uv is None else uv).exact_rank()
    rb = u.row_basis()
    return (rb @ v).exact_rank()


# ----------------------------------------------------------------------
# stacking


def hstack(mats):
    f = mats[0].field
    rows = mats[0].rows
    ri_all, ci_all, val_all = [], [], []
    shift = 0
    for m in mats:
        if m.rows != rows:
            raise ValueError("hstack row mismatch")
        ri, ci, vals = m.triplets()
        ri_all.append(ri)
        ci_all.append(ci + shift)
        val_all.append(vals)
        shift += m.cols
    coo = _canon_coo(f, (rows, shift), np.concatenate(ri_all), np.concatenate(ci_all),
                     np.concatenate(val_all), assume_clean=True)
    return ExactMatrix._raw_coo(f, rows, shift, *coo)


def vstack(mats):
    return hstack([m.T for m in mats]).T


# ----------------------------------------------------------------------
# monomial matrices


class MonomialMatrix:
    """One nonzero per row: entry (i, sigma(i)) = scale[i].

    With all scales nonzero and sigma a bijection this is a monomial
    matrix; zero scales are allowed so diagonal matrices of any rank fit.
    """

    __slots__ = ("field", "n", "sigma", "scales")

    def __init__(self, field, sigma, scales=None):
        self.field = field
        self.sigma = np.asarray(sigma, dtype=np.int64)
        self.n = len(self.sigma)
        counts = np.bincount(self.sigma, minlength=self.n)
        if counts.max(initial=0) > 1 or (self.sigma < 0).any() or \
                (self.sigma >= self.n).any():
            raise ValueError("sigma is not a bijection on [n]")
        if scales is None:
            scales = [field.one] * self.n
        self.scales = _canon_vals(field, list(scales))

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.arange(n, dtype=np.int64))

    @classmethod
    def permutation(cls, field, sigma):
        return cls(field, sigma)

    @classmethod
    def diagonal(cls, field, values):
        return cls(field, np.arange(len(values), dtype=np.int64), values)

    @property
    def is_diagonal(self):
        return bool((self.sigma == np.arange(self.n)).all())

    def to_matrix(self):
        rows = np.arange(self.n, dtype=np.int64)
        coo = _canon_coo(self.field, (self.n, self.n), rows, self.sigma.copy(),
                         self.scales.copy(), assume_clean=True)
        return ExactMatrix._raw_coo(self.field, self.n, self.n, *coo)

    def compose(self, other):
        """Monomial product self @ other."""
        if self.field != other.field or self.n != other.n:
            raise ValueError("monomial compose mismatch")
        # the constructor reduces the scales
        return MonomialMatrix(self.field, other.sigma[self.sigma],
                              self.scales * other.scales[self.sigma])

    def kron(self, other):
        sigma = (self.sigma[:, None] * other.n + other.sigma[None, :]).ravel()
        return MonomialMatrix(self.field, sigma,
                              np.multiply.outer(self.scales, other.scales).ravel())

    def transpose(self):
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.sigma] = np.arange(self.n, dtype=np.int64)
        return MonomialMatrix(self.field, inv, self.scales[inv])

    def inverse(self):
        f = self.field
        inv_sigma = np.empty(self.n, dtype=np.int64)
        inv_sigma[self.sigma] = np.arange(self.n, dtype=np.int64)
        sc = [f.inv(v) for v in self.scales[inv_sigma]]
        return MonomialMatrix(f, inv_sigma, sc)

    def __repr__(self):
        kind = "diagonal" if self.is_diagonal else "monomial"
        return f"<MonomialMatrix {kind} n={self.n} over {self.field.header}>"


def transposition(field, n, i, j):
    sigma = np.arange(n, dtype=np.int64)
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return MonomialMatrix(field, sigma)


# ----------------------------------------------------------------------
# Kronecker structure


def mixed_radix_strides(dims):
    """Strides for factor-1-most-significant tuple indexing."""
    k = len(dims)
    strides = np.ones(k, dtype=np.int64)
    for i in range(k - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return strides


def tuple_to_index(x, dims):
    """1-based digit tuple -> flat index in [0, prod dims)."""
    strides = mixed_radix_strides(dims)
    idx = 0
    for xi, di, si in zip(x, dims, strides):
        if not 1 <= xi <= di:
            raise ValueError(f"digit {xi} out of [1, {di}]")
        idx += (xi - 1) * si
    return int(idx)

def index_to_tuple(idx, dims):
    strides = mixed_radix_strides(dims)
    return tuple(int(idx // s % d) + 1 for s, d in zip(strides, dims))


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
        f = factors[0].field
        for m in factors:
            if m.field != f:
                raise ValueError("Kronecker factors must share a field")
            if not m.is_square:
                raise ValueError("Kronecker factors must be square")
            if m.rows < 2:
                raise ValueError("factor orders must be at least 2")
        self.factors = list(factors)
        self.field = f
        self.dims = tuple(m.rows for m in factors)
        n = 1
        for d in self.dims:
            n *= d
        self.n = n

    @property
    def k(self):
        return len(self.factors)

    def materialize(self):
        if self.n > KRON_ORDER_CAP:
            raise SizeCapError(
                f"order {self.n} exceeds the materialization cap {KRON_ORDER_CAP}")
        acc = self.factors[0]
        if self.n * self.n <= DENSE_CELL_CAP:
            acc = ExactMatrix._raw_dense(acc.field, acc.to_dense())
        for m in self.factors[1:]:
            acc = acc.kron(m)
        return acc

    def __repr__(self):
        return f"<KroneckerSpec dims={self.dims} over {self.field.header}>"


def kron_list(mats):
    acc = mats[0]
    for m in mats[1:]:
        acc = acc.kron(m)
    return acc


def random_dense(field, rows, cols, rng):
    vals = [[field.rand(rng) for _ in range(cols)] for _ in range(rows)]
    return ExactMatrix.from_dense(field, vals)


def random_invertible(field, n, rng, tries=200):
    for _ in range(tries):
        m = random_dense(field, n, n, rng)
        if m.exact_rank() == n:
            return m
    raise RuntimeError("failed to sample an invertible matrix")
