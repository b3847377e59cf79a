"""Low-rank-plus-sparse certificates and the algebra that combines them.

A certificate for a square matrix M is an explicit identity

    M = U @ V + Z

with U of shape (n, r), V of shape (r, n) and Z square, together with
two claimed budgets: a rank bound (columns of U) and a per-line
sparsity bound (nonzeros in every row and every column of Z).  All
certificate constructors here produce exact witnesses; verification
re-multiplies and recounts from scratch and reports, never trusts: it
checks U @ V + Z against the target entry by entry, counts the lines of
Z, and takes the exact rank of U @ V (for a Kronecker target whose
identity holds, from Z's nonzero columns and the factors' inverses).

Combiners mirror how the target matrices combine: matrix products,
Kronecker products, transposes, and permutation conjugation each map
certificates of the pieces to a certificate of the whole with
predictable budget arithmetic.
"""

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .matrix import (
    ExactMatrix,
    KRON_ORDER_CAP,
    KroneckerSpec,
    MonomialMatrix,
    SizeCapError,
    exact_dtype,
    first_mismatch,
    hstack,
    kron_list,
    rank_of_product,
    vstack,
)
from .scores import WeightScheme, neighborhood_counts, threshold_masks
from .vfactor import v_matrix

# explicit-triplet budget for any single sparse object built here
CERT_NNZ_CAP = 1 << 25


@dataclass
class Certificate:
    """Exact witness M = u @ v + z with claimed rank/sparsity budgets."""

    field: object
    n: int
    u: ExactMatrix
    v: ExactMatrix
    z: ExactMatrix
    claimed_rank: int
    claimed_sparsity: int
    support_rows: object = None      # peeled-off row indices, if known
    support_cols: object = None      # peeled-off column indices, if known
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.u.shape != (self.n, self.u.cols):
            raise ValueError("u must have n rows")
        if self.v.shape != (self.u.cols, self.n):
            raise ValueError(f"v shape {self.v.shape} does not match u {self.u.shape}")
        if self.z.shape != (self.n, self.n):
            raise ValueError("z must be n x n")
        for m in (self.u, self.v, self.z):
            if m.field != self.field:
                raise ValueError("certificate parts must share the field")
        if self.claimed_rank < 0 or self.claimed_sparsity < 0:
            raise ValueError("claims must be nonnegative")

    @property
    def inner_dim(self):
        return self.u.cols

    def e_matrix(self):
        return self.u @ self.v

    def reconstruct(self):
        return self.e_matrix() + self.z

    def transpose(self):
        return Certificate(self.field, self.n, self.v.T, self.u.T, self.z.T,
                           self.claimed_rank, self.claimed_sparsity,
                           support_rows=self.support_cols,
                           support_cols=self.support_rows,
                           meta=dict(self.meta))

    def same_witness(self, other):
        return (self.field == other.field and self.n == other.n
                and self.claimed_rank == other.claimed_rank
                and self.claimed_sparsity == other.claimed_sparsity
                and self.u == other.u and self.v == other.v and self.z == other.z)

    def __repr__(self):
        return (f"<Certificate n={self.n} rank<={self.claimed_rank} "
                f"line-nnz<={self.claimed_sparsity} over {self.field.header}>")


def _guard_nnz(estimate, what):
    if estimate > CERT_NNZ_CAP:
        raise SizeCapError(
            f"{what} would hold about {estimate} explicit entries, "
            f"beyond the cap of {CERT_NNZ_CAP}")


# ----------------------------------------------------------------------
# leaf certificates


def monomial_cert(mono):
    """A monomial matrix is already one-per-line sparse: empty low-rank part."""
    f = mono.field
    n = mono.n
    empty_u = ExactMatrix.zeros(f, n, 0)
    empty_v = ExactMatrix.zeros(f, 0, n)
    return Certificate(f, n, empty_u, empty_v, mono.to_matrix(), 0, 1)


def full_cert(mat):
    """Everything in the sparse part; budget read off the actual fill."""
    if mat.rows != mat.cols:
        raise ValueError("certificates cover square matrices")
    f = mat.field
    n = mat.rows
    empty_u = ExactMatrix.zeros(f, n, 0)
    empty_v = ExactMatrix.zeros(f, 0, n)
    rn, cn = mat.row_col_nnz()
    return Certificate(f, n, empty_u, empty_v, mat, 0, max(rn, cn))


# ----------------------------------------------------------------------
# structural transforms


def transpose_cert(cert):
    return cert.transpose()


def conjugate_cert(cert, perm):
    """Certificate for P @ M @ P^T given one for M; P a permutation monomial."""
    sigma = perm.sigma
    if not all(v == perm.field.one for v in perm.scales):
        raise ValueError("conjugation expects a pure permutation")
    u = cert.u.permute_rows(sigma)
    v = cert.v.permute_cols(sigma)
    z = cert.z.permute_rows(sigma).permute_cols(sigma)
    inv = np.empty_like(sigma)
    inv[sigma] = np.arange(len(sigma))
    rows = cols = None
    if cert.support_rows is not None:
        rows = np.sort(inv[np.asarray(cert.support_rows)])
    if cert.support_cols is not None:
        cols = np.sort(inv[np.asarray(cert.support_cols)])
    return Certificate(cert.field, cert.n, u, v, z, cert.claimed_rank,
                       cert.claimed_sparsity, support_rows=rows,
                       support_cols=cols, meta=dict(cert.meta))


# ----------------------------------------------------------------------
# combiners


def compose_product(cert_a, cert_b, b_matrix):
    """Certificate for A @ B from certificates of A and B.

    Needs B itself (to push A's low-rank rows through), as a matrix or a
    KroneckerSpec; a spec is materialized only if A has a low-rank part,
    in the storage its fill calls for, so that V_A @ B of a sparse B is a
    sparse product.  The sparse parts multiply, so line budgets multiply
    as well.
    """
    if cert_a.n != cert_b.n or cert_a.field != cert_b.field:
        raise ValueError("certificate mismatch")
    if b_matrix.shape != (cert_b.n, cert_b.n):
        raise ValueError("b_matrix shape mismatch")
    za, zb = cert_a.z, cert_b.z
    _guard_nnz(za.nnz * max(zb.row_col_nnz()[0], 1), "sparse product")
    u = hstack([cert_a.u, za @ cert_b.u])
    av = cert_a.v
    if cert_a.inner_dim:
        if isinstance(b_matrix, KroneckerSpec):
            b_matrix = b_matrix.materialize()
        av = av @ b_matrix
    v = vstack([av, cert_b.v])
    z = za @ zb
    return Certificate(cert_a.field, cert_a.n, u, v, z,
                       cert_a.claimed_rank + cert_b.claimed_rank,
                       cert_a.claimed_sparsity * cert_b.claimed_sparsity)


def compose_kron(cert_a, cert_b, b_matrix):
    """Certificate for kron(A, B) from certificates of A (order n) and B (order m)."""
    if cert_a.field != cert_b.field:
        raise ValueError("certificate mismatch")
    n, m = cert_a.n, cert_b.n
    if b_matrix.shape != (m, m):
        raise ValueError("b_matrix shape mismatch")
    f = cert_a.field
    _guard_nnz(cert_a.z.nnz * max(cert_b.z.nnz, 1), "sparse kron")
    ident_m = ExactMatrix.identity(f, m)
    ident_n = ExactMatrix.identity(f, n)
    u = hstack([cert_a.u.kron(ident_m), cert_a.z.kron(cert_b.u)])
    v = vstack([cert_a.v.kron(b_matrix), ident_n.kron(cert_b.v)])
    z = cert_a.z.kron(cert_b.z)
    return Certificate(f, n * m, u, v, z,
                       cert_a.claimed_rank * m + cert_b.claimed_rank * n,
                       cert_a.claimed_sparsity * cert_b.claimed_sparsity)


# ----------------------------------------------------------------------
# the threshold split of a Kronecker product of sparse unit pieces


def split_g_kron(field, vectors, offset, weights=None):
    """Split kron_i G(x_i) by score thresholds into low rank plus sparse.

    High-score columns and low-score rows are absorbed into the
    low-rank part; what survives is sparse per line because a nonzero
    entry forces every coordinate of the column index to equal the row
    coordinate or sit at the top, and the thresholds pin how many
    coordinates can move.
    """
    weights = weights or WeightScheme.uniform()
    offset = Fraction(offset)
    dims = tuple(len(v) for v in vectors)
    n = math.prod(dims)
    if n > KRON_ORDER_CAP:
        raise SizeCapError(f"order {n} beyond the materialization cap")
    # nnz(G(x)) = (d - 1) + nnz(x): the identity's d - 1 columns, then x
    count = 1
    for v in vectors:
        count *= (len(v) - 1) + sum(1 for t in v if field.canon(t) != 0)
    _guard_nnz(count, "kron of sparse unit pieces")

    acc = kron_list([v_matrix(field, vec) for vec in vectors])
    high, low = threshold_masks(dims, weights, offset)
    col_idx = np.flatnonzero(high)
    row_idx = np.flatnonzero(low)
    ri, ci, vals = acc.num_triplets()
    in_low_row = low[ri]
    in_high_col = high[ci]

    keep = ~in_low_row & ~in_high_col
    # the three destinations partition the nonzeros
    assert int(in_low_row.sum()) + int((in_high_col & ~in_low_row).sum()) \
        + int(keep.sum()) == len(ri)
    z = ExactMatrix(field, n, n, den=acc.den,
                    coo=(ri[keep].copy(), ci[keep].copy(), vals[keep].copy()))

    # u: a unit column per low-score row, then the entries of high-score
    # columns outside those rows; v: the entries of the low-score rows,
    # then a unit row per high-score column.  Over Q a unit is den/den.
    r_cnt, c_cnt = len(row_idx), len(col_idx)
    inner = r_cnt + c_cnt
    ones = np.full(inner, acc.den, dtype=exact_dtype(acc.den, (np.int64,)))
    um = in_high_col & ~in_low_row
    u = ExactMatrix.from_num_coo(
        field, n, inner,
        np.concatenate([row_idx, ri[um]]),
        np.concatenate([np.arange(r_cnt), r_cnt + np.searchsorted(col_idx, ci[um])]),
        np.concatenate([ones[:r_cnt], vals[um]]), acc.den)
    v = ExactMatrix.from_num_coo(
        field, inner, n,
        np.concatenate([np.searchsorted(row_idx, ri[in_low_row]),
                        np.arange(r_cnt, inner)]),
        np.concatenate([ci[in_low_row], col_idx]),
        np.concatenate([vals[in_low_row], ones[r_cnt:]]), acc.den)

    fill_col, fill_row = neighborhood_counts(dims, weights, offset)
    return Certificate(field, n, u, v, z, r_cnt + c_cnt, max(fill_col, fill_row),
                       support_rows=row_idx, support_cols=col_idx,
                       meta={"dims": dims, "offset": offset,
                             "fill_col": fill_col, "fill_row": fill_row})


# ----------------------------------------------------------------------
# subset expansion for a Kronecker product of certified factors


SUBSET_FACTOR_CAP = 16


def subset_expand_combine(certs, matrices, eps):
    """Certificate for kron_i M_i from per-factor certificates L_i + Z_i.

    Expanding the product, each subset S of factor positions yields the
    term  kron(L_i for i in S, Z_j otherwise).  Terms using at least
    eps*k low-rank factors join the low-rank part (in factored form);
    the few remaining terms are summed into the sparse part, whose line
    budget is the exact sum of the per-term products.
    """
    k = len(certs)
    if k != len(matrices) or k == 0:
        raise ValueError("need one matrix per certificate")
    eps = Fraction(eps) if not isinstance(eps, Fraction) else eps
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if k > SUBSET_FACTOR_CAP:
        raise SizeCapError(
            f"{k} factors means 2**{k} expansion terms; cap is {SUBSET_FACTOR_CAP}")
    dims = [c.n for c in certs]
    dmin, dmax = min(dims), max(dims)
    if dmax > dmin * dmin:
        raise ValueError(
            f"factor orders too spread out: {dmax} > {dmin}**2; regroup first")
    f = certs[0].field
    n = math.prod(dims)
    cut = eps * k

    low_u, low_v = [], []
    claimed_rank = 0
    sparse_terms = []
    claimed_sparsity = 0
    for mask in range(1 << k):
        in_s = [(mask >> i) & 1 == 1 for i in range(k)]
        weight = sum(in_s)
        if weight >= cut:
            if any(in_s[i] and certs[i].inner_dim == 0 for i in range(k)):
                continue            # structurally zero low-rank slice
            if any((not in_s[i]) and certs[i].z.is_zero() for i in range(k)):
                continue
            term_rank = 1
            u_parts, v_parts = [], []
            for i in range(k):
                if in_s[i]:
                    u_parts.append(certs[i].u)
                    v_parts.append(certs[i].v)
                    term_rank *= certs[i].inner_dim
                else:
                    u_parts.append(certs[i].z)
                    v_parts.append(ExactMatrix.identity(f, dims[i]))
                    term_rank *= dims[i]
            u_term = u_parts[0]
            v_term = v_parts[0]
            for a, b in zip(u_parts[1:], v_parts[1:]):
                u_term = u_term.kron(a)
                v_term = v_term.kron(b)
            low_u.append(u_term)
            low_v.append(v_term)
            claimed_rank += term_rank
        else:
            budget = 1
            for i in range(k):
                budget *= dims[i] if in_s[i] else certs[i].claimed_sparsity
            claimed_sparsity += budget
            if any((not in_s[i]) and certs[i].z.is_zero() for i in range(k)):
                continue
            if any(in_s[i] and certs[i].inner_dim == 0 for i in range(k)):
                continue            # u @ v with zero inner dimension
            parts = [certs[i].e_matrix() if in_s[i] else certs[i].z
                     for i in range(k)]
            term = parts[0]
            for p in parts[1:]:
                term = term.kron(p)
            sparse_terms.append(term)

    if low_u:
        u = hstack(low_u)
        v = vstack(low_v)
    else:
        u = ExactMatrix.zeros(f, n, 0)
        v = ExactMatrix.zeros(f, 0, n)
    z = ExactMatrix.zeros(f, n, n)
    for term in sparse_terms:
        z = z + term
    return Certificate(f, n, u, v, z, claimed_rank, claimed_sparsity,
                       meta={"eps": eps, "expansion_terms": 1 << k,
                             "low_rank_terms": len(low_u),
                             "sparse_terms": len(sparse_terms)})


# ----------------------------------------------------------------------
# verification


def verify_cert(cert, target):
    """Recompute everything and report; claim failures are reported, not raised.

    `target` is a matrix or a KroneckerSpec, materialized here once, in
    the storage its fill calls for.  The reconstruction U @ V + Z = target
    is checked entry by entry; with U @ V and the target dense, a block
    of rows at a time (`first_mismatch`).  The rank of U @ V is exact:
    once that check holds and the target is a KroneckerSpec,
    `rank_of_product` may take it from the nonzero rows and columns of Z
    and the factors' inverses; otherwise from U @ V itself.
    """
    spec = target if isinstance(target, KroneckerSpec) else None
    if spec is not None:
        target = spec.materialize()
    if target.shape != (cert.n, cert.n):
        raise ValueError(f"target shape {target.shape} vs certificate order {cert.n}")
    if target.field != cert.field:
        raise ValueError("field mismatch between certificate and target")
    uv = cert.e_matrix()
    mismatch = first_mismatch(uv, cert.z, target)
    recon_ok = mismatch is None
    rank_actual = rank_of_product(
        cert.u, cert.v, uv,
        difference=(spec, cert.z) if recon_ok and spec is not None else None)
    row_max, col_max = cert.z.row_col_nnz()
    rank_ok = rank_actual <= cert.claimed_rank
    sparsity_ok = max(row_max, col_max) <= cert.claimed_sparsity
    return {
        "order": cert.n,
        "field": cert.field.header,
        "reconstruction_ok": bool(recon_ok),
        "first_mismatch": mismatch,
        "rank_claimed": cert.claimed_rank,
        "rank_actual": rank_actual,
        "rank_ok": bool(rank_ok),
        "sparsity_claimed": cert.claimed_sparsity,
        "sparsity_row_max": row_max,
        "sparsity_col_max": col_max,
        "sparsity_ok": bool(sparsity_ok),
        "ok": bool(recon_ok and rank_ok and sparsity_ok),
    }
