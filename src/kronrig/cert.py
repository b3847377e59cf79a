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


def monomial_cert(m):
    """A square matrix with at most one nonzero per line (a permutation
    or a diagonal, or a Kronecker product of them) is its own sparse
    part: empty low-rank part, claims rank 0 and fill 1."""
    if max(m.row_col_nnz()) > 1:
        raise ValueError("a monomial certificate needs at most one nonzero per line")
    f = m.field
    empty_u = ExactMatrix.zeros(f, m.rows, 0)
    empty_v = ExactMatrix.zeros(f, 0, m.rows)
    return Certificate(f, m.rows, empty_u, empty_v, m, 0, 1)


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


def conjugate_cert(cert, sigma):
    """Certificate for P @ M @ P^T given one for M, P the permutation
    matrix with entry (i, sigma[i]) = 1: entry (a, b) of the result is
    M[sigma[a], sigma[b]]."""
    sigma = np.asarray(sigma, dtype=np.int64)
    if sigma.shape != (cert.n,) or not (np.sort(sigma) == np.arange(cert.n)).all():
        raise ValueError(f"sigma is not a permutation of range({cert.n})")
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


def compose_product(certs, suffixes):
    """Certificate for M_0 @ M_1 @ ... @ M_{L-1} from certificates
    U_j V_j + Z_j of its L factors, in one pass:

        U = [U_0 | P_1 U_1 | ... | P_{L-1} U_{L-1}],  P_j = Z_0 ... Z_{j-1},
        V = [V_0 S_1; V_1 S_2; ...; V_{L-1}],         S_j = M_j ... M_{L-1},
        Z = P_L,

    the certificate that folding the two-factor case from the right
    gives, with each block stacked once.  `suffixes` holds S_1, ...,
    S_{L-1}, each a matrix or a KroneckerSpec; a spec is materialized
    only if its certificate has a low-rank part, in the storage its fill
    calls for, so that V_j @ S_{j+1} of a sparse S_{j+1} is a sparse
    product.  The sparse parts multiply, so line budgets multiply as
    well; ranks add.
    """
    if not certs or len(suffixes) != len(certs) - 1:
        raise ValueError("need one suffix product per certificate but the last")
    f, n = certs[0].field, certs[0].n
    if any(c.n != n or c.field != f for c in certs):
        raise ValueError("certificate mismatch")
    if any(s.shape != (n, n) for s in suffixes):
        raise ValueError("suffix product shape mismatch")
    us, vs, prefix = [], [], None
    for cert, suffix in zip(certs, [*suffixes, None]):
        if cert.inner_dim:
            us.append(cert.u if prefix is None else prefix @ cert.u)
            if isinstance(suffix, KroneckerSpec):
                suffix = suffix.materialize()
            vs.append(cert.v if suffix is None else cert.v @ suffix)
        if prefix is None:
            prefix = cert.z
        else:
            _guard_nnz(prefix.nnz * max(cert.z.row_col_nnz()[0], 1), "sparse product")
            prefix = prefix @ cert.z
    u = hstack(us) if us else ExactMatrix.zeros(f, n, 0)
    v = vstack(vs) if vs else ExactMatrix.zeros(f, 0, n)
    return Certificate(f, n, u, v, prefix, sum(c.claimed_rank for c in certs),
                       math.prod(c.claimed_sparsity for c in certs))


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


def split_g_kron(field, vectors, offset, weights=None, transpose=False,
                 check=False):
    """Split kron_i G(x_i) by score thresholds into low rank plus sparse.

    High-score columns and low-score rows are absorbed into the
    low-rank part; what survives is sparse per line because a nonzero
    entry forces every coordinate of the column index to equal the row
    coordinate or sit at the top, and the thresholds pin how many
    coordinates can move.

    With `transpose` the transpose kron_i G(x_i)^T is built and split
    as itself, with the roles of rows and columns swapped: the result is
    transpose_cert of the product's split, with no transpose formed.
    With `check` the certificate is checked entry by entry against the
    matrix it was split from, and an AssertionError raised unless
    U @ V + Z rebuilds it.
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

    pieces = [v_matrix(field, vec) for vec in vectors]
    acc = kron_list([g.T for g in pieces] if transpose else pieces)
    high, low = threshold_masks(dims, weights, offset)
    col_idx = np.flatnonzero(high)
    row_idx = np.flatnonzero(low)
    ri, ci, vals = acc.num_triplets()
    if transpose:
        # the product's triplets, in its transpose's row-major order
        ri, ci = ci, ri
    in_low_row = low[ri]
    in_high_col = high[ci]

    keep = ~in_low_row & ~in_high_col
    # the three destinations partition the nonzeros
    assert int(in_low_row.sum()) + int((in_high_col & ~in_low_row).sum()) \
        + int(keep.sum()) == len(ri)

    # u: a unit column per low-score row, then the entries of high-score
    # columns outside those rows; v: the entries of the low-score rows,
    # then a unit row per high-score column.  Over Q a unit is den/den.
    # Each part is (rows, columns, values), and its transpose swaps the
    # first two.  Listed in the order of acc's triplets, every part of
    # the certificate is then canonical but its u, two runs sorted by row.
    r_cnt, c_cnt = len(row_idx), len(col_idx)
    inner = r_cnt + c_cnt
    ones = np.full(inner, acc.den, dtype=exact_dtype(acc.den, (np.int64,)))
    # the inner index of each peeled row, and of each peeled column (at
    # offset 0 an index can be both)
    row_slot, col_slot = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    row_slot[row_idx] = np.arange(r_cnt)
    col_slot[col_idx] = np.arange(r_cnt, inner)
    um = in_high_col & ~in_low_row
    u = (np.concatenate([row_idx, ri[um]]),
         np.concatenate([np.arange(r_cnt), col_slot[ci[um]]]),
         np.concatenate([ones[:r_cnt], vals[um]]))
    v = (np.concatenate([row_slot[ri[in_low_row]], np.arange(r_cnt, inner)]),
         np.concatenate([ci[in_low_row], col_idx]),
         np.concatenate([vals[in_low_row], ones[r_cnt:]]))
    z = (ri[keep], ci[keep], vals[keep])
    if transpose:
        u, v, z = (v[1], v[0], v[2]), (u[1], u[0], u[2]), (z[1], z[0], z[2])
        row_idx, col_idx = col_idx, row_idx
    fill_col, fill_row = neighborhood_counts(dims, weights, offset)
    cert = Certificate(
        field, n, ExactMatrix.from_num_coo(field, n, inner, *u, acc.den),
        ExactMatrix.from_num_coo(field, inner, n, *v, acc.den),
        ExactMatrix.from_num_coo(field, n, n, *z, acc.den),
        r_cnt + c_cnt, max(fill_col, fill_row),
        support_rows=row_idx, support_cols=col_idx,
        meta={"dims": dims, "offset": offset,
              "fill_col": fill_col, "fill_row": fill_row})
    if check and cert.reconstruct() != acc:
        raise AssertionError("the split does not rebuild the product it splits")
    return cert


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
