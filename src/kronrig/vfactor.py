"""Factoring a square matrix into permutations, sparse unit pieces, and a diagonal.

The sparse pieces all share one shape: identity in the first d-1
columns with an arbitrary last column (written G(x) below, for the
column vector x).  Such a matrix has at most two nonzeros per row and
only its last column exceeds one nonzero.  Every d x d matrix factors
as an alternating chain

    A = Q_1 G(y_1)^T Q_2 G(y_2)^T ... W ... G(x_2) P_2 G(x_1) P_1

of 4d-3 terms: d-1 transposed sparse pieces interleaved with
permutations on the left, a diagonal W in the middle, and d-1 sparse
pieces interleaved with permutations on the right.  The chain is built
by peeling one dimension at a time and re-embedding the shrinking core
through coordinate swaps, which keeps the middle factor a
genuine diagonal.
"""

from dataclasses import dataclass

import numpy as np

from .matrix import ExactMatrix, solve_linear

PERM, DIAG, VCOL, VROW = "perm", "diag", "v", "vt"


def v_matrix(field, vec):
    """Identity in the first d-1 columns, vec as the last column."""
    d = len(vec)
    trips = [(i, i, field.one) for i in range(d - 1)]
    trips += [(i, d - 1, field.canon(v)) for i, v in enumerate(vec)]
    return ExactMatrix.from_triplets(field, d, d, trips)


def lift_vector(field, vec, d):
    """Spread a length-m last column over d coordinates.

    The first m-1 entries stay put, the final entry moves to position
    d, and the gap is zero-filled; conjugating G of the lifted vector
    by the (m, d) coordinate swap reproduces diag(G(vec), identity).
    """
    m = len(vec)
    if m > d:
        raise ValueError("cannot lift to a smaller dimension")
    vec = [field.canon(v) for v in vec]
    if m == d:
        return tuple(vec)
    return tuple(vec[:m - 1] + [field.zero] * (d - m) + [vec[m - 1]])


def swap(d, i, j):
    """Index map of the swap of coordinates i and j of range(d)."""
    sigma = np.arange(d, dtype=np.int64)
    sigma[[i, j]] = sigma[[j, i]]
    return sigma


@dataclass(frozen=True)
class Factor:
    """One link of a factorization chain, kept in structured form: the
    sparse matrix of a PERM or DIAG slot (`mono`), the last column of a
    V slot (`vec`)."""

    kind: str
    field: object
    size: int
    mono: object = None
    vec: tuple = None

    @classmethod
    def perm(cls, field, sigma):
        """The permutation matrix with entry (i, sigma[i]) = 1, stored sparse."""
        d = len(sigma)
        return cls(PERM, field, d,
                   mono=ExactMatrix.identity(field, d).permute_rows(sigma))

    @classmethod
    def diag(cls, field, values):
        """The diagonal matrix of the values, stored sparse."""
        d = len(values)
        idx = np.arange(d, dtype=np.int64)
        return cls(DIAG, field, d,
                   mono=ExactMatrix.from_coo(field, d, d, idx, idx, list(values)))

    @classmethod
    def v_col(cls, field, vec):
        return cls(VCOL, field, len(vec), vec=tuple(field.canon(v) for v in vec))

    @classmethod
    def v_row(cls, field, vec):
        return cls(VROW, field, len(vec), vec=tuple(field.canon(v) for v in vec))

    def matrix(self):
        if self.kind in (PERM, DIAG):
            return self.mono
        g = v_matrix(self.field, self.vec)
        return g.T if self.kind == VROW else g

    def __repr__(self):
        return f"<Factor {self.kind} d={self.size}>"


def slot_kinds(d):
    """Expected kind sequence of a full chain for a d x d matrix."""
    if d == 1:
        return [DIAG]
    return [PERM, VROW] * (d - 1) + [DIAG] + [VCOL, PERM] * (d - 1)


# ----------------------------------------------------------------------
# one peeling step


def factor_step(a):
    """Peel one dimension: a == p1 @ G(y)^T @ diag(core, lam) @ G(x) @ p2.

    p1 and p2 are index maps of coordinate swaps (identity allowed),
    standing for the permutation matrices with entry (i, p[i]) = 1; core is
    the (d-1) x (d-1) block carried into the next step, and lam marks
    whether the peeled direction kept full rank.
    """
    field = a.field
    d = a.rows
    if d != a.cols:
        raise ValueError("factor_step needs a square matrix")
    last = d - 1
    nums = a.num_dense()
    mu, rank = solve_linear(field, nums, [0] * last + [a.den])
    if rank == d:
        j = max(i for i in range(d) if mu[i] != 0)
        p2 = swap(d, j, last)
        mu[j], mu[last] = mu[last], mu[j]
        inv_tail = field.inv(mu[last])
        x = [field.mul(field.neg(mu[i]), inv_tail) for i in range(last)] + [inv_tail]
        t = nums[:, p2]
        core = ExactMatrix.from_num_dense(field, t[:last, :last], a.den)
        y_head, _ = solve_linear(field, t[:last, :last].T, t[last, :last])
        y = list(y_head) + [field.one]
        return (np.arange(d, dtype=np.int64), tuple(y), core, field.one,
                tuple(x), p2)

    # rank deficient: move a dependent column, then a dependent row, to the end
    col_pick = None
    for c in range(last, -1, -1):
        keep = [t for t in range(d) if t != c]
        if a.submatrix(range(d), keep).exact_rank() == rank:
            col_pick = c
            break
    p2 = swap(d, col_pick, last)
    m = a.permute_cols(p2)
    row_pick = None
    for r in range(last, -1, -1):
        keep = [t for t in range(d) if t != r]
        if m.submatrix(keep, range(d)).exact_rank() == rank:
            row_pick = r
            break
    p1 = swap(d, row_pick, last)
    t = nums[np.ix_(p1, p2)]  # m.permute_rows(p1), over a.den
    core = ExactMatrix.from_num_dense(field, t[:last, :last], a.den)
    x_head, _ = solve_linear(field, t[:, :last], t[:, last])
    y_head, _ = solve_linear(field, t[:last, :].T, t[last, :])
    x = list(x_head) + [field.zero]
    y = list(y_head) + [field.zero]
    return (p1, tuple(y), core, field.zero, tuple(x), p2)


# ----------------------------------------------------------------------
# full chain


def v_factorization(a):
    """Alternating chain of 4d-3 structured factors multiplying to a."""
    field = a.field
    d = a.rows
    if d != a.cols:
        raise ValueError("need a square matrix")
    if d == 1:
        return [Factor.diag(field, [a[0, 0]])]
    left, right = [], []
    tail = []
    core = a
    for m in range(d, 1, -1):
        p1, y, core_next, lam, x, p2 = factor_step(core)
        # p1 and p2 act on the first m coordinates and fix the rest; as
        # index maps, the product of P and Q is q[p]
        pi = swap(d, m - 1, d - 1)
        fixed = np.arange(m, d, dtype=np.int64)
        left.append(Factor.perm(field, pi[np.concatenate([p1, fixed])]))
        left.append(Factor.v_row(field, lift_vector(field, y, d)))
        right.insert(0, Factor.perm(field, np.concatenate([p2, fixed])[pi]))
        right.insert(0, Factor.v_col(field, lift_vector(field, x, d)))
        # the coordinate swap drags the bottom diagonal entry to slot m
        if tail:
            tail = [tail[-1]] + tail[:-1] + [lam]
        else:
            tail = [lam]
        core = core_next
    w_vals = [core[0, 0]] + tail
    mid = Factor.diag(field, w_vals)
    return left + [mid] + right


def pad_factorization(factors, target_order):
    """Stretch a chain to the slot layout of a target_order chain.

    Padding factors keep the original matrix size; only the number of
    slots changes, so chains for differently sized matrices can be
    zipped together slot by slot.  Pads are identity permutations on
    the outside and identity-shaped sparse pieces next to them.
    """
    field = factors[0].field
    d = factors[0].size
    native = (len(factors) + 3) // 4
    if native > target_order:
        raise ValueError(f"cannot pad an order-{native} chain down to {target_order}")
    extra = target_order - native
    if extra == 0:
        return list(factors)
    ident = tuple([field.zero] * (d - 1) + [field.one])
    left = []
    right = []
    for _ in range(extra):
        left.append(Factor.perm(field, np.arange(d)))
        left.append(Factor.v_row(field, ident))
        right.append(Factor.v_col(field, ident))
        right.append(Factor.perm(field, np.arange(d)))
    return left + list(factors) + right
