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

A chain is the list of its terms' matrices, each stored sparse; what a
term is follows from its position, which `slot_kinds` lists.
"""

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


def _diag(field, values):
    """The diagonal matrix of the values, stored sparse."""
    idx = np.arange(len(values), dtype=np.int64)
    return ExactMatrix.from_coo(field, len(values), len(values), idx, idx, list(values))


def slot_kinds(d):
    """The kind of each term of a full chain for a d x d matrix: PERM,
    DIAG, VCOL for G(x) or VROW for G(y)^T."""
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
    mu, pivots = solve_linear(field, nums, [0] * last + [a.den])
    if len(pivots) == d:
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

    # rank deficient: move the last column, then the last row, whose removal
    # keeps the rank to the end.  A pivot column is only in the fundamental
    # circuits of later non-pivot columns, so that is the last non-pivot one.
    _, row_pivots = solve_linear(field, nums.T, [0] * d)
    col_pick = max(set(range(d)) - set(pivots))
    row_pick = max(set(range(d)) - set(row_pivots))
    p1, p2 = swap(d, row_pick, last), swap(d, col_pick, last)
    t = nums[np.ix_(p1, p2)]
    core = ExactMatrix.from_num_dense(field, t[:last, :last], a.den)
    x_head, _ = solve_linear(field, t[:, :last], t[:, last])
    y_head, _ = solve_linear(field, t[:last, :].T, t[last, :])
    x = list(x_head) + [field.zero]
    y = list(y_head) + [field.zero]
    return (p1, tuple(y), core, field.zero, tuple(x), p2)


# ----------------------------------------------------------------------
# full chain


def v_factorization(a):
    """The chain of a: its 4d-3 terms' matrices in `slot_kinds(d)` order,
    multiplying to a."""
    field = a.field
    d = a.rows
    if d != a.cols:
        raise ValueError("need a square matrix")
    if d == 1:
        return [_diag(field, [a[0, 0]])]
    left, right = [], []
    tail = []
    core = a
    # ident.permute_rows(sigma) has entry (i, sigma[i]) = 1
    ident = ExactMatrix.identity(field, d)
    for m in range(d, 1, -1):
        p1, y, core_next, lam, x, p2 = factor_step(core)
        # p1 and p2 act on the first m coordinates and fix the rest; as
        # index maps, the product of P and Q is q[p]
        pi = swap(d, m - 1, d - 1)
        fixed = np.arange(m, d, dtype=np.int64)
        left.append(ident.permute_rows(pi[np.concatenate([p1, fixed])]))
        left.append(v_matrix(field, lift_vector(field, y, d)).T)
        right.insert(0, ident.permute_rows(np.concatenate([p2, fixed])[pi]))
        right.insert(0, v_matrix(field, lift_vector(field, x, d)))
        # the coordinate swap drags the bottom diagonal entry to slot m
        if tail:
            tail = [tail[-1]] + tail[:-1] + [lam]
        else:
            tail = [lam]
        core = core_next
    w_vals = [core[0, 0]] + tail
    return left + [_diag(field, w_vals)] + right


def pad_factorization(chain, target_order):
    """Stretch a chain to the slot layout of a target_order chain.

    Padding terms keep the original matrix size; only the number of
    slots changes, so chains for differently sized matrices can be
    zipped together slot by slot.  Every pad is the identity: a
    permutation slot's identity permutation, or a sparse-piece slot's
    G(e_d).
    """
    native = (len(chain) + 3) // 4
    if native > target_order:
        raise ValueError(f"cannot pad an order-{native} chain down to {target_order}")
    f, d = chain[0].field, chain[0].rows
    extra = 2 * (target_order - native)
    pads = [ExactMatrix.identity(f, d) for _ in range(2 * extra)]
    return pads[:extra] + list(chain) + pads[extra:]
