"""Peeling factorization: reconstruction identities and slot structure."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kronrig import vfactor
from kronrig.field import PrimeField, QQ
from kronrig.matrix import (
    ExactMatrix,
    _is_monomial,
    kron_list,
    random_dense,
    random_invertible,
)
from kronrig.vfactor import (
    DIAG,
    PERM,
    VROW,
    factor_step,
    lift_vector,
    pad_factorization,
    slot_kinds,
    solve_linear,
    v_factorization,
    v_matrix,
)

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)
FIELDS = [F2, F3, F5, QQ]
F_BIG = PrimeField(2147483659)  # residues past int64 products
F_61 = PrimeField(2**61 - 1)    # the largest supported modulus size


def perm_matrix(field, sigma):
    """The permutation matrix with entry (i, sigma[i]) = 1, entry by entry."""
    d = len(sigma)
    return ExactMatrix.from_dense(field, [[int(sigma[i] == j) for j in range(d)]
                                          for i in range(d)])


def assemble_step(field, d, p1, y, core, lam, x, p2):
    mid_vals = list(core.to_dense()[i][i] for i in range(0)) or None
    mid = ExactMatrix.zeros(field, d, d, dense=True).to_dense().copy()
    cd = core.to_dense()
    for i in range(d - 1):
        for j in range(d - 1):
            mid[i][j] = cd[i][j]
    mid[d - 1][d - 1] = lam
    mid_m = ExactMatrix.from_dense(field, mid)
    return (perm_matrix(field, p1) @ v_matrix(field, y).T @ mid_m
            @ v_matrix(field, x) @ perm_matrix(field, p2))


def chain_product(chain):
    """The product of a chain's slot matrices, folded left to right."""
    acc = chain[0]
    for m in chain[1:]:
        acc = acc @ m
    return acc


def random_singular(field, d, rng):
    r = int(rng.integers(0, d))
    if r == 0:
        return ExactMatrix.zeros(field, d, d)
    return random_dense(field, d, r, rng) @ random_dense(field, r, d, rng)


def test_v_matrix_shape():
    g = v_matrix(F5, [2, 3, 4])
    assert g.to_dense().tolist() == [[1, 0, 2], [0, 1, 3], [0, 0, 4]]
    assert g.row_col_nnz() == (2, 3)
    assert v_matrix(F5, [1]).to_dense().tolist() == [[1]]


def test_solve_linear():
    a = [[1, 2], [3, 4]]
    x, pivots = solve_linear(F5, a, [1, 0])
    assert x is not None and pivots == [0, 1]
    m = ExactMatrix.from_dense(F5, a)
    got = m @ ExactMatrix.from_dense(F5, [[x[0]], [x[1]]])
    assert got.to_dense().ravel().tolist() == [1, 0]
    # inconsistent system
    assert solve_linear(F5, [[1, 1], [2, 2]], [0, 1]) == (None, [0])
    # underdetermined: free variables pinned to zero
    x, pivots = solve_linear(QQ, [[1, 1, 1]], [3])
    assert x == [3, 0, 0] and pivots == [0]
    # a zero column is no pivot, and a column spanned by earlier ones neither
    assert solve_linear(F5, [[0, 1, 2, 0], [0, 1, 2, 1]], [0, 0])[1] == [1, 3]


def reference_solve(field, a, b):
    """Gauss-Jordan on field values (Fractions over Q), one row at a time
    through the field's operations: (x, pivot columns), free variables
    zero."""
    a = np.array(a, dtype=object)
    m, n = a.shape
    aug = np.empty((m, n + 1), dtype=object)
    aug[:, :n] = a
    aug[:, n] = [field.canon(v) for v in b]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if aug[i, c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            aug[[r, piv]] = aug[[piv, r]]
        inv = field.inv(aug[r, c])
        aug[r, c:] = [field.mul(inv, v) for v in aug[r, c:]]
        for i in range(m):
            if i != r and aug[i, c] != 0:
                f = aug[i, c]
                aug[i, c:] = [field.sub(u, field.mul(f, v))
                              for u, v in zip(aug[i, c:], aug[r, c:])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i, n] != 0:
            return None, piv_cols
    x = [field.zero] * n
    for row, c in enumerate(piv_cols):
        x[c] = aug[row, n]
    return x, piv_cols


def random_values(field, shape, rng):
    """Field values in an object array; over Q with denominators up to 2**40."""
    size = math.prod(np.atleast_1d(shape))
    out = np.empty(size, dtype=object)
    if field is QQ:
        out[:] = [Fraction(int(u), int(v)) for u, v in zip(
            rng.integers(-9, 10, size), rng.integers(1, 1 << 40, size))]
    else:
        out[:] = [int(v) for v in rng.integers(0, field.p, size)]
    return out.reshape(shape)


def random_system(field, m, n, rng, consistent):
    """A random m x n a of random rank and a b, with b = a @ x0 if consistent."""
    r = int(rng.integers(0, min(m, n) + 1))
    a = np.dot(random_values(field, (m, r), rng), random_values(field, (r, n), rng))
    if consistent:
        b = np.dot(a, random_values(field, n, rng)) if n else np.zeros(m, dtype=int)
    else:
        b = random_values(field, m, rng)
    canon = np.vectorize(field.canon, otypes=[object])
    return canon(a), [field.canon(v) for v in b]


def integer_rows(field, a, b):
    """The system with each row scaled to integers: its numerators over the
    row's lcm denominator over Q, its residues over F_p.  int64 if they fit."""
    m, n = a.shape
    ia = np.empty((m, n), dtype=object)
    ib = []
    for i in range(m):
        row = list(a[i]) + [b[i]]
        scale = math.lcm(*[Fraction(v).denominator for v in row])
        ints = [int(v * scale) for v in row]
        ia[i, :] = ints[:n]
        ib.append(ints[n])
    if all(abs(int(v)) < 1 << 62 for v in list(ia.ravel()) + ib):
        ia = ia.astype(np.int64)
    return ia, ib


@pytest.mark.parametrize("field", [F2, F5, F_BIG, F_61, QQ], ids=lambda f: f.header)
def test_solve_linear_matches_fraction_reference(field):
    rng = np.random.default_rng(field.p if field is not QQ else 0)
    shapes = [(0, 0), (1, 0), (4, 0), (0, 3), (1, 1), (3, 3), (5, 5),
              (2, 6), (3, 7), (6, 2), (7, 4)]
    seen = set()
    widest = 0
    for m, n in shapes:
        for trial in range(8):
            a, b = random_system(field, m, n, rng, consistent=trial % 2 == 0)
            ia, ib = integer_rows(field, a, b)
            x, pivots = solve_linear(field, ia, ib)
            assert (x, pivots) == reference_solve(field, a, b), (m, n, trial)
            if m and n:
                assert len(pivots) == ExactMatrix.from_dense(field, a).exact_rank()
            seen.add((x is not None, len(pivots) == min(m, n)))
            widest = max([widest] + [abs(int(v)) for v in list(ia.ravel()) + ib])
    # consistent of full and of deficient rank, and inconsistent, all met
    assert {(True, True), (True, False), (False, False)} <= seen
    if field is QQ:
        assert widest > 1 << 63


def test_solve_linear_empty_shapes():
    # the shapes factor_step passes at d = 1, and their kin
    for field in (F5, F_BIG, QQ):
        for m, n, b, want in [(0, 0, [], ([], [])),
                              (1, 0, [0], ([], [])),
                              (1, 0, [3], (None, [])),
                              (4, 0, [0] * 4, ([], [])),
                              (4, 0, [0, 0, 2, 0], (None, [])),
                              (0, 2, [], ([0, 0], []))]:
            assert solve_linear(field, np.zeros((m, n), dtype=np.int64), b) == want


def test_factor_step_takes_rank_from_its_solve(monkeypatch):
    """The rank, and on a singular step the dependent column and row, come
    from the step's own eliminations: no rank kernel runs."""
    real_solve, real_rank = vfactor.solve_linear, ExactMatrix.exact_rank
    solved, ranked = [], []

    def spy_solve(field, a, b):
        out = real_solve(field, a, b)
        solved.append(len(out[1]))
        return out

    def spy_rank(self):
        ranked.append(self.shape)
        return real_rank(self)

    monkeypatch.setattr(vfactor, "solve_linear", spy_solve)
    monkeypatch.setattr(ExactMatrix, "exact_rank", spy_rank)
    rng = np.random.default_rng(211)
    for field in FIELDS:
        for d in (1, 2, 3, 4, 5):
            for singular in (False, True, True):
                a = random_singular(field, d, rng) if singular else \
                    random_invertible(field, d, rng)
                want = real_rank(a)
                solved.clear()
                ranked.clear()
                p1, y, core, lam, x, p2 = factor_step(a)
                assert solved[0] == want, (field.header, d)
                assert lam == (field.one if want == d else field.zero)
                assert ranked == []
                assert assemble_step(field, d, p1, y, core, lam, x, p2) == a


def _moved(p):
    """The coordinate an index map of one swap with the last moves there,
    the last one for the identity."""
    moved = np.flatnonzero(p != np.arange(len(p)))
    return int(moved.min()) if moved.size else len(p) - 1


@pytest.mark.parametrize("field", [F2, F3, F5, F_BIG, QQ], ids=lambda f: f.header)
def test_singular_step_moves_the_last_removable_column_and_row(field):
    """A singular step moves to the end the last column whose removal
    keeps the rank, and the last such row, as a scan of the rank of each
    d x (d - 1) submatrix finds them."""
    rng = np.random.default_rng(241)
    for d in (1, 2, 3, 4, 5, 6, 7):
        for _ in range(12):
            a = random_singular(field, d, rng)
            rank = a.exact_rank()
            col = max(c for c in range(d) if a.submatrix(
                range(d), [t for t in range(d) if t != c]).exact_rank() == rank)
            row = max(r for r in range(d) if a.submatrix(
                [t for t in range(d) if t != r], range(d)).exact_rank() == rank)
            p1, _, _, _, _, p2 = factor_step(a)
            assert (_moved(p2), _moved(p1)) == (col, row), (d, a.to_dense())


def test_factor_step_identity_frozen():
    for d in (1, 2, 4):
        p1, y, core, lam, x, p2 = factor_step(ExactMatrix.identity(F5, d))
        e_last = tuple([0] * (d - 1) + [1])
        assert p1.tolist() == list(range(d))
        assert p2.tolist() == list(range(d))
        assert y == e_last and x == e_last
        assert lam == 1
        assert core == ExactMatrix.identity(F5, d - 1) if d > 1 else core.rows == 0


def test_factor_step_reconstructs():
    rng = np.random.default_rng(101)
    for field in FIELDS:
        for d in (1, 2, 3, 4, 5):
            for case in range(4):
                a = random_dense(field, d, d, rng) if case % 2 == 0 else \
                    random_singular(field, d, rng)
                p1, y, core, lam, x, p2 = factor_step(a)
                assert assemble_step(field, d, p1, y, core, lam, x, p2) == a
                if a.exact_rank() == d:
                    assert lam == field.one
                    assert core.exact_rank() == d - 1
                    assert p1.tolist() == list(range(d))  # left side stays untouched
                else:
                    assert lam == field.zero
                    assert x[-1] == field.zero and y[-1] == field.zero


def test_lift_conjugation_identity():
    # diag(G(x), I) equals the coordinate swap conjugate of G of the lift
    rng = np.random.default_rng(7)
    for field in [F5, QQ]:
        for d, m in [(4, 2), (5, 3), (5, 5), (3, 1)]:
            x = [field.rand(rng) for _ in range(m)]
            small = v_matrix(field, x)
            big = ExactMatrix.zeros(field, d, d, dense=True).to_dense().copy()
            sd = small.to_dense()
            for i in range(m):
                for j in range(m):
                    big[i][j] = sd[i][j]
            for i in range(m, d):
                big[i][i] = field.one
            direct = ExactMatrix.from_dense(field, big)
            swap = list(range(d))
            swap[m - 1], swap[d - 1] = d - 1, m - 1
            pi = perm_matrix(field, swap)
            lifted = v_matrix(field, lift_vector(field, x, d))
            assert pi @ lifted @ pi == direct


def test_chain_reconstructs_and_slots():
    rng = np.random.default_rng(33)
    for field in FIELDS:
        for d in (1, 2, 3, 4, 5):
            for case in range(3):
                a = random_dense(field, d, d, rng) if case != 1 else \
                    random_singular(field, d, rng)
                chain = v_factorization(a)
                assert len(chain) == 4 * d - 3
                assert chain_product(chain) == a
                assert_slots(field, chain, d)


def assert_slots(field, chain, d):
    """Each slot matrix of a chain is d x d, stored sparse, and of the
    shape its place in `slot_kinds` gives: PERM a permutation matrix of
    ones, DIAG a diagonal, VCOL a G(x), the identity in its first d-1
    columns, and VROW a G(y)^T, the identity in its first d-1 rows."""
    kinds = slot_kinds((len(chain) + 3) // 4)
    assert len(chain) == len(kinds)
    for kind, m in zip(kinds, chain):
        assert m.shape == (d, d) and not m.is_dense
        ri, ci, vals = m.triplets()
        if kind == DIAG:
            assert (ri == ci).all()
        elif kind == PERM and d > 1:
            assert _is_monomial(m)
            assert all(v == field.one for v in vals)
        elif kind == PERM:  # of order 1 a product is one multiply, not a gather
            assert m == ExactMatrix.identity(field, 1)
        else:
            if kind == VROW:
                ri, ci = ci, ri
            head = ci < d - 1
            assert ri[head].tolist() == ci[head].tolist() == list(range(d - 1))
            assert all(v == field.one for v in vals[head])


@pytest.mark.parametrize("field", [F2, F3, F5, F_BIG, QQ], ids=lambda f: f.header)
def test_monomial_slots_are_sparse_matrices(field):
    rng = np.random.default_rng(233)
    for d in (1, 2, 3, 4, 5):
        for singular in (False, True):
            a = random_singular(field, d, rng) if singular else \
                random_invertible(field, d, rng)
            chain = v_factorization(a)
            assert_slots(field, chain, d)
            assert_slots(field, pad_factorization(chain, 6), d)
            assert chain_product(chain) == a


@pytest.mark.parametrize("field", [F2, F3, F5, F_BIG, QQ], ids=lambda f: f.header)
def test_factor_step_permutations_are_index_arrays(field):
    """p1 and p2 are int64 index maps, each the identity or one swap, and
    p1 is the identity on a full-rank step."""
    rng = np.random.default_rng(239)
    for d in (1, 2, 3, 4, 5):
        for singular in (False, True, True):
            a = random_singular(field, d, rng) if singular else \
                random_invertible(field, d, rng)
            p1, _, _, _, _, p2 = factor_step(a)
            for p in (p1, p2):
                assert isinstance(p, np.ndarray) and p.dtype == np.int64
                assert sorted(p.tolist()) == list(range(d))
                moved = np.flatnonzero(p != np.arange(d))
                assert len(moved) in (0, 2)
            if a.exact_rank() == d:
                assert p1.tolist() == list(range(d))


def test_chain_on_identity_multiplies_out():
    for d in (2, 3, 6):
        chain = v_factorization(ExactMatrix.identity(F3, d))
        assert chain_product(chain) == ExactMatrix.identity(F3, d)


def test_chain_deterministic():
    rng = np.random.default_rng(55)
    a = random_dense(F5, 4, 4, rng)
    c1 = v_factorization(a)
    c2 = v_factorization(a)
    assert len(c1) == len(c2)
    for f, g in zip(c1, c2):
        assert (f.is_dense, f.den) == (g.is_dense, g.den)
        for a, b in zip(f.num_triplets(), g.num_triplets()):
            assert a.tolist() == b.tolist()


def test_padding_preserves_product_and_layout():
    rng = np.random.default_rng(77)
    for field in [F3, QQ]:
        for d, target in [(2, 4), (3, 5), (1, 3), (4, 4)]:
            a = random_dense(field, d, d, rng)
            chain = pad_factorization(v_factorization(a), target)
            assert len(chain) == 4 * target - 3
            assert chain_product(chain) == a
            assert_slots(field, chain, d)
            pads = 2 * (target - d)
            ident = ExactMatrix.identity(field, d)
            assert all(m == ident for m in chain[:pads] + chain[len(chain) - pads:])
    with pytest.raises(ValueError):
        pad_factorization(v_factorization(ExactMatrix.identity(F3, 3)), 2)


def test_per_factor_sizes_mix_in_kron():
    # chains of different orders, padded to a common slot count, can be
    # combined slot by slot with Kronecker products
    rng = np.random.default_rng(91)
    a = random_dense(F5, 2, 2, rng)
    b = random_dense(F5, 3, 3, rng)
    ca = pad_factorization(v_factorization(a), 3)
    cb = v_factorization(b)
    layers = [fa.kron(fb) for fa, fb in zip(ca, cb)]
    prod = layers[0]
    for lay in layers[1:]:
        prod = prod @ lay
    assert prod == a.kron(b)
