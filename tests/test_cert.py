"""Certificate constructors, combiners, and the verifier.

The reference values here were produced by building the same matrices
entry by entry from the definitions (no shared kron/threshold code) and
enumerating score sets by brute force.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from kronrig import cert as cert_module
from kronrig import matrix
from kronrig.cert import (
    Certificate,
    compose_kron,
    compose_product,
    conjugate_cert,
    full_cert,
    monomial_cert,
    split_g_kron,
    subset_expand_combine,
    transpose_cert,
    verify_cert,
)
from kronrig.field import QQ, PrimeField
from kronrig.matrix import (
    ExactMatrix,
    KroneckerSpec,
    SizeCapError,
    kron_list,
    random_dense,
)
from kronrig.scores import WeightScheme
from kronrig.vfactor import v_matrix

from conftest import g_pieces

F5 = PrimeField(5)
F7 = PrimeField(7)


def digits_of(i, dims):
    out = []
    for d in reversed(dims):
        i, r = divmod(i, d)
        out.append(r)
    return list(reversed(out))


def dense_g_kron(field, vectors):
    """Entry-by-entry build of kron_i G(x_i) straight from the definition."""
    dims = [len(v) for v in vectors]
    n = 1
    for d in dims:
        n *= d
    out = [[field.zero] * n for _ in range(n)]
    for r in range(n):
        rt = digits_of(r, dims)
        for c in range(n):
            ct = digits_of(c, dims)
            val = field.one
            for x, ri, ci, d in zip(vectors, rt, ct, dims):
                if ci == d - 1:
                    e = field.canon(x[ri])
                elif ri == ci:
                    e = field.one
                else:
                    e = field.zero
                val = field.mul(val, e)
            out[r][c] = val
    return ExactMatrix.from_dense(field, out)


def brute_threshold_sets(dims, wmap, offset):
    """Recompute the peeled row/column index sets by full enumeration."""
    mean = sum(Fraction(wmap.get(d, 1)) / d for d in dims)
    n = 1
    for d in dims:
        n *= d
    rows, cols = [], []
    for i in range(n):
        t = digits_of(i, dims)
        s = sum(Fraction(wmap.get(d, 1)) for ti, d in zip(t, dims)
                if ti == d - 1)
        if s >= mean + offset:
            cols.append(i)
        if s <= mean - offset:
            rows.append(i)
    return rows, cols


# ----------------------------------------------------------------------
# the split certificate


def test_split_two_by_two_frozen():
    # vectors (2,3) and (4,1) over F5, uniform weights, offset 1
    cert = split_g_kron(g_pieces(F5, [(2, 3), (4, 1)]), 1)
    assert cert.n == 4
    assert cert.claimed_rank == 2
    assert cert.claimed_sparsity == 1
    assert list(cert.support_rows) == [0]
    assert list(cert.support_cols) == [3]
    ri, ci, vals = cert.z.triplets()
    assert list(zip(ri, ci)) == [(1, 1), (2, 2)]
    # surviving entries are the second coordinates of each vector
    assert list(vals) == [1, 3]
    report = verify_cert(cert, dense_g_kron(F5, [(2, 3), (4, 1)]))
    assert report["ok"]
    assert report["rank_actual"] == 2
    assert report["sparsity_row_max"] == 1
    assert report["sparsity_col_max"] == 1


def test_split_matches_enumeration():
    rng = np.random.default_rng(20240404)
    for field in (F7, QQ):
        for dims in ((2, 2), (3, 2), (2, 3, 2)):
            vectors = [tuple(field.rand(rng) for _ in range(d)) for d in dims]
            for offset in (0, Fraction(1, 2), 1, Fraction(3, 2)):
                cert = split_g_kron(g_pieces(field, vectors), offset)
                rows, cols = brute_threshold_sets(dims, {}, Fraction(offset))
                assert list(cert.support_rows) == rows
                assert list(cert.support_cols) == cols
                assert cert.claimed_rank == len(rows) + len(cols)
                report = verify_cert(cert, dense_g_kron(field, vectors))
                assert report["ok"], (field.header, dims, offset, report)


def test_split_weighted():
    wmap = {2: Fraction(1, 2), 3: 2}
    weights = WeightScheme(wmap)
    vectors = [(1, 4), (2, 0, 3)]
    cert = split_g_kron(g_pieces(F5, vectors), Fraction(1, 2), weights)
    rows, cols = brute_threshold_sets((2, 3), wmap, Fraction(1, 2))
    assert list(cert.support_rows) == rows
    assert list(cert.support_cols) == cols
    assert verify_cert(cert, dense_g_kron(F5, vectors))["ok"]


def test_split_zero_offset_peels_everything():
    # at offset 0 every index is at or past one of the thresholds, and a
    # surviving entry would need a column scoring strictly below its row,
    # which the compatibility structure forbids
    vectors = [(3, 1), (2, 2), (1, 4)]
    cert = split_g_kron(g_pieces(F5, vectors), 0)
    assert cert.z.is_zero()
    assert cert.claimed_rank >= cert.n
    assert verify_cert(cert, dense_g_kron(F5, vectors))["ok"]


def test_split_deterministic():
    a = split_g_kron(g_pieces(F5, [(2, 3), (4, 1)]), 1)
    b = split_g_kron(g_pieces(F5, [(2, 3), (4, 1)]), 1)
    assert a.same_witness(b)


def _left_fold(mats):
    acc = mats[0]
    for m in mats[1:]:
        acc = acc.kron(m)
    return acc


@pytest.mark.parametrize("field", [F5, QQ], ids=lambda f: f.header)
def test_split_kron_in_halves_matches_left_fold(field, monkeypatch):
    """The split forms kron G(x_1) ⊗ ⋯ ⊗ G(x_k) as two halves, so no
    product but the last has more than the larger half's order; by
    associativity the certificate is the one a left fold gives."""
    rng = np.random.default_rng(23)
    dims = (2, 3, 2, 4, 2)
    vectors = [tuple(field.rand(rng) for _ in range(d)) for d in dims]
    orders = []
    real_kron = ExactMatrix.kron

    def spy(a, b):
        orders.append(a.rows * b.rows)
        return real_kron(a, b)
    for offset in (Fraction(1, 2), 1):
        orders.clear()
        with monkeypatch.context() as mp:
            mp.setattr(ExactMatrix, "kron", spy)
            halves = split_g_kron(g_pieces(field, vectors), offset)
        assert orders[-1] == 96 and max(orders[:-1]) == 16
        with monkeypatch.context() as mp:
            mp.setattr(cert_module, "kron_list", _left_fold)
            fold = split_g_kron(g_pieces(field, vectors), offset)
        assert halves.same_witness(fold)
        assert list(halves.support_rows) == list(fold.support_rows)
        assert list(halves.support_cols) == list(fold.support_cols)
        assert verify_cert(halves, dense_g_kron(field, vectors))["ok"]


def test_split_refuses_oversized_orders():
    with pytest.raises(SizeCapError):
        split_g_kron(g_pieces(F5, [(1, 2)] * 17), 1)


@pytest.mark.parametrize("vectors", [[(2, 3), (4, 1)], [(0, 3), (1, 2, 3)],
                                     [(2, 0, 0, 1), (3,), (1, 1)]])
def test_split_nnz_guard_counts_exactly(vectors, monkeypatch):
    """The guard counts nnz(G(x)) = (d - 1) + nnz(x) a factor, the
    entries of the Kronecker product the split builds: at a cap equal to
    that count the split runs, one below it the split is refused.  The
    count the guard used to take, 1 + (d - 1) + nnz(x) a factor, is past
    the cap at which the split now runs."""
    count = kron_list([v_matrix(F5, v) for v in vectors]).nnz
    old = math.prod(len(v) + sum(1 for t in v if t % 5) for v in vectors)
    assert count == math.prod(len(v) - 1 + sum(1 for t in v if t % 5)
                              for v in vectors) < old
    monkeypatch.setattr(cert_module, "CERT_NNZ_CAP", count)
    cert = split_g_kron(g_pieces(F5, vectors), Fraction(1, 2))
    assert verify_cert(cert, dense_g_kron(F5, vectors))["ok"]
    monkeypatch.setattr(cert_module, "CERT_NNZ_CAP", count - 1)
    with pytest.raises(SizeCapError, match=f"hold about {count} "):
        split_g_kron(g_pieces(F5, vectors), Fraction(1, 2))


def test_split_nnz_guard_lets_walsh_14_through(monkeypatch):
    """14 factors of order 2 with a full x (n = 16384): 3**14 = 4,782,969
    entries pass the cap of 2**25, where the old count, 4**14 =
    268,435,456, did not; the split is stopped right after the guard,
    before it builds anything.  16 such factors (n = 65536, 3**16 =
    43,046,721 entries) are still refused."""
    class Reached(Exception):
        pass

    def stop(*args):
        raise Reached
    monkeypatch.setattr(cert_module, "threshold_masks", stop)
    assert 3 ** 14 <= cert_module.CERT_NNZ_CAP < min(4 ** 14, 3 ** 16)
    with pytest.raises(Reached):
        split_g_kron(g_pieces(F5, [(1, 4)] * 14), Fraction(1, 2))
    with pytest.raises(SizeCapError, match=f"hold about {3 ** 16} "):
        split_g_kron(g_pieces(F5, [(1, 4)] * 16), Fraction(1, 2))


def test_split_refuses_pieces_not_of_the_g_shape():
    """Each piece must be G(x), or G(x)^T with transpose: square, with the
    identity in its first d - 1 columns (rows).  Over Q the identity is
    stored over the piece's denominator."""
    good = v_matrix(F5, (2, 3, 4))
    rational = v_matrix(QQ, (Fraction(1, 2), 3))
    assert rational.den == 2
    for g in (good, rational):
        split_g_kron([g, g], 1)
        split_g_kron([g.T], 1, transpose=True)

    non_square = ExactMatrix.from_dense(F5, [[1, 0, 2], [0, 1, 3]])
    with pytest.raises(ValueError, match=r"a 2 x 3 piece is not G\(x\): square"):
        split_g_kron([good, non_square], 1)
    for wrong in ([[1, 0, 2], [0, 2, 3], [0, 0, 4]],    # a 2 on the diagonal
                  [[1, 0, 2], [0, 0, 3], [0, 0, 4]],    # a diagonal entry missing
                  [[1, 0, 2], [1, 1, 3], [0, 0, 4]]):   # an entry off it
        piece = ExactMatrix.from_dense(F5, wrong)
        with pytest.raises(ValueError, match=r"not G\(x\): square .* d-1 columns"):
            split_g_kron([good, piece], 1)
        with pytest.raises(ValueError, match=r"not G\(x\)\^T: square .* d-1 rows"):
            split_g_kron([good.T, piece.T], 1, transpose=True)
    with pytest.raises(ValueError, match=r"not G\(x\)"):
        split_g_kron([ExactMatrix.from_dense(QQ, [[Fraction(1, 2), 1], [0, 1]])], 1)
    # G(x) with a nonzero head of x is not the transpose of any G(y)
    with pytest.raises(ValueError, match=r"not G\(x\)\^T"):
        split_g_kron([good], 1, transpose=True)


def test_split_refuses_oversized_fill():
    # sixteen dense binary factors stay under the order cap but the
    # explicit-entry estimate 4**16 does not
    with pytest.raises(SizeCapError):
        split_g_kron(g_pieces(F5, [(1, 2)] * 16), 1)


# ----------------------------------------------------------------------
# leaves and structural transforms


def monomial(field, sigma, scales):
    """The matrix with entry (i, sigma[i]) = scales[i], stored sparse."""
    n = len(sigma)
    return ExactMatrix.from_coo(field, n, n, np.arange(n), np.asarray(sigma), scales)


def test_monomial_leaf():
    mono = monomial(F5, [2, 0, 1], [1, 3, 4])
    cert = monomial_cert(mono)
    assert (cert.claimed_rank, cert.claimed_sparsity) == (0, 1)
    assert cert.inner_dim == 0
    assert verify_cert(cert, mono)["ok"]
    # a diagonal with zeros on it keeps the claims; a line of two does not fit
    zero = monomial_cert(monomial(F5, [0, 1, 2], [0, 0, 0]))
    assert (zero.claimed_rank, zero.claimed_sparsity) == (0, 1)
    assert verify_cert(zero, ExactMatrix.zeros(F5, 3, 3))["ok"]
    with pytest.raises(ValueError, match="one nonzero per line"):
        monomial_cert(ExactMatrix.from_dense(F5, [[1, 1], [0, 1]]))


def test_full_leaf_budget_is_actual_fill():
    mat = ExactMatrix.from_dense(F5, [[1, 0, 2], [0, 0, 0], [3, 4, 0]])
    cert = full_cert(mat)
    assert (cert.claimed_rank, cert.claimed_sparsity) == (0, 2)
    assert verify_cert(cert, mat)["ok"]
    with pytest.raises(ValueError):
        full_cert(ExactMatrix.zeros(F5, 2, 3))


def test_transpose_round_trip():
    cert = split_g_kron(g_pieces(F5, [(2, 3), (1, 0, 4)]), Fraction(1, 2))
    target = dense_g_kron(F5, [(2, 3), (1, 0, 4)])
    flipped = transpose_cert(cert)
    assert verify_cert(flipped, target.T)["ok"]
    assert list(flipped.support_rows) == list(cert.support_cols)
    assert list(flipped.support_cols) == list(cert.support_rows)
    again = transpose_cert(flipped)
    assert again.same_witness(cert)


def test_conjugation():
    cert = split_g_kron(g_pieces(F5, [(2, 3), (1, 0, 4)]), Fraction(1, 2))
    target = dense_g_kron(F5, [(2, 3), (1, 0, 4)])
    sigma = [3, 0, 5, 1, 4, 2]
    p = monomial(F5, sigma, [1] * 6)
    moved = conjugate_cert(cert, sigma)
    assert verify_cert(moved, p @ target @ p.T)["ok"]
    assert moved.claimed_rank == cert.claimed_rank
    assert moved.claimed_sparsity == cert.claimed_sparsity
    # supports follow the row/column relabeling
    inv = {s: i for i, s in enumerate(sigma)}
    assert list(moved.support_rows) == sorted(inv[r] for r in cert.support_rows)
    assert list(moved.support_cols) == sorted(inv[c] for c in cert.support_cols)


@pytest.mark.parametrize("sigma", [[1, 0], [1, 2, 0, 3], [1, 1, 0],
                                   [1, 3, 0], [1, -1, 0]],
                         ids=["short", "long", "repeated", "past_n", "negative"])
def test_conjugation_rejects_non_permutations(sigma):
    cert = monomial_cert(ExactMatrix.identity(F5, 3))
    with pytest.raises(ValueError, match=r"not a permutation of range\(3\)"):
        conjugate_cert(cert, sigma)


# ----------------------------------------------------------------------
# combiners


def test_compose_product_full_leaves():
    rng = np.random.default_rng(7)
    a = random_dense(F5, 6, 6, rng)
    b = random_dense(F5, 6, 6, rng)
    cert = compose_product([full_cert(a), full_cert(b)], [b])
    assert (cert.claimed_rank, cert.claimed_sparsity) == (0, 36)
    report = verify_cert(cert, a @ b)
    assert report["ok"]
    assert report["sparsity_row_max"] <= 6
    assert report["sparsity_col_max"] <= 6


def test_compose_product_splits():
    xa, xb = [(2, 3), (4, 1)], [(1, 1), (3, 2)]
    ga, gb = dense_g_kron(F5, xa), dense_g_kron(F5, xb)
    cert = compose_product([split_g_kron(g_pieces(F5, xa), 1),
                            split_g_kron(g_pieces(F5, xb), 1)], [gb])
    assert (cert.claimed_rank, cert.claimed_sparsity) == (4, 1)
    report = verify_cert(cert, ga @ gb)
    assert report["ok"]
    assert report["rank_actual"] == 2


def test_compose_product_validation():
    a2 = full_cert(ExactMatrix.identity(F5, 2))
    a3 = full_cert(ExactMatrix.identity(F5, 3))
    with pytest.raises(ValueError):
        compose_product([a2, a3], [ExactMatrix.identity(F5, 3)])
    with pytest.raises(ValueError):
        compose_product([a2, a2], [ExactMatrix.identity(F5, 3)])


def test_compose_product_takes_a_kronecker_spec(monkeypatch):
    xa, xb = [(2, 3), (4, 1)], [(1, 1), (3, 2)]
    spec = KroneckerSpec([v_matrix(F5, x) for x in xb])
    ca, cb = split_g_kron(g_pieces(F5, xa), 1), split_g_kron(g_pieces(F5, xb), 1)
    mono = monomial_cert(monomial(F5, [2, 0, 3, 1], [1, 4, 2, 3]))
    assert ca.inner_dim > 0 and mono.inner_dim == 0
    want = compose_product([ca, cb], [spec.materialize()])
    want_mono = compose_product([mono, cb], [spec.materialize()])

    built = []
    materialize = KroneckerSpec.materialize
    monkeypatch.setattr(KroneckerSpec, "materialize",
                        lambda self: built.append(self) or materialize(self))
    assert compose_product([ca, cb], [spec]).same_witness(want)
    assert built == [spec]
    # A has no low-rank part, so B is never built
    assert compose_product([mono, cb], [spec]).same_witness(want_mono)
    assert built == [spec]
    with pytest.raises(ValueError):
        compose_product([mono, cb], [KroneckerSpec([v_matrix(F5, (1, 1))])])


def _chain_certs(field, length, rng):
    """Certificates of random order-6 matrices: splits of kron G(x) of
    both orientations, monomial leaves and full leaves, in turn."""
    certs = []
    for j in range(length):
        kind = (j + int(rng.integers(3))) % 3
        if kind == 0:
            vectors = [tuple(field.rand(rng) for _ in range(d)) for d in (2, 3)]
            offset = Fraction(int(rng.integers(3)), 2)
            transpose = bool(rng.integers(2))
            certs.append(split_g_kron(g_pieces(field, vectors, transpose), offset,
                                      transpose=transpose))
        elif kind == 1:
            scales = [field.rand(rng) or field.one for _ in range(6)]
            certs.append(monomial_cert(monomial(field, rng.permutation(6), scales)))
        else:
            mask = rng.random((6, 6)) < 0.4
            certs.append(full_cert(ExactMatrix.from_dense(
                field, [[field.rand(rng) if mask[i, k] else 0 for k in range(6)]
                        for i in range(6)])))
    return certs


@pytest.mark.parametrize("field", [F5, PrimeField(2147483659), QQ],
                         ids=lambda f: f.header)
def test_compose_product_chain_matches_the_left_fold(field):
    """One chain composition renders the same bytes as the left fold of
    two-certificate compositions, whose suffix is each next factor."""
    from kronrig.fileio import render_cert
    rng = np.random.default_rng(29)
    for length in (2, 3, 4, 5) * 3:
        certs = _chain_certs(field, length, rng)
        mats = [c.reconstruct() for c in certs]
        suffixes = [mats[-1]]
        for m in reversed(mats[1:-1]):
            suffixes.insert(0, m @ suffixes[0])
        chain = compose_product(certs, suffixes)
        fold = certs[0]
        for c, m in zip(certs[1:], mats[1:]):
            fold = compose_product([fold, c], [m])
        assert render_cert(chain, as_bytes=True) == render_cert(fold, as_bytes=True)
        assert verify_cert(chain, mats[0] @ suffixes[0])["ok"]


def test_compose_product_chain_validation():
    a2 = full_cert(ExactMatrix.identity(F5, 2))
    with pytest.raises(ValueError):
        compose_product([], [])
    with pytest.raises(ValueError):
        compose_product([a2, a2, a2], [ExactMatrix.identity(F5, 2)])
    with pytest.raises(ValueError):
        compose_product([a2, a2, a2], [ExactMatrix.identity(F5, 2),
                                       ExactMatrix.identity(F5, 3)])


@pytest.mark.parametrize("field", [F5, F7, QQ], ids=lambda f: f.header)
def test_row_split_is_the_transposed_column_split(field):
    """The transpose kron G(x_i)^T split as itself renders the same bytes
    as transpose_cert of the split of kron G(x_i), with the same supports
    and meta, and rebuilds the transpose."""
    from kronrig.fileio import render_cert
    rng = np.random.default_rng(31)
    weights = WeightScheme({2: Fraction(1, 2), 3: 2})
    for dims in ((2, 2), (3, 2), (2, 3, 2)):
        vectors = [tuple(field.rand(rng) for _ in range(d)) for d in dims]
        for offset in (0, Fraction(1, 2), 1):
            for w in (None, weights):
                rows = split_g_kron(g_pieces(field, vectors, True), offset, w,
                                    transpose=True, check=True)
                want = transpose_cert(split_g_kron(g_pieces(field, vectors), offset, w))
                assert render_cert(rows, as_bytes=True) == render_cert(want, as_bytes=True)
                assert rows.meta == want.meta
                assert verify_cert(rows, dense_g_kron(field, vectors).T)["ok"]


def test_split_check_raises_when_the_split_does_not_rebuild(monkeypatch):
    vectors = [(2, 3), (4, 1)]
    split_g_kron(g_pieces(F5, vectors), 1, check=True)
    monkeypatch.setattr(Certificate, "reconstruct",
                        lambda self: ExactMatrix.identity(F5, self.n))
    split_g_kron(g_pieces(F5, vectors), 1)
    for transpose in (False, True):
        with pytest.raises(AssertionError, match="does not rebuild"):
            split_g_kron(g_pieces(F5, vectors, transpose), 1, transpose=transpose,
                         check=True)


def test_compose_kron_claim_arithmetic():
    # split cert (rank 2) kron a full 3x3 cert: claims r_a*m + r_b*n, t_a*t_b
    rng = np.random.default_rng(11)
    xa = [(2, 3), (4, 1)]
    ga = dense_g_kron(F5, xa)
    b = random_dense(F5, 3, 3, rng)
    cert_a = split_g_kron(g_pieces(F5, xa), 1)
    cert_b = full_cert(b)
    cert = compose_kron(cert_a, cert_b, b)
    assert cert.n == 12
    assert cert.claimed_rank == 2 * 3 + 0 * 4
    assert cert.claimed_sparsity == 1 * 3
    assert verify_cert(cert, ga.kron(b))["ok"]
    # flipped order exercises the other claim term
    flipped = compose_kron(cert_b, cert_a, ga)
    assert flipped.claimed_rank == 0 * 4 + 2 * 3
    assert verify_cert(flipped, b.kron(ga))["ok"]


def test_compose_kron_full_leaves():
    rng = np.random.default_rng(13)
    a = random_dense(F5, 4, 4, rng)
    b = random_dense(F5, 3, 3, rng)
    cert = compose_kron(full_cert(a), full_cert(b), b)
    assert (cert.claimed_rank, cert.claimed_sparsity) == (0, 12)
    assert verify_cert(cert, a.kron(b))["ok"]


# ----------------------------------------------------------------------
# subset expansion


def hand_cert(field, mat, rng):
    """A genuine rank-one-plus-diagonal witness built directly."""
    d = mat.rows
    u = random_dense(field, d, 1, rng)
    v = random_dense(field, 1, d, rng)
    z = mat - u @ v
    return Certificate(field, d, u, v, z, 1, d)


def test_subset_expand_full_leaves_frozen():
    rng = np.random.default_rng(17)
    dims = (2, 3, 2)
    mats = [random_dense(F5, d, d, rng) for d in dims]
    certs = [full_cert(m) for m in mats]
    target = KroneckerSpec(mats).materialize()
    expected = {
        Fraction(1, 3): (0, 12),
        Fraction(2, 3): (0, 48),
        Fraction(1): (0, 84),
    }
    for eps, (rank, sparsity) in expected.items():
        cert = subset_expand_combine(certs, mats, eps)
        assert (cert.claimed_rank, cert.claimed_sparsity) == (rank, sparsity)
        assert cert.meta["low_rank_terms"] == 0
        # with empty low-rank leaves only the all-sparse term is nonzero
        assert cert.meta["sparse_terms"] == 1
        assert verify_cert(cert, target)["ok"]


def test_subset_expand_nontrivial_inner_dims():
    rng = np.random.default_rng(19)
    dims = (2, 3, 3)
    mats = [random_dense(F5, d, d, rng) for d in dims]
    certs = [hand_cert(F5, m, rng) for m in mats]
    target = KroneckerSpec(mats).materialize()
    for eps in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        cert = subset_expand_combine(certs, mats, eps)
        # recompute both claims by direct expansion over subsets
        want_rank, want_sparsity = 0, 0
        for mask in range(8):
            picked = [(mask >> i) & 1 == 1 for i in range(3)]
            term_r = 1
            term_t = 1
            for i in range(3):
                term_r *= 1 if picked[i] else dims[i]
                term_t *= dims[i] if picked[i] else dims[i]
            if sum(picked) >= eps * 3:
                want_rank += term_r
            else:
                want_sparsity += term_t
        assert cert.claimed_rank == want_rank
        assert cert.claimed_sparsity == want_sparsity
        assert verify_cert(cert, target)["ok"]


def test_subset_expand_validation():
    mats = [ExactMatrix.identity(F5, 2), ExactMatrix.identity(F5, 5)]
    certs = [full_cert(m) for m in mats]
    with pytest.raises(ValueError):
        subset_expand_combine(certs, mats, 0)
    with pytest.raises(ValueError):
        subset_expand_combine(certs, mats, Fraction(3, 2))
    with pytest.raises(ValueError):
        # order spread 5 > 2**2 must be regrouped before expanding
        subset_expand_combine(certs, mats, Fraction(1, 2))
    small = [ExactMatrix.identity(F5, 2)] * 17
    with pytest.raises(SizeCapError):
        subset_expand_combine([full_cert(m) for m in small], small,
                              Fraction(1, 2))


# ----------------------------------------------------------------------
# the verifier itself


def test_verify_reports_bad_claims_without_raising():
    mat = ExactMatrix.from_dense(F5, [[1, 2], [3, 4]])
    honest = full_cert(mat)
    lying = Certificate(F5, 2, honest.u, honest.v, honest.z,
                        honest.claimed_rank, 0)
    report = verify_cert(lying, mat)
    assert report["reconstruction_ok"]
    assert not report["sparsity_ok"]
    assert not report["ok"]

    u = ExactMatrix.from_dense(F5, [[1], [2], [3]])
    v = ExactMatrix.from_dense(F5, [[1, 1, 2]])
    undersold = Certificate(F5, 3, u, v, ExactMatrix.zeros(F5, 3, 3), 0, 0)
    report = verify_cert(undersold, u @ v)
    assert report["rank_actual"] == 1
    assert not report["rank_ok"]
    assert not report["ok"]


def _stored(m, dense):
    if dense:
        return m._like(m.rows, m.cols, dense=m.num_dense())
    return m._like(m.rows, m.cols, coo=m.num_triplets())


def _bumped(m, i, j):
    """m with entry (i, j) changed by one."""
    vals = m.to_dense().copy()
    vals[i, j] = m.field.add(vals[i, j], 1)
    return _stored(ExactMatrix.from_dense(m.field, vals), m.is_dense)


def _reconstruction_parts(field, rng):
    """u, v and a sparse z of order 8: u @ v fills rows 0 and 7 only, so
    a product of sparse u and v stays sparse and rows 1..6 are touched
    by z alone.  Over Q, u, v and z carry denominators 2, 3 and 5; over
    F_p, uv + z reaches p at (0, 0) before its reduction."""
    n = 8
    q = not isinstance(field, PrimeField)

    def entry(den):
        # over Q a numerator prime to 30 keeps den the reduced denominator
        return Fraction(int(rng.choice([1, 7, -11, 13])), den) if q \
            else field.rand_nonzero(rng)

    u = [[0, 0] for _ in range(n)]
    u[0][0] = u[n - 1][1] = entry(2) if q else 1
    v = [[entry(3) for _ in range(n)] for _ in range(2)]
    cells = [(0, 0), (3, 2), (5, 6), (n - 1, n - 1)]
    z_vals = [entry(5) for _ in cells]
    if not q:
        z_vals[0] = field.neg(1)  # (u @ v)[0, 0] + z[0, 0] = v[0][0] + p - 1
    z = ExactMatrix.from_triplets(field, n, n,
                                  [(i, j, x) for (i, j), x in zip(cells, z_vals)])
    return (ExactMatrix.from_dense(field, u), ExactMatrix.from_dense(field, v), z)


@pytest.mark.parametrize("field", [PrimeField(2), F5, PrimeField(2147483659), QQ],
                         ids=lambda f: f.header)
def test_reconstruction_check_matches_the_difference(field, monkeypatch):
    """The blocked check reports what (uv + z - target) reports, for
    every storage of u @ v and of the target, in blocks of 1, 3 and all
    8 rows."""
    rng = np.random.default_rng(83)
    u, v, z = _reconstruction_parts(field, rng)
    n, r = u.rows, u.cols
    target = u @ v + z
    if field == QQ:
        assert len({(u @ v).den, z.den, target.den}) == 3
    else:
        uv = (u @ v).num_dense()
        assert uv[0, 0] + z.num_dense()[0, 0] - target.num_dense()[0, 0] == field.p
    edits = [("honest", u, v, z),
             ("u first", _bumped(u, 0, 0), v, z),
             ("u last", _bumped(u, n - 1, r - 1), v, z),
             ("v first", u, _bumped(v, 0, 0), z),
             ("v last", u, _bumped(v, r - 1, n - 1), z),
             ("z first", u, v, _bumped(z, 0, 0)),
             ("z last", u, v, _bumped(z, n - 1, n - 1)),
             ("z only", u, v, _bumped(z, 3, 2))]
    for block, uv_dense, target_dense in itertools.product(
            (8, 3 * 8, 1 << 18), (True, False), (True, False)):
        monkeypatch.setattr(matrix, "_BLOCK_CELLS", block)
        tgt = _stored(target, target_dense)
        for name, eu, ev, ez in edits:
            eu = _stored(eu, uv_dense)
            ev = _stored(ev, uv_dense)
            uv = eu @ ev
            assert uv.is_dense == uv_dense
            ri, ci, _ = (uv + ez - tgt).num_triplets()
            want = (int(ri[0]), int(ci[0])) if len(ri) else None
            cert = Certificate(field, n, eu, ev, ez, r, n)
            report = verify_cert(cert, tgt)
            assert report["reconstruction_ok"] == (want is None), name
            assert report["first_mismatch"] == want, name
            assert (want is None) == (name == "honest"), name


def test_verify_rejects_shape_and_field_mismatch():
    cert = full_cert(ExactMatrix.identity(F5, 2))
    with pytest.raises(ValueError):
        verify_cert(cert, ExactMatrix.identity(F5, 3))
    with pytest.raises(ValueError):
        verify_cert(cert, ExactMatrix.identity(F7, 2))


def test_certificate_shape_validation():
    u = ExactMatrix.zeros(F5, 3, 1)
    v = ExactMatrix.zeros(F5, 1, 3)
    z = ExactMatrix.zeros(F5, 3, 3)
    with pytest.raises(ValueError):
        Certificate(F5, 3, u, ExactMatrix.zeros(F5, 2, 3), z, 1, 1)
    with pytest.raises(ValueError):
        Certificate(F5, 3, u, v, ExactMatrix.zeros(F5, 3, 2), 1, 1)
    with pytest.raises(ValueError):
        Certificate(F5, 3, u, v, z, -1, 1)
