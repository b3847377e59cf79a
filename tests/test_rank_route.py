"""The rank of U·V taken from the sparse part of a Kronecker certificate.

When U·V = A − Z holds for A = M₁ ⊗ ⋯ ⊗ M_k with every Mᵢ invertible,
`rank_of_product` takes rank(U·V) = n − |C| + rank(I − A⁻¹[C,R]·Z[R,C]),
C and R the nonzero columns and rows of Z.  These tests check that rank
against the dense rank of U·V, and that every case the route does not
cover keeps the dense route and its output bytes.
"""

import hashlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from sympy import GF
from sympy import QQ as SYMPY_QQ
from sympy.polys.matrices import DomainMatrix

from kronrig import cli, matrix
from kronrig.cert import Certificate, verify_cert
from kronrig.field import QQ, PrimeField
from kronrig.fileio import read_cert, read_matrix
from kronrig.matrix import (
    ExactMatrix,
    KroneckerSpec,
    hstack,
    random_invertible,
    rank_of_product,
    vstack,
)
from kronrig.pipeline import decompose_kron_product

GOLDEN = Path(__file__).parent / "data" / "golden"
# 2**31 - 1 keeps int64 residues whose products need the reduction
FIELDS = [PrimeField(2), PrimeField(5), PrimeField(2**31 - 1), PrimeField(2147483659), QQ]


def _sparse_parts(spec, rng):
    """(kind, z) for Z with no nonzero column, a few, or all of them."""
    f, n = spec.field, spec.n
    a = spec.materialize().to_dense()
    cols = rng.choice(n, 3, replace=False)
    # two columns of A itself (each drops the rank by one) and one entry
    few = [(i, int(j), a[i, j]) for j in cols[:2] for i in range(n)]
    few.append((int(rng.integers(n)), int(cols[2]), f.one))
    every = [(int(rng.integers(n)), j, f.one) for j in range(n)]
    x = ExactMatrix.from_dense(f, [[f.rand(rng)] for _ in range(n)])
    y = ExactMatrix.from_dense(f, [[f.rand(rng) for _ in range(n)]])
    return [
        ("none", ExactMatrix.zeros(f, n, n)),
        ("few", ExactMatrix.from_triplets(f, n, n, few)),
        ("all", ExactMatrix.from_triplets(f, n, n, every)),
        ("all, rank 1 left", spec.materialize() - x @ y),
        ("all, nothing left", spec.materialize()),
    ]


def _check_routed(spec, rng):
    f, n = spec.field, spec.n
    for kind, z in _sparse_parts(spec, rng):
        cols = len(np.unique(z.num_triplets()[1]))
        assert cols == {"none": 0, "all": n}.get(kind, cols)
        assert kind != "few" or 0 < cols < n
        uv = spec.materialize() - z
        ident = ExactMatrix.identity(f, n)
        for u, v in ((uv, ident), (ident, uv)):
            want = rank_of_product(u, v)
            assert matrix._rank_of_difference(spec, z) == want, kind
            assert rank_of_product(u, v, difference=(spec, z)) == want, kind


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.header)
@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2), (2, 3, 2), (7, 2, 3),
                                  (2, 2, 2, 2, 3)])
def test_routed_rank_equals_dense_rank(field, dims):
    """Balanced and unbalanced orders: A^-1[C, R] comes from one gather in
    each half's Kronecker product of inverses, split where the halves
    hold the fewest cells (7 | 2*3 and 2*2*2 | 2*3 for the last two)."""
    rng = np.random.default_rng(sum(dims) * 7 + len(dims))
    spec = KroneckerSpec([random_invertible(field, d, rng) for d in dims])
    _check_routed(spec, rng)


def test_routed_rank_of_twenty_digit_factors():
    spec = KroneckerSpec([read_matrix(str(GOLDEN / f"bigq_{x}.mat")) for x in "ab"])
    assert spec.dims == (3, 4)
    _check_routed(spec, np.random.default_rng(12))


def test_route_declines_singular_factor_and_large_factors(monkeypatch):
    f = PrimeField(5)
    rng = np.random.default_rng(3)
    good = random_invertible(f, 2, rng)
    singular = ExactMatrix.from_dense(f, [[1, 2], [2, 4]])
    z = ExactMatrix.from_triplets(f, 4, 4, [(0, 1, 3)])
    assert matrix._rank_of_difference(KroneckerSpec([good, singular]), z) is None
    # with no nonzero column in z the factors are ranked, not solved
    zero = ExactMatrix.zeros(f, 4, 4)
    assert matrix._rank_of_difference(KroneckerSpec([good, singular]), zero) is None
    assert matrix._rank_of_difference(KroneckerSpec([good, good]), zero) == 4
    # one factor: its solve would cost d^3 > n^2
    assert matrix._rank_of_difference(KroneckerSpec([good.kron(good)]), z) is None
    # |C| * |R| over the cell cap
    monkeypatch.setattr(matrix, "DENSE_CELL_CAP", 0)
    assert matrix._rank_of_difference(KroneckerSpec([good, good]), z) is None


def test_solve_linear_with_matrix_right_side():
    for f in FIELDS:
        rng = np.random.default_rng(5)
        m = random_invertible(f, 4, rng)
        x, pivots = matrix.solve_linear(f, m.num_dense(), np.diag([m.den] * 4))
        assert pivots == [0, 1, 2, 3]
        assert m @ ExactMatrix.from_dense(f, x) == ExactMatrix.identity(f, 4)
        b = np.arange(8, dtype=object).reshape(4, 2)
        x, pivots = matrix.solve_linear(f, m.num_dense(), b * m.den)
        assert pivots == [0, 1, 2, 3]
        assert m @ ExactMatrix.from_dense(f, x) == ExactMatrix.from_dense(f, b.tolist())
    assert matrix.solve_linear(QQ, [[1, 1], [2, 2]], [[1, 0], [2, 1]]) == (None, [0])


# ----------------------------------------------------------------------
# real certificates against an elimination that shares no code with the
# route or with kronrig's own rank

def _sympy_rank(m):
    """rank(m) by sympy's DomainMatrix over GF(p) or QQ."""
    if m.field == QQ:
        dom = SYMPY_QQ

        def conv(v):
            v = Fraction(v)
            return dom(v.numerator, v.denominator)
    else:
        dom = GF(m.field.p)

        def conv(v):
            return dom(int(v))
    rows = [[conv(v) for v in row] for row in m.to_dense().tolist()]
    return DomainMatrix(rows, m.shape, dom).rank()


def _with_full_column_set(cert, rng):
    """The certificate with P, one nonzero a column where Z has none,
    moved from U·V into Z: U' = [U, P], V' = [V; -I] and Z' = Z + P, so
    Z' has a nonzero in every column and U'·V' + Z' is still the target."""
    f, n = cert.field, cert.n
    z = cert.z.to_dense()
    trips = []
    for j in range(n):
        i = int(rng.integers(n))
        while z[i, j] != 0:
            i = (i + 1) % n
        trips.append((i, j, f.one))
    p = ExactMatrix.from_triplets(f, n, n, trips)
    u = hstack([cert.u, p])
    v = vstack([cert.v, ExactMatrix.from_triplets(
        f, n, n, [(j, j, f.canon(-1)) for j in range(n)])])
    return Certificate(f, n, u, v, cert.z + p, cert.claimed_rank + n, n)


_SMALL_FIELDS = [PrimeField(2), PrimeField(5)]
_BIG_FIELDS = [PrimeField(2147483659), QQ]  # sympy is slower over these
_REAL_CASES = (
    # (fields, dims, mode, epsilon): n = 256, 256, 192; then 64, 48, 48
    [(f, (2,) * 8, "equal", "0.5") for f in _SMALL_FIELDS]
    + [(f, (4, 4, 4, 4), "hadamard", "0.5") for f in _SMALL_FIELDS]
    + [(f, (2, 2, 3, 4, 4), "hadamard", "0.5") for f in _SMALL_FIELDS]
    + [(f, (2,) * 6, "equal", "0.5") for f in _BIG_FIELDS]
    + [(f, (2, 2, 3, 4), "hadamard", "0.5") for f in _BIG_FIELDS]
    + [(f, (2, 3, 2, 4), "equal", "0.5") for f in _BIG_FIELDS]
)


def _real_certificate(field, dims, mode, eps):
    rng = np.random.default_rng(len(dims))
    facs = [random_invertible(field, d, rng) for d in dims]
    return decompose_kron_product(facs, eps, mode=mode)[0], KroneckerSpec(facs), rng


def _check_against_sympy(cert, spec, monkeypatch):
    calls = _spy_route(monkeypatch)
    report = verify_cert(cert, spec)
    assert report["ok"]
    assert report["rank_actual"] == calls[-1] == _sympy_rank(
        spec.materialize() - cert.z)


@pytest.mark.parametrize("field,dims,mode,eps", _REAL_CASES,
                         ids=lambda x: getattr(x, "header", str(x)))
def test_verified_rank_of_real_certificates_equals_sympy(
        field, dims, mode, eps, monkeypatch):
    """`verify_cert`'s rank_actual, taken by the route, is the rank of
    A − Z by sympy's elimination, on certificates `decompose_kron_product`
    builds."""
    cert, spec, _ = _real_certificate(field, dims, mode, eps)
    assert 0 < len(np.unique(cert.z.num_triplets()[1])) < cert.n
    _check_against_sympy(cert, spec, monkeypatch)


@pytest.mark.parametrize("field,dims,mode,eps",
                         [c for c in _REAL_CASES if np.prod(c[1]) < 256],
                         ids=lambda x: getattr(x, "header", str(x)))
def test_verified_rank_with_full_column_set_equals_sympy(
        field, dims, mode, eps, monkeypatch):
    """The same with Z given a nonzero in every column (sympy's
    elimination of those takes seconds at n = 256)."""
    cert, spec, rng = _real_certificate(field, dims, mode, eps)
    cert = _with_full_column_set(cert, rng)
    assert len(np.unique(cert.z.num_triplets()[1])) == cert.n
    _check_against_sympy(cert, spec, monkeypatch)


@pytest.mark.parametrize("field", _SMALL_FIELDS + _BIG_FIELDS,
                         ids=lambda f: f.header)
def test_verified_rank_with_zero_sparse_part_equals_sympy(field, monkeypatch):
    cert, spec, _ = _real_certificate(field, (2, 2, 2, 2), "hadamard", "0.5")
    assert cert.z.nnz == 0
    _check_against_sympy(cert, spec, monkeypatch)


# ----------------------------------------------------------------------
# the CLI: routed and dense verifies

def _spy_route(monkeypatch):
    calls = []
    real = matrix._rank_of_difference

    def spy(spec, z):
        calls.append(real(spec, z))
        return calls[-1]
    monkeypatch.setattr(matrix, "_rank_of_difference", spy)
    return calls


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


F5_FLAGS = ["--walsh", "6", "--random", "2,2", "--field", "Fp 5", "--seed", "1"]


def test_routed_verify_ranks_only_small_matrices(tmp_path, monkeypatch, capsys):
    # no --random factors: sampling them ranks candidates outside the check
    flags = ["--walsh", "8", "--field", "Fp 5"]
    monkeypatch.chdir(tmp_path)
    assert cli.main(["decompose", *flags, "--epsilon", "0.5", "--out", "c.cert"]) == 0
    capsys.readouterr()
    cert = read_cert("c.cert")
    cols = len(np.unique(cert.z.num_triplets()[1]))
    assert 0 < cols < cert.n
    ranked = []
    real = matrix._basis_rows

    def spy(field, arr):
        ranked.append(arr.size)
        return real(field, arr)
    monkeypatch.setattr(matrix, "_basis_rows", spy)
    calls = _spy_route(monkeypatch)
    assert cli.main(["verify", "--cert", "c.cert", *flags]) == 0
    out = capsys.readouterr().out
    assert calls and calls[0] is not None and f"rank_actual: {calls[0]}\n" in out
    assert sum(ranked) <= cols ** 2 + 8 * 2 ** 2
    assert max(ranked) <= cols ** 2


# Output of the dense route, pinned from before the route existed.
DENSE_ROUTE_SHA256 = {
    "singular_decompose":
        "ef4b56b84d2d9f4fbf923ab2508c074f24aca81b6f0b95b7e59f01d220ebd028",
    "singular_verify":
        "e14be820139107745634329a6a8f89d09498a791ecf5e3d344eb3984b41f5b75",
    "corrupted_verify":
        "d66dda8c317ba6c806d8ac70b52498d444ee8f2e03f023dd40f12cb0d634371c",
    "target_verify":
        "38580a594913af87f6037e5217e72dd361dbd15515eacf5619f95d41718a5c6b",
}


def test_singular_factor_keeps_the_dense_route(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.mat").write_text(
        "field: Fp 5\nrows: 2\ncols: 2\nformat: dense\n1 2\n2 4\n")
    flags = ["--walsh", "4", "--factors", "s.mat", "--field", "Fp 5"]
    calls = _spy_route(monkeypatch)
    assert cli.main(["decompose", *flags, "--epsilon", "0.5", "--out", "c.cert"]) == 0
    assert _sha(capsys.readouterr().out) == DENSE_ROUTE_SHA256["singular_decompose"]
    assert cli.main(["verify", "--cert", "c.cert", *flags]) == 0
    assert _sha(capsys.readouterr().out) == DENSE_ROUTE_SHA256["singular_verify"]
    assert calls == [None, None]


def test_corrupted_and_target_file_verifies_keep_the_dense_route(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["decompose", *F5_FLAGS, "--epsilon", "0.5", "--out", "c.cert"]) == 0
    assert cli.main(["generate", *F5_FLAGS, "--out", "a.mat"]) == 0
    capsys.readouterr()
    lines = (tmp_path / "c.cert").read_text().split("\n")
    at = next(i for i, s in enumerate(lines) if s.startswith("u: ")) + 1
    i, j, val = lines[at].split()
    lines[at] = f"{i} {j} {(int(val) + 1) % 5}"
    (tmp_path / "bad.cert").write_text("\n".join(lines))
    calls = _spy_route(monkeypatch)
    assert cli.main(["verify", "--cert", "bad.cert", *F5_FLAGS]) == 2
    out = capsys.readouterr().out
    assert "first_mismatch: [0, 0]\n" in out
    assert _sha(out) == DENSE_ROUTE_SHA256["corrupted_verify"]
    assert cli.main(["verify", "--cert", "c.cert", "--target", "a.mat"]) == 0
    assert _sha(capsys.readouterr().out) == DENSE_ROUTE_SHA256["target_verify"]
    assert calls == []


# ----------------------------------------------------------------------
# the route's factors, the fp_walsh core and the float32 reduction

def test_route_ranks_and_inverts_each_distinct_factor_once(monkeypatch):
    """Factors that repeat, as one object or as equal matrices, are solved
    once each, and their ranks read off those solves: the only exact rank
    is the core's.  The rank is unchanged."""
    rng = np.random.default_rng(79)
    for f in [PrimeField(5), QQ]:
        w = ExactMatrix.from_dense(f, [[1, 1], [1, -1]])
        a = random_invertible(f, 3, rng)
        spec = KroneckerSpec([w, a, ExactMatrix.from_dense(f, [[1, 1], [1, -1]]), w, a])
        n = spec.n
        z = ExactMatrix.from_triplets(f, n, n, [(int(i), int(j), f.one) for i, j in
                                                 rng.integers(0, n, size=(9, 2))])
        want = (spec.materialize() - z).exact_rank()
        ranked, solved = [], []
        real_rank, real_solve = ExactMatrix.exact_rank, matrix.solve_linear
        monkeypatch.setattr(ExactMatrix, "exact_rank",
                            lambda m: ranked.append(m.shape) or real_rank(m))
        monkeypatch.setattr(matrix, "solve_linear",
                            lambda *args: solved.append(len(args[1])) or real_solve(*args))
        assert matrix._rank_of_difference(spec, z) == want
        monkeypatch.undo()
        assert len(ranked) == 1
        assert sorted(solved) == [2, 3]


def test_fp_walsh_route_core_is_pinned(fp_walsh_cert, monkeypatch, capsys,
                                       reference_basis_rows):
    """The route core of the fp_walsh benchmark's instance of seed 1
    (--walsh 8 and two random 2x2 factors over F_5, n = 1024): Z has 252
    nonzero columns, so the core is 252 x 252; its rank is 201, so
    rank(U·V) = 1024 - 252 + 201 = 973; its basis rows are the reference
    elimination's.  No other rank runs (the three distinct factors' ranks
    are read off the solves that invert them), and every float32 array
    the kernel reduces stays within its limit."""
    ranked = []
    real_rows, real_reduce = matrix._basis_rows, matrix._reduce
    limit = matrix._reduce_limit(np.float32)

    def rows_spy(field, arr):
        ranked.append((arr, real_rows(field, arr)))
        return ranked[-1][1]

    def reduce_spy(x, p):
        assert x.dtype != np.float32 or x.size == 0 or x.max() <= limit
        return real_reduce(x, p)
    monkeypatch.setattr(matrix, "_basis_rows", rows_spy)
    monkeypatch.setattr(matrix, "_reduce", reduce_spy)
    assert cli.main(fp_walsh_cert[2]) == 0
    assert "rank_actual: 973\n" in capsys.readouterr().out
    assert [arr.shape for arr, _ in ranked] == [(252, 252)]
    core, basis = ranked[-1]
    assert core.shape == (252, 252) and len(basis) == 201
    assert basis == reference_basis_rows(core, 5)


@pytest.mark.parametrize("workload, ranks", [("fp_walsh", [(252, 252)]),
                                             ("q_family", [(2, 2), (3, 3), (4, 4)])])
def test_verify_rank_calls_of_the_benchmark_instances(workload, ranks, request,
                                                      monkeypatch, capsys):
    """The exact ranks a verify of each benchmark workload's instance
    runs.  fp_walsh: one, the route's core; its three distinct factors'
    ranks are read off the solves that invert them.  q_family: Z has no
    nonzero column, so nothing is inverted, and each of its three distinct
    factors is ranked."""
    verify = request.getfixturevalue(f"{workload}_cert")[2]
    ranked = []
    real_rank = ExactMatrix.exact_rank
    monkeypatch.setattr(ExactMatrix, "exact_rank",
                        lambda m: ranked.append(m.shape) or real_rank(m))
    assert cli.main(verify) == 0
    assert "ok: True\n" in capsys.readouterr().out
    assert sorted(ranked) == ranks


def test_float32_reduction_is_exact_up_to_its_limit(elimination_dtype):
    """_reduce takes a float32 x to x - p*floor(x * pinv), pinv the
    nearest float32 at or above 1/p.  The quotient is never too small,
    and it stays below the next integer while x < 2**23 / 1.5: the
    kernel's float32 limit, 2**22, is within that for every prime of the
    float32 kernel (p(p - 1) <= 2**22, so p <= 2039).  floor(x * pinv)
    does not decrease as x grows, so exact results at both ends of every
    quotient, up to the limit, make every x in between exact."""
    limit = matrix._reduce_limit(np.float32)
    assert limit == 1 << 22
    assert elimination_dtype(2039) is np.float32
    assert elimination_dtype(2053) is np.float64
    for p in (q for q in range(2, 2040) if all(q % d for d in range(2, math.isqrt(q) + 1))):
        starts = np.arange(0, limit + 1, p, dtype=np.int64)
        x = np.concatenate([starts, np.minimum(starts + p - 1, limit), [limit]])
        got = matrix._reduce(x.astype(np.float32), p)
        assert got.dtype == np.float32
        assert np.array_equal(got.astype(np.int64), x % p), p
