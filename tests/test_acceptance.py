"""Acceptance gate: nine criteria, each a single test with a PASS line.

Every check is exact (integer or rational comparison); the only floats
appear on the loose side of analytic-bound inequalities.  Expected
values come from independent enumeration inside this module, never from
the code under test.
"""

import itertools
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from kronrig.cert import (
    compose_kron,
    compose_product,
    full_cert,
    split_g_kron,
    verify_cert,
)
from kronrig.field import QQ, PrimeField
from kronrig.hadamard import (
    is_hadamard,
    paley_type_one,
    paley_type_two,
    walsh,
)
from kronrig.matrix import (
    ExactMatrix,
    KroneckerSpec,
    random_dense,
    random_invertible,
)
from kronrig.oracle import brute_rc_rigidity, brute_rigidity
from kronrig.pipeline import (
    _offset_candidates,
    decompose_kron_product,
    predict_parameters,
)
from kronrig.scores import WeightScheme, threshold_counts

from conftest import g_pieces

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def _passline(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def _random_singular(field, d, rng):
    r = max(1, d - 1)
    return random_dense(field, d, r, rng) @ random_dense(field, r, d, rng)


# ----------------------------------------------------------------------
# 1. reconstruction master suite


def _sample_cases():
    """200 deterministic draws; sizes skew small so the run stays fast,
    with a few large products to exercise the scaled paths."""
    rng = np.random.default_rng(20260823)
    fields = [F5, F7, QQ]
    modes = ["equal", "binpack", "hadamard"]
    epsilons = ["0.3", "0.5", "0.7"]
    cases = []
    while len(cases) < 197:
        i = len(cases)
        field = fields[i % 3]
        cap = 128 if field is QQ else 1024
        k = int(rng.integers(1, 7))
        dims = []
        for _ in range(k):
            d = int(rng.integers(2, 6))
            if math.prod(dims) * d > cap:
                break
            dims.append(d)
        if not dims:
            continue
        cases.append((field, tuple(dims), modes[i % 3], epsilons[i % len(epsilons)],
                      i % 5 == 0))
    cases.append((QQ, (4, 4, 4, 4), "equal", "0.5", False))       # n = 256
    cases.append((F7, (2, 2, 2, 4, 4, 4), "binpack", "0.5", False))  # 512
    cases.append((F5, (2,) * 12, "equal", "0.5", False))          # n = 4096
    assert len(cases) == 200
    return cases, rng


def test_criterion_1_reconstruction_master_suite():
    t0 = time.time()
    cases, rng = _sample_cases()
    for field, dims, mode, eps, force_singular in cases:
        facs = [random_invertible(field, d, rng) for d in dims]
        if force_singular and max(dims) > 1:
            j = int(rng.integers(0, len(dims)))
            facs[j] = _random_singular(field, dims[j], rng)
        cert, rep = decompose_kron_product(facs, eps, mode=mode)
        ver = verify_cert(cert, KroneckerSpec(facs).materialize())
        assert ver["reconstruction_ok"], (field.header, dims, mode, ver)
        assert ver["rank_actual"] <= cert.claimed_rank, (dims, mode, ver)
        assert max(ver["sparsity_row_max"], ver["sparsity_col_max"]) \
            <= cert.claimed_sparsity, (dims, mode, ver)
        assert ver["ok"]
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 1 overran: {elapsed:.0f}s"
    _passline(1, f"200 randomized pipelines verified exactly "
                 f"({elapsed:.0f}s)")


# ----------------------------------------------------------------------
# 2 and 7. split exactness against exhaustive enumeration + monotonicity


def _compat_matrix(k):
    """Structural nonzero pattern of a k-fold product of 2x2 last-column
    blocks: entry (row x, col y) survives iff every coordinate of y
    matches x or sits at the top value."""
    n = 2 ** k
    idx = np.arange(n)
    digits = np.empty((n, k), dtype=np.int64)
    for i in range(k):
        digits[:, k - 1 - i] = (idx >> i) & 1  # 0 = low, 1 = top
    compat = np.ones((n, n), dtype=bool)
    for i in range(k):
        x = digits[:, i][:, None]
        y = digits[:, i][None, :]
        compat &= (y == x) | (y == 1)
    scores = digits.sum(axis=1)
    return compat, scores


def test_criterion_2_and_7_split_exactness_and_monotonicity():
    t0 = time.time()
    w = WeightScheme.uniform()
    checked = 0
    for k in range(2, 13):
        dims = (2,) * k
        compat, scores = _compat_matrix(k)
        m = Fraction(k, 2)
        offsets = sorted(set(_offset_candidates(dims, w, Fraction(1, 2))))
        vectors = [(1 + (i % 4), 1 + ((i + 1) % 4)) for i in range(k)]
        prev_rank, prev_sparsity = None, None
        for off in offsets:
            cert = split_g_kron(g_pieces(F5, vectors), offset=off)
            hi = int((scores >= math.ceil(m + off)).sum())
            lo = int((scores <= math.floor(m - off)).sum())
            assert cert.claimed_rank == hi + lo, (k, off)
            rows_keep = scores > math.floor(m - off)
            cols_keep = scores < math.ceil(m + off)
            sub = compat[np.ix_(rows_keep, cols_keep)]
            col_fill = int(sub.sum(axis=0).max()) if sub.size else 0
            row_fill = int(sub.sum(axis=1).max()) if sub.size else 0
            assert cert.claimed_sparsity == max(col_fill, row_fill), (k, off)
            if prev_rank is not None:
                assert cert.claimed_rank <= prev_rank, (k, off)
                assert cert.claimed_sparsity >= prev_sparsity, (k, off)
            prev_rank, prev_sparsity = cert.claimed_rank, cert.claimed_sparsity
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 2 overran: {elapsed:.0f}s"
    _passline(2, f"split claims match enumeration on {checked} "
                 f"(k, offset) pairs ({elapsed:.0f}s)")
    _passline(7, "claimed rank non-increasing and sparsity non-decreasing "
                 "along every offset sweep")


# ----------------------------------------------------------------------
# 3. composition ledgers


def test_criterion_3_composition_ledgers():
    rng = np.random.default_rng(33)
    # symbolic: the combiners must implement the exact claim arithmetic
    pairs = 0
    for dims_a, off_a, dims_b, off_b in [
        (((2, 3)), Fraction(1, 2), ((3, 2)), Fraction(1)),
        (((2, 2, 2)), Fraction(1), ((2, 4)), Fraction(1, 2)),
    ]:
        va = [tuple(range(2, 2 + d)) for d in dims_a]
        vb = [tuple(range(2, 2 + d)) for d in dims_b]
        a = split_g_kron(g_pieces(F5, va), offset=off_a)
        b = split_g_kron(g_pieces(F5, vb), offset=off_b)
        b_mat = b.reconstruct()
        if a.n == b.n:
            prod = compose_product([a, b], [b_mat])
            assert prod.claimed_rank == a.claimed_rank + b.claimed_rank
            assert prod.claimed_sparsity == a.claimed_sparsity * b.claimed_sparsity
            pairs += 1
        kr = compose_kron(a, b, b_mat)
        assert kr.claimed_rank == (a.claimed_rank * b.n
                                   + b.claimed_rank * a.n)
        assert kr.claimed_sparsity == a.claimed_sparsity * b.claimed_sparsity
        pairs += 1

    # materialized at n <= 256: compose, then reverify from scratch
    for field in (F5, QQ):
        ma = kron_of_random(field, (4, 4), rng)
        mb = kron_of_random(field, (4, 4), rng)
        ca = decompose_kron_product(ma, "0.5")[0]
        cb = decompose_kron_product(mb, "0.5")[0]
        target_a = KroneckerSpec(ma).materialize()
        target_b = KroneckerSpec(mb).materialize()

        prod = compose_product([ca, cb], [target_b])
        assert prod.claimed_rank == ca.claimed_rank + cb.claimed_rank
        assert prod.claimed_sparsity == ca.claimed_sparsity * cb.claimed_sparsity
        assert verify_cert(prod, target_a @ target_b)["ok"]

        kr = compose_kron(ca, cb, target_b)
        assert kr.n == 256
        assert kr.claimed_rank == (ca.claimed_rank * 16 + cb.claimed_rank * 16)
        assert kr.claimed_sparsity == ca.claimed_sparsity * cb.claimed_sparsity
        assert verify_cert(kr, target_a.kron(target_b))["ok"]
        pairs += 2
    _passline(3, f"claim arithmetic exact on {pairs} compositions, "
                 f"symbolic and materialized")


def kron_of_random(field, dims, rng):
    return [random_invertible(field, d, rng) for d in dims]


# ----------------------------------------------------------------------
# 4. tail-bound dominance


def test_criterion_4_tail_bound_dominance():
    t0 = time.time()
    w = WeightScheme.uniform()
    checks = 0
    for d in range(2, 6):
        for k in range(1, 21):
            dims = (d,) * k
            n = d ** k
            for i in range(1, 11):
                delta = Fraction(i, 10)
                off = delta * k
                hi, lo = threshold_counts(dims, w, off)
                bound = n * math.exp((math.log(d)
                                      - float(delta) ** 2 * d / 3) * k)
                assert hi <= bound, (d, k, i)
                assert lo <= bound, (d, k, i)
                checks += 2
    # partial binomial sums against the classical display
    for n in range(1, 31):
        for k in range(1, n + 1):
            lhs = sum(math.comb(n, i) for i in range(k + 1))
            rhs = (math.e * n / k) ** k
            assert lhs <= rhs, (n, k)
            checks += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 4 overran: {elapsed:.0f}s"
    _passline(4, f"{checks} exact counts sit under the analytic bounds "
                 f"({elapsed:.0f}s)")


# ----------------------------------------------------------------------
# 5. oracle consistency


def _all_square(field, n):
    vals = list(field.elements())
    for combo in itertools.product(vals, repeat=n * n):
        yield ExactMatrix.from_dense(
            field, [list(combo[i * n:(i + 1) * n]) for i in range(n)])


def test_criterion_5_oracle_consistency():
    t0 = time.time()
    instances = 0
    targets = ([(f, m) for f in (F2, F3) for m in _all_square(f, 2)]
               + [(QQ, walsh(QQ, 1))])
    for field, a in targets:
        cert, _ = decompose_kron_product([a], "0.5")
        r = min(cert.claimed_rank, a.rows)
        rc_at_claim = brute_rc_rigidity(a, r)
        assert rc_at_claim.value <= cert.claimed_sparsity, (field.header, a)
        for r in range(a.rows + 1):
            total = brute_rigidity(a, r)
            per_line = brute_rc_rigidity(a, r)
            assert total.value <= a.rows * per_line.value, (field.header, r)
            instances += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 5 overran: {elapsed:.0f}s"
    _passline(5, f"certificates dominate the oracle and the n*t inequality "
                 f"holds on {instances} instances ({elapsed:.0f}s)")


# ----------------------------------------------------------------------
# 6. sign-matrix generators


def test_criterion_6_sign_matrix_orthogonality():
    t0 = time.time()
    built = []
    built += [walsh(QQ, k) for k in range(7)]
    built += [paley_type_one(QQ, q) for q in (3, 7, 11, 19, 23)]
    built += [paley_type_two(QQ, q) for q in (5, 13)]
    built += [
        paley_type_one(QQ, 3).kron(walsh(QQ, 2)),
        paley_type_two(QQ, 5).kron(paley_type_one(QQ, 3)),
        walsh(QQ, 1).kron(paley_type_two(QQ, 13)),
    ]
    for h in built:
        n = h.rows
        assert h @ h.T == ExactMatrix.identity(QQ, n).scale(n), n
        assert n == 1 or is_hadamard(h), n
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 6 overran: {elapsed:.0f}s"
    _passline(6, f"H @ H.T == n*I for {len(built)} generated matrices "
                 f"({elapsed:.0f}s)")


# ----------------------------------------------------------------------
# 8. parameter-window predictions


def _conditions_hold(dims, weights, k_val, l_val):
    """Direct evaluation of the two window inequalities."""
    m = sum(Fraction(weights.weight(d), d) for d in dims)
    d_hi, d_lo = max(dims), min(dims)
    base = None
    for g in range(2, d_hi + 1):
        es = []
        for d in dims:
            e = round(math.log(d, g))
            if g ** e != d:
                break
            es.append(e)
        else:
            base = g
            e_hi = max(es)
            ratio = sum(Fraction(e, e_hi) for e in es)
            break
    assert base is not None, "test instances are chosen with a power base"
    cond_i = m <= k_val * ratio * Fraction(weights.weight(d_lo), d_hi)
    cond_ii = m >= l_val * ratio * Fraction(weights.weight(d_hi), d_hi)
    return cond_i and cond_ii


def test_criterion_8_parameter_windows():
    w = WeightScheme.uniform()

    # equal orders: the window collapses to multiplicity one
    for dims in ([2] * 10, [8, 8, 8], [5, 5, 5, 5]):
        rep = predict_parameters(dims, "0.5")
        assert rep["multiplicity_lower"] == Fraction(1)
        assert rep["multiplicity_upper"] == Fraction(1)
        assert rep["exact"] and rep["window_nonempty"]
        assert _conditions_hold(dims, w, Fraction(1), Fraction(1))

    # two-valued orders with small-side mass c = 1/8
    dims = [32] + [256] * 9
    rep = predict_parameters(dims, "0.1")
    kl = rep["multiplicity_lower"]
    assert kl == rep["multiplicity_upper"] == Fraction(136, 77)
    c = Fraction(1, 8)
    assert kl <= (1 / c) * math.log2(1 / c)  # 24
    assert _conditions_hold(dims, w, kl, kl)

    # every order inside [sqrt(d), d] with d = 16 and k > d
    dims = [4] * 10 + [16] * 8
    rep = predict_parameters(dims, "0.5")
    kl = rep["multiplicity_lower"]
    assert kl == rep["multiplicity_upper"] == Fraction(48, 13)
    assert kl <= 4 * Fraction(4)  # 4 * sqrt(16), exactly
    assert _conditions_hold(dims, w, kl, kl)
    _passline(8, "window multiplicities match hand values and satisfy "
                 "both inequalities directly")


# ----------------------------------------------------------------------
# 9. byte-identical command runs


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["decompose", "--random", "2,3", "--field", "Fp 5", "--seed", "7",
         "--epsilon", "0.5", "--mode", "equal",
         "--out", "c.txt", "--report", "r.txt"],
        ["generate", "--paley2", "5", "--out", "m.txt"],
        ["predict", "--dims", "3,9,27", "--epsilon", "0.4",
         "--report", "p.txt"],
    ]
    for ci, argv in enumerate(commands):
        snapshots = []
        for run in ("a", "b"):
            d = tmp_path / f"{ci}{run}"
            d.mkdir()
            p = subprocess.run([sys.executable, "-m", "kronrig.cli"] + argv,
                               cwd=d, capture_output=True, text=True)
            assert p.returncode == 0, p.stderr
            files = tuple(sorted((f.name, f.read_bytes())
                                 for f in d.iterdir()))
            snapshots.append((p.stdout, p.stderr, files))
        assert snapshots[0] == snapshots[1], argv[0]
    _passline(9, "identical flags and seed reproduce identical bytes "
                 "across runs")
