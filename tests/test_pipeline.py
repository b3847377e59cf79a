"""Pipelines: packing, regrouping, the layered path, and prediction.

Grouping examples and the predictor values were worked out by hand;
reconstruction checks always compare against an independently
materialized Kronecker product.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from kronrig import pipeline
from kronrig.cert import verify_cert
from kronrig.field import QQ, PrimeField
from kronrig.matrix import (
    ExactMatrix,
    KroneckerSpec,
    SizeCapError,
    kron_list,
    random_dense,
    random_invertible,
)
from kronrig.pipeline import (
    bin_pack,
    bucket_pipeline,
    decompose_kron_product,
    hadamard_family_pipeline,
    predict_parameters,
    regroup_permutation,
)
from kronrig.scores import WeightScheme, mean_score

F5 = PrimeField(5)
F7 = PrimeField(7)


def random_singular(field, d, rng):
    r = max(1, d - 1)
    return random_dense(field, d, r, rng) @ random_dense(field, r, d, rng)


# ----------------------------------------------------------------------
# grouping helpers


def test_bin_pack_examples():
    assert bin_pack((2, 2, 2), 4) == [[0, 1], [2]]
    assert bin_pack((3, 3, 3, 3), 10) == [[0, 1], [2, 3]]


def test_bin_pack_postconditions():
    rng = np.random.default_rng(31)
    for _ in range(40):
        k = int(rng.integers(1, 9))
        dims = [int(rng.integers(2, 8)) for _ in range(k)]
        cap = max(dims) ** 2
        groups = bin_pack(dims, cap)
        assert sorted(i for g in groups for i in g) == list(range(k))
        prods = [math.prod(dims[i] for i in g) for g in groups]
        assert all(p <= cap for p in prods)
        assert sum(1 for p in prods if p * p <= cap) <= 1


def test_bin_pack_rejects_oversized_factor():
    with pytest.raises(ValueError):
        bin_pack((2, 9), 8)


def test_regroup_permutation_matches_materialization():
    rng = np.random.default_rng(33)
    a = random_dense(F5, 2, 2, rng)
    b = random_dense(F5, 3, 3, rng)
    c = random_dense(F5, 2, 2, rng)
    m = kron_list([a, b, c])
    for groups in ([[1], [0], [2]], [[2, 0], [1]], [[0, 1, 2]]):
        tau = [i for g in groups for i in g]
        x = kron_list([[a, b, c][i] for i in tau])
        sigma = regroup_permutation((2, 3, 2), groups)
        for aa in range(12):
            for bb in range(12):
                assert m[aa, bb] == x[sigma[aa], sigma[bb]]


def test_regroup_permutation_rejects_bad_partition():
    with pytest.raises(ValueError):
        regroup_permutation((2, 2), [[0], [0]])


# ----------------------------------------------------------------------
# the layered path


def test_equal_mode_reconstructs():
    rng = np.random.default_rng(41)
    for field in (F5, F7, QQ):
        for dims in ((2, 2), (3, 2), (2, 2, 3)):
            facs = [random_invertible(field, d, rng) for d in dims]
            cert, rep = decompose_kron_product(facs, "0.5")
            report = verify_cert(cert, KroneckerSpec(facs).materialize())
            assert report["ok"], (field.header, dims, report)
            assert rep["rank_claimed"] == cert.claimed_rank
            assert rep["sparsity_claimed"] == cert.claimed_sparsity
            assert rep["mode"] == "equal"


def test_equal_mode_singular_factor():
    rng = np.random.default_rng(43)
    facs = [random_invertible(F5, 2, rng), random_singular(F5, 3, rng)]
    cert, _ = decompose_kron_product(facs, "0.5")
    assert verify_cert(cert, KroneckerSpec(facs).materialize())["ok"]


def test_layered_certificate_builds_each_slot_matrix_once(monkeypatch):
    from kronrig.vfactor import Factor

    real = Factor.matrix
    calls = []

    def counting(self):
        calls.append(id(self))
        return real(self)

    monkeypatch.setattr(Factor, "matrix", counting)
    rng = np.random.default_rng(61)
    for field in (F5, QQ):
        facs = [random_invertible(field, d, rng) for d in (2, 3)]
        calls.clear()
        cert, rep = decompose_kron_product(facs, "0.5")
        assert rep["layer_checks"]
        # two chains padded to the 4*3 - 3 slots of the larger factor
        assert len(calls) == 2 * 9
        assert len(set(calls)) == len(calls)
        assert verify_cert(cert, KroneckerSpec(facs).materialize())["ok"]


def test_compose_product_takes_suffixes_in_the_storage_their_fill_calls_for(
        monkeypatch):
    """At fp_walsh's shape (--walsh 8 and two 2x2 factors over F5, n=1024)
    every suffix product that compose_product materializes with
    3 * nnz <= n^2 arrives sparse, so V @ suffix is a sparse product."""
    from kronrig import pipeline
    from kronrig.hadamard import walsh_factors

    real_compose, real_materialize = pipeline.compose_product, KroneckerSpec.materialize
    inside, seen = [], []

    def compose(certs, suffixes):
        inside.append(suffixes)
        try:
            return real_compose(certs, suffixes)
        finally:
            inside.pop()

    def materialize(self):
        out = real_materialize(self)
        if inside:
            seen.append((math.prod(m.nnz for m in self.factors), out))
        return out

    monkeypatch.setattr(pipeline, "compose_product", compose)
    monkeypatch.setattr(KroneckerSpec, "materialize", materialize)
    facs = walsh_factors(F5, 8) + [ExactMatrix.from_dense(F5, [[1, 2], [3, 4]]),
                                   ExactMatrix.from_dense(F5, [[2, 1], [1, 4]])]
    cert, _ = decompose_kron_product(facs, "0.5")
    n = cert.n
    sparse_fill = [(nnz, out) for nnz, out in seen if 3 * nnz <= n * n]
    assert {nnz for nnz, _ in sparse_fill} >= {1024, 59049}
    for nnz, out in sparse_fill:
        assert out.nnz == nnz
        assert not out.is_dense


def test_single_factor_claims():
    rng = np.random.default_rng(47)
    a = random_invertible(F5, 4, rng)
    cert, rep = decompose_kron_product([a], "0.5")
    # one column peeled per chain layer: rank 2(d-1), one entry per line
    assert cert.claimed_rank == 6
    assert cert.claimed_sparsity == 1
    assert rep["sparsity_target_met"]
    assert verify_cert(cert, a)["ok"]


def test_equal_mode_deterministic():
    rng = np.random.default_rng(53)
    facs = [random_invertible(F5, d, rng) for d in (2, 3)]
    cert_a, rep_a = decompose_kron_product(facs, "0.5")
    cert_b, rep_b = decompose_kron_product(facs, "0.5")
    assert cert_a.same_witness(cert_b)
    assert rep_a == rep_b


def test_explicit_delta():
    rng = np.random.default_rng(59)
    facs = [random_invertible(F5, d, rng) for d in (2, 2)]
    cert, rep = decompose_kron_product(facs, "0.5", delta=Fraction(1, 4))
    # offset = delta * d_max * mean = (1/4) * 2 * 1 = 1/2
    assert rep["offset"] == "1/2"
    assert rep["grid_points"] == 0
    assert verify_cert(cert, KroneckerSpec(facs).materialize())["ok"]


def test_layered_claim_shape():
    rng = np.random.default_rng(61)
    facs = [random_invertible(F5, d, rng) for d in (3, 3)]
    cert, rep = decompose_kron_product(facs, "0.5")
    n_v = rep["v_layers"]
    assert n_v == 4
    assert cert.claimed_rank == n_v * rep["layer_rank"]
    assert cert.claimed_sparsity == rep["layer_sparsity"] ** n_v
    assert rep["layers"] == 9


def test_validation_errors():
    rng = np.random.default_rng(67)
    a = random_invertible(F5, 2, rng)
    with pytest.raises(ValueError):
        decompose_kron_product([], "0.5")
    with pytest.raises(ValueError):
        decompose_kron_product([a], "0")
    with pytest.raises(ValueError):
        decompose_kron_product([a], "1.5")
    with pytest.raises(ValueError):
        decompose_kron_product([a], "0.5", mode="nope")
    with pytest.raises(ValueError):
        decompose_kron_product([ExactMatrix.identity(F5, 1)], "0.5")
    with pytest.raises(ValueError):
        decompose_kron_product([a, random_dense(F5, 2, 3, rng)], "0.5")
    with pytest.raises(SizeCapError):
        decompose_kron_product([a] * 17, "0.5")
    with pytest.raises(ValueError, match="structured entries"):
        decompose_kron_product([a, []], "0.5")
    with pytest.raises(ValueError, match="factor 2 is not an ExactMatrix"):
        decompose_kron_product([a, [a, "x"]], "0.5")
    with pytest.raises(ValueError, match="factor 1 is over Fp 7, factor 0"):
        decompose_kron_product([a, random_invertible(F7, 2, rng)], "0.5")
    with pytest.raises(ValueError, match="delta"):
        decompose_kron_product([a], "0.5", mode="hadamard", delta="1/4")


def test_structured_entries_are_flattened_outside_hadamard_mode():
    rng = np.random.default_rng(103)
    a, b, c = (random_invertible(F5, d, rng) for d in (2, 3, 2))
    for mode in ("equal", "binpack"):
        cert_n, rep_n = decompose_kron_product([a, [b, c]], "0.5", mode=mode)
        cert_f, rep_f = decompose_kron_product([a, b, c], "0.5", mode=mode)
        assert cert_n.same_witness(cert_f)
        assert rep_n == rep_f


# ----------------------------------------------------------------------
# binpack mode


def test_binpack_mode():
    rng = np.random.default_rng(71)
    facs = [random_invertible(F5, d, rng) for d in (2, 2, 2, 3)]
    cert, rep = decompose_kron_product(facs, "0.5", mode="binpack")
    assert rep["mode"] == "binpack"
    assert rep["capacity"] == 9
    assert rep["groups"] == [[0, 3], [1, 2]]
    assert rep["grouped_dims"] == [6, 4]
    assert verify_cert(cert, KroneckerSpec(facs).materialize())["ok"]


def test_binpack_mode_single_factor():
    rng = np.random.default_rng(73)
    a = random_invertible(F7, 3, rng)
    cert, rep = decompose_kron_product([a], "0.5", mode="binpack")
    assert rep["groups"] == [[0]]
    assert verify_cert(cert, a)["ok"]


# ----------------------------------------------------------------------
# bucket and family paths


def test_bucket_levels_and_reconstruction():
    rng = np.random.default_rng(79)
    entries = [random_invertible(F5, 4, rng), random_invertible(F5, 4, rng),
               random_invertible(F5, 17, rng)]
    cert, rep = bucket_pipeline(entries, "0.5")
    levels = [(b["level"], b["orders"]) for b in rep["buckets"]]
    assert levels == [(1, [4, 4]), (2, [17])]
    assert all(b["selected"] for b in rep["buckets"])
    assert verify_cert(cert, KroneckerSpec(entries).materialize())["ok"]


def test_bucket_structured_entries():
    h = ExactMatrix.from_dense(F5, [[1, 1], [1, 4]])
    entries = [[h, h, h], [h, h, h, h]]
    cert, rep = bucket_pipeline(entries, "0.3")
    assert rep["base"] == 8
    assert rep["entry_orders"] == [8, 16]
    assert len(rep["gammas"]) == 2
    assert verify_cert(cert, KroneckerSpec([h] * 7).materialize())["ok"]


def test_family_mixed_regime():
    rng = np.random.default_rng(89)
    h = ExactMatrix.from_dense(F5, [[1, 1], [1, 4]])
    s1 = random_invertible(F5, 3, rng)
    s2 = random_invertible(F5, 4, rng)
    entries = [s1, s2, [h, h, h, h]]
    cert, rep = hadamard_family_pipeline(entries, "0.5")
    assert rep["regime"] == "mixed"
    assert rep["small_entries"] == [0, 1]
    assert rep["large_entries"] == [2]
    assert rep["size_threshold"] == "6"
    target = KroneckerSpec([s1, s2, h, h, h, h]).materialize()
    assert verify_cert(cert, target)["ok"]


def test_family_bounded_regime_still_constructs():
    rng = np.random.default_rng(97)
    facs = [random_invertible(F5, 3, rng), random_invertible(F5, 4, rng)]
    cert, rep = hadamard_family_pipeline(facs, "0.25")
    assert rep["regime"] == "bounded"
    assert verify_cert(cert, KroneckerSpec(facs).materialize())["ok"]


def test_family_via_mode_dispatch():
    rng = np.random.default_rng(101)
    facs = [random_invertible(F5, 2, rng), random_invertible(F5, 3, rng)]
    cert, rep = decompose_kron_product(facs, "0.5", mode="hadamard")
    assert rep["mode"] == "hadamard"
    assert verify_cert(cert, KroneckerSpec(facs).materialize())["ok"]


# ----------------------------------------------------------------------
# prediction


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 3),
                                  (2, 2, 2, 2)])
@pytest.mark.parametrize("eps", ["0.5", "0.3", "1"])
def test_predict_and_decompose_share_one_plan(dims, eps):
    """predict is the equal-mode plan without the build: it names the same
    offset and claims as the report of the certificate decompose builds."""
    rng = np.random.default_rng(109)
    facs = [random_invertible(F5, d, rng) for d in dims]
    _, rep = decompose_kron_product(facs, eps)
    pred = predict_parameters(list(dims), eps)
    assert (pred["offset"], pred["delta"], pred["predicted_rank"],
            pred["predicted_sparsity"], pred["sparsity_target_met"]) == (
        rep["offset"], rep["delta"], rep["rank_claimed"],
        rep["sparsity_claimed"], rep["sparsity_target_met"])


def _plan_per_offset(dims, weights, eps, delta):
    """_plan with the claims counted again at every candidate offset."""
    d_max = max(dims)
    if delta == "auto":
        cands = pipeline._offset_candidates(dims, weights, eps)
    else:
        cands = [Fraction(delta) * d_max * mean_score(dims, weights)]
    scored = [(off,) + pipeline._layer_claims(dims, weights, off) for off in cands]
    n_pow = math.prod(dims) ** eps.numerator
    feasible = [e for e in scored
                if (e[2] ** (2 * (d_max - 1))) ** eps.denominator <= n_pow]
    if feasible:
        off, r_l, t_l = min(feasible, key=lambda e: (e[1], e[2], e[0]))
    else:
        off, r_l, t_l = min(scored, key=lambda e: (e[2], e[1], e[0]))
    return off, r_l, t_l, {"grid_points": len(cands) if delta == "auto" else 0,
                           "sparsity_target_met": bool(feasible)}


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (2, 3, 5), (2, 2, 2, 3, 4),
                                  (4, 4, 4), (2,) * 10])
@pytest.mark.parametrize("weights", [
    WeightScheme.uniform(),
    WeightScheme({2: Fraction(7, 4), 3: Fraction(1), 4: Fraction(1, 3),
                  5: Fraction(1, 2)})], ids=["uniform", "mixed"])
def test_plan_counts_claims_once_per_pair_of_score_bounds(dims, weights,
                                                         monkeypatch):
    """_plan counts the claims once per distinct pair of scaled score
    bounds, and chooses as counting them at every candidate offset does,
    with the search and with a fixed delta."""
    calls = []
    real = pipeline._layer_claims
    monkeypatch.setattr(pipeline, "_layer_claims",
                        lambda *a: calls.append(a[2]) or real(*a))
    for eps in (Fraction(1, 2), Fraction(3, 10), Fraction(3, 4), Fraction(1)):
        for delta in ("auto", Fraction(1, 400), Fraction(1, 3)):
            calls.clear()
            got = pipeline._plan(dims, weights, eps, delta)
            assert len(calls) <= max(1, got[3]["grid_points"])
            assert got == _plan_per_offset(dims, weights, eps, delta)
    # (candidates, distinct pairs of bounds) at eps = 1/2, uniform weights
    counts = {(3, 4): (67, 3), (2, 2, 2, 3, 4): (68, 6), (2,) * 10: (69, 5)}
    if dims in counts and weights == WeightScheme.uniform():
        calls.clear()
        info = pipeline._plan(dims, weights, Fraction(1, 2), "auto")[3]
        assert (info["grid_points"], len(calls)) == counts[dims]


def test_predict_equal_orders():
    rep = predict_parameters([8, 8, 8], "0.5")
    assert rep["exact"] and rep["power_base"] == 2
    assert rep["multiplicity_lower"] == Fraction(1)
    assert rep["multiplicity_upper"] == Fraction(1)
    assert rep["balanced_multiplicity"] == Fraction(1)
    assert rep["window_nonempty"] and rep["feasible"]


def test_predict_power_instance():
    # one order 32 plus nine orders 256: mean 17/256, ratio sum 77/8
    rep = predict_parameters([32] + [256] * 9, "0.1")
    assert rep["exact"]
    assert rep["multiplicity_lower"] == Fraction(136, 77)
    assert rep["multiplicity_upper"] == Fraction(136, 77)
    # stays within the (1/c) log2(1/c) budget at c = 1/8
    assert rep["multiplicity_lower"] <= 24


def test_predict_mixed_orders_inexact():
    rep = predict_parameters([6, 10], "0.5")
    assert not rep["exact"]
    assert rep["power_base"] is None
    assert isinstance(rep["multiplicity_lower"], float)


def test_predict_reports_empty_window():
    # heavier weight on the largest order flips the window
    w = WeightScheme({2: 1, 8: 3})
    rep = predict_parameters([2, 8], "0.5", weights=w)
    assert not rep["window_nonempty"]
    assert not rep["feasible"]


def test_predict_validation():
    with pytest.raises(ValueError):
        predict_parameters([], "0.5")
    with pytest.raises(ValueError):
        predict_parameters([1, 4], "0.5")
    with pytest.raises(ValueError):
        predict_parameters([2, 4], "0")
