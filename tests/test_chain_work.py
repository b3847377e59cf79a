"""Work the layered construction does once per distinct factor and once
per chain, counted with spies on the names perfbench/tracing.py wraps.

Equal factors share one chain: `v_factorization`, its padding, the slot
matrices and the suffix products run once per distinct factor, where
factors are the same if one is or equals the other.  Every V-layer of a
chain has the same orders, weights and offset, so `threshold_masks` and
`neighborhood_counts` count its scores once, and each split takes the
chain's own slot matrices as its pieces.

The checks that guard a certificate are explicit raises, so they hold
under `python -O` too.
"""

import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest

from kronrig import cert as cert_module
from kronrig import pipeline
from kronrig.cert import split_g_kron, verify_cert
from kronrig.field import QQ, PrimeField
from kronrig.fileio import render_cert
from kronrig.hadamard import paley_type_one, walsh_factors
from kronrig.matrix import ExactMatrix, KroneckerSpec, _distinct, random_invertible
from kronrig.scores import WeightScheme, neighborhood_counts, threshold_masks

from conftest import g_pieces

F5 = PrimeField(5)
F7 = PrimeField(7)


def _spy(monkeypatch, calls, module, name, inside=None):
    """Count the calls of `module.name` through every kronrig binding of
    it, as perfbench's tracer wraps it; `inside`, a list, is non-empty
    while such a call runs."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        if inside is not None:
            inside.append(name)
        try:
            return real(*args, **kwargs)
        finally:
            if inside is not None:
                inside.pop()
    for mod in [m for key, m in list(sys.modules.items())
                if key == "kronrig" or key.startswith("kronrig.")]:
        for key in [k for k, v in vars(mod).items() if v is real]:
            monkeypatch.setattr(mod, key, spy)


@pytest.fixture
def counts(monkeypatch):
    """Calls per traced name during the test, and the v_matrix calls made
    inside a split."""
    from kronrig import scores, vfactor

    calls, inside = {}, []
    _spy(monkeypatch, calls, cert_module, "split_g_kron", inside)
    _spy(monkeypatch, calls, vfactor, "v_factorization")
    _spy(monkeypatch, calls, scores, "threshold_masks")
    _spy(monkeypatch, calls, scores, "neighborhood_counts")
    _spy(monkeypatch, calls, pipeline, "_layered_certificate")
    real_v = vfactor.v_matrix

    def v_matrix(field, vec):
        calls["v_matrix"] = calls.get("v_matrix", 0) + 1
        if inside:
            calls["v_matrix_in_split"] = calls.get("v_matrix_in_split", 0) + 1
        return real_v(field, vec)
    monkeypatch.setattr(vfactor, "v_matrix", v_matrix)
    return calls


def _fp_walsh_shape():
    """--walsh 8 and two random 2x2 factors over F5 (n = 1024)."""
    rng = np.random.default_rng(3)
    return [walsh_factors(F5, 8), [random_invertible(F5, 2, rng)],
            [random_invertible(F5, 2, rng)]], "equal"


def _q_family_shape():
    """Random 3x3 and 4x4 factors and --walsh 3 over Q, hadamard mode."""
    rng = np.random.default_rng(5)
    return [random_invertible(QQ, 3, rng), random_invertible(QQ, 4, rng),
            walsh_factors(QQ, 3)], "hadamard"


@pytest.mark.parametrize("shape, factorizations, chains, splits", [
    # 3 distinct factors of order 2: one chain, 2 V-layers
    (_fp_walsh_shape, 3, 1, 2),
    # the 12x12 bin of the random factors (22 V-layers) and the Walsh
    # block's three equal factors (2 V-layers)
    (_q_family_shape, 2, 2, 24),
], ids=["fp_walsh", "q_family"])
def test_work_per_distinct_factor_and_per_chain(shape, factorizations, chains,
                                                splits, counts):
    entries, mode = shape()
    cert, report = pipeline.decompose_kron_product(entries, "0.5", mode=mode)
    assert counts["v_factorization"] == factorizations
    assert counts["_layered_certificate"] == chains
    assert counts["threshold_masks"] == chains
    assert counts["split_g_kron"] == splits
    # the chain's slot matrices feed its splits
    assert "v_matrix_in_split" not in counts
    # each plan counts the claims of its candidate offsets; each chain once more
    plan_counts = counts["neighborhood_counts"] - chains
    assert 0 < plan_counts
    assert report["rank_claimed"] == cert.claimed_rank


def test_equal_factors_in_different_objects_share_one_chain(counts):
    """A matrix and an equal copy in other storage, and two equal Paley
    matrices built apart, are one distinct factor each."""
    dense = ExactMatrix.from_dense(F5, [[2, 1], [0, 3]])
    sparse = ExactMatrix.from_coo(F5, 2, 2, [0, 0, 1], [0, 1, 1], [2, 1, 3])
    assert dense.is_dense and not sparse.is_dense and dense is not sparse
    facs = [dense, sparse] + walsh_factors(F5, 2)
    cert, _ = pipeline.decompose_kron_product(facs, "0.5")
    assert counts["v_factorization"] == 2
    assert verify_cert(cert, KroneckerSpec(facs))["ok"]
    counts.clear()
    paley = [paley_type_one(F7, 3), paley_type_one(F7, 3)]
    assert paley[0] is not paley[1]
    cert, _ = pipeline.decompose_kron_product(paley, "0.5")
    assert counts["v_factorization"] == 1
    assert verify_cert(cert, KroneckerSpec(paley))["ok"]


@pytest.mark.parametrize("field", [F5, F7, QQ], ids=lambda f: f.header)
def test_split_with_given_scores_is_the_split_that_counts_them(field):
    """Given the scores of its orders, weights and offset, the split
    renders the same bytes and meta as the split that counts them itself,
    and its fills are the scores'."""
    rng = np.random.default_rng(17)
    weights = WeightScheme({2: Fraction(1, 2), 3: 2})
    for dims in ((2, 2), (3, 2), (2, 3, 2)):
        vectors = [tuple(field.rand(rng) for _ in range(d)) for d in dims]
        for offset in (0, Fraction(1, 2), 1, 2):
            for w in (None, weights):
                scores = (threshold_masks(dims, w or WeightScheme.uniform(), offset),
                          neighborhood_counts(dims, w or WeightScheme.uniform(), offset))
                for transpose in (False, True):
                    pieces = g_pieces(field, vectors, transpose)
                    given = split_g_kron(pieces, offset, w, transpose=transpose,
                                         check=True, scores=scores)
                    want = split_g_kron(pieces, offset, w, transpose=transpose)
                    assert render_cert(given, as_bytes=True) == render_cert(want, as_bytes=True)
                    assert given.meta == want.meta
                    assert (given.meta["fill_col"], given.meta["fill_row"]) == scores[1]


def test_distinct():
    a = ExactMatrix.from_dense(F5, [[1, 2], [3, 4]])
    a_sparse = ExactMatrix.from_coo(F5, 2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1, 2, 3, 4])
    b = ExactMatrix.from_dense(F5, [[1, 2], [3, 0]])
    c = ExactMatrix.identity(F5, 3)
    distinct, which = _distinct([a, b, a_sparse, a, c, b])
    assert len(distinct) == 3
    assert distinct[0] is a and distinct[1] is b and distinct[2] is c
    assert which == [0, 1, 0, 0, 2, 1]
    assert _distinct([]) == ([], [])
    # the same entries over another field are another factor
    assert _distinct([a, ExactMatrix.from_dense(F7, [[1, 2], [3, 4]])])[1] == [0, 1]


# ----------------------------------------------------------------------
# the checks hold under python -O

_WRONG_PLAN = textwrap.dedent("""
    import sys
    from kronrig import pipeline
    from kronrig.field import PrimeField
    from kronrig.hadamard import walsh_factors

    assert sys.flags.optimize == 1
    real = pipeline._plan

    def wrong_fill(*args):
        off, r_l, t_l, info = real(*args)
        return off, r_l, t_l + 1, info

    pipeline._plan = wrong_fill
    try:
        pipeline.decompose_kron_product(walsh_factors(PrimeField(5), 4), "0.5")
    except AssertionError as e:
        print("raised:", e)
    else:
        print("accepted a wrong fill")
""")


def test_a_chain_that_misses_its_factor_raises(monkeypatch):
    """A factor whose chain multiplies to another matrix is refused."""
    real = pipeline.v_factorization
    other = ExactMatrix.from_dense(F5, [[1, 1], [0, 1]])
    monkeypatch.setattr(pipeline, "v_factorization", lambda a: real(other))
    with pytest.raises(AssertionError, match="chain does not multiply"):
        pipeline.decompose_kron_product(walsh_factors(F5, 2), "0.5")


def test_a_wrong_layer_claim_raises_under_python_O():
    """With the plan's fill off by one, a decompose run with assert
    statements stripped still refuses the certificate."""
    run = subprocess.run([sys.executable, "-O", "-c", _WRONG_PLAN],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "raised: a V-layer's claims differ from the plan's\n"


def test_guard_checks_are_raises_not_asserts():
    """No assert statement is left in the functions whose checks guard a
    certificate or a claim: the layered construction, the split and the
    oracle's witness."""
    import ast
    import inspect
    from kronrig import oracle

    for fn in (pipeline._layered_certificate, split_g_kron, oracle._finish):
        tree = ast.parse(inspect.getsource(fn))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), fn
