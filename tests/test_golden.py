"""Golden bytes: decompose and verify output must not change.

tests/data/golden holds the stdout of `kronrig decompose`, the
certificate it wrote and the stdout of `kronrig verify` on that
certificate, for one instance over F_5 and one over Q in hadamard
mode, and the stdout of `kronrig predict` and of `kronrig generate
--format sparse` over Q and over a prime field with object-dtype
residues.  An n=1024 decompose, large enough to run the layer checks
and both V-layer targets, is pinned by the sha256 of its stdout and
certificate.  Any change to what kronrig computes or prints shows up
here.

Two Q cases cover rationals far beyond int64: factor files whose
entries have 20-digit numerators and denominators (golden bytes at
n=12, sha256 pins at n=48), and an n=256 equal-mode run with layer
checks on, pinned by sha256.

A 2x2 zero factor times a 2^3 Walsh block gives a chain whose diagonal
layer is all zero: golden bytes for that decompose, its certificate and
its verify.

Equal factors held in different objects (a matrix read from a dense
and from a sparse file; two Paley matrices built apart) are pinned by
their decompose and verify stdout and their certificate's sha256.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from kronrig import cli
from kronrig.field import QQ, PrimeField
from kronrig.fileio import parse_matrix, render_cert, render_matrix
from kronrig.hadamard import walsh_factors
from kronrig.matrix import random_invertible
from kronrig.pipeline import decompose_kron_product

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "fp": ["--walsh", "4", "--random", "2,2", "--field", "Fp 5", "--seed", "7"],
    "q": ["--random", "3", "--random", "4", "--walsh", "3", "--field", "Q",
          "--seed", "5"],
}
MODES = {"fp": "equal", "q": "hadamard"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_decompose_and_verify(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cert = f"{name}.cert"
    factors = CASES[name]
    assert cli.main(["decompose", "--mode", MODES[name], *factors,
                     "--epsilon", "0.5", "--out", cert]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}_decompose.out").read_text()
    assert (tmp_path / cert).read_bytes() == (GOLDEN / cert).read_bytes()
    assert cli.main(["verify", "--cert", cert, *factors]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}_verify.out").read_text()


def test_library_hadamard_mode_reproduces_the_cli_certificate():
    """The library entry point on the entries the CLI builds for the
    golden q instance (two seeded random factors, then the 2^3 Walsh
    block as one structured entry) writes the golden certificate."""
    rng = np.random.default_rng(5)
    entries = [random_invertible(QQ, 3, rng), random_invertible(QQ, 4, rng),
               walsh_factors(QQ, 3)]
    cert, rep = decompose_kron_product(entries, "0.5", mode="hadamard")
    assert rep["rank_claimed"] == 368
    assert render_cert(cert) == (GOLDEN / "q.cert").read_text()


STDOUT_CASES = {
    "predict": ["predict", "--dims", "2,2,2,3,3", "--epsilon", "0.5"],
    "generate_q": ["generate", "--random", "2", "--walsh", "2", "--field", "Q",
                   "--seed", "5", "--format", "sparse"],
    "generate_fp_object": ["generate", "--random", "4", "--field",
                           "Fp 2147483659", "--seed", "7", "--format", "sparse"],
}


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_golden_stdout(name, capsys):
    assert cli.main(STDOUT_CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def test_report_file_equals_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["decompose", "--mode", "equal", *CASES["fp"],
                     "--epsilon", "0.5", "--report", "fp.report"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "fp_decompose.out").read_text()
    assert (tmp_path / "fp.report").read_bytes() == out.encode()


# n=1024 over F_5: layer checks on, and two V-layer composition targets
LARGE = ["--walsh", "8", "--random", "2,2", "--field", "Fp 5", "--seed", "3"]
LARGE_SHA256 = {
    "stdout": "2f639a843f106983cbfd7a0e1db1fe6dcfd1e8fb40547a35867354be885669cb",
    "cert": "21602d60cf0177fc3619e3b6e3f6750d755a393621acde519bffa7176f94d394",
}


def test_large_decompose_sha256(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["decompose", "--mode", "equal", *LARGE, "--epsilon", "0.5",
                     "--out", "large.cert"]) == 0
    out = capsys.readouterr().out
    assert "layer_checks: True" in out
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_SHA256["stdout"]
    cert = (tmp_path / "large.cert").read_bytes()
    assert hashlib.sha256(cert).hexdigest() == LARGE_SHA256["cert"]
    assert cli.main(["verify", "--cert", "large.cert", *LARGE]) == 0
    assert "ok: True" in capsys.readouterr().out


def test_generate_kron_over_large_prime_is_reduced(capsys):
    f = PrimeField(2147483659)
    assert cli.main(["generate", "--random", "2", "--walsh", "2", "--field",
                     f.header, "--format", "sparse"]) == 0
    text = capsys.readouterr().out
    vals = [int(line.split()[2]) for line in text.splitlines()[4:]]
    assert len(vals) == 64
    assert all(0 < v < f.p for v in vals)
    assert render_matrix(parse_matrix(text), "sparse") == text


# Q factors with 20-digit numerators and denominators
BIGQ = ["--factors", ",".join(str(GOLDEN / f"bigq_{x}.mat") for x in "ab")]


def test_golden_big_rational_decompose_and_verify(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["decompose", "--mode", "equal", *BIGQ, "--epsilon", "0.5",
                     "--out", "bigq.cert"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "bigq_decompose.out").read_text()
    assert (tmp_path / "bigq.cert").read_bytes() == (GOLDEN / "bigq.cert").read_bytes()
    assert cli.main(["verify", "--cert", "bigq.cert", *BIGQ]) == 0
    assert capsys.readouterr().out == (GOLDEN / "bigq_verify.out").read_text()


def _sha(data):
    return hashlib.sha256(data).hexdigest()


SHA256_PINS = {
    # n=48: the big-rational factors times a 4x4 Walsh block
    "bigq48": ([*BIGQ, "--walsh", "2"], {
        "stdout": "4129ad54b36fadeb0eaa22d46cf2de18c0168e67c7dc4e767608a63213272e42",
        "cert": "3f1d0287e802d6ffe0fe6a1fdf2bcbc4dc4e049224f8605b77c0741f3bdb5841",
        "verify": "a1a03b22b4da4e29e306f3d9abe027ed45f2d8d7d474aa7ed8f76ebacac22bde",
    }),
    # n=256 over Q: layer checks on
    "q256": (["--walsh", "6", "--random", "2,2", "--field", "Q", "--seed", "3"], {
        "stdout": "11639064169b79f8efc75bddd8aeb1ae105418484624fa00fb3cf73de6cfb5d9",
        "cert": "5567206aa6e18061a6586104137314f23d56d2f9d7f4e985089a384e205a9889",
        "verify": "b3a5ec9fde14e6faed5fdfc129d1cf144dc7665beae94adc7d547dda29daf7b2",
    }),
}


@pytest.mark.parametrize("name", sorted(SHA256_PINS))
def test_q_equal_mode_sha256(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    factors, want = SHA256_PINS[name]
    cert = f"{name}.cert"
    assert cli.main(["decompose", "--mode", "equal", *factors, "--epsilon", "0.5",
                     "--out", cert]) == 0
    out = capsys.readouterr().out
    assert "layer_checks: True" in out
    assert _sha(out.encode()) == want["stdout"]
    assert _sha((tmp_path / cert).read_bytes()) == want["cert"]
    assert cli.main(["verify", "--cert", cert, *factors]) == 0
    assert _sha(capsys.readouterr().out.encode()) == want["verify"]


# the zero factor's diagonal layer has no nonzero, and its monomial
# certificate still claims fill 1, which the plan's layer_sparsity**v_layers
# claim takes
ZERO = ["--factors", str(GOLDEN / "zero2.mat"), "--walsh", "3", "--field", "Fp 5"]
ZERO_CERT_SHA256 = "e1cae4ec572beaef313ae55a508dcded04b1b2d209abedb771527115ea9c847f"


def test_golden_zero_factor(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["decompose", *ZERO, "--epsilon", "0.5", "--out", "zero.cert"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "zero_decompose.out").read_text()
    cert = (tmp_path / "zero.cert").read_bytes()
    assert cert == (GOLDEN / "zero.cert").read_bytes()
    assert _sha(cert) == ZERO_CERT_SHA256
    assert cli.main(["verify", "--cert", "zero.cert", *ZERO]) == 0
    assert capsys.readouterr().out == (GOLDEN / "zero_verify.out").read_text()


# Equal factors held in different objects, written before the layered
# construction shared one chain among them: one 2x2 matrix read from a
# dense file and from a sparse file, and two Paley matrices built apart.
TWINS = {
    "eqfiles": (["--factors", str(GOLDEN / "eq2.mat"), "--factors",
                 str(GOLDEN / "eq2s.mat"), "--walsh", "2", "--field", "Fp 5"],
                "b01b2aca0076d0d77612a3a5b46c0261cd703563c2f01c46fcebbc0ee5d5a6cb"),
    "eqpaley": (["--paley1", "3", "--paley1", "3", "--field", "Fp 7"],
                "537a59bb84a79c52725d1c8fd0b6b69e6b24d030eb52b215f7d48690691fed38"),
}


@pytest.mark.parametrize("name", sorted(TWINS))
def test_golden_equal_factors_in_different_objects(name, tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    factors, cert_sha = TWINS[name]
    cert = f"{name}.cert"
    assert cli.main(["decompose", *factors, "--epsilon", "0.5", "--out", cert]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}_decompose.out").read_text()
    assert _sha((tmp_path / cert).read_bytes()) == cert_sha
    assert cli.main(["verify", "--cert", cert, *factors]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}_verify.out").read_text()
