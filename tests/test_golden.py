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
"""

import hashlib
from pathlib import Path

import pytest

from kronrig import cli
from kronrig.field import PrimeField
from kronrig.fileio import parse_matrix, render_matrix

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
