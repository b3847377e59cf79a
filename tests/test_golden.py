"""Golden bytes: decompose and verify output must not change.

tests/data/golden holds the stdout of `kronrig decompose`, the
certificate it wrote and the stdout of `kronrig verify` on that
certificate, for one instance over F_5 and one over Q in hadamard
mode, and the stdout of `kronrig predict` and of `kronrig generate
--format sparse` over Q and over a prime field with object-dtype
residues.  Any change to what kronrig computes or prints shows up here.
"""

from pathlib import Path

import pytest

from kronrig import cli

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
    # one factor: over a prime this large a Kronecker product of factors
    # is written with residues that are not reduced mod p
    "generate_fp_object": ["generate", "--random", "4", "--field",
                           "Fp 2147483659", "--seed", "7", "--format", "sparse"],
}


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_golden_stdout(name, capsys):
    assert cli.main(STDOUT_CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
