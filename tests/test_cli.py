"""End-to-end command behavior: exit codes, files, determinism."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from kronrig.cli import SUBCOMMANDS, build_parser, main
from kronrig.field import QQ, PrimeField
from kronrig.fileio import read_cert, read_matrix, write_matrix
from kronrig.hadamard import walsh
from kronrig.matrix import ExactMatrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_block(stdout):
    line = stdout.splitlines()[-1]
    assert line.startswith("json: ")
    return json.loads(line[len("json: "):])


def test_decompose_verifies_and_writes(tmp_path, capsys):
    cert_path = tmp_path / "cert.txt"
    rep_path = tmp_path / "rep.txt"
    code, out, _ = run(capsys, "decompose", "--walsh", "1", "--walsh", "1",
                       "--epsilon", "0.5", "--mode", "equal",
                       "--out", str(cert_path), "--report", str(rep_path))
    assert code == 0
    payload = json_block(out)
    assert payload["ok"] and payload["reconstruction_ok"]
    assert payload["order"] == 4
    cert = read_cert(cert_path)
    assert cert.n == 4
    assert rep_path.read_text().splitlines()[-1] == out.strip().splitlines()[-1]


def test_big_prime_certificate_verifies(tmp_path, capsys):
    """Over a prime above 2**31 (residues held as Python ints) a correct
    certificate reconstructs: U·V + Z - A is reduced mod p."""
    flags = ["--random", "2,3", "--field", "Fp 2147483659", "--seed", "2"]
    cert_path = tmp_path / "cert.txt"
    code, out, _ = run(capsys, "decompose", "--mode", "equal", *flags,
                       "--epsilon", "0.5", "--out", str(cert_path))
    assert code == 0 and json_block(out)["reconstruction_ok"]
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path), *flags)
    assert code == 0 and json_block(out)["ok"]


def test_verify_against_file_and_flags(tmp_path, capsys):
    cert_path = tmp_path / "cert.txt"
    target_path = tmp_path / "target.txt"
    assert run(capsys, "decompose", "--walsh", "2", "--epsilon", "0.5",
               "--out", str(cert_path))[0] == 0
    write_matrix(target_path, walsh(QQ, 2))
    assert run(capsys, "verify", "--cert", str(cert_path),
               "--target", str(target_path))[0] == 0
    assert run(capsys, "verify", "--cert", str(cert_path),
               "--walsh", "2")[0] == 0


def test_corrupted_cert_fails_with_location(tmp_path, capsys):
    cert_path = tmp_path / "cert.txt"
    target_path = tmp_path / "target.txt"
    run(capsys, "decompose", "--walsh", "1", "--epsilon", "0.5",
        "--out", str(cert_path))
    write_matrix(target_path, walsh(QQ, 1))
    lines = cert_path.read_text().splitlines()
    at = next(i for i, s in enumerate(lines) if s.startswith("u: "))
    toks = lines[at + 1].split()  # first triplet of the u block
    lines[at + 1] = f"{toks[0]} {toks[1]} 9"
    cert_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path),
                       "--target", str(target_path))
    assert code == 2
    payload = json_block(out)
    assert not payload["ok"]
    assert payload["first_mismatch"] is not None


def test_size_mismatch_is_usage_error(tmp_path, capsys):
    cert_path = tmp_path / "cert.txt"
    target_path = tmp_path / "target.txt"
    run(capsys, "decompose", "--walsh", "1", "--epsilon", "0.5",
        "--out", str(cert_path))
    write_matrix(target_path, walsh(QQ, 2))
    code, _, err = run(capsys, "verify", "--cert", str(cert_path),
                       "--target", str(target_path))
    assert code == 1
    assert "order" in err or "shape" in err


def test_missing_epsilon_is_usage_error(capsys):
    code = main(["decompose", "--walsh", "1"])
    assert code == 1
    assert "--epsilon" in capsys.readouterr().err


def test_predict_reports(capsys):
    code, out, _ = run(capsys, "predict", "--dims", "8,8,8",
                       "--epsilon", "0.5")
    assert code == 0
    payload = json_block(out)
    assert payload["multiplicity_lower"] == "1"
    assert payload["multiplicity_upper"] == "1"
    assert payload["feasible"] is True
    assert "delta" in payload and "predicted_rank" in payload


def test_predict_infeasible_still_exits_zero(tmp_path, capsys):
    w = tmp_path / "w.txt"
    w.write_text("2 1\n8 3\n")
    code, out, _ = run(capsys, "predict", "--dims", "2,8",
                       "--epsilon", "0.5", "--weights", str(w))
    assert code == 0
    assert json_block(out)["feasible"] is False


def test_oracle_command(tmp_path, capsys):
    h2 = tmp_path / "h2.txt"
    write_matrix(h2, walsh(QQ, 1))
    code, out, _ = run(capsys, "oracle", "--file", str(h2), "--rank", "1",
                       "--rc")
    assert code == 0
    payload = json_block(out)
    assert payload["value"] == 1 and payload["measure"] == "per_line"
    code, out, _ = run(capsys, "oracle", "--file", str(h2), "--rank", "1")
    assert json_block(out)["value"] == 1

    big = tmp_path / "big.txt"
    write_matrix(big, walsh(QQ, 2))
    code, _, err = run(capsys, "oracle", "--file", str(big), "--rank", "1")
    assert code == 1 and "capped" in err


def test_generate_round_trip(tmp_path, capsys):
    out_path = tmp_path / "m.txt"
    code, _, _ = run(capsys, "generate", "--walsh", "2",
                     "--out", str(out_path))
    assert code == 0
    assert read_matrix(out_path) == walsh(QQ, 2)
    # product of several generators materializes in flag order
    code, out, _ = run(capsys, "generate", "--paley1", "3", "--walsh", "1")
    assert code == 0
    from kronrig.hadamard import paley_type_one
    assert (parse_stdout_matrix(out)
            == paley_type_one(QQ, 3).kron(walsh(QQ, 1)))


def parse_stdout_matrix(text):
    from kronrig.fileio import parse_matrix
    return parse_matrix(text)


def test_generated_factors_over_prime_field(tmp_path, capsys):
    code, out, _ = run(capsys, "decompose", "--random", "3,2", "--field",
                       "Fp 5", "--seed", "9", "--epsilon", "0.5",
                       "--mode", "binpack")
    assert code == 0
    payload = json_block(out)
    assert payload["ok"] and payload["field"] == "Fp 5"
    assert payload["order"] == 9


def test_max_order_refusal(capsys):
    code, _, err = run(capsys, "decompose", "--walsh", "6", "--epsilon",
                       "0.5", "--max-n", "32")
    assert code == 1
    assert "64" in err and "--max-n" in err


def test_mixed_fields_refused(tmp_path, capsys):
    f = tmp_path / "f5.txt"
    write_matrix(f, ExactMatrix.from_dense(PrimeField(5), [[1, 2], [3, 4]]))
    code, _, err = run(capsys, "decompose", "--factors", str(f),
                       "--walsh", "1", "--epsilon", "0.5")
    assert code == 1
    assert "field" in err


def test_unreadable_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--cert", "does-not-exist.txt",
                       "--walsh", "1")
    assert code == 1


def test_byte_identical_runs(tmp_path):
    args = [sys.executable, "-m", "kronrig.cli", "decompose",
            "--paley1", "3", "--walsh", "2", "--mode", "hadamard",
            "--epsilon", "0.4", "--out", "c.txt", "--report", "r.txt"]
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        p = subprocess.run(args, cwd=d, capture_output=True, text=True)
        assert p.returncode == 0, p.stderr
        outs.append((p.stdout, (d / "c.txt").read_bytes(),
                     (d / "r.txt").read_bytes()))
    assert outs[0] == outs[1]


RANDOM_COUNT_ERROR = ("kronrig: error: --random wants D >= 2 and COUNT >= 1, "
                      "got {!r}\n")


@pytest.mark.parametrize("command,flags,err", [
    ("decompose", ["--random", "2,0"], RANDOM_COUNT_ERROR.format("2,0")),
    ("verify", ["--random", "2,0"], RANDOM_COUNT_ERROR.format("2,0")),
    ("generate", ["--random", "2,0"], RANDOM_COUNT_ERROR.format("2,0")),
    ("generate", ["--random", "-2"], RANDOM_COUNT_ERROR.format("-2")),
    ("decompose", ["--random", "0"], RANDOM_COUNT_ERROR.format("0")),
    ("generate", ["--random", "1"], RANDOM_COUNT_ERROR.format("1")),
    ("generate", ["--random", "2,2,2"],
     "kronrig: error: --random wants D or D,COUNT, got '2,2,2'\n"),
    ("generate", ["--random", "2", "--seed", "-1"],
     "kronrig: error: --seed: expected non-negative integer\n"),
])
def test_bad_random_flags_are_usage_errors(tmp_path, command, flags, err):
    """Out-of-range --random and --seed values exit 1 with one line that
    names the flag, not with a traceback."""
    argv = [sys.executable, "-m", "kronrig.cli", command, *flags]
    if command == "decompose":
        argv += ["--epsilon", "0.5"]
    elif command == "verify":
        cert = tmp_path / "c.txt"
        assert main(["decompose", "--walsh", "2", "--epsilon", "0.5",
                     "--out", str(cert)]) == 0
        argv += ["--cert", str(cert)]
    p = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True,
                       timeout=120)
    assert (p.returncode, p.stdout, p.stderr) == (1, "", err)
    assert "Traceback" not in p.stderr


def test_delta_with_hadamard_mode_is_usage_error(tmp_path, capsys):
    """--delta fixes the offset of the equal and binpack searches; the
    hadamard mode has no single search, so a fixed delta is refused
    rather than silently ignored, and no certificate is written."""
    cert = tmp_path / "c.txt"
    code, out, err = run(capsys, "decompose", "--random", "3", "--walsh", "3",
                         "--mode", "hadamard", "--delta", "0.25",
                         "--epsilon", "0.5", "--out", str(cert))
    assert (code, out) == (1, "")
    assert err == ("kronrig: error: delta applies to the equal and binpack "
                   "modes only\n")
    assert not cert.exists()
    code, _, _ = run(capsys, "decompose", "--random", "3", "--walsh", "3",
                     "--mode", "hadamard", "--delta", "auto",
                     "--epsilon", "0.5")
    assert code == 0


def _parsed(parser, argv):
    """(exit code or None, stdout, stderr, namespace) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    args = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue(), args and vars(args)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["nosuch"], ["nosuch", "--help"], ["--bogus"],
    *[[name, "--help"] for name, _, _ in SUBCOMMANDS],
    ["decompose"], ["decompose", "--walsh", "x"], ["verify", "--cert"],
    ["predict", "--dims", "2,2"], ["oracle", "--bogus"],
    ["generate", "--format", "csv"],
    ["decompose", "--walsh", "2", "--epsilon", "0.5", "--mode", "hadamard"],
    ["verify", "--cert", "c.txt", "--random", "2,2", "--field", "Fp 5"],
    ["predict", "--dims", "8,8", "--epsilon", "0.5"],
    ["oracle", "--file", "m.txt", "--rank", "1", "--rc"],
    ["generate", "--walsh", "2", "--format", "sparse"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_parser_for_argv_matches_the_full_parser(argv):
    """The parser that adds only the named subcommand's arguments prints
    the same help and usage errors, byte for byte, and parses the same
    arguments as the one that adds every subcommand's."""
    assert _parsed(build_parser(argv), argv) == _parsed(build_parser(), argv)


def test_parser_adds_only_the_named_subcommand():
    def arguments(parser):
        (sub,) = [a for a in parser._actions if a.dest == "subcommand"]
        return {name: len(p._actions) for name, p in sub.choices.items()}
    full = arguments(build_parser())
    assert min(full.values()) > 1
    for argv in ([], ["--help"], ["nosuch", "--cert", "c.txt"]):
        assert arguments(build_parser(argv)) == full
    for name, _, _ in SUBCOMMANDS:
        assert arguments(build_parser([name, "--help"])) == {
            other: full[other] if other == name else 1 for other in full}
