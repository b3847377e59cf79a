"""Text formats: exact round trips and line-numbered rejection."""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kronrig.cert import Certificate, verify_cert
from kronrig import fileio
from kronrig.field import QQ, PrimeField, field_from_header
from kronrig.hadamard import walsh_factors
from kronrig.fileio import (
    FileFormatError,
    parse_cert,
    parse_matrix,
    render_cert,
    render_matrix,
    render_report,
    write_cert,
    write_matrix,
)
from kronrig.matrix import ExactMatrix, KroneckerSpec, random_dense, random_invertible
from kronrig.pipeline import decompose_kron_product

F5 = PrimeField(5)


def test_dense_golden_bytes():
    m = ExactMatrix.from_dense(F5, [[1, 2], [0, 4]])
    assert render_matrix(m) == (
        "field: Fp 5\nrows: 2\ncols: 2\nformat: dense\n1 2\n0 4\n")


def test_sparse_golden_bytes():
    m = ExactMatrix.from_triplets(QQ, 2, 3, [(0, 1, Fraction(-3, 4)),
                                             (1, 2, Fraction(2))])
    assert render_matrix(m, "sparse") == (
        "field: Q\nrows: 2\ncols: 3\nformat: sparse\n0 1 -3/4\n1 2 2\n")


def test_matrix_round_trips():
    rng = np.random.default_rng(7)
    for field in (F5, QQ):
        for shape in ((1, 1), (3, 3), (2, 5)):
            m = random_dense(field, *shape, rng)
            for fmt in ("dense", "sparse"):
                back = parse_matrix(render_matrix(m, fmt))
                assert back == m
                # and re-rendering is byte-stable
                assert render_matrix(back, fmt) == render_matrix(m, fmt)


def test_degenerate_shapes_round_trip():
    for shape in ((0, 3), (3, 0), (0, 0)):
        m = ExactMatrix.zeros(F5, *shape)
        for fmt in ("dense", "sparse"):
            assert parse_matrix(render_matrix(m, fmt)) == m


# ----------------------------------------------------------------------
# the writer against a reference formatter

F2, FBIG = PrimeField(2), PrimeField(2147483659)  # FBIG: object residues
F61 = PrimeField(2**61 - 1)  # residues past 2**32
_MAX = 2**63 - 1


def _ref_triplets(m):
    """Triplet lines as '%s %s %s' over each row, column and str() of the
    field value (str(Fraction) over Q)."""
    ri, ci, vals = m.triplets()
    return "".join("%s %s %s\n" % t
                   for t in zip(ri.tolist(), ci.tolist(), vals.tolist()))


def _ref_matrix(m, fmt):
    head = (f"field: {m.field.header}\nrows: {m.rows}\ncols: {m.cols}\n"
            f"format: {fmt}\n")
    if fmt == "sparse":
        return head + _ref_triplets(m)
    if m.cols == 0:
        return head
    return head + "".join(" ".join(map(str, row)) + "\n"
                          for row in m.to_dense().tolist())


def _ref_support(name, idx):
    if idx is None:
        return f"{name}: -\n"
    return f"{name}:" + "".join(f" {int(i)}" for i in idx) + "\n"


def _ref_cert(c):
    return (f"kind: certificate\nfield: {c.field.header}\norder: {c.n}\n"
            f"inner: {c.inner_dim}\nclaimed_rank: {c.claimed_rank}\n"
            f"claimed_sparsity: {c.claimed_sparsity}\n"
            + _ref_support("support_rows", c.support_rows)
            + _ref_support("support_cols", c.support_cols)
            + "".join(f"{name}: {m.nnz}\n" + _ref_triplets(m)
                      for name, m in (("u", c.u), ("v", c.v), ("z", c.z))))


def _q(rows):
    return ExactMatrix.from_dense(QQ, [[Fraction(v) for v in r] for r in rows])


_Q_CASES = {
    "den 1": _q([[1, -2, 0], [0, 3, 40]]),
    "reduce to integers": _q([[Fraction(1, 2), 3], [Fraction(-4, 6), Fraction(6, 3)]]),
    "negative": _q([[Fraction(-7, 3), -1], [0, Fraction(-10, 9)]]),
    "past int64": _q([[Fraction(10**20 + 1, 3), -(10**25)], [Fraction(1, 7), 0]]),
    "int64 extremes": _q([[_MAX, -_MAX], [0, 1]]),
    "int64 extremes over a den": _q([[Fraction(_MAX, 2), Fraction(-_MAX, 3)], [1, 0]]),
    "den past int64": _q([[Fraction(1, 2**64), Fraction(-3, 2**63 + 1)], [2, 0]]),
}


def _writer_matrices():
    rng = np.random.default_rng(5)
    mats = dict(_Q_CASES)

    def field_cases(f):
        h = f.header
        mats[f"{h} random"] = random_dense(f, 4, 6, rng)
        mats[f"{h} sparse"] = ExactMatrix.from_triplets(
            f, 5, 12, [(0, 11, 1), (3, 0, 1), (4, 10, 1)])
        mats[f"{h} one triplet"] = ExactMatrix.from_triplets(f, 3, 3, [(2, 1, 1)])
        mats[f"{h} zero"] = ExactMatrix.zeros(f, 2, 2)
        for shape in ((0, 3), (3, 0), (0, 0)):
            mats[f"{h} {shape}"] = ExactMatrix.zeros(f, *shape)
    for f in (F2, F5, FBIG, QQ):
        field_cases(f)
    mats["Fp 2147483659 top residues"] = ExactMatrix.from_dense(
        FBIG, [[FBIG.p - 1, 1], [0, FBIG.p - 2]])
    field_cases(F61)
    for f in (FBIG, F61):
        mats[f"{f.header} residues about 2**32"] = ExactMatrix.from_dense(
            f, [[f.p - 1, 2**32 - 1], [2**32, f.p - 2]])
    mats["Q signs, n/d and n, past int64"] = _q(
        [[Fraction(-9, 10), 10, Fraction(-99999, 100000)],
         [-(10**19), Fraction(7, 10**20 + 3), -1]])
    return mats


@pytest.mark.parametrize("name,m", list(_writer_matrices().items()))
def test_render_matrix_matches_reference(name, m, tmp_path):
    for fmt in ("dense", "sparse"):
        text = render_matrix(m, fmt)
        assert text == _ref_matrix(m, fmt)
        assert parse_matrix(text) == m
        assert render_matrix(m, fmt, as_bytes=True) == text.encode()
        write_matrix(tmp_path / fmt, m, fmt)
        assert (tmp_path / fmt).read_bytes() == text.encode()


def _writer_certs(field):
    rng = np.random.default_rng(9)
    n = 3
    z1 = ExactMatrix.from_triplets(field, n, n, [(1, 2, 1)])
    zero = ExactMatrix.zeros(field, n, n)
    certs = [
        Certificate(field, n, random_dense(field, n, 2, rng),
                    random_dense(field, 2, n, rng), z1, 2, 1),
        Certificate(field, n, ExactMatrix.zeros(field, n, 0),
                    ExactMatrix.zeros(field, 0, n), zero, 0, 0,
                    support_rows=np.array([0, 2]),
                    support_cols=np.array([], dtype=np.int64)),
        Certificate(field, n, ExactMatrix.from_triplets(field, n, 1, [(0, 0, 1)]),
                    ExactMatrix.zeros(field, 1, n), random_dense(field, n, n, rng),
                    1, 3),
    ]
    if field == QQ:
        a, b = _Q_CASES["past int64"], _Q_CASES["den past int64"]
        c, d = _Q_CASES["int64 extremes"], _Q_CASES["int64 extremes over a den"]
        certs.append(Certificate(QQ, 2, a, b, c, 2, 2))
        certs.append(Certificate(QQ, 2, d, c.T, a + b, 2, 2))
    return certs


@pytest.mark.parametrize("header", ["Fp 2", "Fp 5", "Fp 2147483659",
                                    "Fp 2305843009213693951", "Q"])
def test_render_cert_matches_reference(header, tmp_path):
    field = field_from_header(header)
    for cert in _writer_certs(field) + [_cert(header)]:
        text = render_cert(cert)
        assert text == _ref_cert(cert)
        assert render_cert(cert, as_bytes=True) == text.encode()
        write_cert(tmp_path / "c", cert)
        assert (tmp_path / "c").read_bytes() == text.encode()
        back = parse_cert(text)
        assert back.same_witness(cert)
        assert _same_support(back.support_rows, cert.support_rows)
        assert _same_support(back.support_cols, cert.support_cols)


def _spy_cells(monkeypatch):
    """(w, ndim) of every _decimal call: the digits of its widest number,
    and 1 where it wrote the table's words, 2 where the division loop's
    or str()'s bytes."""
    seen = []
    real = fileio._decimal

    def spy(x):
        neg, w, cells = real(x)
        seen.append((w, cells.ndim))
        return neg, w, cells
    monkeypatch.setattr(fileio, "_decimal", spy)
    return seen


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_digit_words_hold_every_number_zero_padded(w):
    """Every number below 10**w in its word of the table."""
    words = fileio._digit_words(w)
    assert words.itemsize == {1: 1, 2: 2, 3: 4, 4: 4}[w]
    assert not words.flags.writeable
    assert words.view(np.uint8).tobytes() == b"".join(
        str(x).rjust(words.itemsize, "\0").encode() for x in range(10**w))


_WIDTH_EDGES = (0, 9, 10, 99, 100, 9999, 10000, 99999, 100000)


@pytest.mark.parametrize("top", _WIDTH_EDGES)
def test_writer_width_edges(top, monkeypatch):
    """Columns whose widest number is `top`, mixed with every narrower
    edge: indices, signed Q values with and without a denominator, and
    residues of F_100003, sparse and dense.  Equal to the reference
    formatter; numbers below 10**4 come from the table, 10000 and up
    from the division loop."""
    edges = [e for e in _WIDTH_EDGES if e <= top]
    n = top + 1
    fp = PrimeField(100003)
    q_vals = [Fraction(-e if k % 2 else e, 1 + e % 7 if k % 3 else 1)
              for k, e in enumerate(edges)]
    mats = [
        ExactMatrix.from_triplets(fp, n, n, [(e, top - e, e or 1) for e in edges]),
        ExactMatrix.from_triplets(QQ, n, n, [(top - e, e, v or 1)
                                             for e, v in zip(edges, q_vals)]),
        ExactMatrix.from_dense(fp, [edges, edges[::-1]]),
        ExactMatrix.from_dense(QQ, [q_vals, [-v for v in q_vals]]),
    ]
    seen = _spy_cells(monkeypatch)
    for m in mats:
        for fmt in ("dense", "sparse") if m.rows * m.cols < 10**6 else ("sparse",):
            assert render_matrix(m, fmt) == _ref_matrix(m, fmt)
    w = len(str(top))
    assert seen and all(ndim == (2 if w > 4 else 1) for w, ndim in seen)
    assert (w, 2 if w > 4 else 1) in seen


def test_writer_fp_walsh_certificate_takes_only_the_table(monkeypatch):
    """The certificate of `decompose --walsh 8 --random 2,2 --field "Fp 5"`
    (every index below 10**4, every residue below 5) never enters the
    division loop."""
    facs = walsh_factors(PrimeField(5), 8) + [
        random_invertible(F5, 2, np.random.default_rng(s)) for s in (1, 2)]
    cert = decompose_kron_product(facs, "0.5")[0]
    seen = _spy_cells(monkeypatch)
    assert render_cert(cert) == _ref_cert(cert)
    assert len(seen) == 9 and {ndim for _, ndim in seen} == {1}


def test_comments_and_blanks_ignored():
    text = ("# produced by hand\n\nfield: Fp 5\nrows: 1\n# shape note\n"
            "cols: 2\nformat: dense\n3 4\n\n")
    m = parse_matrix(text)
    assert m == ExactMatrix.from_dense(F5, [[3, 4]])


_SPARSE_F5 = "field: Fp 5\nrows: 2\ncols: 2\nformat: sparse\n0 0 1\n1 1 1\n"


@pytest.mark.parametrize("text,fragment", [
    ("rows: 2\n", "expected 'field:'"),
    ("field: Fp 4\nrows: 1\ncols: 1\nformat: dense\n0\n", "prime"),
    ("field: Q\nrows: x\ncols: 1\nformat: dense\n0\n", "integer"),
    ("field: Q\nrows: 1\ncols: 2\nformat: dense\n1\n", "expected 2 entries"),
    ("field: Q\nrows: 1\ncols: 1\nformat: dense\n1\n2\n", "trailing"),
    ("field: Q\nrows: 1\ncols: 1\nformat: banded\n", "dense or sparse"),
    ("field: Q\nrows: 2\ncols: 2\nformat: sparse\n5 0 1\n", "outside"),
    ("field: Q\nrows: 2\ncols: 2\nformat: sparse\n0 0\n", "i j value"),
    ("field: Fp 5\nrows: 1\ncols: 1\nformat: dense\nq\n", "literal"),
    # whole messages, with the line numbers the line-by-line parser gives;
    # after canonical lines, so the bulk decoder sees each case first
    (_SPARSE_F5 + "0 0\n1 1 1 1\n", "line 7: expected 'i j value', got '0 0'"),
    (_SPARSE_F5 + "1000000000000000000 0 1\n",
     "line 7: index (1000000000000000000, 0) outside 2x2"),
    (_SPARSE_F5 + "0 -1 1\n", "line 7: index (0, -1) outside 2x2"),
    (_SPARSE_F5 + "0 2 1\n", "line 7: index (0, 2) outside 2x2"),
    (_SPARSE_F5 + "0 1 x\n", "line 7: bad F_5 literal 'x'"),
    (_SPARSE_F5 + "a 1 1\n", "line 7: bad indices in 'a 1 1'"),
    (_SPARSE_F5 + "1 0 1\n# end\n0 0 1 1\n",
     "line 9: expected 'i j value', got '0 0 1 1'"),
    ("field: Q\nrows: 2\ncols: 2\nformat: sparse\n0 0 1\n1 1 1/0\n",
     "line 6: bad rational literal '1/0'"),
    ("field: Q\nrows: 2\ncols: 1\nformat: dense\n1\n",
     "unexpected end of file, expected a row of 1 entries"),
    # lines end where str.splitlines ends them, not only at '\n'
    ("field: Q\rrows: 2\x0ccols: 2\x1dformat: sparse\r\n0 0 1\x1c5 0 1\n",
     "line 6: index (5, 0) outside 2x2"),
    ("field: Q\nrows: 2\u2028cols: 2\nformat: sparse\n\u00e9\n",
     "line 5: expected 'i j value', got '\u00e9'"),
])
def test_matrix_rejections(text, fragment):
    with pytest.raises(FileFormatError) as e:
        parse_matrix(text)
    assert fragment in str(e.value)


def _same_support(a, b):
    if a is None or b is None:
        return a is None and b is None
    return list(map(int, a)) == list(map(int, b))


def test_cert_round_trip():
    rng = np.random.default_rng(11)
    facs = [random_invertible(F5, d, rng) for d in (2, 3)]
    cert, _ = decompose_kron_product(facs, "0.5")
    back = parse_cert(render_cert(cert))
    assert back.same_witness(cert)
    assert _same_support(back.support_rows, cert.support_rows)
    assert _same_support(back.support_cols, cert.support_cols)
    assert render_cert(back) == render_cert(cert)
    assert verify_cert(back, KroneckerSpec(facs).materialize())["ok"]


def test_cert_with_supports_round_trip():
    from fractions import Fraction as Fr

    from conftest import g_pieces
    from kronrig.cert import split_g_kron

    cert = split_g_kron(g_pieces(F5, [(2, 3), (4, 1)]), offset=Fr(1))
    assert cert.support_rows is not None
    back = parse_cert(render_cert(cert))
    assert back.same_witness(cert)
    assert _same_support(back.support_rows, cert.support_rows)
    assert _same_support(back.support_cols, cert.support_cols)


def test_cert_without_supports():
    c = ExactMatrix.from_dense(QQ, [[1, 2], [3, 4]])
    cert = decompose_kron_product([c], "0.9")[0]
    text = render_cert(cert)
    if cert.support_rows is None:
        assert "support_rows: -" in text
    back = parse_cert(text)
    assert back.same_witness(cert)


def _set_line(no, new):
    """Replace line `no` (1-based) of a text."""
    def mangle(text):
        lines = text.splitlines()
        lines[no - 1] = new
        return "\n".join(lines) + "\n"
    return mangle


@pytest.mark.parametrize("mangle,fragment", [
    (lambda t: t.replace("kind: certificate", "kind: matrix"),
     "expected kind"),
    (lambda t: t.replace("claimed_rank", "rank"), "claimed_rank"),
    (lambda t: t + "0 0 1\n", "trailing"),
    (lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "unexpected end"),
    # whole messages; the certificate has 'u: 3' on line 9, its triplets
    # on lines 10-12, 'v: 4' on line 13, its triplets on lines 14-17 and
    # 'z: 0' on line 18.  First a 2-token and a 4-token line: six tokens,
    # as in two good lines.
    (lambda t: t.replace("0 1 4\n1 0 4\n", "0 1\n4 1 0 4\n"),
     "line 14: expected 'i j value', got '0 1'"),
    (_set_line(15, "1000000000000000000 0 4"),
     "line 15: block 'v' index (1000000000000000000, 0) outside 4x2"),
    (_set_line(16, "2 -1 1"), "line 16: block 'v' index (2, -1) outside 4x2"),
    (_set_line(17, "4 0 1"), "line 17: block 'v' index (4, 0) outside 4x2"),
    (_set_line(11, "1 0 x"), "line 11: bad F_5 literal 'x'"),
    (_set_line(12, "a 1 1"), "line 12: bad indices in 'a 1 1'"),
    (lambda t: "\n".join(t.splitlines()[:15]) + "\n",
     "unexpected end of file, expected a triplet of block 'v'"),
    (_set_line(13, "v: 5"), "line 18: expected 'i j value', got 'z: 0'"),
    (_set_line(9, "u: many"), "line 9: 'u' needs a triplet count, got 'many'"),
    # a negative count reads no triplet at all
    (_set_line(9, "u: -15"), "line 10: expected 'v:', got '0 0 1'"),
    (lambda t: _set_line(18, "z: 20")(_set_line(9, "u: -16")(t)) + "0 0 1\n",
     "line 10: expected 'v:', got '0 0 1'"),
    (_set_line(13, "v: -3"), "line 14: expected 'z:', got '0 1 4'"),
])
def test_cert_rejections(mangle, fragment):
    rng = np.random.default_rng(13)
    cert, _ = decompose_kron_product([random_invertible(F5, 2, rng)], "0.5")
    with pytest.raises(FileFormatError) as e:
        parse_cert(mangle(render_cert(cert)))
    assert fragment in str(e.value)


def _per_line(monkeypatch, parse, text):
    """`parse(text)` with every triplet block read by the line loop."""
    with monkeypatch.context() as mp:
        mp.setattr(fileio, "_bulk_triplets", lambda raw, rows, cols: None)
        return parse(text)


def _cert(header):
    rng = np.random.default_rng(11)
    facs = [random_invertible(field_from_header(header), d, rng)
            for d in (2, 3, 2)]
    return decompose_kron_product(facs, "0.5")[0]


def _first_triplet(text, block, change):
    """Rewrite the first triplet line of `block` as change(i, j, value)."""
    lines = text.splitlines(keepends=True)
    at = lines.index(next(s for s in lines if s.startswith(f"{block}:"))) + 1
    i, j, v = lines[at].split()
    lines[at] = change(i, j, v) + "\n"
    return "".join(lines)


_BIG = 5 * 2**64  # a multiple of 5 beyond int64


@pytest.mark.parametrize("mangle", [
    lambda t: t,
    lambda t: _first_triplet(t, "v", lambda i, j, v: f"{i} {j} {v}\n# note"),
    lambda t: _first_triplet(t, "u", lambda i, j, v: f"{i} {j} {v}\n"),
    lambda t: _first_triplet(t, "v", lambda i, j, v: f"+{i} 00{j} {v}"),
    lambda t: _first_triplet(t, "v", lambda i, j, v: f"{i} {j} {int(v) - 5}"),
    lambda t: _first_triplet(t, "u", lambda i, j, v: f"{i} {j} {int(v) + 5}"),
    lambda t: _first_triplet(t, "u", lambda i, j, v: f"{i} {j} {int(v) + _BIG}"),
    lambda t: _first_triplet(t, "v", lambda i, j, v: f"{i}\t{j} {v}"),
    lambda t: _first_triplet(t, "v", lambda i, j, v: f" {i} {j}  {v} "),
    lambda t: t.replace("\n", "\r\n"),
])
@pytest.mark.parametrize("header", ["Fp 5", "Fp 2147483659", "Q"])
def test_cert_parse_matches_line_loop(header, mangle, monkeypatch):
    cert = _cert(header)
    text = render_cert(cert)
    mangled = mangle(text)
    back = parse_cert(mangled)
    ref = _per_line(monkeypatch, parse_cert, mangled)
    assert back.same_witness(ref)
    assert render_cert(back) == render_cert(ref)
    if header == "Fp 5":  # the value rewrites above keep the residue mod 5
        assert render_cert(back) == text


@pytest.mark.parametrize("header", ["Fp 5", "Fp 2147483659", "Q"])
def test_sparse_matrix_parse_matches_line_loop(header, monkeypatch):
    m = random_dense(field_from_header(header), 6, 9, np.random.default_rng(3))
    text = render_matrix(m, "sparse")
    for mangled in (text, text.replace("\n", "\r\n"),
                    text.replace("\n0 1 ", "\n# note\n0 1 "),
                    text.replace("\n1 ", "\n001 ")):
        back = parse_matrix(mangled)
        assert back == _per_line(monkeypatch, parse_matrix, mangled) == m


def test_canonical_blocks_skip_line_loop(monkeypatch):
    """The renderer's output over F_p is decoded without the line loop."""
    text = render_cert(_cert("Fp 5"))

    def no_line_loop(*args):
        raise AssertionError("line loop used")

    monkeypatch.setattr(fileio, "_parse_value", no_line_loop)
    assert render_cert(parse_cert(text)) == text


def _lines(*lines):
    """A block of lines as the reader hands it to the bulk decoder."""
    return fileio._Text("\n".join(lines).encode("utf-8")).lines(0, None)


@pytest.mark.parametrize("line,expected", [
    ("1 2 3", (1, 2, 3)),
    ("0 0 -0", (0, 0, 0)),
    ("007 1 -999999999999999999", (7, 1, -999999999999999999)),
    ("0 0 1000000000000000000", (0, 0, 10**18)),  # 19 digits, read by int()
    ("-1 0 1", None),  # index out of range
    ("0 9 1", None),
    ("+1 0 1", None),
    ("0  0 1", None),
    ("0 0 1 ", None),
    ("0\t0 1", None),
    ("0 0", None),
    ("0 0 -", None),
    ("0 0 1-", None),
    ("0 0 --1", None),
    ("0 0 \u0661", None),  # a non-ASCII digit
])
def test_bulk_triplets(line, expected):
    """Canonical lines decode as int() reads them; anything else is left
    to the line loop."""
    got = fileio._bulk_triplets(_lines("2 3 4", line, "0 1 5"), 8, 8)
    if expected is None:
        assert got is None
    else:
        assert [a.tolist() for a in got] == [
            [2, expected[0], 0], [3, expected[1], 1], [4, expected[2], 5]]


def test_bulk_triplets_checks_each_line():
    assert fileio._bulk_triplets(_lines("0 0", "1 1 1 1"), 8, 8) is None
    assert fileio._bulk_triplets(_lines("0 0 1 1", "1 1"), 8, 8) is None
    assert fileio._bulk_triplets(_lines("0 0 1", "1 1 "), 8, 8) is None
    assert fileio._bulk_triplets(_lines("0  1", "1 1 1"), 8, 8) is None


@pytest.mark.parametrize("line,expected", [
    ("1 2 3/4", (3, 4)),
    ("1 2 -3/4", (-3, 4)),
    ("1 2 6/8", (6, 8)),  # reduced when the matrix is built
    ("1 2 -0/7", (0, 7)),
    ("1 2 999999999999999999/999999999999999998",
     (999999999999999999, 999999999999999998)),
    ("1 2 3/0", None),
    ("1 2 3/-4", None),
    ("1 2 -3/-4", None),
    ("1 2/3 4", None),
    ("1/2 2 4", None),
    ("1 2 3//4", None),
    ("1 2 3/4/5", None),
    ("1 2 /4", None),
    ("1 2 -/4", None),
    ("1 2 3/", None),
    ("1 2 3/1000000000000000000", (3, 10**18)),  # 19-digit denominator
    ("1 2 3 /4", None),
])
def test_bulk_triplets_rational(line, expected):
    """A value written n/d comes back as an (n, d) row; anything that
    Fraction() or the index check would not take is left to the line loop."""
    got = fileio._bulk_triplets(_lines("2 3 4", line), 8, 8)
    if expected is None:
        assert got is None
    else:
        ri, ci, vals = got
        assert ri.tolist() == [2, 1] and ci.tolist() == [3, 2]
        assert vals.tolist() == [[4, 1], list(expected)]


def _line_loop_only(monkeypatch, text):
    """parse_matrix(text) with the bulk decoder switched off."""
    with monkeypatch.context() as mp:
        mp.setattr(fileio, "_bulk_values", lambda *args: None)
        return parse_matrix(text)


def _same_values(text, header):
    """The last row of a dense matrix file rewritten with equal values:
    n/d as 2n/2d and an integer as n/1 over Q, v as v + p over F_p."""
    lines = text.splitlines(keepends=True)
    toks = lines[-1].split()
    if header == "Q":
        toks = [f"{2 * int(t.split('/')[0])}/{2 * int(t.split('/')[1])}"
                if "/" in t else f"{t}/1" for t in toks]
    else:
        p = int(header.split()[1])
        toks = [str(int(t) + p) for t in toks]
    lines[-1] = " ".join(toks) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("header", ["Fp 5", "Fp 2147483659", "Q"])
def test_dense_matrix_parse_matches_line_loop(header, monkeypatch):
    m = random_dense(field_from_header(header), 6, 9, np.random.default_rng(3))
    text = render_matrix(m, "dense")
    for mangled in (text, text.replace("\n", "\r\n"),
                    text.replace("dense\n", "dense\n# note\n"),
                    text.replace("dense\n", "dense\n00"),
                    text[:-1] + " \n",
                    _same_values(text, header)):
        back = parse_matrix(mangled)
        assert back == _line_loop_only(monkeypatch, mangled) == m


def test_canonical_dense_and_q_skip_line_loop(monkeypatch):
    """Dense rows over F_p and Q, and Q certificate blocks, as the
    renderer writes them are decoded without the line loop, also when
    the common denominator takes the numerators beyond int64."""
    rng = np.random.default_rng(1)
    big = [[Fraction(int(rng.integers(1, 10**18)), int(rng.integers(1, 10**18)))
            for _ in range(3)] for _ in range(2)]
    texts = [render_matrix(random_dense(F5, 5, 7, rng), "dense"),
             render_matrix(random_dense(QQ, 5, 7, rng), "dense"),
             render_matrix(ExactMatrix.from_dense(QQ, big), "dense")]
    cert_text = render_cert(_cert("Q"))
    want = [_line_loop_only(monkeypatch, t) for t in texts]

    def no_line_loop(*args):
        raise AssertionError("line loop used")

    monkeypatch.setattr(fileio, "_parse_value", no_line_loop)
    for text, ref in zip(texts, want):
        back = parse_matrix(text)
        assert back == ref and render_matrix(back, "dense") == text
    assert render_cert(parse_cert(cert_text)) == cert_text
    assert parse_matrix(texts[2]).num_dense().dtype == object


def test_big_rational_files_parse_as_line_loop(monkeypatch):
    """Files with tokens beyond 18 digits give the line loop's matrices
    and render back byte for byte."""
    for name in ("bigq_a.mat", "bigq_b.mat"):
        text = (Path(__file__).parent / "data" / "golden" / name).read_text()
        m = parse_matrix(text)
        assert m == _line_loop_only(monkeypatch, text)
        assert render_matrix(m, "dense") == text


def test_big_rational_files_skip_line_loop(monkeypatch):
    """The bulk decoder reads tokens beyond 18 digits with int(), so the
    big-rational factor files and certificate parse without the line
    loop, to the line loop's matrices."""
    golden = Path(__file__).parent / "data" / "golden"
    mats = [(golden / name).read_text() for name in ("bigq_a.mat", "bigq_b.mat")]
    cert = (golden / "bigq.cert").read_text()
    want = [_line_loop_only(monkeypatch, t) for t in mats]
    want_cert = _per_line(monkeypatch, parse_cert, cert)

    def no_line_loop(*args):
        raise AssertionError("line loop used")

    monkeypatch.setattr(fileio, "_parse_value", no_line_loop)
    for text, ref in zip(mats, want):
        m = parse_matrix(text)
        assert m == ref and m.num_dense().dtype == object
    back = parse_cert(cert)
    assert back.same_witness(want_cert) and render_cert(back) == cert


def test_duplicate_q_triplets_sum_past_int64(monkeypatch):
    """Ten entries of 999999999999999999 at one position sum past 2**63,
    in a sparse matrix file and in a certificate's z block, read by the
    bulk decoder and by the line loop alike."""
    big = 999999999999999999
    dups = f"0 0 {big}\n" * 10
    text = "field: Q\nrows: 2\ncols: 2\nformat: sparse\n" + dups + "1 1 -1/3\n"
    cert = _cert("Q")
    nz = cert.z.nnz
    cert_text = render_cert(cert).replace(f"z: {nz}\n", f"z: {nz + 10}\n" + dups)
    want_z = cert.z + ExactMatrix.from_triplets(QQ, cert.n, cert.n, [(0, 0, 10 * big)])
    lines = (_per_line(monkeypatch, parse_matrix, text),
             _per_line(monkeypatch, parse_cert, cert_text))

    def no_line_loop(*args):
        raise AssertionError("line loop used")

    with monkeypatch.context() as mp:
        mp.setattr(fileio, "_parse_value", no_line_loop)
        bulk = (parse_matrix(text), parse_cert(cert_text))
    for m, c in (bulk, lines):
        assert m[0, 0] == 10 * big and m[1, 1] == Fraction(-1, 3)
        assert c.z == want_z and c.z[0, 0] == cert.z[0, 0] + 10 * big


@pytest.mark.parametrize("text,message", [
    # canonical rows first, so the bulk decoder sees each case before the
    # line loop; the messages are the line loop's own
    ("field: Q\nrows: 2\ncols: 2\nformat: dense\n1 2\n3/0 4\n",
     "line 6: bad rational literal '3/0'"),
    ("field: Q\nrows: 2\ncols: 2\nformat: dense\n1 2\n3\n",
     "line 6: expected 2 entries, got 1"),
    ("field: Fp 5\nrows: 2\ncols: 2\nformat: dense\n1 2\n3/2 4\n",
     "line 6: bad F_5 literal '3/2'"),
    ("field: Q\nrows: 2\ncols: 2\nformat: dense\n1/2 2\n3 4 5\n",
     "line 6: expected 2 entries, got 3"),
    ("field: Q\nrows: 2\ncols: 2\nformat: dense\n1/2 2\n3 x\n",
     "line 6: bad rational literal 'x'"),
    ("field: Q\nrows: 2\ncols: 2\nformat: sparse\n0 0 1/2\n1 1 1/-2\n",
     "line 6: bad rational literal '1/-2'"),
])
def test_bulk_rejections_keep_line_loop_messages(text, message):
    with pytest.raises(FileFormatError) as e:
        parse_matrix(text)
    assert str(e.value) == message


# ----------------------------------------------------------------------
# the decoder's words: one file scan, the narrowest word a block needs


def _spy_words(monkeypatch):
    """The byte width of the word of every `_swar` call."""
    sizes = []
    real = fileio._swar

    def spy(words, n):
        sizes.append(words.itemsize)
        return real(words, n)
    monkeypatch.setattr(fileio, "_swar", spy)
    return sizes


def _no_line_loop(monkeypatch):
    def no_line_loop(*args):
        raise AssertionError("line loop used")
    monkeypatch.setattr(fileio, "_parse_value", no_line_loop)


def _number(rng, width):
    """A number of exactly `width` digits."""
    return rng.randrange(10 ** (width - 1) if width > 1 else 0, 10 ** width)


def _mixed_tokens(rng, width, count):
    """`count` tokens, -?n or -?n/d over Q, of 1 to `width` digits a part;
    the first has exactly `width`."""
    toks = []
    for k in range(count):
        sign = "-" if rng.random() < 0.4 else ""
        n = _number(rng, width if k == 0 else rng.randint(1, width))
        if rng.random() < 0.5:
            d = _number(rng, rng.randint(1, width)) or 1
            toks.append(f"{sign}{n}/{d}")
        else:
            toks.append(f"{sign}{n}")
    return toks


_WORD_EDGES = (1, 4, 5, 8, 9, 16, 17, 18, 19, 25)


@pytest.mark.parametrize("width", _WORD_EDGES)
def test_bulk_tokens_at_every_word_edge(width, monkeypatch):
    """Sparse and dense Q files whose longest part has `width` digits,
    with '-' and n/d tokens and the widths mixed within and across
    columns, parse as the line loop parses them, without the line loop.
    A block whose parts have at most 4 digits is read in uint32 words
    only, any longer one in uint64 words only."""
    rng = random.Random(width)
    rows, cols = 10 ** min(width, 9), 10 ** min(width, 9) + 7
    lines = []
    for k in range(40):
        i = _number(rng, min(width, 9) if k == 0 else rng.randint(1, min(width, 9)))
        j = _number(rng, rng.randint(1, min(width, 9)))
        lines.append(f"{i % rows} {j % cols} {_mixed_tokens(rng, width, 1)[0]}")
    sparse = f"field: Q\nrows: {rows}\ncols: {cols}\nformat: sparse\n" \
        + "\n".join(lines) + "\n"
    dense = "field: Q\nrows: 6\ncols: 5\nformat: dense\n" + "".join(
        " ".join(_mixed_tokens(rng, width, 5)) + "\n" for _ in range(6))
    want = [_per_line(monkeypatch, parse_matrix, sparse),
            _line_loop_only(monkeypatch, dense)]
    sizes = _spy_words(monkeypatch)
    _no_line_loop(monkeypatch)
    assert [parse_matrix(sparse), parse_matrix(dense)] == want
    assert set(sizes) == ({4} if width <= 4 else {8})


@pytest.mark.parametrize("header", ["Fp 5", "Fp 2147483659", "Fp 2305843009213693951"])
def test_bulk_residues_take_the_narrowest_word(header, monkeypatch):
    """Residues below 10**4 take the uint32 word; those of a 10- or
    19-digit prime the uint64 word, and int() past 18 digits."""
    field = field_from_header(header)
    rng = np.random.default_rng(2)
    m = ExactMatrix.from_dense(field, [[field.p - 1 - int(rng.integers(0, 5))
                                        for _ in range(7)] for _ in range(5)])
    text = render_matrix(m, "sparse")
    sizes = _spy_words(monkeypatch)
    _no_line_loop(monkeypatch)
    assert parse_matrix(text) == m
    assert set(sizes) == ({4} if field.p < 10 ** 4 else {8})


def test_fp_walsh_shaped_certificate_takes_the_uint32_word(monkeypatch):
    """A certificate of `decompose --walsh 6 --random 2,2 --field "Fp 5"`
    shape (every index below 10**4, every residue below 5) is read in
    uint32 words only, without the line loop."""
    facs = walsh_factors(PrimeField(5), 6) + [
        random_invertible(F5, 2, np.random.default_rng(s)) for s in (1, 2)]
    cert = decompose_kron_product(facs, "0.5")[0]
    text = render_cert(cert)
    sizes = _spy_words(monkeypatch)
    _no_line_loop(monkeypatch)
    back = parse_cert(text)
    assert back.same_witness(cert) and render_cert(back) == text
    assert sizes and set(sizes) == {4}


def _cert_of_blocks(u, v, z):
    f, n = F5, 12
    return Certificate(f, n, ExactMatrix.from_triplets(f, n, 10, u),
                       ExactMatrix.from_triplets(f, 10, n, v),
                       ExactMatrix.from_triplets(f, n, n, z), 10, 3)


_WIDE = [(11, 9, 4), (2, 0, 1), (0, 5, 3)]  # two-digit indices, then one-digit


@pytest.mark.parametrize("blocks", [
    (_WIDE, [(9, 11, 2), (0, 0, 1)], [(1, 2, 3)]),
    ([], [], [(11, 11, 4), (0, 0, 1)]),
    (_WIDE, [(3, 3, 3)], []),
    (_WIDE, [], [(10, 0, 2)]),
    ([], [], []),
], ids=["all", "u and v empty", "z empty", "v empty", "none"])
@pytest.mark.parametrize("trailing", ["\n", ""], ids=["newline", "no newline"])
def test_blocks_sharing_one_scan(blocks, trailing, monkeypatch):
    """u, v and z read from one file scan, with empty blocks between
    them and with or without a newline after the last one, give the
    line loop's certificate without the line loop."""
    cert = _cert_of_blocks(*blocks)
    text = render_cert(cert)
    assert text.endswith("\n")
    text = text[:-1] + trailing
    want = _per_line(monkeypatch, parse_cert, text)
    _no_line_loop(monkeypatch)
    back = parse_cert(text)
    assert back.same_witness(want) and back.same_witness(cert)


def test_text_scan_offsets():
    """The lines of a _Text: the non-digit bytes inside each block, and
    the text offset where it ends, for blocks after a header, between
    blank lines and at the end without a newline."""
    data = b"h: 1\n12 3\n\n-4/56 7\n8"
    text = fileio._Text(data)
    assert text.buf[1:-1].tobytes() == data and text.buf[0] == text.buf[-1] == 0
    assert text.kind.tobytes() == b"\0h: \n \n\n-/ \n\0"
    got = []
    for first, count in ((1, 1), (1, 2), (3, 1), (3, None), (0, None), (4, 1)):
        b = text.lines(first, count)
        got.append((b.kind.tobytes(), b.end, b.count))
    assert got == [(b" ", 9, 1), (b" \n", 10, 2), (b"-/ ", 18, 1),
                   (b"-/ \n", 20, 2), (b"h: \n \n\n-/ \n", 20, 5), (b"", 20, 1)]
    assert text.lines(4, 2) is None and text.lines(5, 1) is None
    assert fileio._Text(data + b"\n").lines(4, None).end == 20


def test_report_rendering():
    rep = {"ok": True, "count": np.int64(3), "ratio": Fraction(1, 3),
           "parts": [1, 2], "nested": {"a": np.float64(0.5)}}
    text = render_report(rep)
    lines = text.splitlines()
    assert lines[0] == "ok: True"
    assert lines[2] == "ratio: 1/3"
    assert lines[-1].startswith("json: ")
    payload = json.loads(lines[-1][len("json: "):])
    assert payload == {"ok": True, "count": 3, "ratio": "1/3",
                       "parts": [1, 2], "nested": {"a": 0.5}}
    assert render_report(rep) == text
