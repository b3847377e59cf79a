"""Plain-text file formats for matrices, certificates, and reports.

Everything is UTF-8, line-oriented, and diff-friendly.  Comment lines
start with '#' and blank lines are skipped; rendering is deterministic,
so identical objects produce identical bytes.

Matrix files carry a four-line header (field / rows / cols / format)
followed by either row-major dense entries or 0-based "i j value"
triplets.  Certificate files store the three witness blocks as triplet
lists plus the claimed budgets; the in-memory ``meta`` dict is runtime
provenance and is deliberately not persisted.  Reports are "key: value"
lines followed by a single machine-readable JSON line.
"""

import json
from fractions import Fraction

import numpy as np

from .cert import Certificate
from .field import RationalField, field_from_header
from .matrix import ExactMatrix, over_common_den

__all__ = [
    "FileFormatError",
    "render_matrix",
    "parse_matrix",
    "read_matrix",
    "write_matrix",
    "render_cert",
    "parse_cert",
    "read_cert",
    "write_cert",
    "render_report",
    "write_report",
]


class FileFormatError(ValueError):
    pass


class _LineReader:
    """Content lines of a text: lines that are neither blank nor '#'
    comments, numbered as `str.splitlines` counts them."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0  # index of the next unread line

    def _skip(self):
        """The next content line, stripped, or None at the end."""
        while self.pos < len(self.lines):
            s = self.lines[self.pos].strip()
            if s and not s.startswith("#"):
                return s
            self.pos += 1
        return None

    def next(self, what):
        s = self._skip()
        if s is None:
            raise FileFormatError(f"unexpected end of file, expected {what}")
        self.pos += 1
        return self.pos, s

    def key(self, name):
        no, s = self.next(f"'{name}:'")
        head, _, rest = s.partition(":")
        if head.strip() != name:
            raise FileFormatError(f"line {no}: expected '{name}:', got {s!r}")
        return no, rest.strip()

    def int_key(self, name):
        no, raw = self.key(name)
        try:
            return int(raw)
        except ValueError:
            raise FileFormatError(
                f"line {no}: '{name}' needs an integer, got {raw!r}") from None

    def exhausted(self):
        return self._skip() is None

    def finish(self):
        if not self.exhausted():
            no, s = self.next("")
            raise FileFormatError(f"line {no}: trailing content {s!r}")


# ----------------------------------------------------------------------
# triplet lines "i j value", shared by sparse matrices and certificates


def _texts(den, nums):
    """Each value nums[i]/den written as str(Fraction) writes it reduced,
    as a Python int or an 'n/d' string; residues over F_p have den 1."""
    if den == 1:
        return nums.tolist()
    if den >= 1 << 63:
        nums = nums.astype(object)
    g = np.gcd(nums, den)
    return [f"{n}/{d}" if d != 1 else n
            for n, d in zip((nums // g).tolist(), (den // g).tolist())]


def _render_triplets(out, m):
    """Append m's canonical triplet lines to `out`, joined into one string."""
    ri, ci, vals = m.num_triplets()
    if len(ri):
        if m.den != 1:
            vals = np.array(_texts(m.den, vals), dtype=object)
        cells = np.stack([ri, ci, vals], axis=1).ravel().tolist()
        out.append("\n".join(["%s %s %s"] * len(ri)) % tuple(cells))


def _parse_value(field, tok, no):
    try:
        return field.parse(tok)
    except ValueError as e:
        raise FileFormatError(f"line {no}: {e}") from None


# 10**18 < 2**63, so tokens of at most this many digits fit int64.
_BULK_DIGITS = 18


def _bulk_values(lines, width, slash_cols=None):
    """int64 arrays (nums, dens) of shape (len(lines), width), or None
    unless each line is exactly `width` tokens joined by single spaces,
    each -?[0-9]{1,18}, or in the columns marked in `slash_cols` also
    -?[0-9]{1,18}/[0-9]{1,18} with a nonzero denominator.  dens is None
    when no token has a '/'.  On such lines int() and Fraction() agree
    with this parse; the renderer writes only such lines."""
    body = "\n".join(lines)
    if not body.isascii():
        return None
    raw = body.encode("ascii")
    buf = np.frombuffer(raw, dtype=np.uint8)
    sep = np.flatnonzero((buf == ord(" ")) | (buf == ord("\n")))
    ntok = width * len(lines)
    if len(sep) != ntok - 1 or not np.array_equal(
            buf[sep] == ord("\n"), np.arange(1, ntok) % width == 0):
        return None
    starts = np.concatenate(([0], sep + 1))
    ends = np.concatenate((sep, [len(buf)]))
    if (ends - starts).min() < 1:
        return None
    neg = buf[starts] == ord("-")
    digits = ends - starts - neg
    slash = np.flatnonzero(buf == ord("/")) if b"/" in raw else sep[:0]
    if len(slash):
        tok = np.searchsorted(sep, slash)  # the token each '/' sits in
        if slash_cols is None or not slash_cols[tok % width].all() \
                or (np.diff(tok) == 0).any():
            return None
        den_digits = ends[tok] - slash - 1
        if den_digits.min() < 1 or den_digits.max() > _BULK_DIGITS:
            return None
        digits[tok] -= den_digits + 1
        raw = raw.replace(b"/", b" ")
    if digits.min() < 1 or digits.max() > _BULK_DIGITS:
        return None
    # every byte is a separator, a '/', a digit or the '-' that starts a token
    if (len(sep) + len(slash) + np.count_nonzero(neg)
            + np.count_nonzero(buf - ord("0") < 10)) != len(buf):
        return None
    vals = np.fromstring(raw, dtype=np.int64, sep=" ")
    if not len(slash):
        return vals.reshape(-1, width), None
    at = np.arange(ntok) + np.searchsorted(tok, np.arange(ntok))
    dens = np.ones(ntok, dtype=np.int64)
    dens[tok] = vals[at[tok] + 1]
    if dens.min() < 1:
        return None
    return vals[at].reshape(-1, width), dens.reshape(-1, width)


def _bulk_triplets(lines, rows, cols):
    """int64 arrays (i, j, value) of `lines`, or None unless each line is
    `i j value` as _bulk_values reads it and every index is in range.  A
    value may be written n/d; then the value array holds (n, d) rows."""
    got = _bulk_values(lines, 3, np.array([False, False, True]))
    if got is None:
        return None
    (ri, ci, vals), dens = got[0].T, got[1]
    if ri.min() < 0 or ri.max() >= rows or ci.min() < 0 or ci.max() >= cols:
        return None
    return ri, ci, vals if dens is None else np.stack([vals, dens[:, 2]], axis=1)


def _bulk_nums(field, vals, dens):
    """(numerators, den) of bulk-decoded values and denominators (None
    for all ones), or None where a value written n/d is not in the field."""
    if dens is None:
        return vals, 1
    return over_common_den(vals, dens) if isinstance(field, RationalField) else None


def _parse_triplets(rd, field, rows, cols, count=None, name=None):
    """The next `count` triplet lines of `rd`, or all the rest when count is
    None, as a rows x cols matrix; `name` is the certificate block named in
    errors.  A block of canonical lines is decoded in bulk; the line loop
    parses everything else and names the first bad line."""
    end = len(rd.lines) if count is None else rd.pos + count
    if rd.pos < end <= len(rd.lines):
        bulk = _bulk_triplets(rd.lines[rd.pos:end], rows, cols)
        if bulk is not None:
            ri, ci, vals = bulk
            nums = _bulk_nums(field, *((vals, None) if vals.ndim == 1 else vals.T))
            if nums is not None:
                rd.pos = end
                return ExactMatrix.from_num_coo(field, rows, cols, ri, ci, *nums)
    block = f"block '{name}' " if name else ""
    trips = []
    while (not rd.exhausted()) if count is None else len(trips) < count:
        no, s = rd.next(f"a triplet of block '{name}'")
        toks = s.split()
        if len(toks) != 3:
            raise FileFormatError(f"line {no}: expected 'i j value', got {s!r}")
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError:
            raise FileFormatError(f"line {no}: bad indices in {s!r}") from None
        if not (0 <= i < rows and 0 <= j < cols):
            raise FileFormatError(
                f"line {no}: {block}index ({i}, {j}) outside {rows}x{cols}")
        trips.append((i, j, _parse_value(field, toks[2], no)))
    return ExactMatrix.from_triplets(field, rows, cols, trips)


# ----------------------------------------------------------------------
# matrices


def render_matrix(m, fmt=None):
    if fmt is None:
        fmt = "dense" if m.is_dense else "sparse"
    if fmt not in ("dense", "sparse"):
        raise ValueError(f"format must be dense or sparse, got {fmt!r}")
    f = m.field
    out = [f"field: {f.header}", f"rows: {m.rows}", f"cols: {m.cols}",
           f"format: {fmt}"]
    if fmt == "dense":
        if m.cols > 0:  # zero-width rows would render as blank lines
            texts = _texts(m.den, m.num_dense().ravel())
            for i in range(0, len(texts), m.cols):
                out.append(" ".join(map(str, texts[i:i + m.cols])))
    else:
        _render_triplets(out, m)
    return "\n".join(out) + "\n"


def _parse_dense(rd, field, rows, cols):
    """The next `rows` rows of `cols` entries.  Rows of canonical tokens
    are decoded in bulk; the line loop parses everything else and names
    the first bad line."""
    if rows == 0 or cols == 0:
        return ExactMatrix.zeros(field, rows, cols)
    if rd.pos + rows <= len(rd.lines):
        bulk = _bulk_values(rd.lines[rd.pos:rd.pos + rows], cols,
                            np.ones(cols, dtype=bool))
        nums = None if bulk is None else _bulk_nums(field, *bulk)
        if nums is not None:
            rd.pos += rows
            return ExactMatrix.from_num_dense(field, *nums)
    data = []
    for _ in range(rows):
        no, s = rd.next(f"a row of {cols} entries")
        toks = s.split()
        if len(toks) != cols:
            raise FileFormatError(
                f"line {no}: expected {cols} entries, got {len(toks)}")
        data.append([_parse_value(field, t, no) for t in toks])
    return ExactMatrix.from_dense(field, data)


def parse_matrix(text):
    rd = _LineReader(text)
    _, header = rd.key("field")
    try:
        f = field_from_header(header)
    except ValueError as e:
        raise FileFormatError(str(e)) from None
    rows = rd.int_key("rows")
    cols = rd.int_key("cols")
    no, fmt = rd.key("format")
    if fmt == "dense":
        m = _parse_dense(rd, f, rows, cols)
    elif fmt == "sparse":
        m = _parse_triplets(rd, f, rows, cols)
    else:
        raise FileFormatError(
            f"line {no}: format must be dense or sparse, got {fmt!r}")
    rd.finish()
    return m


def read_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def write_matrix(path, m, fmt=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_matrix(m, fmt))


# ----------------------------------------------------------------------
# certificates


def _render_support(name, idx):
    if idx is None:
        return f"{name}: -"
    vals = " ".join(str(int(i)) for i in idx)
    return f"{name}: {vals}" if vals else f"{name}:"


def render_cert(cert):
    out = ["kind: certificate",
           f"field: {cert.field.header}",
           f"order: {cert.n}",
           f"inner: {cert.inner_dim}",
           f"claimed_rank: {cert.claimed_rank}",
           f"claimed_sparsity: {cert.claimed_sparsity}",
           _render_support("support_rows", cert.support_rows),
           _render_support("support_cols", cert.support_cols)]
    for name, m in (("u", cert.u), ("v", cert.v), ("z", cert.z)):
        out.append(f"{name}: {m.nnz}")
        _render_triplets(out, m)
    return "\n".join(out) + "\n"


def _parse_block(rd, name, field, rows, cols):
    no, raw = rd.key(name)
    try:
        count = int(raw)
    except ValueError:
        raise FileFormatError(
            f"line {no}: '{name}' needs a triplet count, got {raw!r}") from None
    return _parse_triplets(rd, field, rows, cols, count, name)


def _parse_support(rd, name):
    _, raw = rd.key(name)
    if raw == "-":
        return None
    return np.array([int(t) for t in raw.split()], dtype=np.int64)


def parse_cert(text):
    rd = _LineReader(text)
    no, kind = rd.key("kind")
    if kind != "certificate":
        raise FileFormatError(f"line {no}: expected kind 'certificate', "
                              f"got {kind!r}")
    _, header = rd.key("field")
    try:
        f = field_from_header(header)
    except ValueError as e:
        raise FileFormatError(str(e)) from None
    n = rd.int_key("order")
    inner = rd.int_key("inner")
    rank = rd.int_key("claimed_rank")
    sparsity = rd.int_key("claimed_sparsity")
    sup_r = _parse_support(rd, "support_rows")
    sup_c = _parse_support(rd, "support_cols")
    u = _parse_block(rd, "u", f, n, inner)
    v = _parse_block(rd, "v", f, inner, n)
    z = _parse_block(rd, "z", f, n, n)
    rd.finish()
    return Certificate(f, n, u, v, z, rank, sparsity,
                       support_rows=sup_r, support_cols=sup_c)


def read_cert(path):
    with open(path, encoding="utf-8") as fh:
        return parse_cert(fh.read())


def write_cert(path, cert):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_cert(cert))


# ----------------------------------------------------------------------
# reports


def _plain(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def render_report(report):
    """Key-value lines in insertion order, then one JSON line."""
    plain = _plain(report)
    out = []
    for k, v in plain.items():
        out.append(f"{k}: {v}")
    out.append("json: " + json.dumps(plain, sort_keys=True,
                                     separators=(",", ":")))
    return "\n".join(out) + "\n"


def write_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))
