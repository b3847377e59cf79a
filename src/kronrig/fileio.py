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

Triplet blocks and dense rows are written and read as byte arrays.  The
writer lays a whole block out in one uint8 array of fixed-width fields,
zero bytes before each number's digits, and drops the zeros in one pass;
numbers below 10**5 (every index under the order cap, every residue of
p < 10**5) are one lookup in a table of digit words, larger ones take
repeated division and numbers past int64 their str().  Files are
written as bytes.
The reader takes the header keys line by line and each block as one
byte range.  One scan of the whole text finds its non-digit bytes, so
a block's lines and tokens are slices of that scan.  A block of exactly
the tokens the writer emits is decoded there in the narrowest word its
longest part fits: four digits at a time in a uint32 word, eight in a
uint64 word, up to 18 in two or three, and int() past that; anything
else (comments, tabs, CRLF, '+3', ...) goes to the line loop, which
names the first bad line as `str.splitlines` numbers it.
"""

import functools
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
    comments, numbered as `str.splitlines` counts them.  The text is kept
    as UTF-8 bytes in which '\\n' alone ends lines, so a run of lines is
    one byte range."""

    def __init__(self, text):
        data = text.encode("utf-8") if isinstance(text, str) else text
        self._text = _Text(data)
        # the scan holds every byte past ASCII and every byte other than
        # '\n' at which str.splitlines ends a line in ASCII text: '\x0b',
        # '\x0c', '\r' and '\x1c' to '\x1e', the control bytes from
        # '\x0b' to '\x1e' but for '\x0e' to '\x1b'
        kind = self._text.kind
        ctrl = kind[(kind >= 0x0b) & (kind <= 0x1e)]
        if kind.max() >= 0x80 or ((ctrl <= 0x0d) | (ctrl >= 0x1c)).any():
            data = "\n".join(data.decode("utf-8").splitlines()).encode("utf-8")
            self._text = _Text(data)
        self.data = data
        self.at = 0  # byte offset of the next unread line
        self.no = 0  # lines read so far

    def _skip(self):
        """The next content line, stripped, and the offset of its end, or
        None at the end."""
        data = self.data
        while self.at < len(data):
            end = data.find(b"\n", self.at)
            if end < 0:
                end = len(data)
            s = data[self.at:end].decode("utf-8").strip()
            if s and not s.startswith("#"):
                return s, end
            self.at = end + 1
            self.no += 1
        return None

    def next(self, what):
        got = self._skip()
        if got is None:
            raise FileFormatError(f"unexpected end of file, expected {what}")
        s, self.at = got[0], got[1] + 1
        self.no += 1
        return self.no, s

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

    def bulk(self, count, decode):
        """decode(the _Block of the next `count` lines, or of all the rest
        when count is None), read past those lines unless it returns None.
        None without a call when count < 1 or fewer lines remain."""
        if count is not None and count < 1 or self.at >= len(self.data):
            return None
        block = self._text.lines(self.no, count)
        got = None if block is None else decode(block)
        if got is not None:
            self.no += block.count
            self.at = block.end + 1
        return got

    def exhausted(self):
        return self._skip() is None

    def finish(self):
        if not self.exhausted():
            no, s = self.next("")
            raise FileFormatError(f"line {no}: trailing content {s!r}")


# ----------------------------------------------------------------------
# the writer: a whole block of integers to ASCII in one byte array


@functools.cache
def _digit_words(w):
    """The integers below 10**w, w at most 4, in decimal, each a read-only
    word of the fewest bytes (1, 2 or 4) that hold w: little-endian, so
    the digits end the word, and every byte before them zero."""
    size = 1 << (w - 1).bit_length()
    x = np.arange(10**w)
    chars = np.zeros((len(x), size), dtype=np.uint8)
    for k in range(w):  # the digit of 10**k, written where x has one
        chars[:, size - 1 - k] = np.where(x >= 10**k, x // 10**k % 10 + ord("0"), 0)
    chars[0, -1] = ord("0")
    words = chars.view(f"<u{size}").ravel()
    words.flags.writeable = False
    return words


def _decimal(x):
    """(neg, w, cells) for the integers x: neg marks the negative ones, or
    is None when none is, and cells holds |x| in decimal, right-aligned
    in w bytes after zero bytes.  Below 10**4 cells are the _digit_words
    of |x|, one per number; else a (len(x), w) uint8 array, by repeated
    division up to int64 and by each value's str() past it."""
    if x.dtype == object:
        try:
            x = x.astype(np.int64)
        except OverflowError:
            neg = x < 0
            texts = [str(abs(v)) for v in x.tolist()]
            w = max(map(len, texts))
            cells = np.frombuffer("".join(t.rjust(w, "\0") for t in texts)
                                  .encode("ascii"), dtype=np.uint8)
            return (neg if neg.any() else None), w, cells.reshape(-1, w)
    neg = None if x.dtype.kind == "u" or x.min() >= 0 else x < 0
    # |-2**63| wraps to itself: 2**63 as uint64
    a = x if neg is None else np.abs(x).view(np.uint64)
    top = int(a.max())
    w = len(str(top))
    if w <= 4:
        return neg, w, _digit_words(w).take(a)
    if top < 1 << 32 and a.itemsize > 4:  # uint32 division is several times faster
        a = a.astype(np.uint32)
    cells = np.empty((len(a), w), dtype=np.uint8)
    rest = a
    for k in range(w - 1, -1, -1):
        q = rest // 10
        cells[:, k] = (rest - q * 10 + ord("0")) * (rest != 0)
        rest = q
    cells[a == 0, -1] = ord("0")
    return neg, w, cells


def _value_parts(nums, den, lead=None):
    """The parts of _text that write the values nums/den as str(Fraction)
    writes them: n/d reduced, or n where d is 1.  Residues over F_p have
    den 1."""
    if den == 1:
        return [(nums, lead, None)]
    if den >= 1 << 63:
        nums = nums.astype(object)
    g = np.gcd(nums, den)
    d = den // g
    return [(nums // g, lead, None), (d, ord("/"), d != 1)]


def _text(parts, ends):
    """ASCII bytes of lines, each the parts in order and then its byte of
    `ends` (one byte, or an array of a byte per line).  A part (x, lead,
    show) writes the integers x, each after the byte `lead` unless lead
    is None, and leaves both out where the bool array `show` is False.

    Every line is laid out as the same fixed-width fields, one for each
    lead, sign and number, each as wide as the widest in its column.  A
    field's bytes before its digits, a hidden part and the sign of a
    nonnegative number are zero bytes, and dropping the zeros of all
    lines in one pass leaves the text."""
    n = len(parts[0][0])
    fields = []  # (offset in the line, width, cells: one item per line or one for all)
    at = 0
    for x, lead, show in parts:
        neg, w, cells = _decimal(x)
        if show is not None:
            cells = cells * (show if cells.ndim == 1 else show[:, None])
        if lead is not None:
            lead = np.uint8(lead)
            fields.append((at, 1, lead if show is None else show * lead))
            at += 1
        if neg is not None:
            fields.append((at, 1, neg * np.uint8(ord("-"))))
            at += 1
        fields.append((at, w, cells))
        at += w
    fields.append((at, 1, np.asarray(ends, dtype=np.uint8)))
    # A field of one item per line (or one for all) is written as words
    # of its dtype that end where the field ends.  A word's zero bytes
    # before the field fall on the fields to its left, which are written
    # after it, or on the `pad` zero bytes that begin each line.
    pad = max(0, max(c.itemsize - w - start for start, w, c in fields if c.ndim < 2))
    stride = pad + at + 1
    buf = np.zeros(n * stride, dtype=np.uint8)
    for start, w, cells in reversed(fields):
        end = pad + start + w
        if cells.ndim == 2:
            buf.reshape(n, stride)[:, end - w:end] = cells
        else:
            np.ndarray((n,), dtype=cells.dtype, buffer=buf,
                       offset=end - cells.itemsize, strides=(stride,))[...] = cells
    data = buf.tobytes()
    return data.translate(None, b"\0") if b"\0" in data else data


def _triplet_text(m):
    """m's canonical triplet lines 'i j value', each ending in a newline,
    as ASCII bytes."""
    ri, ci, vals = m.num_triplets()
    if not len(ri):
        return b""
    return _text([(ri, None, None), (ci, ord(" "), None),
                  *_value_parts(vals, m.den, ord(" "))], ord("\n"))


def _parse_value(field, tok, no):
    try:
        return field.parse(tok)
    except ValueError as e:
        raise FileFormatError(f"line {no}: {e}") from None


# ----------------------------------------------------------------------
# the bulk reader: the writer's own tokens at array speed

# 10**18 < 2**63, so parts of at most this many digits fit int64; int()
# reads longer ones
_BULK_DIGITS = 18


class _Text:
    """The bytes of a text after one scan for every byte that is not an
    ASCII digit.  buf is the text with a virtual non-digit byte (zero) on
    either side, so the text is buf[1:-1]; offsets here are into buf.
    `at` holds the offset of every non-digit byte, the two virtual ones
    included, as int32 below 2**31 bytes, and `kind` the bytes
    themselves; line k of the text ends at at[nl[k]].  words[4][e] and
    words[8][e], little-endian uint32 and uint64, hold the 4 and 8 bytes
    of buf before offset e, with zero bytes before its start."""

    def __init__(self, data):
        n = len(data)
        pad = np.zeros(n + 10, dtype=np.uint8)
        pad[9:-1] = np.frombuffer(data, dtype=np.uint8)
        self.data, self.buf = data, pad[8:]
        self.words = {size: np.ndarray((n + 2,), dtype=f"<u{size}", buffer=pad,
                                       offset=8 - size, strides=(1,))
                      for size in (4, 8)}
        at = np.flatnonzero(np.subtract(self.buf, ord("0"), dtype=np.uint8) > 9)
        self.kind = self.buf[at]
        self.at = at.astype(np.int32) if n + 2 < 1 << 31 else at
        self.nl = np.flatnonzero(self.kind == ord("\n"))

    def lines(self, first, count):
        """The _Block of `count` lines from line `first` (0-based), or of
        all the rest when count is None; None if fewer lines remain."""
        nl, tail = self.nl, not self.data.endswith(b"\n")
        if count is None:
            count = len(nl) + tail - first
        last = first + count - 1
        if last < len(nl):
            hi = int(nl[last])
        elif last == len(nl) and tail:
            hi = len(self.at) - 1
        else:
            return None
        return _Block(self, int(nl[first - 1]) if first else 0, hi, count)


class _Block:
    """`count` lines of a _Text, without the last line's newline.  Its
    tokens lie between the non-digit bytes at text.at[lo] and
    text.at[hi], which end the lines before and after it; `end` is the
    text offset (not the buf offset) of the latter."""

    def __init__(self, text, lo, hi, count):
        self.text, self.count = text, count
        self.bounds = text.at[lo:hi + 1]
        self.kind = text.kind[lo + 1:hi]  # of the non-digit bytes inside
        self.end = int(self.bounds[-1]) - 1


def _swar(words, n):
    """The numbers written by the last n[i] ASCII digits of each word (1
    to its byte count), combined in pairs, fours and eights within the
    word (Lemire, "Number parsing at a gigabyte per second", 2021).
    Overwrites `words`, and `n` when its items are as wide as the words'."""
    t, bits = words.dtype.type, 8 * words.itemsize
    if n.itemsize == words.itemsize:
        n *= -8
        n += bits
        shift = n.view(words.dtype)
    else:
        shift = (bits - 8 * n).astype(words.dtype)
    words >>= shift  # clear the bytes before the digits
    words <<= shift
    words &= t(int.from_bytes(b"\x0f" * (bits // 8), "little"))
    s = 8
    while True:
        words *= t((10 ** (s // 8)) << s | 1)
        words >>= t(s)
        if 2 * s == bits:
            return words
        words &= t(int.from_bytes((b"\xff" * (s // 8) + b"\0" * (s // 8))
                                  * (bits // (2 * s)), "little"))
        s *= 2


def _decode(text, tails, lens):
    """The numbers written in the lens[i] digits of the text that end
    before offset tails[i]: int32 when no run has more than 4 digits,
    else int64, or Python ints when one has more than 18; None if a run
    is empty.  With no run past 4 digits each is read in one uint32
    word, else in one uint64 word, two or three past 8 and 16 digits,
    and by int() past 18.  Overwrites lens."""
    if not len(lens) or lens.min() < 1:
        return None
    top = int(lens.max())
    if top <= 4:
        return _swar(text.words[4][tails], lens).view(np.int32)
    vals = _swar(text.words[8][tails], np.minimum(lens, 8))
    for c in (8, 16):  # the digits before the last 8 and the last 16
        if top <= c:
            break
        at = np.flatnonzero((lens > c) & (lens <= _BULK_DIGITS))
        vals[at] += _swar(text.words[8][tails[at] - c],
                          np.minimum(lens[at] - c, 8)) * np.uint64(10**c)
    vals = vals.view(np.int64)
    if top > _BULK_DIGITS:
        vals = vals.astype(object)
        for i in np.flatnonzero(lens > _BULK_DIGITS).tolist():
            vals[i] = int(text.buf[tails[i] - lens[i]:tails[i]].tobytes())
    return vals


def _bulk_values(block, width, slash_cols=None):
    """Arrays (nums, dens) of shape (lines, width) of the _Block `block`,
    or None unless its lines are exactly `width` tokens joined by single
    spaces, each -?[0-9]+, or in the columns marked in `slash_cols` also
    -?[0-9]+/[0-9]+ with a nonzero denominator.  dens is None when no
    token has a '/'.  The arrays are as _decode gives them: int32 or
    int64, or Python ints where a part has more than 18 digits.  On such
    lines int() and Fraction() agree with this parse; the renderer writes
    only such lines."""
    bounds, kind = block.bounds, block.kind
    # the block's newlines are the count - 1 that end its lines; every
    # other non-digit byte inside must be a space, a '-' or a '/'
    seps = np.count_nonzero(kind == ord(" ")) + block.count - 1
    if seps == len(kind):
        sep_kind = kind
        minus = slash = bounds[:0]
    else:
        is_sep = (kind == ord(" ")) | (kind == ord("\n"))
        inside = bounds[1:-1]
        minus, slash = inside[kind == ord("-")], inside[kind == ord("/")]
        if seps + len(minus) + len(slash) != len(kind):
            return None
        sep_kind = kind[is_sep]
        keep = np.ones(len(bounds), dtype=bool)
        keep[1:-1] = is_sep
        bounds = bounds[keep]
    # and the newlines end every `width` tokens
    if len(bounds) - 1 != width * block.count \
            or not (sep_kind[width - 1::width] == ord("\n")).all():
        return None
    ends = bounds[1:]  # of each token
    lens = np.subtract(ends, bounds[:-1])
    lens -= 1  # then of its digits
    neg = np.searchsorted(ends, minus)
    if (minus != ends[neg] - lens[neg]).any():  # each starts its token
        return None
    lens[neg] -= 1
    tails = ends
    if len(slash):
        tok = np.searchsorted(ends, slash)
        if slash_cols is None or not slash_cols[tok % width].all() \
                or (np.diff(tok) == 0).any():
            return None
        den_lens = ends[tok] - slash - 1
        lens[tok] -= den_lens + 1
        tails = ends.copy()
        tails[tok] = slash
    nums = _decode(block.text, tails, lens)
    if nums is None:
        return None
    nums[neg] = -nums[neg]
    if not len(slash):
        return nums.reshape(-1, width), None
    d = _decode(block.text, ends[tok], den_lens)
    if d is None or not d.all():
        return None
    dens = np.ones(len(ends), dtype=d.dtype)
    dens[tok] = d
    return nums.reshape(-1, width), dens.reshape(-1, width)


_VALUE_COL = np.array([False, False, True])


def _bulk_triplets(block, rows, cols):
    """Arrays (i, j, value) of the lines of the _Block `block`, or None
    unless each line is `i j value` as _bulk_values reads it and every
    index is in range.  A value may be written n/d; then the value array
    holds (n, d) rows."""
    got = _bulk_values(block, 3, _VALUE_COL)
    if got is None:
        return None
    nums, dens = got
    try:
        ri, ci = nums[:, 0].astype(np.int64), nums[:, 1].astype(np.int64)
    except OverflowError:
        return None
    if ri.min() < 0 or ri.max() >= rows or ci.min() < 0 or ci.max() >= cols:
        return None
    vals = _wide(nums[:, 2])
    return ri, ci, vals if dens is None else np.stack([vals, dens[:, 2]], axis=1)


def _wide(a):
    """The decoded numbers `a` as a contiguous int64 array, or of Python
    ints."""
    return np.ascontiguousarray(a, dtype=object if a.dtype == object else np.int64)


def _bulk_nums(field, vals, dens):
    """(numerators, den) of bulk-decoded values and denominators (None
    for all ones), or None where a value written n/d is not in the field."""
    if isinstance(field, RationalField):
        vals, dens = _wide(vals), dens if dens is None else _wide(dens)
        return (vals, 1) if dens is None else over_common_den(vals, dens)
    if dens is not None:
        return None
    return (vals % field.p if vals.dtype == object else vals), 1


def _bulk_coo(field, rows, cols, block):
    """The matrix of the triplet lines of `block` if _bulk_triplets reads
    them and every value is in the field, else None."""
    bulk = _bulk_triplets(block, rows, cols)
    if bulk is None:
        return None
    ri, ci, vals = bulk
    nums = _bulk_nums(field, *((vals, None) if vals.ndim == 1 else vals.T))
    if nums is None:
        return None
    return ExactMatrix.from_num_coo(field, rows, cols, ri, ci, *nums, in_range=True)


def _parse_triplets(rd, field, rows, cols, count=None, name=None):
    """The next `count` triplet lines of `rd`, or all the rest when count is
    None, as a rows x cols matrix; `name` is the certificate block named in
    errors.  A block of canonical lines is decoded in bulk; the line loop
    parses everything else and names the first bad line."""
    m = rd.bulk(count, lambda b: _bulk_coo(field, rows, cols, b))
    if m is not None:
        return m
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


def render_matrix(m, fmt=None, as_bytes=False):
    """The text of m's matrix file, or its ASCII bytes if `as_bytes`;
    `fmt` is dense or sparse, by m's storage when None."""
    if fmt is None:
        fmt = "dense" if m.is_dense else "sparse"
    if fmt not in ("dense", "sparse"):
        raise ValueError(f"format must be dense or sparse, got {fmt!r}")
    data = (f"field: {m.field.header}\nrows: {m.rows}\ncols: {m.cols}\n"
            f"format: {fmt}\n").encode("ascii")
    if fmt == "sparse":
        data += _triplet_text(m)
    elif m.rows and m.cols:  # zero-width rows would render as blank lines
        nums = m.num_dense().ravel()
        ends = np.full(len(nums), ord(" "), dtype=np.uint8)
        ends[m.cols - 1::m.cols] = ord("\n")
        data += _text(_value_parts(nums, m.den), ends)
    return data if as_bytes else data.decode("ascii")


def _bulk_dense(field, cols, block):
    """The matrix of the rows of `block` if _bulk_values reads them and
    every value is in the field, else None."""
    bulk = _bulk_values(block, cols, np.ones(cols, dtype=bool))
    nums = None if bulk is None else _bulk_nums(field, *bulk)
    return None if nums is None else ExactMatrix.from_num_dense(field, *nums)


def _parse_dense(rd, field, rows, cols):
    """The next `rows` rows of `cols` entries.  Rows of canonical tokens
    are decoded in bulk; the line loop parses everything else and names
    the first bad line."""
    if rows == 0 or cols == 0:
        return ExactMatrix.zeros(field, rows, cols)
    m = rd.bulk(rows, lambda b: _bulk_dense(field, cols, b))
    if m is not None:
        return m
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
    """The matrix of a matrix file's text, as str or UTF-8 bytes."""
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
    with open(path, "rb") as fh:
        return parse_matrix(fh.read())


def write_matrix(path, m, fmt=None):
    data = render_matrix(m, fmt, as_bytes=True)
    with open(path, "wb") as fh:
        fh.write(data)


# ----------------------------------------------------------------------
# certificates


def _render_support(name, idx):
    if idx is None:
        return f"{name}: -"
    vals = " ".join(str(int(i)) for i in idx)
    return f"{name}: {vals}" if vals else f"{name}:"


def render_cert(cert, as_bytes=False):
    """The text of cert's certificate file, or its ASCII bytes if
    `as_bytes`."""
    out = ["kind: certificate",
           f"field: {cert.field.header}",
           f"order: {cert.n}",
           f"inner: {cert.inner_dim}",
           f"claimed_rank: {cert.claimed_rank}",
           f"claimed_sparsity: {cert.claimed_sparsity}",
           _render_support("support_rows", cert.support_rows),
           _render_support("support_cols", cert.support_cols), ""]
    chunks = ["\n".join(out).encode("ascii")]
    for name, m in (("u", cert.u), ("v", cert.v), ("z", cert.z)):
        chunks += [f"{name}: {m.nnz}\n".encode("ascii"), _triplet_text(m)]
    data = b"".join(chunks)
    return data if as_bytes else data.decode("ascii")


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
    """The certificate of a certificate file's text, as str or UTF-8 bytes."""
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
    with open(path, "rb") as fh:
        return parse_cert(fh.read())


def write_cert(path, cert):
    # through render_cert, not a private renderer, so that a trace of
    # render_cert also times the certificates written to files
    data = render_cert(cert, as_bytes=True)
    with open(path, "wb") as fh:
        fh.write(data)


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
