"""One numeric column of a CSV file for audit: numpy chunks, csv where it must.

Loaded on the first audit, so that the other commands neither compile this
module nor import csv.

The lines up to the header row are read as text, as csv reads them.  The
body is read in binary chunks of about 1 MiB, each cut after its last
line end.  In a chunk numpy finds the line ends and the commas, drops
the blank and '#' lines, and takes the column's cell from every other
line; _floats then parses the cells, 8192 at a time, to the bits float()
gives them.  A cell of plain decimal grammar is read in numpy, as an
exact decimal integer times a double-double power of ten rounded once;
float() reads every other cell, and the rare one too near a rounding
midpoint for that product to settle.  From the first chunk that a comma
split might read apart from csv (see _chunk) on, csv.reader reads the
input as the per-row reader always did: its text stream decodes in the
8192-byte steps of a file opened at its first byte, so values and
errors, a byte that is not UTF-8 included, come out as they would from
csv over the whole file.  A pipe takes the same single pass.  The values
come out as float64 arrays, about one per chunk, and audit counts each
as it is read.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math

import numpy as np

from ._closed import _pow10_parts, _veltkamp

_CHUNK = 1 << 20
# Rows per float64 part on the csv path, and cells per _floats batch.
_ROWS = 1 << 16
_BATCH = 8192
# io.TextIOWrapper decodes its buffer in reads of this many bytes.
_TEXT_STEP = 8192
_BOM = b"\xef\xbb\xbf"
# Bytes on which a comma split and float() may read a line apart from
# csv.reader and float(): a quote, a CR (a line end of its own), and the
# ASCII separators that str.strip() and float() of a str take as
# whitespace and their bytes counterparts do not.  Non-ASCII bytes too.
_ODD = (b'"', b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_LF, _HASH, _COMMA = 10, 35, 44
_SPACE = (9, 11, 12, 32)  # the ASCII whitespace an _ODD-free line can start with

# _floats reads cells of at most _SLOTS bytes, with at most _DIGITS mantissa
# digits, N < 10**23, and the decimal exponents q where N * 10**q may be a
# normal double.
_SLOTS, _DIGITS = 24, 23
_QMIN, _QMAX = -331, 308
_J = np.arange(_SLOTS, dtype=np.uint8)[:, None]
_K = _J[:_DIGITS]
_TAIL = np.arange(1, 4)[:, None]
_EXP = np.array([1, 10, 100])
# A and B from the digit pairs: A = pairs 0-5, B = pairs 6-10 and digit 22.
_AB = np.zeros((2, 12))
_AB[0, :6] = 10.0 ** np.arange(10, -1, -2)
_AB[1, 6:11] = 10.0 ** np.arange(9, 0, -2)
_AB[1, 11] = 1.0
_GUARD = 2.0**-70


def _parts(path: str, column: str | None, col_index: int | None, header: bool):
    """The column as float64 arrays, about one per 1 MiB read, NaN where a
    cell does not parse or a row is short."""
    rows = 0
    with open(path, "rb") as fh:
        try:
            for part in _read(fh, path, column, col_index, header):
                rows += part.size
                yield part
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")


def _index(head, path: str, column: str | None, col_index: int | None) -> int:
    """The column's index, given the header row (None if there is none)."""
    if column is None:
        return col_index or 0
    if head is None:
        raise ValueError(f"{path}: empty input")
    names = [c.strip() for c in head]
    if column not in names:
        raise ValueError(f"{path}: no column named {column!r} in {names}")
    return names.index(column)


def _plain(buf: bytes) -> bool:
    return buf.isascii() and not any(c in buf for c in _ODD)


def _head(buf: bytes, at: int, path: str, column, col_index, header: bool):
    """(index, where the rows start in buf), or None where csv must read from the top.

    buf is the input from offset at on.  The blank and '#' lines ahead of
    the first row, and the header row, are decoded and tested as the csv
    loop tests them; csv must read if they are not UTF-8, hold a CR (a line
    end of its own in text mode), or cut a character at an 8192-byte step
    of the input (see _text), or if the header row runs past its line.
    """
    end = 0
    while end < len(buf):
        start, end = end, buf.find(b"\n", end) + 1 or len(buf)
        try:
            line = buf[start:end].decode()
        except UnicodeDecodeError:
            return None
        if line.strip() and not line.lstrip().startswith("#"):
            break
    else:
        return None  # no row in the first chunk
    if not header:
        end = start
    steps = range(-at % _TEXT_STEP or _TEXT_STEP, end, _TEXT_STEP)
    if b"\r" in buf[:end] or any(0x80 <= buf[k] < 0xC0 for k in steps):
        return None
    if not header:
        return _index(None, path, column, col_index), start
    rows = csv.reader([line, "\n"])
    try:
        names = next(rows)
        if rows.line_num == 1:  # the header row ends with its line
            return _index(names, path, column, col_index), end
    except (ValueError, csv.Error):  # csv raises it, after any bad byte it decodes first
        pass
    return None


def _cell(text) -> float:
    """float(text), or NaN where float() rejects it."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _chunk(buf: bytes, idx: int, limit: int):
    """Field idx of the lines of buf as float64, blank and '#' lines left out,
    or None where csv must read buf.

    buf holds whole lines; the last may lack its line end.  csv must read
    a chunk that is not ASCII, that holds an _ODD byte, or that has a line
    longer than limit, the field size csv refuses.  A short row gives NaN.
    """
    if not _plain(buf):
        return None
    found = _cells(np.frombuffer(buf, np.uint8), idx, limit)
    if found is None:
        return None
    lines, rows, lo, hi = found
    values = np.full(lines, math.nan)
    for i in range(0, rows.size, _BATCH):
        values[rows[i : i + _BATCH]] = _floats(buf, lo[i : i + _BATCH], hi[i : i + _BATCH])
    return values


def _cells(b: np.ndarray, idx: int, limit: int):
    """(the number of lines kept, those that reach field idx, and where
    that field starts and ends in them), or None if a line is too long."""
    if not b.size:
        return 0, np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0, np.intp)
    ends_field = b == _COMMA
    ends_field |= b == _LF
    sep = np.flatnonzero(ends_field)  # where each field ends
    del ends_field
    lf = np.flatnonzero(b[sep] == _LF)  # the fields that end a line
    if b[-1] != _LF:
        sep = np.append(sep, b.size)
        lf = np.append(lf, sep.size - 1)
    ends = sep[lf]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    if (ends - starts).max() > limit:
        return None
    first = b[starts]
    led = np.flatnonzero(_spaces(first))
    if led.size:  # csv strips these lines first: test their first other byte
        space = _spaces(b)
        solid = np.flatnonzero(space[:-1] > space[1:]) + 1  # the byte after each run of spaces
        first[led] = np.append(b[solid], _LF)[np.searchsorted(solid, starts[led])]
    keep = (first != _LF) & (first != _HASH)
    field = np.empty_like(lf)  # the field idx of each line, as an index into sep
    field[0] = idx
    field[1:] = lf[:-1] + (1 + idx)
    if not keep.all():
        starts, lf, field = starts[keep], lf[keep], field[keep]
    rows = np.flatnonzero(field <= lf)
    field = field[rows]
    return lf.size, rows, starts[rows] if idx == 0 else sep[field - 1] + 1, sep[field]


def _spaces(a: np.ndarray) -> np.ndarray:
    """Where the bytes a are in _SPACE."""
    found = a == _SPACE[0]
    for c in _SPACE[1:]:
        found |= a == c
    return found


@functools.cache
def _pow10_table():
    """shift, hi, hh, hl, lo per q in [_QMIN, _QMAX] (index q - _QMIN), from
    exact integers: 10**q = 2**shift * T with T in [1, 2), hi + lo within
    2**-106 of T, and hh + hl the split of hi into halves of 26 bits."""
    shift, hi, lo = zip(*map(_pow10_parts, range(_QMIN, _QMAX + 1)))
    tables = (np.array(shift), np.array(hi), *_veltkamp(np.array(hi)), np.array(lo))
    for t in tables:
        t.flags.writeable = False  # shared by every caller
    return tables


def _count(mask):
    """How many slots of each column of a (rows, n) bool matrix are set."""
    return np.add.reduce(mask.view(np.uint8), axis=0, dtype=np.uint8)


def _floats(buf: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """float() of the cells buf[lo:hi], NaN where it raises.

    The cells are read down the columns of a (25, n) byte matrix, one row
    per slot and NUL past each cell's end.  A cell of the grammar
    [+-]?digits[.digits][(e|E)[+-]?d{1,3}], with at least one mantissa
    digit and at most 24 bytes, is read in numpy: a sign reads as a
    leading 0 and the dot is squeezed out, and its mantissa digits, at
    most 23, make N = A * 10**11 + B, left-aligned in 23 places, A the
    first 12 digits and B the next 11, each summed exactly in a double by
    a fixed-weight dot product.  The cell's value is N * 10**q, where q is
    the exponent plus the slots ahead of the dot, less 23.

    N is held exactly as nh + nl: the error of A * 10**11 (10**11 has 26
    bits) comes from Dekker's product and that of the sum from TwoSum.
    With 10**q = 2**shift * T and T within 2**-106 of a table's hi + lo,
    Dekker's product nh * hi plus nh * lo + nl * hi is a double-double
    within 2**-102 * r of N * T, held exactly as r + d, r the double
    nearest it.  Where r + d lies farther than 2**-70 * r from both
    rounding midpoints of r (half an ulp above and below it, but a quarter
    ulp below a power of two, where the ulp below is half as wide), N * T
    rounds to r as well, and r * 2**shift is the correctly rounded value,
    exact wherever it is a normal double.

    float() reads the rest, one cell at a time: every cell outside that
    grammar, every cell within the 2**-70 guard of a midpoint (exact ties
    among them), every cell whose q lies outside [_QMIN, _QMAX], and every
    cell whose value is subnormal or overflows.
    """
    b = np.frombuffer(buf, np.uint8)
    c, width = _slots(b, lo, hi)
    fast, D, m, edigits, eneg = _grammar(c, width)
    A, B = _mantissa(c, D, m)
    neg = c[0] == 45
    del c
    tail = np.take(b, hi - _TAIL, mode="clip") - np.uint8(48)  # the last three bytes
    tail *= edigits >= _TAIL
    expo = _EXP @ tail
    k = np.where(eneg, -expo, expo) + D - (_DIGITS + _QMIN)  # q - _QMIN
    fast &= (k >= 0) & (k <= _QMAX - _QMIN)
    k *= fast
    x = _scale(A, B, k, fast)
    np.negative(x, out=x, where=neg)
    for i in np.flatnonzero(~fast).tolist():
        x[i] = _cell(buf[lo[i] : hi[i]])
    return x


def _slots(b: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(c, width): the bytes of the cells b[lo:hi] down the columns of a
    (25, n) matrix, NUL past each cell's end, and the widths, 25 at most."""
    c = np.zeros((_SLOTS + 1, lo.size), np.uint8)  # row _SLOTS stays NUL
    for j in range(min(_SLOTS, b.size)):  # a slot past the buffer is past every cell
        np.take(b[j:], lo, out=c[j], mode="clip")
    width = np.minimum(hi - lo, _SLOTS + 1).astype(np.uint8)
    c[:_SLOTS] *= _J < width
    return c, width


def _grammar(c: np.ndarray, width: np.ndarray):
    """(fast, D, m, edigits, eneg) of the cells in c.

    fast: whether the cell is of the fast grammar.  Where it is: D, the
    slot of the dot (that of the e, or the width, if there is none); m,
    the mantissa digits, a sign among them; edigits, the exponent digits
    (0 without an e); eneg, whether the exponent is negative.  The grammar
    is checked by counts: every byte is a digit, dot, e or sign, and the
    counts and slots of the others fit it.
    """
    slots = c[:_SLOTS]
    dot = slots == 46
    dots, D = _count(dot), _count(dot * _J)
    del dot
    ex = (slots | np.uint8(32)) == 101
    exps, E = _count(ex), _count(ex * _J)
    del ex
    sign = (slots == 43) | (slots == 45)
    signs, lead = _count(sign), sign[0].view(np.uint8)
    del sign
    has_e = exps == 1
    E = np.where(has_e, E, width)
    D = np.where(dots == 1, D, E)
    n = width.size
    after_e = c.reshape(-1)[np.minimum(E + 1, _SLOTS).astype(np.intp) * n + np.arange(n)]
    esign = (has_e & ((after_e == 43) | (after_e == 45))).view(np.uint8)
    edigits = has_e * (width - E - 1 - esign)
    fast = (_count(slots - np.uint8(48) < 10) + dots + exps + signs == width) & (width <= _SLOTS)
    fast &= (exps <= 1) & (dots <= 1) & (signs == lead + esign)
    fast &= (D <= E) & (E > dots + lead) & (E - dots <= _DIGITS)
    fast &= (edigits - np.uint8(1) < 3) | ~has_e
    return fast, D, E - dots, edigits, has_e & (after_e == 45)


def _mantissa(c: np.ndarray, D: np.ndarray, m: np.ndarray):
    """(A, B), the integers of the first 12 and the next 11 of the 23
    left-aligned mantissa digits of the cells in c, summed exactly.

    Digit k is slot k before the dot D and slot k + 1 after it; the first
    m are kept, a sign read as 0, and the rest are 0.
    """
    v = c - np.uint8(48)  # digit values; every other byte wraps to 10 or more
    d = v[1:_SLOTS] - v[:_DIGITS]
    d *= _K >= D
    d += v[:_DIGITS]
    del v
    d *= (d < 10) & (_K < m)
    d[0:22:2] *= np.uint8(10)
    pairs = np.empty((12, d.shape[1]))  # digit pairs 0-1 ... 20-21, then digit 22
    np.add(d[0:22:2], d[1:22:2], out=pairs[:11])
    pairs[11] = d[22]
    del d
    return _AB @ pairs


def _scale(A: np.ndarray, B: np.ndarray, k: np.ndarray, fast: np.ndarray) -> np.ndarray:
    """N * 10**q for N = A * 10**11 + B and q = k + _QMIN, rounded once;
    fast is cleared where the rounding or the range needs float()."""
    p = A * 1e11
    ah, al = _veltkamp(A)
    nh = p + B
    b = nh - p
    nl = (p - (nh - b)) + (B - b)  # TwoSum: nh + nl == p + B
    nl += (ah * 1e11 - p) + al * 1e11  # nh + nl == N
    shift, th, hh, hl, tl = (t[k] for t in _pow10_table())
    p = nh * th
    ah, al = _veltkamp(nh)
    lo = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # p + lo == nh * th
    lo += nh * tl + nl * th
    r = p + lo
    d = lo - (r - p)  # r + d == p + lo exactly
    frac, e2 = np.frexp(r)
    half = np.ldexp(0.5 - 0.25 * ((frac == 0.5) & (d < 0)), e2 - 53)  # to the midpoint
    fast &= half - np.abs(d) > _GUARD * r
    e2 += shift
    fast &= (e2 >= -1021) & (e2 <= 1024)  # normal
    return np.ldexp(frac, e2 * fast)


class _Replay(io.BufferedIOBase):
    """head, then the rest of fh; a read returns all it asks for until the
    end, as the reads of a regular file do."""

    def __init__(self, head: bytes, fh):
        super().__init__()
        self._head, self._at, self._fh = head, 0, fh

    def readable(self) -> bool:
        return True

    def read1(self, size: int) -> bytes:
        got = self._head[self._at : self._at + size]
        self._at += len(got)
        return got + self._fh.read(size - len(got)) if len(got) < size else got


def _text(rest: bytes, at: int, bom: bytes, fh):
    """Text of rest, the input's bytes from offset at on, then of fh.

    Blank lines stand in for the bytes before at in the current 8192-byte
    step, so a decode error names the position that a text file opened at
    offset 0 would name: the bytes before at are UTF-8 that ends with its
    line, and no character straddles the step's start (see _head).
    """
    if at < _TEXT_STEP:
        head, encoding = bom + b"\n" * (at - len(bom)), "utf-8-sig"
    else:
        head, encoding = b"\n" * (at % _TEXT_STEP), "utf-8"
    return io.TextIOWrapper(_Replay(head + rest, fh), encoding=encoding, newline="")


def _csv_parts(text, path: str, column, col_index, header: bool, idx=None):
    """The per-row csv reader: blank and '#' lines are skipped, the header
    row is read unless idx is known, and a cell that float() rejects is NaN."""
    rows = csv.reader(line for line in text if line.strip() and not line.lstrip().startswith("#"))
    if idx is None:
        idx = _index(next(rows, None) if header else None, path, column, col_index)
    cells = (_cell(row[idx]) if idx < len(row) else math.nan for row in rows)
    while (part := np.fromiter(itertools.islice(cells, _ROWS), float)).size:
        yield part


def _split(carry: bytes, data: bytes):
    """(the whole lines, the rest) of carry + data; all of it once data is empty."""
    if not data:
        return carry, b""
    cut = data.rfind(b"\n") + 1
    if not cut:
        return b"", carry + data
    return b"".join((carry, memoryview(data)[:cut])), data[cut:]


def _read(fh, path: str, column, col_index, header: bool):
    """The column's parts in the binary file fh."""
    limit = csv.field_size_limit()
    data = fh.read(_CHUNK)
    bom = _BOM if data.startswith(_BOM) else b""
    body, carry = _split(b"", data[len(bom) :] if bom else data)
    del data
    head = _head(body, len(bom), path, column, col_index, header)
    if head is None:
        yield from _csv_parts(_text(bom + body + carry, 0, b"", fh), path, column, col_index, header)
        return
    idx, start = head
    at = len(bom)  # the offset of body[0] in the input
    while body or carry:
        # a line with no end yet and longer than csv accepts goes to csv
        part = None if not body and len(carry) > limit else _chunk(body[start:], idx, limit)
        if part is None:
            text = _text(body[start:] + carry, at + start, bom, fh)
            yield from _csv_parts(text, path, column, col_index, header, idx)
            return
        yield part
        at, start = at + len(body), 0
        body, carry = _split(carry, fh.read(_CHUNK))
