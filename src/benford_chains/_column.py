"""One numeric column of a CSV file for audit: numpy chunks, csv where it must.

Loaded on the first audit, so that the other commands neither compile this
module nor import csv.

The lines up to the header row are read as text, as csv reads them.  The
body is read in binary chunks of about 1 MiB, each cut after its last
line end.  In a chunk numpy finds the line ends and the commas, drops the
blank and '#' lines, and takes the column's cell from every other line;
np.array(cells, dtype=float) then parses the cells by float()'s grammar,
8192 at a time.  From the first chunk that a comma split might read apart
from csv (see _chunk) on, csv.reader reads the input as the per-row
reader always did: its text stream decodes in the 8192-byte steps of a
file opened at its first byte, so values and errors, a byte that is not
UTF-8 included, come out as they would from csv over the whole file.  A
pipe takes the same single pass.  The values come out as float64 arrays,
about one per chunk, and audit counts each as it is read.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

_CHUNK = 1 << 20
# Rows per float64 part on the csv path, and cells per float() batch.
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


def _floats(buf: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """float() of the cells buf[lo:hi], NaN where it raises."""
    cells = [buf[i:j] for i, j in zip(lo.tolist(), hi.tolist())]
    # An empty cell, and one that starts with a letter ("n/a", "nan"), goes
    # through float() on its own, so that the one call below rarely raises.
    lead = np.frombuffer(buf, np.uint8)[np.minimum(lo, len(buf) - 1)] | 0x20
    odd = (lo == hi) | ((lead >= ord("a")) & (lead <= ord("z")))
    some = bool(odd.any())
    values = np.empty(len(cells))
    try:
        bulk = list(itertools.compress(cells, (~odd).tolist())) if some else cells
        values[~odd] = np.array(bulk, dtype=float)
    except ValueError:
        odd[:], some = True, True
    if some:
        values[odd] = [_cell(c) for c in itertools.compress(cells, odd.tolist())]
    return values


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
