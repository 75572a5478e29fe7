"""simulate CSV rows as bytes, from a numpy kernel for '%.17g'.

Loaded on the first simulate row, so that the other commands neither
compile this module nor build its power-of-ten table.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._closed import _pow10_parts, _veltkamp

# Decimal exponents X of the positive doubles: 5e-324 <= x < 1.8e308.
_XMIN, _XMAX = -324, 308


@functools.cache
def _pow10_table():
    """Per decimal exponent X (index X - _XMIN), from exact integers:

    least: the least double >= 10**X, for X up to _XMAX + 1 (inf there);
    shift, hh, hl, lo: with p = 16 - X, 10**p = 2**shift * T where T lies
    in [1, 2); hh + hl is the double nearest T, split into two halves of
    at most 26 bits, and lo the double nearest T - hh - hl, so that
    |T - hh - hl - lo| <= 2**-106.
    """
    least, shift, hh, hl, lo = [], [], [], [], []
    for x in range(_XMIN, _XMAX + 1):
        num, den = (10**x, 1) if x >= 0 else (1, 10**-x)
        d = num / den  # int / int rounds correctly
        a, b = d.as_integer_ratio()
        least.append(math.nextafter(d, math.inf) if a * den < num * b else d)
        s, h, low = _pow10_parts(16 - x)
        high, split = _veltkamp(h)
        hh.append(high)
        hl.append(split)
        lo.append(low)
        shift.append(s)
    least.append(math.inf)
    tables = (np.array(least), np.array(shift, dtype=np.int32), np.array(hh), np.array(hl), np.array(lo))
    for t in tables:
        t.flags.writeable = False  # shared by every caller
    return tables


# |y - computed y| in _round17 is below 2**-47; a computed fraction of y
# this close to 1/2 may round either way and goes to %.17g.
_TIE_GUARD = 2.0**-40


def _round17(x):
    """(n, X, slow): n * 10**(X - 16) is x rounded half-even to 17 digits.

    10**16 <= n < 10**17 except where slow is set: those elements (not
    finite and positive, or too near a rounding tie) are left to %.17g.
    """
    least, shift, hh, hl, lo = _pow10_table()
    ok = (x > 0.0) & (x < math.inf)
    if not ok.all():
        x = np.where(ok, x, 1.0)
    # log10 is off by far less than 1e-9, so e is X or X + 1 (offset past
    # 0 so that truncation floors), and one compare with 10**e settles it.
    e = (np.log10(x) + (1e-9 - _XMIN)).astype(np.intp)
    e -= x < least[e]
    # y = x * 10**(16 - X), in [1e16, 1e17), is a * T with a = x * 2**shift exact.
    a = np.ldexp(x, shift[e])
    ah, al = _veltkamp(a)
    bh, bl = hh[e], hl[e]
    p = a * (bh + bl)
    # Dekker: a * (bh + bl) = p + err exactly; p >= 2**53 is an integer.
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    r = err + a * lo[e]
    whole = np.floor(r)
    r -= whole
    slow = ~ok | (np.abs(r - 0.5) <= _TIE_GUARD)
    n = p.astype(np.int64) + whole.astype(np.int64) + (r > 0.5)
    e += _XMIN
    carry = n == 10**17
    n[carry] = 10**16
    return n, e + carry, slow


_J18 = np.arange(18, dtype=np.uint8)[:, None]
_J5 = np.arange(5, dtype=np.uint8)[:, None]
_ZEROS = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]


def _g17_slots(x, out) -> None:
    """The %.17g bytes of each x down a column of out (28 rows), NUL-padded.

    Rows 0-4 take a fixed-notation "0.000" prefix, rows 5-22 the digits
    with any point, rows 23-27 an exponent "e+dd" or "e-ddd".
    """
    n, X, slow = _round17(x)
    d = np.zeros((19, len(x)), dtype=np.uint8)  # the 17 digits in rows 1-17
    hi = n // 10**8
    for v, top, count in ((n - hi * 10**8, 17, 8), (hi, 9, 9)):
        v = v.astype(np.uint32)
        for j in range(top, top - count, -1):
            q = v // 10
            d[j] = v - q * 10
            v = q
    zero = d[17] == 0
    tz = zero.astype(np.uint8)  # trailing zeros, at most 15 (n >= 10**16)
    for j in range(16, 1, -1):
        zero &= d[j] == 0
        tz += zero
    d[1:18] += 48
    # %g: fixed notation for -4 <= X < 17, else exponent notation.
    X = X.astype(np.int16)
    fixed = (X >= -4) & (X < 17)
    big = fixed & (X >= 0)  # all digits of the integer part are shown
    small = fixed ^ big  # "0." and -X - 1 zeros go ahead of the digits
    point = 1 + big * X + small * np.uint8(16)  # digits ahead of the point
    shown = np.maximum(17 - tz, big * (X + 1).astype(np.uint8))
    width = shown + (shown > point)
    body = out[5:23]  # slot j: digit j before the point, '.', digit j - 1 after
    np.subtract(d[1:19], d[0:18], out=body)
    body *= _J18 < point
    body += d[0:18]
    body += (_J18 == point) * (46 - d[0:18])
    body *= _J18 < width
    np.multiply(_ZEROS, _J5 < small * (1 - X).astype(np.uint8), out=out[:5])
    exp = ~fixed
    mag = np.abs(X)
    hundreds, tens = mag // 100, mag // 10
    out[23] = exp * np.uint8(101)
    out[24] = exp * (43 + 2 * (X < 0)).astype(np.uint8)
    out[25] = (exp & (mag >= 100)) * (48 + hundreds)
    out[26] = exp * (48 + tens - 10 * hundreds)
    out[27] = exp * (48 + mag - 10 * tens)
    for i in np.flatnonzero(slow):
        text = np.frombuffer(b"%.17g" % x[i], dtype=np.uint8)
        out[:, i] = 0
        out[: len(text), i] = text


def _int_slots(v, out) -> None:
    """The %d bytes of each int64 v down a column of out, NUL-padded.

    Row 0 holds a '-' or NUL, the rest a digit each: out needs one row
    more than max(abs(v)) has digits.
    """
    mag = u = np.abs(v).astype(np.uint64)
    for j in range(len(out) - 1, 0, -1):
        q = u // 10
        out[j] = u - q * 10
        u = q
    out[1:] += 48
    out[1:-1] *= mag >= 10 ** np.arange(len(out) - 2, 0, -1, dtype=np.uint64)[:, None]  # leading zeros
    out[0] = (v < 0) * np.uint8(45)


def format_rows(first: int, values, mants, digits) -> bytes:
    """simulate CSV rows numbered from first, one per element of the arrays.

    The bytes are those of the template "%d,%.17g,%.17g,%d\\n" per row.
    The fields are built down the columns of a NUL-padded byte matrix with
    a row per character slot, by numpy operations over whole rows; slots
    NUL in every column are dropped, the matrix is transposed to one row
    per CSV row and its NULs are dropped.

    _round17 rounds each float to 17 digits exactly: y = x * 10**(16 - X)
    lies in [1e16, 1e17) for the exact decimal exponent X (a compare with
    the least double >= 10**X), and is computed as the double-double
    product of x * 2**shift (exact) and 10**(16 - X) * 2**-shift, a
    double-double within 2**-106 of it built from exact integers.  The
    computed y is then within 2**-47 of the exact one, so wherever its
    fraction is farther than 2**-40 from 1/2 it rounds to the same
    integer.  The rest (exact ties like 1 + 2**-17, about 1 value in
    2**39 otherwise) and anything not finite and positive are formatted
    by CPython's %.17g, so every byte is that template's byte.
    """
    m = len(values)
    index = np.arange(first, first + m, dtype=np.int64)
    digits = np.asarray(digits, dtype=np.int64)
    iw = 1 + max(len(str(abs(first))), len(str(abs(first + m - 1))))
    dw = 1 + (len(str(int(np.abs(digits).max()))) if m else 1)
    buf = np.empty((iw + dw + 60, m), dtype=np.uint8)
    _int_slots(index, buf[:iw])
    buf[[iw, iw + 29, iw + 58]] = 44  # the commas
    floats = np.empty((28, 2 * m), dtype=np.uint8)  # both columns in one pass
    _g17_slots(np.concatenate((values, mants)), floats)
    buf[iw + 1 : iw + 29] = floats[:, :m]
    buf[iw + 30 : iw + 58] = floats[:, m:]
    _int_slots(digits, buf[iw + 59 : -1])
    buf[-1] = 10
    rows = buf[buf.any(axis=1)].T.copy()  # slots NUL in every row dropped
    return rows[rows != 0].tobytes()
