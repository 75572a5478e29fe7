"""The audit cell parser against float(): every bit the same.

`_column._floats` reads the cells of its fast grammar in numpy, rounding an
exact decimal times a double-double power of ten once, and hands every other
cell to float(); the oracle is float() of each cell, NaN where it raises.
"""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from benford_chains import _column

SEED = 20261020


def parse(cells):
    """_floats of the cells, laid out one per line as a CSV chunk holds them."""
    buf = b"\n".join(cells) + b"\n"
    sizes = np.array([len(c) for c in cells], dtype=np.intp)
    lo = np.zeros(len(cells), dtype=np.intp)
    np.cumsum(sizes[:-1] + 1, out=lo[1:])
    hi = lo + sizes
    step = _column._BATCH
    parts = [_column._floats(buf, lo[i : i + step], hi[i : i + step]) for i in range(0, len(cells), step)]
    return np.concatenate(parts) if parts else np.empty(0)


def oracle(cells):
    return np.array([_column._cell(c) for c in cells])


def assert_parses_like_float(cells):
    cells = [c.encode() if isinstance(c, str) else c for c in cells]
    got, want = parse(cells).view(np.uint64), oracle(cells).view(np.uint64)
    wrong = np.flatnonzero(got != want)
    if wrong.size:
        i = wrong[0]
        g, w = got[i : i + 1].view(np.float64)[0], want[i : i + 1].view(np.float64)[0]
        raise AssertionError(f"{wrong.size} cells differ; first {cells[i]!r}: got {g!r}, float() gives {w!r}")


def fallback_cells(cells, monkeypatch):
    """The cells that _floats hands to float()."""
    seen, cell = [], _column._cell

    def spy(text):
        seen.append(bytes(text))
        return cell(text)

    monkeypatch.setattr(_column, "_cell", spy)
    parse([c.encode() for c in cells])
    monkeypatch.undo()
    return seen


def signed(texts, rng):
    neg = rng.random(len(texts)) < 0.5
    return ["-" + t if n else t for t, n in zip(texts, neg.tolist())]


def test_random_doubles_in_every_format():
    rng = np.random.default_rng(SEED)
    bits = rng.integers(1, 0x7FF0000000000000, size=10**6, dtype=np.int64)
    values = bits.view(np.float64).tolist()
    # fixed notation on doubles it writes in at most a few dozen bytes
    fixed = np.exp(rng.uniform(math.log(1e-9), math.log(1e17), size=len(values))).tolist()
    places = rng.integers(0, 13, size=len(values)).tolist()
    writers = [repr, "%.17g".__mod__, "%.16g".__mod__, "%.15g".__mod__, "%e".__mod__]
    texts = [writers[i % 6](x) if i % 6 < 5 else "%.*f" % (p, y)
             for i, (x, y, p) in enumerate(zip(values, fixed, places))]
    assert_parses_like_float(signed(texts, rng))


def test_every_power_of_ten_its_neighbours_subnormals_zeros_and_the_extremes():
    texts = []
    for k in range(-325, 310):
        x = float(f"1e{k}")
        texts += [f"1e{k}", f"1E{k:+d}", "%.17g" % x]
        for y in (math.nextafter(x, 0.0), math.nextafter(x, math.inf)):
            texts += [repr(y), "%.17g" % y, "%.16g" % y]
    rng = np.random.default_rng(SEED)
    subnormal = rng.integers(1, 1 << 52, size=5000, dtype=np.int64).view(np.float64).tolist()
    texts += [repr(x) for x in subnormal] + ["%.17g" % x for x in subnormal]
    big, tiny = sys.float_info.max, sys.float_info.min
    for x in (big, math.nextafter(big, 0.0), tiny, math.nextafter(tiny, 0.0), math.nextafter(tiny, 1.0), 5e-324):
        texts += [repr(x), "%.17g" % x, "%.25g" % x]
    texts += ["0", "0.0", "0e0", "0.000e-999", "0e999", "000", ".0", "0."]
    texts += ["1.7976931348623158e308", "1.7976931348623159e308", "2.4703282292062328e-324"]
    assert_parses_like_float(texts + ["-" + t for t in texts])


def midpoints(rng, count):
    """(ties, near): decimal strings of the exact midpoints between random
    adjacent doubles of 2**32 to 2**77, and of those below the powers of two
    there, that need at most 23 significant digits, in fixed notation, with
    a trailing 0 and in exponent notation; and the decimals a digit past
    their last just above and just below each."""
    xs = [math.ldexp(float(m), e) for m, e in zip(
        rng.integers(2**52, 2**53, size=count).tolist(), rng.integers(-20, 25, size=count).tolist())]
    mids = [Fraction(x) + Fraction(math.ulp(x)) / 2 for x in xs]
    mids += [Fraction(2**k) - Fraction(2**k, 2**54) for k in range(32, 78)]
    ties, near = [], []
    for m in mids:
        d = Decimal(m.numerator) / Decimal(m.denominator)  # exact: the denominator is a power of two
        text = format(d, "f")
        if len(text.replace(".", "")) > 23:
            continue
        if "." not in text:
            text += "."
        step = Decimal(1).scaleb(-len(text.split(".")[1]) - 1)
        ties += [text, text + "0", format(d, "e")]
        near += [format(d + step, "f"), format(d - step, "f")]
    return ties, near


def test_exact_midpoints_and_their_neighbours_round_as_float_does(monkeypatch):
    ties, near = midpoints(np.random.default_rng(SEED), 30000)
    assert len(ties) > 30000
    assert sum(t.startswith(("18014398509481983.", "36028797018963966.")) for t in ties) == 4
    assert_parses_like_float(ties + near + ["-" + t for t in ties + near])
    # every exact midpoint, below a power of two too, lies within the guard
    assert fallback_cells(ties, monkeypatch) == [t.encode() for t in ties]


def test_long_mantissas_leading_zeros_signs_and_exponents():
    rng = np.random.default_rng(SEED)
    texts = []
    for n in range(17, 26):
        for _ in range(400):
            digits = "".join(map(str, rng.integers(0, 10, size=n).tolist()))
            dot = int(rng.integers(0, n + 1))
            exp = ["", f"e{int(rng.integers(-330, 320))}", f"E+{int(rng.integers(0, 30)):02d}"][int(rng.integers(0, 3))]
            texts.append(digits[:dot] + "." + digits[dot:] + exp if dot < n else digits + exp)
    texts += ["000123.4500", "0.000001234", "00000000000000000000001", "0000000000000000000000001",
              ".5", "5.", "-.5", "+.5", "+5.", "+1.5", "+1e+5", "1e5", "1e05", "1e005", "1e0005", "1e-0005",
              "1e+308", "1e309", "1e-400", "1e-324", "9e-324", "123456789012345678901234e-300",
              "12345678901234567890123", "123456789012345678901234", "4.9406564584124654e-324"]
    assert_parses_like_float(texts + ["-" + t for t in texts])


@pytest.mark.parametrize("text", [
    " 1.5", "1.5 ", "\t2", "1_0", "1_000.5", "Infinity", "-Infinity", "inf", "-inf", "nan", "-nan", "NaN",
    "1d5", "--1", "+-1", "-+1", "", ".", "-", "+", "e5", ".e5", "1e", "1e+", "1e-", "1e5.5", "1.2.3",
    "1e5e5", "1ee5", "0x10", "1,5", "n/a", "1\x00", "\x001", "١", "1e1000", "1e-1000",
])
def test_cells_outside_the_fast_grammar_go_to_float(monkeypatch, text):
    assert_parses_like_float([text, "2.5", text])
    assert fallback_cells([text], monkeypatch) == [text.encode()]


def test_cells_of_the_fast_grammar_need_no_float(monkeypatch):
    texts = ["1", "-1", "1.5", "-0.25", ".5", "5.", "1e5", "1E-5", "+2.5e+300", "-2.2250738585072014e-308",
             "12345678901234567890123", "1.6894690061803933e-11", "0.0051954428044525729", "-0", "0e-999"]
    assert fallback_cells(texts, monkeypatch) == ["0e-999".encode()]
