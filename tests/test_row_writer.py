"""The simulate row writer against CPython's '%.17g': every byte the same.

`_rows.format_rows` rounds to 17 digits in numpy and lays the digits out by
%g's rules; the oracle is the one Python template it replaced.
"""

import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

import benford_chains
from benford_chains import _rows

SEED = 20261019
CHUNK = 8192


def template_rows(first, values, mants, digits):
    """The old writer: one % template over the rows."""
    n = len(values)
    flat = [None] * (4 * n)
    flat[0::4] = range(first, first + n)
    flat[1::4] = values.tolist()
    flat[2::4] = mants.tolist()
    flat[3::4] = digits.tolist()
    return ("%d,%.17g,%.17g,%d\n" * n % tuple(flat)).encode()


def assert_rows_match(values, mants, digits, first=0):
    for lo in range(0, len(values), CHUNK):
        cut = slice(lo, lo + CHUNK)
        got = _rows.format_rows(first + lo, values[cut], mants[cut], digits[cut])
        want = template_rows(first + lo, values[cut], mants[cut], digits[cut])
        if got != want:
            pairs = zip(got.split(b"\n"), want.split(b"\n"))
            row = next((g, w) for g, w in pairs if g != w)
            raise AssertionError(f"first differing row (got, want): {row}")


def check_column(values, digits=None, first=0):
    """values in both float columns (the mantissa column shifted by one row)."""
    values = np.asarray(values, dtype=np.float64)
    if digits is None:
        digits = np.arange(len(values)) % 10**6
    assert_rows_match(values, np.roll(values, 1), np.asarray(digits, dtype=np.int64), first)


def test_random_doubles_subnormals_included():
    rng = np.random.default_rng(SEED)
    normal = rng.integers(1, 0x7FF0000000000000, size=10**6, dtype=np.int64)
    subnormal = rng.integers(1, 1 << 52, size=20000, dtype=np.int64)
    bits = np.concatenate([normal, subnormal])
    digits = rng.integers(0, 10**6, size=len(bits))
    digits[:3] = (0, 10**6 - 1, 999)
    check_column(bits.view(np.float64), digits, first=10**8 - len(bits))


def test_every_power_of_ten_and_its_neighbours():
    values = [5e-324, math.nextafter(5e-324, 1.0), sys.float_info.max, math.nextafter(sys.float_info.max, 0.0)]
    for k in range(-323, 309):
        x = float(f"1e{k}")
        values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    # 17-digit roundings that carry into the next power of ten
    texts = ["%.17g" % x for x in values]
    carries = [x for x, s in zip(values, texts) if s.split("e")[0].strip("0.") == "1" and Fraction(x) < Fraction(s)]
    assert len(carries) >= 10
    # the switch points of %g between fixed and exponent notation
    assert {1e-5, 1e-4, 1e16, 1e17} <= set(values)
    check_column(values)


def test_exact_ties_round_half_even():
    # a * 2**-m has m decimals ending in 5 (a odd); with 18 significant
    # digits it lies halfway between two 17-digit decimals
    rng = np.random.default_rng(SEED)
    ties = []
    for m in range(2, 26):
        lo, hi = -(-10**17 // 5**m), min(10**18 // 5**m, 2**53)
        for a in rng.integers(lo, hi, size=400, dtype=np.int64).tolist():
            ties.append(math.ldexp(a | 1, -m))
    ties += [1 + 2.0**-17, 1 + 3 * 2.0**-17]
    ups = 0
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
        ups += Fraction("%.17g" % x) > Fraction(x)
    assert 0.3 * len(ties) < ups < 0.7 * len(ties)  # both ways, by the 17th digit's parity
    check_column(ties)


def test_short_digit_strings_and_integers():
    values = [1.0, 0.5, 0.1, 2.0**-20, 123.0, 1e22, 1e23, 2.0**53, 2.0**63, 0.3, 1e-4 * 3, 7e-5, 9.5]
    check_column(values + [float(10**k) for k in range(17)] + [10.0**-k for k in range(1, 7)])


STARTUP_CHILD = """
import io, sys
from benford_chains import cli

chain, draws = sys.argv[1:]
for argv in (["bound-exp", "--n", "3"], ["bound", "--chain", chain], ["digits", "--chain", chain]):
    assert cli.main(argv, out=io.StringIO()) == 0, argv
print("benford_chains._rows" in sys.modules, [m for m in ("fractions", "decimal") if m in sys.modules])
assert cli.main(["simulate", "--chain", chain, "--samples", "10", "--seed", "1", "--out", draws],
                out=io.StringIO()) == 0
print(sys.modules["benford_chains._rows"]._pow10_table.cache_info().currsize)
"""


def test_short_commands_load_no_row_kernel(tmp_path):
    spec = tmp_path / "chain.json"
    spec.write_text('{"base": 10, "links": [{"family": "exponential", "power": 1}]}')
    src = str(Path(benford_chains.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD, str(spec), str(tmp_path / "draws.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["False []", "1", ""]
