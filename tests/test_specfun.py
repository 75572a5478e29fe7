"""Gamma and zeta helper checks against frozen high-precision values."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import benford_chains
from benford_chains.specfun import (
    complex_gamma,
    gamma_abs_on_line,
    gamma_real,
    zeta_minus_one,
)

# |Gamma(1 + ix)| reference points, frozen from a 50-digit evaluation.
GAMMA_ABS_REF = {
    0.5: 0.82617761427604523,
    1.0: 0.52156404686493984,
    2.0: 0.15318961879123462,
    2.72875: 0.056957488158339766,
    5.0: 0.0021758755481870834,
    5.45750: 0.0011080129360858181,
    10.0: 1.1945605411034557e-06,
}


def test_complex_gamma_integers():
    assert complex_gamma(1) == 1.0 + 0.0j
    assert abs(complex_gamma(5) - 24.0) <= 24.0 * 1e-14
    assert abs(complex_gamma(0.5) ** 2 - math.pi) <= math.pi * 1e-14


def test_complex_gamma_conjugate_symmetry():
    for x in (0.3, 1.0, 4.5):
        for y in (0.25, 1.0, 7.0):
            a = complex_gamma(complex(x, y))
            b = complex_gamma(complex(x, -y))
            assert a == b.conjugate()


def test_complex_gamma_rejects_left_half_plane():
    with pytest.raises(ValueError):
        complex_gamma(0.0)
    with pytest.raises(ValueError):
        complex_gamma(complex(-1.0, 2.0))


def test_first_calls_in_a_fresh_interpreter_bind_scipy_and_match_frozen_bits():
    # scipy.special is bound on the first call that needs it, and that first
    # call already gives the frozen bits.
    src = str(Path(benford_chains.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys\n"
        "from benford_chains.specfun import complex_gamma, zeta_minus_one\n"
        "assert 'scipy.special' not in sys.modules\n"
        "g = complex_gamma(1 + 2j)\n"
        "print(g.real.hex(), g.imag.hex(), zeta_minus_one(3).hex())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # Gamma(1 + 2i) = 0.15190400267003614 + 0.01980488016185498i, zeta(3) - 1
    assert proc.stdout.split() == [
        "0x1.3719721ccb5efp-3", "0x1.447bb0262adddp-6", "0x1.9dd002780310ap-3",
    ]


def test_gamma_abs_on_line_frozen_values():
    for x, ref in GAMMA_ABS_REF.items():
        got = gamma_abs_on_line(x)
        assert got == pytest.approx(ref, rel=1e-13), x


def test_gamma_abs_on_line_matches_reflection_identity():
    # |Gamma(1+ix)|^2 = pi x / sinh(pi x), checked via the complex gamma route
    for x in (0.5, 1.0, 2.72875, 5.0, 8.0):
        direct = abs(complex_gamma(complex(1.0, x))) ** 2
        closed = math.pi * x / math.sinh(math.pi * x)
        assert direct == pytest.approx(closed, rel=1e-12)
        assert gamma_abs_on_line(x) ** 2 == pytest.approx(closed, rel=1e-12)


def test_gamma_abs_on_line_even_and_at_zero():
    assert gamma_abs_on_line(0.0) == 1.0
    for x in (0.75, 3.25, 12.0):
        assert gamma_abs_on_line(-x) == gamma_abs_on_line(x)


def test_gamma_abs_on_line_scaled_branch_is_continuous():
    # the exp-scaled form takes over near pi*x = 30; both branches must agree there
    x0 = 30.0 / math.pi
    for x in (x0 * 0.999, x0 * 1.001, 15.0, 40.0):
        scaled = math.sqrt(2.0 * math.pi * x) * math.exp(-math.pi * x / 2.0)
        scaled /= math.sqrt(-math.expm1(-2.0 * math.pi * x))
        assert gamma_abs_on_line(x) == pytest.approx(scaled, rel=1e-12)


def test_gamma_abs_on_line_no_overflow_far_out():
    assert gamma_abs_on_line(1e6) == 0.0
    assert gamma_abs_on_line(500.0) >= 0.0


def test_zeta_minus_one_frozen_values():
    assert zeta_minus_one(2) == pytest.approx(0.64493406684822644, rel=1e-14)
    assert zeta_minus_one(3) == pytest.approx(0.20205690315959429, rel=1e-14)
    assert zeta_minus_one(10) == pytest.approx(9.945751278180853e-04, rel=1e-14)


def test_zeta_minus_one_large_order_tracks_two_to_minus_n():
    # zeta(n) - 1 ~ 2^-n for large n; the naive alternating-series shortcut
    # loses all precision here, which is why the full routine is used
    assert zeta_minus_one(60) == pytest.approx(2.0**-60, rel=1e-3)


def test_zeta_minus_one_domain():
    with pytest.raises(ValueError):
        zeta_minus_one(1)
    with pytest.raises(ValueError):
        zeta_minus_one(0)


def test_gamma_real_factorials():
    assert gamma_real(1) == 1.0
    assert gamma_real(2) == 1.0
    assert gamma_real(5) == 24.0
    assert gamma_real(11) == 3628800.0
    assert gamma_real(171) == float(math.factorial(170))
    with pytest.raises(ValueError):
        gamma_real(0)
    # 171! overflows a double: a named error, not OverflowError
    with pytest.raises(ValueError, match="n <= 171"):
        gamma_real(172)
