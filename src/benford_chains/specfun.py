"""Special functions used by the analytic bound machinery.

Everything here lives on or near the vertical line Re(s) = 1 of the complex
plane, where Mellin transforms of densities are evaluated: the phase
Im lnGamma(x + iy) and |Gamma(1+ix)|, the latter as one exp-scaled closed
form for every x, in numpy.  The chain spectrum is polar, a product of
closed-form moduli times the exponential of a sum of phases, so no complex
Gamma is needed.  The zeta tail zeta(n) - 1 and the real Gamma function at
integer arguments are plain math; they live in the _closed module, which
the closed-form CLI commands load without numpy, and are re-exported here.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from ._closed import gamma_real, zeta_minus_one

__all__ = [
    "arg_gamma",
    "gamma_abs_on_line",
    "zeta_minus_one",
    "gamma_real",
]

# Stirling series B_2k / (2k (2k-1)) for k = 1..8 (NIST DLMF 5.11.1), as a
# column against the odd powers 2k - 1; at |z| >= 8 the first omitted term
# is below 1e-16 in modulus.
_STIRLING = np.array([
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
])
_ODD = np.arange(1.0, 2.0 * _STIRLING.size, 2.0)
# lnGamma(z) = lnGamma(z + 8) - sum_{k<8} ln(z + k): the shifts k, then 8
_SHIFTS = np.arange(9.0)


@cache
def _columns(ndim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_SHIFTS, _ODD and _STIRLING as columns against ndim-dimensional arrays."""
    shape = (-1,) + (1,) * ndim
    return _SHIFTS.reshape(shape), _ODD.reshape(shape), _STIRLING.reshape(shape)


def arg_gamma(x, y):
    """Im lnGamma(x + iy) for x > 0: the phase of Gamma, continuous in y.

    Scalars or arrays, broadcast together; the result is odd in y bit for
    bit, and 0 at y = 0.  With z = x + i|y|, Im lnGamma(z) =
    Im lnGamma(z + 8) - sum_{k<8} arg(z + k) (DLMF 5.5.1), and at w = z + 8
    the Stirling series (DLMF 5.11.1) gives Im lnGamma(w) =
    (Re w - 1/2) arg w + |y| ln|w| - |y| - sum_k c_k sin((2k-1) arg w)/|w|^(2k-1).

    Its error follows the terms of that sum, A = (Re w - 1/2) arg w,
    |y| ln|w| and S = sum_{k<8} arg(z + k), not the phase phi.  To first
    order, with + - * / rounded to nearest and arctan2, hypot, log, power
    and sin within 4 ulp (8u, u = 2**-53, as families.py takes them), it is
    at most u*(15.2*A + 13*|y|*ln|w| + 6*|y| + 21*S + x/2 + 10): |y| ln|w|
    is off by |y|*(9u + 9u*ln|w|), A by 11.1u*A + u*(x + 7.5)/2, S by
    15u*S + 3.5u, the series and its truncation by 1.5u, and the four adds
    and subtracts by u of results at most A + |y| ln|w| and, three times,
    |phi| + S + 0.011, where |phi| <= A + |y| ln|w| - |y| + S + 0.011.  With
    A <= (x + 7.5)*pi/2 and S < 4*pi that is at most
    u*(13*|y|*ln|w| + 6*|y| + 25*x + 460), 1.7e-11 rad at x = 1, y = 1500.
    A 50-digit oracle (tests/test_decimal_oracle.py) finds the error within
    a quarter of the first form on y in (0, 500].
    """
    x = np.asarray(x, dtype=np.float64)
    if not (x > 0.0).all():
        raise ValueError("arg_gamma requires x > 0")
    y = np.asarray(y, dtype=np.float64)
    ay = np.abs(y)
    # One row per shift k and per Stirling term, each set summed row by row
    # in order by a running sum (ndarray.sum may pair the terms differently
    # by shape, and so round differently); arctan2's last row is arg w.
    shifts, odd, stirling = _columns(max(x.ndim, y.ndim))
    x = x + shifts
    angles = np.arctan2(ay, x)
    shift = np.add.accumulate(angles[:-1])[-1]
    x, theta = x[-1], angles[-1]
    r = np.hypot(x, ay)
    series = np.add.accumulate(stirling * (1.0 / r) ** odd * np.sin(odd * theta))[-1]
    phase = (x - 0.5) * theta + ay * np.log(r) - ay - series - shift
    return np.copysign(1.0, y) * phase


def gamma_abs_on_line(x):
    """|Gamma(1 + ix)| = sqrt(pi*x / sinh(pi*x)) (DLMF 5.4.3), 1 at x = 0.

    A scalar or an array; a scalar gives a float.  Symmetric in x <-> -x.
    One expression for every x, the exp-scaled form
    sqrt(2p) * exp(-p/2) / sqrt(-expm1(-2p)) with p = pi*|x|, so sinh never
    overflows and no warning is raised but underflow.  |x| is clipped to
    512 before the multiply and p raised to 5e-324: at x = 0 the quotient
    is exactly 1, and exp(-p/2) is already 0 past p = 1491 (|x| > 474.6),
    so the clip changes no finite result and gives 0.0, not NaN, at
    x = +-inf.  NaN gives NaN.
    """
    p = np.maximum(math.pi * np.minimum(np.abs(np.asarray(x, dtype=np.float64)), 512.0), 5e-324)
    out = np.sqrt(2.0 * p) * np.exp(-p / 2.0) / np.sqrt(-np.expm1(-2.0 * p))
    return float(out) if out.ndim == 0 else out
