"""Special functions used by the analytic bound machinery.

Everything here lives on or near the vertical line Re(s) = 1 of the complex
plane, where Mellin transforms of densities are evaluated: the complex Gamma
function and the closed form for |Gamma(1+ix)|, in numpy.  The zeta tail
zeta(n) - 1 and the real Gamma function at integer arguments are plain
math; they live in the _closed module, which the closed-form CLI commands
load without numpy, and are re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from ._closed import gamma_real, zeta_minus_one

__all__ = [
    "complex_gamma",
    "gamma_abs_on_line",
    "zeta_minus_one",
    "gamma_real",
]

# Taylor coefficients of lnGamma(1 + w) = -euler*w + sum_{k>=2} (-1)^k zeta(k)/k w^k,
# frozen from a 40-digit evaluation.  On |w| <= 1/8 the first omitted term
# is below 4e-18, and w = 0 gives lnGamma(1) = 0 exactly.
_TAYLOR_AT_ONE = (
    -0.5772156649015329, 0.8224670334241132, -0.40068563438653143,
    0.27058080842778454, -0.20738555102867398, 0.1695571769974082,
    -0.1440498967688461, 0.12550966952474304, -0.11133426586956469,
    0.1000994575127818, -0.09095401714582904, 0.083353840546109,
    -0.0769325164113522, 0.07143294629536133, -0.06666870588242046,
    0.06250095514121304, -0.058823978658684585,
)
_TAYLOR_RADIUS = 0.125
# Stirling series B_2k / (2k (2k-1)) for k = 1..8 (NIST DLMF 5.11.1); at
# |z| >= 8 the first omitted term is below 1e-16 in modulus (the measured
# errors are in the complex_gamma docstring).
_STIRLING = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
)
_STIRLING_FROM = 8.0
_SHIFTS = np.arange(_STIRLING_FROM)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# exp of anything below this is 0 in doubles (the least subnormal is e^-744.4)
_LOG_UNDERFLOW = -746.0


def _mul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) in real operations.

    numpy's complex multiply may fuse into FMAs, and whether it does
    depends on the machine and on the code path numpy picks for a call.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _log_gamma_upper(x: np.ndarray, y: np.ndarray):
    """lnGamma(x + iy) as (real, imaginary) parts, for 1-D x > 0, y >= 0.

    The imaginary part may be off by a multiple of 2*pi.
    """
    near = x * x + y * y < _STIRLING_FROM**2
    if near.any():
        wx = x - 1.0
        disc = near & (wx * wx + y * y <= _TAYLOR_RADIUS**2)
        if disc.any():
            lr, li = np.empty_like(x), np.empty_like(x)
            wx, wy = wx[disc], y[disc]
            ar, ai = np.full_like(wx, _TAYLOR_AT_ONE[-1]), np.zeros_like(wx)
            for a in _TAYLOR_AT_ONE[-2::-1]:
                ar, ai = _mul(ar, ai, wx, wy)
                ar += a
            lr[disc], li[disc] = _mul(ar, ai, wx, wy)
            lr[~disc], li[~disc] = _log_gamma_upper(x[~disc], y[~disc])
            return lr, li
        # Below |z| = 8 shift up by 8, where the Stirling series is
        # accurate (Re z > 0), and subtract the log of the shift product
        # z (z+1) ... (z+7): the log of the product of the moduli plus the
        # sum of the arguments.
        sx = x[near] + _SHIFTS[:, None]
        sy = y[near]
        moduli, args = np.hypot(sx, sy), np.arctan2(sy, sx)
        shift_mod, shift_arg = moduli[0], args[0]
        for k in range(1, len(_SHIFTS)):
            shift_mod = shift_mod * moduli[k]
            shift_arg = shift_arg + args[k]
        x = x.copy()
        x[near] += _STIRLING_FROM
    lr, li = _mul(x - 0.5, y, np.log(np.hypot(x, y)), np.arctan2(y, x))
    lr += _HALF_LOG_TWO_PI - x
    li -= y
    # The series adds less than 0.02 to the real part: where the terms
    # above already put Gamma below the double range, it is not needed.
    live = lr >= _LOG_UNDERFLOW - 1.0
    if not live.all():
        x, y = x[live], y[live]
    # Stirling series r * P(r^2), r = 1/z, P(u) = sum_k _STIRLING[k] u^k.
    # P has real coefficients, so it is evaluated by synthetic division by
    # u^2 - s u + t, s = 2 Re u, t = |u|^2 (second-order Horner), in real
    # operations.  Past |z| ~ 1e154 r rounds to 0, where the series is
    # negligible.
    d = x * x + y * y
    rr, ri = x / d, -y / d
    ur, ui = rr * rr - ri * ri, 2.0 * rr * ri
    s, t = 2.0 * ur, (rr * rr + ri * ri) ** 2
    b2, b1 = _STIRLING[-1], _STIRLING[-2] + s * _STIRLING[-1]
    for c in _STIRLING[-3:0:-1]:
        b2, b1 = b1, c + s * b1 - t * b2
    sr, si = _mul(rr, ri, ur * b1 + (_STIRLING[0] - t * b2), ui * b1)
    lr[live] += sr
    li[live] += si
    if near.any():
        lr[near] -= np.log(shift_mod)
        li[near] -= shift_arg
    return lr, li


def complex_gamma(z):
    """Gamma(z) for complex z with Re(z) > 0, a scalar or an array.

    exp of a numpy lnGamma: a Taylor series on |z - 1| <= 1/8 (so
    Gamma(1) == 1 exactly), elsewhere the Stirling series with eight
    Bernoulli terms after an upward shift to |z| >= 8.  Against a 40-digit
    evaluation the relative error is below 2e-14 for |z| <= 10 and below
    2e-12 for |Im z| <= 500, where the phase of Gamma (up to ~3000 radians)
    sets it.  Values below the double range underflow to 0.  Each value
    depends on its own z only, not on the rest of the array, and conjugate
    arguments give conjugate values bit for bit.  A scalar argument gives a
    Python complex.
    """
    arr = np.array(z, dtype=np.complex128)
    bad = ~(arr.real > 0.0)
    if bad.any():
        raise ValueError(f"complex_gamma requires Re(z) > 0, got {complex(arr[bad].flat[0])!r}")
    flat = arr.ravel()
    lower = flat.imag < 0.0
    lg = np.empty_like(flat)
    out = np.zeros_like(flat)
    with np.errstate(all="ignore"):
        lg.real, lg.imag = _log_gamma_upper(flat.real.copy(), np.abs(flat.imag))
        live = lg.real >= _LOG_UNDERFLOW
        out[live] = np.exp(lg[live])
    np.conjugate(out, out=out, where=lower)
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def gamma_abs_on_line(x):
    """|Gamma(1 + ix)| = sqrt(pi*x / sinh(pi*x)), with the limit 1 at x = 0.

    A scalar or an array; a scalar gives a float.  Symmetric in x <-> -x.
    For pi*|x| > 30 the identity is evaluated in the exp-scaled form
    sqrt(2*pi*x) * exp(-pi*x/2) / sqrt(1 - exp(-2*pi*x)) so that sinh
    never overflows; the two forms agree to machine precision in the
    crossover region.
    """
    px = math.pi * np.abs(np.asarray(x, dtype=np.float64))
    out = np.ones_like(px)
    near = (px != 0.0) & (px <= 30.0)
    far = ~(px <= 30.0)
    p = px[near]
    out[near] = np.sqrt(p / np.sinh(p))
    p = px[far]
    out[far] = np.sqrt(2.0 * p) * np.exp(-p / 2.0) / np.sqrt(-np.expm1(-2.0 * p))
    return float(out) if out.ndim == 0 else out
