"""Special functions used by the analytic bound machinery.

Everything here lives on or near the vertical line Re(s) = 1 of the complex
plane, where Mellin transforms of densities are evaluated: the complex Gamma
function, the closed form for |Gamma(1+ix)|, the zeta tail zeta(n) - 1, and
the real Gamma function at integer arguments.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "complex_gamma",
    "gamma_abs_on_line",
    "zeta_minus_one",
    "gamma_real",
]

# scipy.special ufuncs, bound on the first call that needs one: the import
# is most of a cold start, and the commands that evaluate no Mellin value
# never pay it.  A cached global keeps the per-call cost of the import-time
# binding; an import statement run on every call would not.
_loggamma = None
_zeta = None


def complex_gamma(z: complex) -> complex:
    """Gamma(z) for complex z with Re(z) > 0.

    Computed as exp(loggamma(z)), which stays accurate on the whole right
    half-plane and underflows gracefully to 0 when |Im z| is large enough
    that |Gamma(z)| drops below the double range.
    """
    global _loggamma
    z = complex(z)
    if not (z.real > 0.0):
        raise ValueError(f"complex_gamma requires Re(z) > 0, got {z!r}")
    if _loggamma is None:
        from scipy.special import loggamma as _loggamma
    return cmath.exp(complex(_loggamma(z)))


def gamma_abs_on_line(x: float) -> float:
    """|Gamma(1 + ix)| = sqrt(pi*x / sinh(pi*x)), with the limit 1 at x = 0.

    Symmetric in x <-> -x.  For pi*|x| > 30 the identity is evaluated in the
    exp-scaled form sqrt(2*pi*x) * exp(-pi*x/2) / sqrt(1 - exp(-2*pi*x)) so
    that sinh never overflows; the two forms agree to machine precision in
    the crossover region.
    """
    x = abs(float(x))
    if x == 0.0:
        return 1.0
    px = math.pi * x
    if px <= 30.0:
        return math.sqrt(px / math.sinh(px))
    return math.sqrt(2.0 * px) * math.exp(-px / 2.0) / math.sqrt(-math.expm1(-2.0 * px))


def zeta_minus_one(n: int) -> float:
    """zeta(n) - 1 = sum over l >= 2 of l**(-n), for integer n >= 2.

    Evaluated through the Hurwitz zeta function zeta(n, 2), which is that
    tail sum directly and avoids both cancellation and the slowly
    converging head of the raw series.
    """
    global _zeta
    if n < 2:
        raise ValueError(f"zeta_minus_one requires n >= 2, got {n}")
    if _zeta is None:
        from scipy.special import zeta as _zeta
    return float(_zeta(n, 2))


def gamma_real(n: int) -> float:
    """Gamma(n) = (n-1)! for integer n >= 1, exact up to the double range.

    Gamma(171) = 170! is the last factorial below the largest double, so
    n > 171 raises ValueError before any factorial is built.
    """
    if n < 1:
        raise ValueError(f"gamma_real requires n >= 1, got {n}")
    if n > 171:
        raise ValueError(f"gamma_real requires n <= 171 (Gamma(n) overflows a double), got {n}")
    return float(math.factorial(n - 1))
