"""Test oracles for the family kernels: unit-scale densities and CDFs, the
W^r power rule, and a numeric Mellin quadrature.

The package evaluates every Mellin value in closed form; these routes
reach the same numbers another way (scipy quadrature of the density, the
change of variables of a power), so the tests can check one against the
other.
"""

import math
import warnings
from typing import Callable

import numpy as np
from scipy import integrate

from benford_chains.families import Family, _omega, mellin_at

__all__ = [
    "NonConvergenceError",
    "cdf_at_unit",
    "density_at_unit",
    "mellin_numeric",
    "power_density",
    "power_shift",
]

_SQRT_PI = math.sqrt(math.pi)


class NonConvergenceError(RuntimeError):
    """Numeric quadrature failed to reach the requested tolerance."""


def density_at_unit(family: Family, x: float) -> float:
    """Unit-scale density of the family at x."""
    if family.name == "exponential":
        return math.exp(-x) if x >= 0.0 else 0.0
    if family.name == "uniform":
        return 1.0 if 0.0 <= x <= 1.0 else 0.0
    if family.name == "half_gaussian":
        return 2.0 / _SQRT_PI * math.exp(-x * x) if x >= 0.0 else 0.0
    if family.name == "benford":
        return 1.0 / (x * math.log(family.base)) if 1.0 <= x < family.base else 0.0
    raise ValueError(f"no density for {family!r}")


def cdf_at_unit(family: Family, x: float) -> float:
    """Unit-scale CDF of the family at x."""
    if family.name == "exponential":
        return -math.expm1(-x) if x > 0.0 else 0.0
    if family.name == "uniform":
        return min(max(x, 0.0), 1.0)
    if family.name == "half_gaussian":
        return math.erf(x) if x > 0.0 else 0.0
    if family.name == "benford":
        if x <= 1.0:
            return 0.0
        if x >= family.base:
            return 1.0
        return math.log(x) / math.log(family.base)
    raise ValueError(f"no CDF for {family!r}")


def power_density(family: Family, r: int, u: float) -> float:
    """Density of W**r at u > 0, where W has the family's unit density phi.

    Change of variables gives psi_r(u) = phi(u**(1/r)) * u**((1-r)/r) / |r|
    for both signs of r (the signed exponent 1/r, not 1/|r|, is what makes
    the negative-power case match sampled histograms).
    """
    if r == 0:
        raise ValueError("power must be a nonzero integer")
    if not u > 0.0:
        raise ValueError(f"power_density requires u > 0, got {u}")
    if r == 1:
        return density_at_unit(family, u)
    return density_at_unit(family, u ** (1.0 / r)) * u ** ((1.0 - r) / r) / abs(r)


def power_shift(family: Family, r: int, ell: int, base: int) -> complex:
    """Mellin value of the W**r density: the evaluation point moves to r*l.

    (M psi_r)(s) = (M phi)(r(s-1)+1), so on the line Re(s) = 1 raising to
    the r-th power only multiplies the frequency index by r.
    """
    if r == 0:
        raise ValueError("power must be a nonzero integer")
    return mellin_at(family, r * ell, base)


def mellin_numeric(
    density: Callable[[float], float],
    ell: int,
    base: int,
    tol: float = 1e-10,
) -> complex:
    """Quadrature evaluation of integral f(t) * t^(-2*pi*i*l/ln B) dt on (0, inf).

    After the substitution t = e^u this is the Fourier integral of
    g(u) = f(e^u) e^u at frequency 2*pi*l/ln B.  The support window of g is
    located by a coarse scan, then each of the cosine and sine parts is
    handled by adaptive oscillatory quadrature.  Raises NonConvergenceError
    when the combined error estimate exceeds tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    w = float(_omega(ell, base))

    def g(u: float) -> float:
        x = math.exp(u)
        return density(x) * x

    # Locate where g carries mass; everything tested decays at least
    # exponentially in |u|, so a +-300 scan with padding is conservative.
    scan = np.linspace(-300.0, 300.0, 1201)
    mass = np.array([g(u) for u in scan])
    idx = np.nonzero(mass > 1e-18)[0]
    if idx.size == 0:
        raise NonConvergenceError("density carries no detectable mass on (0, inf)")
    lo = scan[idx[0]] - 3.0
    hi = scan[idx[-1]] + 3.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if ell == 0:
            re, err_re = integrate.quad(g, lo, hi, epsabs=tol / 4.0, epsrel=1e-13, limit=2000)
            im, err_im = 0.0, 0.0
        else:
            re, err_re = integrate.quad(
                g, lo, hi, weight="cos", wvar=w, epsabs=tol / 4.0, epsrel=1e-13, limit=2000
            )
            im, err_im = integrate.quad(
                g, lo, hi, weight="sin", wvar=w, epsabs=tol / 4.0, epsrel=1e-13, limit=2000
            )
    if err_re + err_im > tol:
        raise NonConvergenceError(
            f"quadrature error estimate {err_re + err_im:.3e} exceeds tol {tol:.3e}"
        )
    # t^(-i w ln t) contributes e^(-i w u): the sine part enters negated.
    return complex(re, -im)
