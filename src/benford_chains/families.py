"""Registry of one-parameter scale families and their Mellin machinery.

Each family is a distribution on (0, infinity) closed under scaling,
f_theta(x) = f(x/theta)/theta.  A chain analysis needs four things from a
family: the unit-scale density and CDF, the exact Mellin transform on the
line Re(s) = 1 at the points s = 1 - 2*pi*i*l/ln(B), and a monotone
majorant of the Mellin modulus used to bound truncation tails.

Families: "exponential", "uniform" (on [0, theta]), "half_gaussian"
(density 2/sqrt(pi*theta^2) * exp(-(x/theta)^2)), and "benford" (density
1/(x ln B) on [theta, B*theta), the absorbing fixed point of chaining).

Also here: the numeric Mellin quadrature oracle and the W^r power rule
(density of an integer power of a draw, and the induced shift of the
Mellin evaluation point).
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from .specfun import complex_gamma, gamma_abs_on_line

__all__ = [
    "ScaleFamily",
    "Exponential",
    "Uniform",
    "HalfGaussian",
    "Benford",
    "FAMILY_NAMES",
    "get_family",
    "mellin_at",
    "mellin_numeric",
    "power_density",
    "power_shift",
    "NonConvergenceError",
]

FAMILY_NAMES = ("exponential", "uniform", "half_gaussian", "benford")

_TWO_PI = 2.0 * math.pi


class NonConvergenceError(RuntimeError):
    """Numeric quadrature failed to reach the requested tolerance."""


def _omega(ell: int, base: int) -> float:
    """Angular frequency of the Mellin evaluation point: 2*pi*l / ln(B)."""
    return _TWO_PI * ell / math.log(base)


class ScaleFamily:
    """One scale family: density, CDF, sampler, Mellin values, majorant."""

    name: str = ""

    def density_at_unit(self, x: float) -> float:
        raise NotImplementedError

    def cdf_at_unit(self, x: float) -> float:
        raise NotImplementedError

    def mellin_exact(self, ell: int, base: int) -> complex:
        """(M f)(1 - 2*pi*i*l/ln B) for the unit-scale density f."""
        raise NotImplementedError

    def majorant(self, ell: int, base: int) -> float:
        """Upper bound on |mellin_exact(l, base)|, nonincreasing in l >= 1."""
        raise NotImplementedError

    def majorant_tail_profile(self, scaled_power: int, base: int, ell0: int) -> tuple[float, int]:
        """Decay profile of majorant(|scaled_power| * l) for l >= ell0.

        Returns (g, p) such that the majorant ratio between consecutive l
        is at most g * (l/(l+1))**p for every l >= ell0.  Geometric
        families report g < 1 and p = 0; harmonic ones g = 1 and p = 1.
        While the min(1, .) cap in the majorant still binds at ell0 the
        only safe claim is (1, 0); every majorant is nonincreasing, so
        that fallback is always valid.
        """
        raise NotImplementedError

    def _cap_binds(self, scaled_power: int, base: int, ell0: int) -> bool:
        # True when majorant(|scaled_power| * ell0) is still clipped at 1,
        # in which case no decay ratio below 1 may be claimed yet.
        return self.majorant(abs(scaled_power) * ell0, base) >= 1.0

    def sample_unit_batch(self, rng, n: int) -> np.ndarray:
        """Vector of n unit-scale draws, consuming rng once per element."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<family {self.name}>"


class Exponential(ScaleFamily):
    """Exponential: f(x) = exp(-x) on x >= 0; Mellin value Gamma(s)."""

    name = "exponential"

    def density_at_unit(self, x: float) -> float:
        return math.exp(-x) if x >= 0.0 else 0.0

    def cdf_at_unit(self, x: float) -> float:
        return -math.expm1(-x) if x > 0.0 else 0.0

    def mellin_exact(self, ell: int, base: int) -> complex:
        if ell == 0:
            return 1.0 + 0.0j
        return complex_gamma(complex(1.0, -_omega(ell, base)))

    def majorant(self, ell: int, base: int) -> float:
        # |Gamma(1+ix)| evaluated exactly (overflow-safe), padded by 1.0002.
        return min(1.0, 1.0002 * gamma_abs_on_line(_omega(ell, base)))

    def majorant_tail_profile(self, scaled_power: int, base: int, ell0: int) -> tuple[float, int]:
        if self._cap_binds(scaled_power, base, ell0):
            return 1.0, 0
        # Ratio of sqrt(y/sinh y) at consecutive l: the sinh quotient gives
        # exp(-pi^2 R/ln B) up to the (l+1)/l and 1/(1-e^(-2y)) slack terms,
        # both evaluated at their worst point l = ell0.
        r = abs(scaled_power)
        lam = math.pi**2 * r / math.log(base)
        y1 = 2.0 * math.pi**2 * r * (ell0 + 1) / math.log(base)
        slack = (1.0 + 1.0 / ell0) / -math.expm1(-2.0 * y1)
        return min(math.sqrt(slack) * math.exp(-lam), 1.0), 0

    def sample_unit_batch(self, rng, n: int) -> np.ndarray:
        return -np.log1p(-rng.random(n))


class Uniform(ScaleFamily):
    """Uniform on [0, theta]: f(x) = 1 on [0,1]; Mellin value 1/s."""

    name = "uniform"

    def density_at_unit(self, x: float) -> float:
        return 1.0 if 0.0 <= x <= 1.0 else 0.0

    def cdf_at_unit(self, x: float) -> float:
        return min(max(x, 0.0), 1.0)

    def mellin_exact(self, ell: int, base: int) -> complex:
        if ell == 0:
            return 1.0 + 0.0j
        return 1.0 / complex(1.0, -_omega(ell, base))

    def majorant(self, ell: int, base: int) -> float:
        # 1/|s| <= 1/|Im s| = ln(B)/(2*pi*l); harmonic, not summable alone.
        return min(1.0, math.log(base) / (_TWO_PI * ell))

    def majorant_tail_profile(self, scaled_power: int, base: int, ell0: int) -> tuple[float, int]:
        if self._cap_binds(scaled_power, base, ell0):
            return 1.0, 0
        return 1.0, 1

    def sample_unit_batch(self, rng, n: int) -> np.ndarray:
        return rng.random(n)


class HalfGaussian(ScaleFamily):
    """|N(0, theta/sqrt(2))|: f(x) = 2/sqrt(pi) * exp(-x^2) on x >= 0.

    Mellin value Gamma(s/2)/sqrt(pi); on the evaluation line its modulus
    is exactly 1/sqrt(cosh(pi^2 l / ln B)).
    """

    name = "half_gaussian"

    _SQRT_PI = math.sqrt(math.pi)

    def density_at_unit(self, x: float) -> float:
        return 2.0 / self._SQRT_PI * math.exp(-x * x) if x >= 0.0 else 0.0

    def cdf_at_unit(self, x: float) -> float:
        return math.erf(x) if x > 0.0 else 0.0

    def mellin_exact(self, ell: int, base: int) -> complex:
        if ell == 0:
            return 1.0 + 0.0j
        s_half = complex(0.5, -0.5 * _omega(ell, base))
        return complex_gamma(s_half) / self._SQRT_PI

    def majorant(self, ell: int, base: int) -> float:
        # 1/sqrt(cosh t) <= sqrt(2)*exp(-t/2), t = pi^2 l / ln B; pad 1.01.
        t = math.pi**2 * ell / math.log(base)
        return min(1.0, 1.01 * math.sqrt(2.0) * math.exp(-0.5 * t))

    def majorant_tail_profile(self, scaled_power: int, base: int, ell0: int) -> tuple[float, int]:
        if self._cap_binds(scaled_power, base, ell0):
            return 1.0, 0
        lam = 0.5 * math.pi**2 * abs(scaled_power) / math.log(base)
        return math.exp(-lam), 0

    def sample_unit_batch(self, rng, n: int) -> np.ndarray:
        return np.abs(rng.standard_normal(n)) / math.sqrt(2.0)


class Benford(ScaleFamily):
    """Benford density 1/(x ln B) on [1, B): the absorbing chain element.

    Carries the base of the enclosing chain.  At integer l != 0 its Mellin
    value at that base vanishes identically, which is the absorbing
    property: one benford link zeroes the whole chain spectrum.
    """

    name = "benford"

    def __init__(self, base: int):
        if base < 2:
            raise ValueError(f"benford family requires base >= 2, got {base}")
        self.base = int(base)
        self._log_base = math.log(base)

    def density_at_unit(self, x: float) -> float:
        return 1.0 / (x * self._log_base) if 1.0 <= x < self.base else 0.0

    def cdf_at_unit(self, x: float) -> float:
        if x <= 1.0:
            return 0.0
        if x >= self.base:
            return 1.0
        return math.log(x) / self._log_base

    def mellin_exact(self, ell: int, base: int) -> complex:
        if ell == 0:
            return 1.0 + 0.0j
        if base == self.base:
            return 0.0 + 0.0j
        # General closed form (e^w - 1)/w at w = (s-1) ln(own base).
        w = complex(0.0, -_omega(ell, base) * self._log_base)
        return (np.exp(w) - 1.0) / w

    def majorant(self, ell: int, base: int) -> float:
        if base == self.base:
            return 0.0
        return min(1.0, math.log(base) / (math.pi * ell * self._log_base))

    def majorant_tail_profile(self, scaled_power: int, base: int, ell0: int) -> tuple[float, int]:
        if base == self.base:
            return 0.0, 0
        if self._cap_binds(scaled_power, base, ell0):
            return 1.0, 0
        return 1.0, 1

    def sample_unit_batch(self, rng, n: int) -> np.ndarray:
        return np.power(float(self.base), rng.random(n))

    def __repr__(self) -> str:
        return f"<family benford base={self.base}>"


_SINGLETONS = {
    "exponential": Exponential(),
    "uniform": Uniform(),
    "half_gaussian": HalfGaussian(),
}


def get_family(name: str, base: int = 10) -> ScaleFamily:
    """Look up a family by its chain-spec name (exact lowercase string)."""
    if name in _SINGLETONS:
        return _SINGLETONS[name]
    if name == "benford":
        return Benford(base)
    raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")


def mellin_at(family: ScaleFamily, ell: int, base: int) -> complex:
    """Exact Mellin value (M f)(1 - 2*pi*i*l/ln B) of the family density."""
    if base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base}")
    return family.mellin_exact(ell, base)


def power_density(family: ScaleFamily, r: int, u: float) -> float:
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
        return family.density_at_unit(u)
    return family.density_at_unit(u ** (1.0 / r)) * u ** ((1.0 - r) / r) / abs(r)


def power_shift(family: ScaleFamily, r: int, ell: int, base: int) -> complex:
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
    from scipy import integrate  # only this quadrature oracle needs it

    if tol <= 0.0:
        raise ValueError("tol must be positive")
    w = _omega(ell, base)

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
