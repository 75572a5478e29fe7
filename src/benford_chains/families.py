"""The table of one-parameter scale families and their Mellin machinery.

Each family is a distribution on (0, infinity) closed under scaling,
f_theta(x) = f(x/theta)/theta.  A chain analysis needs four things from a
family: the Mellin transform of the unit-scale density on the line
Re(s) = 1 at the points s = 1 - 2*pi*i*l/ln(B) in polar form, as a
certified upper bound on its modulus from a closed form and its phase; the
tail law of that modulus, an anchor and a ratio law that close truncation
tails from the certified modulus at the truncation point; and a unit-scale
sampler.  The phases and the moduli are array kernels: one call evaluates
every frequency of a spectrum.  They take the angular frequencies
w = 2*pi*R*l/ln B, which a chain forms once for all its links.  No kernel
is complex: the Mellin value is the modulus times e^(i*phase).  Each family
is one Family record of kernel functions: a row of _TABLE, or for benford
a record that get_family builds for its own base.  A Gamma family names
its Gamma argument, gamma = (x, scale), in place of a phase kernel: its
phase is -Im lnGamma(x + i*scale*w).

Families: "exponential", "uniform" (on [0, theta]), "half_gaussian"
(density 2/sqrt(pi*theta^2) * exp(-(x/theta)^2)), and "benford" (density
1/(x ln B) on [theta, B*theta), the absorbing fixed point of chaining).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .specfun import arg_gamma, gamma_abs_on_line

__all__ = ["Family", "FAMILY_NAMES", "get_family", "mellin_at"]

_TWO_PI = 2.0 * math.pi
_U = 2.0**-53  # unit roundoff of a double


def _omega(ells, base: int) -> np.ndarray:
    """Angular frequencies of the Mellin evaluation points: 2*pi*l / ln(B)."""
    if base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base}")
    return _TWO_PI * np.asarray(ells, dtype=np.float64) / math.log(base)


# Rounding error budget of the certified moduli.  u = 2**-53; R*l is rounded
# once (exact below 2**53), math.pi is within 0.4u of pi, and math.log is
# taken to be within 1 ulp; numpy's transcendental ufuncs (exp, expm1, sin,
# hypot, ...) are taken to be within 4 ulp, 8u relative.  So the computed
# w = 2*pi*R*l/ln B is w(1 + t) with |t| <= u + 0.4u + u + 2u + u < 6u, and a
# closed form m(w) whose log has slope |d ln m/d ln w| <= s(w) moves by at
# most s(w)*6u (plus second-order terms) from the argument alone.  Each
# kernel then returns min(1, m * (1 + e)), e = (a + b*pi*w)*u, where a holds
# the evaluation's roundings plus 4u for forming m * (1 + e) itself (which
# costs 2u, 1 + e and the product rounding once each, to first order), and
# b*pi*w the argument term.  Every |M f| <= 1 on Re(s) = 1, so the cap costs
# nothing.  Below the normal range (2**-1022) a relative error r*u is at
# most r/2 * 2**-1074, and each kernel states the absolute error by which a
# value may lie below the exact one there, up to 225 * 2**-1074 (the
# exponential); a value that underflows is reported as 0, and a tail
# anchored there closes to 0.
def _certified(m: np.ndarray, w: np.ndarray, a: float, b: float) -> np.ndarray:
    """min(1, m * (1 + (a + b*pi*w)*u)): a closed-form modulus rounded up."""
    return np.minimum(1.0, m * (1.0 + (a + (b * math.pi) * w) * _U))


# The tail laws.  Past ell0 the chain tails bound each link's exact modulus
# by A * g**(l - ell0) * (ell0/l)**p with A = c * m, m the certified modulus
# at w(|R| * ell0), so m is at least the exact modulus there, and c >= 1 the
# slack by which the family's exact ratios can exceed (g, p), derived at
# each tail kernel below (c = 1 for the exponential).  Each kernel computes
# c within 9u; 1 + 12u is exact in doubles, and with the two roundings of
# the multiplies the anchor is at least c * m: (1 - 9u)(1 - u)(1 + 12u)(1 - u)
# > 1.  Every |M f| <= 1, so the cap at 1 costs nothing.
def _anchor(c: float, m: float) -> float:
    """min(1, c*m*(1 + 12u)): the anchor c*m rounded up, c computed within 9u."""
    return min(1.0, m * c * (1.0 + 12.0 * _U))


class Family(NamedTuple):
    """One scale family: a name, four kernels and, for benford, its own base.

    ells is an array of integer frequencies, of any shape and of an integer
    or float dtype, and each method's result an array of its shape.
    certified_modulus(ells, base) is an upper bound on the exact modulus of
    (M f)(1 - 2*pi*i*l/ln B) for the unit-scale density f, in floating
    point, from a closed form with its rounding error added (the error
    budget of each family is derived at its kernel), even in l.
    mellin_phase(ells, base) is its phase, odd in l; arg_gamma states the
    error of a Gamma family's.  mellin_exact(ells, base) is the complex value
    certified_modulus * e^(i*mellin_phase), for a caller that wants one
    (a foreign-base benford value carries the absolute 10u of its modulus);
    the chain spectrum multiplies the moduli and adds the phases instead.
    tail(own, |R|, base, ell0, w, m) gives (A, g, p) such that the exact
    modulus at R*l is at most A * g**(l - ell0) * (ell0/l)**p for every
    l >= ell0, where w = w(|R| * ell0) and m is the certified modulus there:
    g < 1 and p = 0 for geometric families, (1, 1) for harmonic ones.  A is
    c * m rounded up, c >= 1 a constant each family derives at its kernel,
    or for benford at a foreign base its envelope, capped at 1; where the
    cap binds only (1, 0) is safe, and the chain tails apply that rule.
    sample_unit_batch(rng, n) makes n unit-scale draws and consumes rng once
    per element.  Each kernel takes the family's own base first: None
    except for benford.  The phase and modulus kernels take the angular
    frequencies w = _omega(ells, base) in place of ells, w >= 0 for the
    modulus; the methods above form them.
    """

    name: str
    phase: Callable | None  # (own, w, base) -> arg of the Mellin value; None if gamma
    modulus: Callable  # (own, w >= 0, base) -> certified upper bound on its modulus
    tail: Callable  # (own, |R|, base, ell0, w, m) -> (A, g, p), the tail law past ell0
    sample: Callable  # (own, rng, n) -> n unit-scale draws
    # The angular frequency w = 2*pi*|R*l|/ln B at and beyond which
    # certified_modulus and so mellin_exact compute exactly 0.0; inf where
    # it never underflows.
    zero_beyond: float = math.inf
    # (x, scale) of a Gamma family: its phase is -Im lnGamma(x + i*scale*w).
    gamma: tuple[float, float] | None = None
    base: int | None = None

    def mellin_exact(self, ells, base: int) -> np.ndarray:
        return self.certified_modulus(ells, base) * np.exp(1j * self.mellin_phase(ells, base))

    def mellin_phase(self, ells, base: int) -> np.ndarray:
        if self.gamma is None:
            return self.phase(self.base, _omega(ells, base), base)
        return _line_phase(self.gamma[0], self.gamma[1] * _omega(ells, base))

    def certified_modulus(self, ells, base: int) -> np.ndarray:
        return self.modulus(self.base, np.abs(_omega(ells, base)), base)

    def sample_unit_batch(self, rng, n: int) -> np.ndarray:
        return self.sample(self.base, rng, n)


def _line_phase(x, y) -> np.ndarray:
    """-Im lnGamma(x + iy): a Gamma family's phase at y = scale*w, x a column per row."""
    return -arg_gamma(x, y)


def _exponential_modulus(own, w, base: int) -> np.ndarray:
    # |Gamma(1 - iw)| = sqrt(p/sinh p), p = pi*w (DLMF 5.4.3), which
    # gamma_abs_on_line evaluates as sqrt(2p) * exp(-p/2) / sqrt(-expm1(-2p)).
    # p has relative error < 7.4u (pi and the multiply add 1.4u), and
    # |d ln m/d ln p| = (p coth p - 1)/2 <= p/2: the argument costs
    # 3.7*(p coth p - 1)*u.  Evaluation: sqrt(2p) u, exp 8u, the multiply u,
    # expm1 8u halved by the sqrt plus u, the divide u: 16u.  With forming's
    # 2u, (16 + 4*pi*w)*u covers these where 4p - 3.7*(p coth p - 1) >= 2, at
    # p >= 0.62: every l >= 1 at bases below 6.7e13 (p >= 2*pi^2/ln B).
    # Past w = 451 exp(-p/2) is subnormal, 4 * 2**-1074 absolute times
    # sqrt(2p) < 55; the sqrts' 6u add 3, and the multiply, the divide and
    # forming 0.5 each: a value below 2**-1022 is at most 225 * 2**-1074
    # short (27.5 seen).
    return _certified(gamma_abs_on_line(w), w, 16.0, 4.0)


def _exponential_tail(own, r: float, base: int, ell0: int, w: float, m: float) -> tuple[float, float, int]:
    # The ratio of the exact sqrt(y/sinh y), y = pi*w, at consecutive l: the
    # sinh quotient gives exp(-pi^2 R/ln B) up to the (l+1)/l and
    # 1/(1-e^(-2y)) slack terms, both evaluated at their worst point
    # l = ell0.  So the law holds for the exact modulus from m on: c = 1.
    lam = math.pi**2 * r / math.log(base)
    y1 = 2.0 * math.pi**2 * r * (ell0 + 1) / math.log(base)
    slack = (1.0 + 1.0 / ell0) / -math.expm1(-2.0 * y1)
    return m, min(math.sqrt(slack) * math.exp(-lam), 1.0), 0


def _exponential_sample(own, rng, n: int) -> np.ndarray:
    u = rng.random(n)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def _uniform_phase(own, w, base: int) -> np.ndarray:
    """Uniform on [0, theta]: f(x) = 1 on [0,1]; Mellin value 1/s."""
    return np.arctan(w)  # arg 1/(1 - iw)


def _uniform_modulus(own, w, base: int) -> np.ndarray:
    # |1/(1 - iw)| = 1/hypot(1, w).  |d ln m/d ln w| = w^2/(1 + w^2) <= 1, so
    # the argument costs 6u; hypot 8u and the divide u: e = (15 + 4)u, flat
    # in w.  Below 2**-1022 (w > 4.4e307) hypot's 8u is 4 * 2**-1074, the
    # divide and forming 0.5 each: at most 5 * 2**-1074 short.
    return _certified(1.0 / np.hypot(1.0, w), w, 20.0, 0.0)


def _uniform_tail(own, r: float, base: int, ell0: int, w: float, m: float) -> tuple[float, float, int]:
    # The exact 1/hypot(1, w_l), w_l = w*l/ell0, is at most 1/w_l =
    # (ell0/l) * c/hypot(1, w) with c = hypot(1, w)/w = sqrt(1 + 1/w^2): the
    # law (1, 1) holds for 1/w, and c is its slack over the exact modulus at
    # ell0.  |d ln c/d ln w| = 1/(1 + w^2) <= 1, so w's 6u costs at most 6u;
    # hypot 1 ulp (2u) and the divide u: 9u.
    return _anchor(math.hypot(1.0, w) / w, m), 1.0, 1


def _uniform_sample(own, rng, n: int) -> np.ndarray:
    return rng.random(n)


def _half_gaussian_modulus(own, w, base: int) -> np.ndarray:
    # |Gamma(1/2 - iw/2)|/sqrt(pi) = 1/sqrt(cosh t), t = pi*w/2 (DLMF 5.4.4),
    # in the exp-scaled form exp(-t/2) * sqrt(2/(1 + exp(-2t))), which never
    # overflows.  t has relative error < 7.4u, and |d ln m/d ln t| =
    # t*tanh(t)/2 <= t/2 = pi*w/4: the argument costs 1.85*pi*w*u.
    # Evaluation: exp(-2t) adds at most 8u/2 to 1 + exp(-2t), the add and
    # the divide u each, halved by the sqrt plus u: 4u; exp(-t/2) 8u and the
    # multiply u.  So e = (13 + 4 + 2*pi*w)*u, rounded up to (18 + 2*pi*w)*u.
    # Past w = 902 exp(-t/2) is subnormal, 4 * 2**-1074 absolute times the
    # sqrt factor < 1.42; its 4u adds 2, the multiply and forming 0.5 each:
    # a value below 2**-1022 is at most 9 * 2**-1074 short (1.2 seen).
    t = (0.5 * math.pi) * w
    return _certified(np.exp(-0.5 * t) * np.sqrt(2.0 / (1.0 + np.exp(-2.0 * t))), w, 18.0, 2.0)


def _half_gaussian_tail(own, r: float, base: int, ell0: int, w: float, m: float) -> tuple[float, float, int]:
    # The exact ratio sqrt(cosh t / cosh t_l), t = pi*w/2 at ell0 and t_l at
    # l, is e^(-(t_l - t)/2) * sqrt((1 + e^(-2t))/(1 + e^(-2t_l))), at most
    # g**(l - ell0) * c with g = exp(-pi^2 R/(2 ln B)) and c = sqrt(1 +
    # e^(-2t)).  t has relative error < 7.4u and exp 8u, so e^(-2t) carries
    # (14.8t + 8)u relative, which moves c by at most e^(-2t)*(7.4t + 4)u
    # <= 4u; the add and the sqrt add 0.5u and u: 5.5u.
    t = (0.5 * math.pi) * w
    lam = 0.5 * math.pi**2 * r / math.log(base)
    return _anchor(math.sqrt(1.0 + math.exp(-2.0 * t)), m), math.exp(-lam), 0


def _half_gaussian_sample(own, rng, n: int) -> np.ndarray:
    z = rng.standard_normal(n)
    np.abs(z, out=z)
    z /= math.sqrt(2.0)
    return z


def _benford_x(own: int, w) -> np.ndarray:
    """x = theta/2 = w ln(b)/2, b = own, where the Mellin value
    (e^(-i theta) - 1)/(-i theta) of the benford density equals
    e^(-ix) * sin(x)/x."""
    return 0.5 * (w * math.log(own))


def _benford_phase(own: int, w, base: int) -> np.ndarray:
    """Benford density 1/(x ln b) on [1, b), b = own: the absorbing element.

    At the chain's base B = b its Mellin value at integer l != 0 vanishes
    identically, which is the absorbing property: one benford link zeroes
    the whole chain spectrum.  At a foreign base B != b it does not, and its
    phase is -x, plus pi (of the sign of x) where sin(x)/x < 0.
    """
    x = _benford_x(own, w)
    return np.where(x * np.sin(x) < 0.0, np.copysign(math.pi, x), 0.0) - x


def _benford_modulus(own: int, w, base: int) -> np.ndarray:
    """|(e^(-i theta) - 1)/(-i theta)| = |sin x|/x, x = theta/2 = w ln(b)/2.

    Exactly 0 at the chain's own base b = B, except 1 at l = 0.  At a
    foreign base the exact |sin x| may vanish (ln b/ln B rational), so no
    relative bound holds there: x carries a relative error < 9u (w 6u,
    ln b 2u, the multiply u), so |sin x| <= |sin x^| + 9u*x and
    |sin x|/x <= m^(1 + 9u) + 9u, and m^ itself is sin 8u and the divide u.
    So the value is m^(1 + 22u) + 10u, the extra 4u and 1u for forming it,
    capped at 1.
    """
    if base == own:
        return (w == 0.0).astype(np.float64)
    x = _benford_x(own, w)
    with np.errstate(invalid="ignore"):
        m = np.where(x == 0.0, 1.0, np.abs(np.sin(x)) / x)
    return np.minimum(1.0, m * (1.0 + 22.0 * _U) + 10.0 * _U)


def _benford_tail(own: int, r: float, base: int, ell0: int, w: float, m: float) -> tuple[float, float, int]:
    """At its own base every modulus past l = 0 is 0.  At a foreign base
    |sin x|/x is not monotone, so the anchor is its envelope 1/x =
    ln B/(pi*R*l*ln b), x = x(w) at ell0, which decays like 1/l: (1, 1).
    x carries a relative error < 9u (as at the modulus), so (1 + 12u)/x,
    one more rounding, is at least (1 + 12u)(1 - 9u)(1 - u) > 1 times 1/x.
    """
    if base == own:
        return 0.0, 0.0, 0
    return min(1.0, (1.0 + 12.0 * _U) / _benford_x(own, w)), 1.0, 1


def _benford_sample(own: int, rng, n: int) -> np.ndarray:
    u = rng.random(n)
    return np.power(float(own), u, out=u)


_TABLE = {
    # f(x) = exp(-x) on x >= 0: Mellin value Gamma(s), phase -Im lnGamma(1 + iw)
    "exponential": Family(
        "exponential", None, _exponential_modulus, _exponential_tail, _exponential_sample,
        # At w = 480 the e^(-pi*w/2) = e^(-754) of the modulus lies below
        # half the least subnormal, e^(-745.13), and it decreases in w.  (Its
        # last nonzero values in a dense sweep lie at w ~ 474.4.)
        480.0,
        (1.0, 1.0),
    ),
    "uniform": Family(
        "uniform", _uniform_phase, _uniform_modulus, _uniform_tail, _uniform_sample,
    ),
    # |N(0, theta/sqrt(2))|, f(x) = 2/sqrt(pi) * exp(-x^2) on x >= 0: Mellin
    # value Gamma(s/2)/sqrt(pi), phase -Im lnGamma(1/2 + iw/2)
    "half_gaussian": Family(
        "half_gaussian", None, _half_gaussian_modulus, _half_gaussian_tail, _half_gaussian_sample,
        # At w = 960 the e^(-pi*w/4) = e^(-754) of the modulus lies below
        # half the least subnormal, e^(-745.13), and it decreases in w.  (Its
        # last nonzero values in a dense sweep lie at w ~ 948.7.)
        960.0,
        (0.5, 0.5),
    ),
}

FAMILY_NAMES = (*_TABLE, "benford")


def _benford(base: int) -> Family:
    """The benford record of its own base, an integer >= 2."""
    if isinstance(base, bool) or not isinstance(base, int) or base < 2:
        raise ValueError(f"benford family requires an integer base >= 2, got {base!r}")
    # get_family builds this record per call, so it is a tuple (a frozen
    # dataclass costs several times more) built by tuple.__new__, which skips
    # the Python-level Family.__new__ and its cost; fields in Family's order.
    return tuple.__new__(
        Family,
        (
            "benford", _benford_phase, _benford_modulus, _benford_tail, _benford_sample,
            math.inf, None, base,
        ),
    )


def get_family(name: str, base: int = 10) -> Family:
    """Look up a family by its chain-spec name (exact lowercase string).

    base is benford's own base; the other families ignore it.
    """
    if name in _TABLE:
        return _TABLE[name]
    if name == "benford":
        return _benford(base)
    raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")


def mellin_at(family: Family, ell: int, base: int) -> complex:
    """Mellin value (M f)(1 - 2*pi*i*l/ln B) of the family density, in
    polar form: Family.certified_modulus times e^(i*phase).

    The modulus is rounded up, so the value is within a few 1e-13 relative
    of the exact one, except for benford at a base other than its own:
    there the modulus carries an absolute 10u (u = 2**-53), so where the
    exact value vanishes (ln b/ln B rational, e.g. b = 4, B = 2) this
    returns about 1.1e-15 in place of 0."""
    return complex(family.mellin_exact(np.array([ell], dtype=np.float64), base)[0])
