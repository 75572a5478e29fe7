"""The closed forms and what they share, in plain math.

Everything here needs neither numpy nor the spectrum machinery: the
exponential-chain bound, the uniform-chain density and CDF bound, the
real Gamma function and the zeta tail they use, the Benford CDF and digit
law, the argument checks and named errors, and the RNG identifier the
CLI echoes.  The CLI's closed-form commands (bound-exp, bound-uniform,
density-uniform) load this module and no other of the package.

Each object has one home, here; chains, specfun, montecarlo and
conformance import it from this module and list it as their own, so the
objects are the same in every module.
"""

from __future__ import annotations

import math

# Largest |R_m| a chain may have: every integer up to 2**53 is a double.
_MAX_EXPONENT = 2**53

# Version-pinned generator identity, echoed into every CLI output: the
# generator, keying and BLOCK_SIZE of montecarlo.
RNG_ALGORITHM = "numpy-philox4x64/seedseq(seed,(stream,block))/block65536"

# Euler-Maclaurin for zeta(n) - 1 (NIST DLMF 25.2.9): the terms below
# _ZETA_CUT are summed directly, and B_2k / (2k)! for k = 1..7 weigh the
# correction terms at the cut.
_ZETA_CUT = 16
_ZETA_BERNOULLI = (
    1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
    1.0 / 47900160.0, -691.0 / 1307674368000.0, 1.0 / 74724249600.0,
)


class ChainSpecError(ValueError):
    """A chain description failed validation."""


class SpectrumCheckError(RuntimeError):
    """A computed spectrum failed an internal consistency check."""


def _check_int(value, what: str) -> int:
    # bool is an int subclass; JSON true/false must not pass as powers.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ChainSpecError(f"{what} must be an integer, got {value!r}")
    return value


# The least integer that float() rounds up to 2**1024, past the largest double.
_NO_DOUBLE = 2**1024 - 2**970


def _check_base(base, double: bool = False) -> None:
    """base is an integer >= 2; with double, one that a double holds, for a
    kernel that computes with float(base)."""
    if isinstance(base, bool) or not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")
    if double and base >= _NO_DOUBLE:
        raise ValueError(
            f"base must be below 2**1024 - 2**970 to have a double, got a {base.bit_length()}-bit integer"
        )


def _veltkamp(a):
    """Veltkamp's split of doubles a into halves of at most 26 bits each."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _pow10_parts(p: int) -> tuple[int, float, float]:
    """(s, hi, lo) with 10**p = 2**s * T and T in [1, 2), from exact integers:
    hi is the double nearest T and lo the double nearest T - hi, so that
    |T - hi - lo| <= 2**-106."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    s = num.bit_length() - den.bit_length()
    s -= (num << max(-s, 0)) < (den << max(s, 0))
    num, den = num << max(-s, 0), den << max(s, 0)  # T = num / den
    hi = num / den  # int / int rounds correctly
    a, b = hi.as_integer_ratio()
    return s, hi, (num * b - a * den) / (den * b)


def zeta_minus_one(n: int) -> float:
    """zeta(n) - 1 = sum over l >= 2 of l**(-n), for integer n >= 2.

    Euler-Maclaurin at N = 16 (NIST DLMF 25.2.9): the terms l = 2..15,
    then N^(1-n)/(n-1) + N^(-n)/2 and seven Bernoulli terms
    B_2k/(2k)! * n(n+1)...(n+2k-2) * N^(1-n-2k), added by math.fsum.  For
    real n > 1 the remainder has the sign of the first omitted term (k = 8)
    and is smaller in modulus; that term is below 7e-20 of the sum for
    every n >= 2 (largest at n = 3).  Against a 200-digit evaluation the
    result is the correctly rounded double at every n from 2 to 171 and at
    the larger orders the tests freeze.

    Past n = 1074 every term underflows (2.0**-1075 already rounds to 0),
    so the value is set directly: zeta(n) - 1 = 2^-n (1 + e) with
    0 < e < (2/3)^n rounds to the least subnormal at n = 1075, where it
    lies just above half of it, and to 0 beyond.
    """
    if n < 2:
        raise ValueError(f"zeta_minus_one requires n >= 2, got {n}")
    if n > 1074:
        return math.ulp(0.0) if n == 1075 else 0.0
    terms = [ell**-n for ell in range(2, _ZETA_CUT)]
    terms += [_ZETA_CUT ** (1 - n) / (n - 1), _ZETA_CUT**-n / 2]
    rising = n  # n(n+1)...(n+2k-2)
    for k, b in enumerate(_ZETA_BERNOULLI, 1):
        terms.append(b * rising * _ZETA_CUT ** (1 - n - 2 * k))
        rising *= (n + 2 * k - 1) * (n + 2 * k)
    return math.fsum(terms)


def gamma_real(n: int) -> float:
    """Gamma(n) = (n-1)! for integer n >= 1, exact up to the double range.

    n must be an int (bool rejected), or ChainSpecError is raised.
    Gamma(171) = 170! is the last factorial below the largest double, so
    n > 171 raises ValueError before any factorial is built.
    """
    n = _check_int(n, "n")
    if n < 1:
        raise ValueError(f"gamma_real requires n >= 1, got {n}")
    if n > 171:
        raise ValueError(f"gamma_real requires n <= 171 (Gamma(n) overflows a double), got {n}")
    return float(math.factorial(n - 1))


def exponential_chain_bound(n: int, base: int) -> float:
    """Closed-form deviation bound for n chained exponentials, per unit width.

    sum over l >= 1 of (x_l / sinh x_l)^(n/2) with x_l = 2*pi^2*l / ln B.
    Quoted one-sided (l >= 1 only) by convention; terms below 1e-300 are
    dropped.  n may be 2..2**53, where n/2 is an exact double.
    """
    n = _check_int(n, "n")
    if n < 2:
        raise ValueError(f"exponential_chain_bound needs n >= 2, got {n}")
    if n > _MAX_EXPONENT:
        raise ValueError(f"exponential_chain_bound needs n <= 2**53, got {n}")
    _check_int(base, "base")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    terms = []
    ell = 1
    while True:
        x = 2.0 * math.pi**2 * ell / math.log(base)
        # log of x/sinh(x) = 2x e^(-x)/(1 - e^(-2x)), safe for large x.
        log_ratio = math.log(2.0 * x) - x - math.log1p(-math.exp(-2.0 * x))
        term = math.exp(0.5 * n * log_ratio)
        if term < 1e-300:
            break
        terms.append(term)
        ell += 1
    return math.fsum(terms)


def uniform_chain_density(n: int, k: float, x: float) -> float:
    """Density at x of the n-th variable in a uniform chain started at k.

    f_n(x) = ln(k/x)^(n-1) / (k * (n-1)!) on (0, k]; n = 1 is Unif(0, k).
    """
    n = _check_int(n, "n")
    if n < 1:
        raise ValueError(f"uniform_chain_density needs n >= 1, got {n}")
    k = float(k)
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    if k < 1.0:
        raise ValueError(f"k must be >= 1, got {k}")
    x = float(x)
    if not 0.0 < x <= k:
        raise ValueError(f"x must lie in (0, k], got {x}")
    gamma_n = gamma_real(n)  # checks n before the power can overflow
    return math.log(k / x) ** (n - 1) / (k * gamma_n)


def uniform_chain_cdf_terms(n: int, k: float, s: float) -> tuple[float, float]:
    """The two pieces of uniform_chain_cdf_bound: (head mass, spectral tail)."""
    n = _check_int(n, "n")
    if n < 2:
        raise ValueError(f"uniform_chain_cdf_bound needs n >= 2, got {n}")
    k = float(k)
    s = float(s)
    if not 1.0 <= k < 10.0:
        raise ValueError(f"k must lie in [1, 10), got {k}")
    if not 1.0 <= s < 10.0:
        raise ValueError(f"s must lie in [1, 10), got {s}")
    gamma_n = gamma_real(n)  # checks n before the power can overflow
    head = (k / s) * math.log(k) ** (n - 1) / gamma_n
    spectral = (2.9**-n + zeta_minus_one(n) * 2.7**-n) * 2.0 * math.log10(s)
    return head, spectral


def uniform_chain_cdf_bound(n: int, k: float, s: float) -> float:
    """Bound on |P(mantissa of n-th uniform-chain variable <= s) - log10 s|.

    Base 10 only.  Two pieces: the mass the chain still carries above 1
    after n steps, (k/s) ln(k)^(n-1)/(n-1)!, plus the spectrum tail
    (2.9^-n + (zeta(n)-1) * 2.7^-n) * 2 * log10 s.
    """
    head, spectral = uniform_chain_cdf_terms(n, k, s)
    return head + spectral


def benford_cdf(s: float, base: int = 10) -> float:
    """P(mantissa <= s) under the Benford law: log_base(s)."""
    _check_base(base)
    s = float(s)
    if not 1.0 <= s <= base:
        raise ValueError(f"s must lie in [1, {base}], got {s}")
    if base == 10:
        return math.log10(s)
    return math.log(s) / math.log(base)


def benford_digit_prob(d: int, base: int = 10) -> float:
    """P(first digit = d) under the Benford law: log_base(1 + 1/d)."""
    _check_base(base)
    if isinstance(d, bool) or not isinstance(d, int) or not 1 <= d <= base - 1:
        raise ValueError(f"digit must be an integer in [1, {base - 1}], got {d!r}")
    if base == 10:
        return math.log10(1.0 + 1.0 / d)
    return math.log1p(1.0 / d) / math.log(base)
