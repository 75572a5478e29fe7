"""Chain spectra, rigorous deviation bounds, and fold probabilities.

A chain is X_1 drawn from family 1 at scale 1, then X_m drawn from family
m at scale X_{m-1}^{p_m}.  Unrolling gives log X_n = sum_m R_m log Xi_m
with independent unit-scale draws Xi_m and cumulative exponents R_m, so
the Fourier coefficients of Y_n = log_B X_n mod 1 factor into a product
of per-family Mellin values (the chain spectrum).

Three consumers of the spectrum live here.  Each call evaluates c_1..c_L
once (c_{-l} = conj(c_l)) and the majorant tails at most once; a digit
table shares one spectrum across its intervals and computes no tail.

* deviation_bound: a rigorous upper bound on |P(Y_n in [a,b]) - (b-a)|,
  truncating the spectrum at |l| <= L and dominating the rest with
  closed-form majorant tails.
* fold_probability: the semi-analytic value of P(Y_n in [a,b]) itself,
  from the truncated Fourier series plus a rigorous truncation error.
* closed forms for pure-exponential and pure-uniform chains.

All bounds here are two-sided sums over l != 0 except
exponential_chain_bound, which is conventionally quoted as the one-sided
sum over l >= 1; deviation_bound doubles it for the two-sided total.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

from .families import FAMILY_NAMES, ScaleFamily, get_family, mellin_at
from .specfun import gamma_real, zeta_minus_one

__all__ = [
    "ChainSpecError",
    "SpectrumCheckError",
    "ChainLink",
    "ChainSpec",
    "FoldInterval",
    "BoundResult",
    "parse_chain",
    "load_chain",
    "cumulative_powers",
    "chain_spectrum",
    "spectrum_majorant",
    "deviation_bound",
    "fold_probability",
    "first_digit_probabilities",
    "exponential_chain_bound",
    "uniform_chain_density",
    "uniform_chain_cdf_terms",
    "uniform_chain_cdf_bound",
]


class ChainSpecError(ValueError):
    """A chain description failed validation."""


class SpectrumCheckError(RuntimeError):
    """A computed spectrum failed an internal consistency check."""


def _check_int(value, what: str) -> int:
    # bool is an int subclass; JSON true/false must not pass as powers.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ChainSpecError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ChainLink:
    """One link: a family name and the exponent applied to the previous draw."""

    family: str
    power: int

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise ChainSpecError(
                f"unknown family {self.family!r}; expected one of {FAMILY_NAMES}"
            )
        _check_int(self.power, "power")
        if self.power == 0:
            raise ChainSpecError("power must be a nonzero integer")


@dataclass(frozen=True)
class ChainSpec:
    """A base and an ordered, nonempty list of links; first power is 1."""

    base: int
    links: tuple[ChainLink, ...]

    def __post_init__(self):
        _check_int(self.base, "base")
        if self.base < 2:
            raise ChainSpecError(f"base must be >= 2, got {self.base}")
        links = tuple(self.links)
        object.__setattr__(self, "links", links)
        if not links:
            raise ChainSpecError("chain must have at least one link")
        if links[0].power != 1:
            raise ChainSpecError(
                f"links[0]: first power must be 1, got {links[0].power}"
            )

    def __len__(self) -> int:
        return len(self.links)

    def families(self) -> tuple[ScaleFamily, ...]:
        """Resolved family objects; a benford link adopts the chain base."""
        return tuple(get_family(link.family, self.base) for link in self.links)

    @cached_property
    def _factors(self) -> tuple[tuple[ScaleFamily, int], ...]:
        # Each resolved family paired with its cumulative exponent, sorted by
        # a canonical key so products over links are order-independent bit
        # for bit (reordering links with equal powers must not move them).
        pairs = zip(self.families(), cumulative_powers(self))
        return tuple(sorted(pairs, key=lambda fr: (fr[0].name, fr[1])))


def parse_chain(obj) -> ChainSpec:
    """Build a ChainSpec from a decoded chain-spec JSON object."""
    if not isinstance(obj, dict):
        raise ChainSpecError("chain spec must be a JSON object")
    if "base" not in obj or "links" not in obj:
        raise ChainSpecError("chain spec needs 'base' and 'links' fields")
    raw_links = obj["links"]
    if not isinstance(raw_links, list) or not raw_links:
        raise ChainSpecError("'links' must be a nonempty list")
    links = []
    for i, entry in enumerate(raw_links):
        if not isinstance(entry, dict):
            raise ChainSpecError(f"links[{i}]: must be an object")
        try:
            links.append(ChainLink(entry["family"], entry["power"]))
        except KeyError as exc:
            raise ChainSpecError(f"links[{i}]: missing field {exc.args[0]!r}") from None
        except ChainSpecError as exc:
            raise ChainSpecError(f"links[{i}]: {exc}") from None
    return ChainSpec(obj["base"], tuple(links))


def load_chain(path) -> ChainSpec:
    """Read and validate a chain-spec JSON file."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ChainSpecError(f"chain spec is not valid JSON: {exc}") from None
    return parse_chain(obj)


@dataclass(frozen=True)
class FoldInterval:
    """An interval [a, b] of the folded variable, inside [0, 1]."""

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (0.0 <= a <= b <= 1.0):
            raise ChainSpecError(
                f"fold interval needs 0 <= a <= b <= 1, got [{a}, {b}]"
            )

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class BoundResult:
    """A rigorous deviation bound and how it was assembled.

    value is the full bound (interval width included); per_term lists the
    retained spectrum moduli for 0 < |l| <= L in the fixed summation order
    (ascending |l|, +l before -l); tail bounds everything beyond L, both
    signs, before width scaling.
    """

    value: float
    truncation_L: int
    per_term: tuple[tuple[int, float], ...] = field(repr=False)
    tail: float


def cumulative_powers(chain: ChainSpec) -> list[int]:
    """Exponents R_m with log X_n = sum_m R_m log Xi_m; R_n is always 1."""
    out = [1] * len(chain.links)
    for m in range(len(chain.links) - 2, -1, -1):
        out[m] = out[m + 1] * chain.links[m + 1].power
    return out


def chain_spectrum(chain: ChainSpec, ell: int) -> complex:
    """Fourier coefficient of the folded chain at frequency l."""
    if ell == 0:
        return 1.0 + 0.0j
    out = 1.0 + 0.0j
    for family, r in chain._factors:
        out *= mellin_at(family, r * ell, chain.base)
        if out == 0.0:
            break
    return out


def spectrum_majorant(chain: ChainSpec, ell: int) -> float:
    """Product of family majorants: an upper bound on |chain_spectrum(l)|."""
    if ell == 0:
        return 1.0
    out = 1.0
    for family, r in chain._factors:
        out *= family.majorant(abs(r * ell), chain.base)
        if out == 0.0:
            break
    return out


def _majorant_tails(chain: ChainSpec, L: int) -> tuple[float, float]:
    """Two-sided bounds (plain, weighted) on the spectrum beyond |l| = L.

    plain bounds sum_{|l| > L} |c_l|; weighted bounds the same sum with
    each term carrying the extra 1/(pi*|l|) that bounds the fold integral
    |I_l|.  Terms up to L2 = max(2L, 256) are summed explicitly, in one
    pass for both; beyond that each family contributes a per-step ratio
    bound g * (l/(l+1))**p, closing the sum geometrically when the
    combined g < 1, by integral comparison when the combined polynomial
    degree is >= 2, and honestly reporting infinity otherwise.
    """
    L2 = max(2 * L, 256)
    plain = [spectrum_majorant(chain, ell) for ell in range(L + 1, L2 + 1)]
    weighted = [t / (math.pi * ell) for ell, t in enumerate(plain, L + 1)]

    g_total = 1.0
    p_total = 0
    for family, r in chain._factors:
        g, p = family.majorant_tail_profile(r, chain.base, L2)
        g_total *= g
        p_total += p

    def close(terms: list[float], p: int) -> float:
        last = terms[-1]
        if g_total < 1.0:
            rest = last * g_total / (1.0 - g_total)
        elif p >= 2:
            rest = last * L2 / (p - 1)
        elif last == 0.0:
            rest = 0.0
        else:
            rest = math.inf
        return 2.0 * (math.fsum(terms) + rest)

    return close(plain, p_total), close(weighted, p_total + 1)


def deviation_bound(chain: ChainSpec, interval: FoldInterval, L: int = 64) -> BoundResult:
    """Rigorous bound on |P(Y_n mod 1 in [a,b]) - (b-a)|.

    The bound is (b-a) * (sum of |spectrum(l)| over 0 < |l| <= L + tail),
    the triangle inequality applied to the folded Fourier series.  Both
    signs of l enter, with |c_{-l}| = |c_l|; the tail likewise covers both.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    width = interval.width
    moduli = [abs(chain_spectrum(chain, ell)) for ell in range(1, L + 1)]
    # All family moduli decrease strictly in |l|, so the retained terms
    # must too; a violation means the spectrum code is wrong.
    for ell in range(2, L + 1):
        if not moduli[ell - 1] <= moduli[ell - 2] * (1.0 + 1e-12) + 1e-305:
            raise SpectrumCheckError(f"spectrum modulus grows from |l| = {ell - 1} to {ell}")
    per_term = tuple((sgn, m) for ell, m in enumerate(moduli, 1) for sgn in (ell, -ell))
    tail, _ = _majorant_tails(chain, L)
    if width == 0.0:
        value = 0.0
    else:
        value = width * (math.fsum(m for _, m in per_term) + tail)
    return BoundResult(value=value, truncation_L=L, per_term=per_term, tail=tail)


def _fold_series(chain: ChainSpec, intervals: list[FoldInterval], L: int) -> list[float]:
    """Truncated fold series for each interval, sharing one c_1..c_L.

    Each l adds z = c_l * I_l and then c_{-l} * I_{-l} = conj(z), in that
    order and not as 2*Re(z), which rounds differently.  Widths 0 and 1
    are exact (every l != 0 integral vanishes) and need no c_l.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    coeffs = None
    out = []
    for interval in intervals:
        a, b, width = interval.a, interval.b, interval.width
        if width in (0.0, 1.0):
            out.append(width)
            continue
        if coeffs is None:
            coeffs = [chain_spectrum(chain, ell) for ell in range(1, L + 1)]
        acc = 0.0 + 0.0j
        for ell, c in enumerate(coeffs, 1):
            i_ell = (
                cmath.exp(2j * math.pi * b * ell) - cmath.exp(2j * math.pi * a * ell)
            ) / (2j * math.pi * ell)
            z = c * i_ell
            acc += z
            acc += z.conjugate()
        out.append(width + acc.real)
    return out


def fold_probability(
    chain: ChainSpec, interval: FoldInterval, L: int = 64
) -> tuple[float, float]:
    """P(Y_n mod 1 in [a,b]) from the truncated Fourier series.

    Returns (probability, truncation_error).  The truncation error is the
    smaller of two rigorous majorant tails: the width-scaled plain tail
    and the tail weighted by |I_l| <= 1/(pi*l).
    """
    [prob] = _fold_series(chain, [interval], L)
    if interval.width in (0.0, 1.0):
        return prob, 0.0
    tail_plain, tail_weighted = _majorant_tails(chain, L)
    return prob, min(interval.width * tail_plain, tail_weighted)


def first_digit_probabilities(chain: ChainSpec, L: int = 64) -> list[float]:
    """Leading-digit probabilities: fold over [log_B d, log_B(d+1)]."""
    log_base = math.log(chain.base)
    intervals = [
        FoldInterval(math.log(d) / log_base, math.log(d + 1) / log_base)
        for d in range(1, chain.base)
    ]
    return _fold_series(chain, intervals, L)


def exponential_chain_bound(n: int, base: int) -> float:
    """Closed-form deviation bound for n chained exponentials, per unit width.

    sum over l >= 1 of (x_l / sinh x_l)^(n/2) with x_l = 2*pi^2*l / ln B.
    Quoted one-sided (l >= 1 only) by convention; terms below 1e-300 are
    dropped.
    """
    n = _check_int(n, "n")
    if n < 2:
        raise ValueError(f"exponential_chain_bound needs n >= 2, got {n}")
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
