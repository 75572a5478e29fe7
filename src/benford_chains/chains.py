"""Chain spectra, rigorous deviation bounds, and fold probabilities.

A chain is X_1 drawn from family 1 at scale 1, then X_m drawn from family
m at scale X_{m-1}^{p_m}.  Unrolling gives log X_n = sum_m R_m log Xi_m
with independent unit-scale draws Xi_m and cumulative exponents R_m, so
the Fourier coefficients of Y_n = log_B X_n mod 1 factor into a product
of per-family Mellin values (the chain spectrum).

Three consumers of the spectrum live here.  Each call makes one pass of
the families' certified closed-form moduli, _moduli, as numpy arrays
(c_{-l} = conj(c_l)): a bound or a fold over 1..max(2L, 256), whose first
L moduli feed its sum or its series and the rest the tails, and a digit
table over 1..L, shared across its intervals.  The spectrum is polar:
each c_l is the product of the moduli times e^(i*phi_l), phi_l the sum of
the families' phases, so no complex Gamma is evaluated.  The pass forms
w = 2*pi*|R|*l/ln B once, one row per link in the _factors order, after
cutting the frequencies where some link provably computes 0.0: an
own-base benford link cuts them all, and an exponential or half-Gaussian
link those past its zero_beyond.  Each family's modulus kernel then runs
once on its rows, and the pass keeps only the support prefix c_1..c_S up
to the last nonzero product; every c_l past S is exactly zero because a
factor is, so no output bit depends on the cut.  The fold and the digit
table run their series over the significant prefix c_1..c_K only, K the
least k <= min(L, S) whose later certified moduli sum to below _FOLD_FLOOR
(2**-110): an exponential link's modulus, about e^(-pi*w/2), stays a
nonzero double out to w ~ 474, far past the terms that reach an output
bit.  They take their phases from the same rows, cut at K: one arg_gamma
call for every exponential and half-Gaussian row, one kernel call per
other family.  The fold's error carries the dropped terms c_{K+1}..c_L in
both tails.

* deviation_bound: a rigorous upper bound on |P(Y_n in [a,b]) - (b-a)|,
  truncating the spectrum at |l| <= L and bounding the rest with the
  tails.  It takes |c_l| from the families' closed-form moduli, rounded
  up, and needs no phase.
* fold_probability: the semi-analytic value of P(Y_n in [a,b]) itself,
  from the truncated Fourier series over the significant prefix, with an
  error that adds a bound on the series' rounding (_fold_rounding) to the
  tails, which start at K + 1.
* first_digit_probabilities: the fold probability of every leading-digit
  interval [log_B d, log_B(d+1)], all from one spectrum.

The closed forms for pure-exponential and pure-uniform chains
(exponential_chain_bound, uniform_chain_density, uniform_chain_cdf_terms,
uniform_chain_cdf_bound) and the named errors ChainSpecError and
SpectrumCheckError live in the math-only _closed module and are
re-exported here, so the CLI's closed-form commands run without numpy.

All bounds here are two-sided sums over l != 0 except
exponential_chain_bound, which is conventionally quoted as the one-sided
sum over l >= 1; deviation_bound doubles it for the two-sided total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._closed import (
    _MAX_EXPONENT,
    ChainSpecError,
    SpectrumCheckError,
    _check_int,
    exponential_chain_bound,
    uniform_chain_cdf_bound,
    uniform_chain_cdf_terms,
    uniform_chain_density,
)
from .families import _U, FAMILY_NAMES, Family, _line_phase, get_family

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
    "deviation_bound",
    "fold_probability",
    "first_digit_probabilities",
    "exponential_chain_bound",
    "uniform_chain_density",
    "uniform_chain_cdf_terms",
    "uniform_chain_cdf_bound",
]


_TWO_PI = 2.0 * math.pi

# A digit table is costed at (base - 1) * (L + 128) series terms, the cost
# of one interval at a time: ~130 ns per term plus ~17 us of numpy calls
# per interval (2-CPU Xeon VM).  Blocks of intervals (_FOLD_BLOCK_TERMS)
# share those calls, so the limit is generous at small L: base 130000 at
# L = 1 takes ~0.1 s, base 256 at L = 65536 ~1 s.
_DIGIT_INTERVAL_COST = 128
_DIGIT_TABLE_MAX_COST = 2**24
# Terms (intervals x S) of one block of fold intervals.  Its temporaries
# take about 100 bytes a term, 0.4 MiB; each complex one is 64 KiB, below
# malloc's default mmap threshold (128 KiB), so a block allocates no fresh
# pages.  In blocks of 2**15 terms a base-10 table at L = 1024 ran 20-40%
# slower than one interval at a time, and in blocks of 4096 as fast.
_FOLD_BLOCK_TERMS = 4096
# The fold series stops at K, the least k <= L whose dropped certified
# moduli m_{k+1}..m_L sum to below this floor, and the error bounds the
# dropped terms as part of both tails.  Each moves the sum by at most
# 2*m_l*min(b - a, 1/(pi*l)), so together they move it, and the
# width-scaled plain tail, by less than 2**-109 * (b - a).  The error is at
# least its rounding part u*(b - a), u = 2**-53, so they stay below half an
# ulp of it.  A floor on each dropped term alone would do as well where an
# exponential or half-Gaussian factor decays geometrically, the sum being
# about its first term, but not for the power law of many uniform links:
# six uniform links with powers 8 or 9 then dropped some 500 terms below
# 2**-110, and 40 of 432 narrow folds of such chains moved their error
# bits.  A floor of 2**-64 moved the error bits of 1541 of 6000 bench
# folds.  A factor that is not monotone (a foreign-base benford link)
# loses no modulus at or above the floor.
_FOLD_FLOOR = 2.0**-110

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
        try:
            links = tuple(self.links)
        except TypeError:
            raise ChainSpecError("links must be a sequence of ChainLink") from None
        object.__setattr__(self, "links", links)
        if not links:
            raise ChainSpecError("chain must have at least one link")
        for i, link in enumerate(links):
            if not isinstance(link, ChainLink):
                raise ChainSpecError(f"links[{i}]: must be a ChainLink, got {link!r}")
        if links[0].power != 1:
            raise ChainSpecError(
                f"links[0]: first power must be 1, got {links[0].power}"
            )
        # The spectrum and sampling kernels take R_m as a double, exact up
        # to 2**53; each link power divides an earlier R, so it is too.
        powers = cumulative_powers(self)
        for m, r in reversed(list(enumerate(powers))):
            if abs(r) > _MAX_EXPONENT:
                raise ChainSpecError(
                    f"links[{m}]: cumulative exponent (the product of the later "
                    f"powers) exceeds 2**53 in magnitude"
                )
        # Each resolved family paired with its cumulative exponent, sorted by
        # a canonical key so products over links are order-independent bit
        # for bit (reordering links with equal powers must not move them),
        # and each family of that order with the slice of its links' rows.
        factors = tuple(sorted(zip(self.families(), powers), key=lambda fr: (fr[0].name, fr[1])))
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_blocks", _family_blocks(factors))

    def __len__(self) -> int:
        return len(self.links)

    def families(self) -> tuple[Family, ...]:
        """Resolved family objects; a benford link adopts the chain base."""
        return tuple(get_family(link.family, self.base) for link in self.links)


def _family_blocks(factors) -> list[tuple[Family, slice]]:
    """Each family of a _factors order with the slice of its links' rows."""
    out, start = [], 0
    for stop in range(1, len(factors) + 1):
        if stop == len(factors) or factors[stop][0] != factors[start][0]:
            out.append((factors[start][0], slice(start, stop)))
            start = stop
    return out


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

    value is the full bound (interval width included); moduli is a
    read-only array of certified upper bounds on |c_l| for l = 1..L (on
    |c_{-l}| too), each a product of closed-form family moduli rounded up;
    tail bounds everything beyond L, both signs, before width scaling.
    Equality compares value, truncation_L and tail.
    """

    value: float
    truncation_L: int
    moduli: np.ndarray = field(repr=False, compare=False)
    tail: float

    @property
    def per_term(self) -> tuple[tuple[int, float], ...]:
        """(l, |c_l|) for 0 < |l| <= L in ascending |l|, +l before -l."""
        return tuple(
            (sgn, m) for ell, m in enumerate(self.moduli.tolist(), 1) for sgn in (ell, -ell)
        )


def cumulative_powers(chain: ChainSpec) -> list[int]:
    """Exponents R_m with log X_n = sum_m R_m log Xi_m; R_n is always 1."""
    out = [1] * len(chain.links)
    for m in range(len(chain.links) - 2, -1, -1):
        out[m] = out[m + 1] * chain.links[m + 1].power
    return out


def _check_index(value, what: str) -> int:
    """value as a Python int; bool, float and other non-integers raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_L(L) -> int:
    L = _check_index(L, "L")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    return L


def _frequencies(lo: int, hi: int) -> np.ndarray:
    """The frequencies lo..hi as floats, the dtype w and the tails use."""
    return np.arange(lo, hi + 1, dtype=np.float64)


def _moduli(chain: ChainSpec, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, w): the certified moduli of c_first..c_last on their support prefix,
    and the rows of w = 2*pi*|R|*l/ln B they came from, cut alike.

    The one pass of a query.  The frequencies are cut first where a link
    provably computes 0.0: an own-base benford link everywhere, and a
    zero_beyond family past l = zero_beyond * ln B / (2*pi*|R|) (+ 1, which
    keeps a frequency that rounding puts at the edge).  Then w is formed
    once, one row per link in the _factors order, and each family's modulus
    kernel runs once on its rows.  np.multiply.reduce down the rows is the
    running product of the links one at a time (numpy pairs terms in add
    reductions only; accumulate, as exact, costs 25 ns a column).  The
    result runs up to the last nonzero product; the kernels are
    elementwise, so every entry has the bits of the full-length product.
    """
    base, log_base = chain.base, math.log(chain.base)
    rs, stop = [], last
    for family, r in chain._factors:
        rs.append(abs(r))
        if family.base == base:
            stop = first - 1
        elif family.zero_beyond < math.inf:
            stop = min(stop, math.floor(family.zero_beyond * log_base / (_TWO_PI * abs(r))) + 1)
    ells = _frequencies(first, max(stop, first - 1))
    w = _TWO_PI * (np.array(rs, dtype=np.float64)[:, None] * ells) / log_base
    if not ells.size:
        return ells, w
    rows = [family.modulus(family.base, w[block], base) for family, block in chain._blocks]
    m = np.multiply.reduce(np.concatenate(rows))
    nonzero = np.flatnonzero(m)
    S = int(nonzero[-1]) + 1 if nonzero.size else 0
    return m[:S], w[:, :S]


def _polar(chain: ChainSpec, m: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re, Im) of c_l from the moduli m and the w rows _moduli cut alike.

    The phase is the running sum of the links' phases down the rows, with
    the sign of R and a Gamma family's scale put on w exactly (a negation, a
    halving): one _line_phase call for every Gamma row, one phase kernel
    call per other family's rows, and every entry with the bits of the
    links one at a time.
    """
    if not m.size:
        return m, m
    # The factor on each w row (the sign of R times a Gamma family's scale
    # of w, exact), and the Gamma rows, one slice of _factors, with x.
    factors = chain._factors
    w = w * np.array([[math.copysign(f.gamma[1] if f.gamma else 1.0, r)] for f, r in factors])
    phase = np.empty_like(w)
    rows = [i for i, (f, _) in enumerate(factors) if f.gamma]
    if rows:
        gamma = slice(rows[0], rows[-1] + 1)
        phase[gamma] = _line_phase(np.array([[factors[i][0].gamma[0]] for i in rows]), w[gamma])
    for family, block in chain._blocks:
        if family.gamma is None:
            phase[block] = family.phase(family.base, w[block], chain.base)
    phase = np.add.accumulate(phase)[-1]
    return m * np.cos(phase), m * np.sin(phase)


def chain_spectrum(chain: ChainSpec, ell: int) -> complex:
    """Fourier coefficient c_l of the folded chain: c_{-l} = conj(c_l).

    The entry of the spectrum that the fold and the digit table use, and
    exactly 0j where the product of the moduli vanishes.
    """
    ell = _check_index(ell, "ell")
    if ell == 0:
        return 1.0 + 0.0j
    re, im = _polar(chain, *_moduli(chain, abs(ell), abs(ell)))
    if not re.size:
        return 0j
    return complex(re[0], im[0] if ell > 0 else -im[0])


def _tails(chain: ChainSpec, moduli: np.ndarray, L: int, K: int | None = None) -> tuple[float, float]:
    """Two-sided bounds (plain, weighted) on the spectrum beyond |l| = K.

    K defaults to L; a fold passes its significant prefix K <= L.  plain
    bounds sum_{|l| > K} |c_l|; weighted bounds the same sum with each term
    carrying the extra 1/(pi*|l|) that bounds the fold integral |I_l|.  The
    terms up to L2 = max(2L, 256) are moduli[K:], upper bounds on |c_l| on
    the support prefix of 1..L2.  Past L2 the rest is closed
    from each link's certified modulus at w(|R| * L2), w formed as _moduli
    forms it.  Where a link's modulus there is provably 0.0 (an own-base
    benford link, or w >= zero_beyond) the rest is exactly 0 and no modulus
    is called.  Otherwise one modulus call per family gives each link's m,
    and its tail kernel an anchor (c * m rounded up, or a foreign-base
    benford link's envelope) and a ratio law g * (l/(l+1))**p, or (1, 0)
    where the anchor is capped at 1.  The product A of the anchors bounds
    |c_l| by A * g**(l - L2) * (L2/l)**p for l >= L2, with the combined g
    and p, so the rest is A * g/(1 - g) for g < 1, A * L2/(p - 1) for
    p >= 2, exactly 0 where A underflows, and honestly infinity otherwise.
    """
    L2 = max(2 * L, 256)
    K = L if K is None else K
    explicit = moduli[K:]
    weighted = explicit / (math.pi * _frequencies(K + 1, K + explicit.size))
    log_base = math.log(chain.base)
    w = [_TWO_PI * float(abs(r) * L2) / log_base for _, r in chain._factors]
    if any(
        family.base == chain.base or wk >= family.zero_beyond
        for (family, _), wk in zip(chain._factors, w)
    ):
        return 2.0 * math.fsum(explicit.tolist()), 2.0 * math.fsum(weighted.tolist())
    anchor, g_total, p_total = 1.0, 1.0, 0
    for family, block in chain._blocks:
        ms = family.modulus(family.base, np.array(w[block]), chain.base).tolist()
        for (_, r), wk, m in zip(chain._factors[block], w[block], ms):
            a, g, p = family.tail(family.base, float(abs(r)), chain.base, L2, wk, m)
            if a >= 1.0:
                a, g, p = 1.0, 1.0, 0
            anchor *= a
            g_total *= g
            p_total += p

    def close(terms: np.ndarray, last: float, p: int) -> float:
        if g_total < 1.0:
            rest = last * g_total / (1.0 - g_total)
        elif p >= 2:
            rest = last * L2 / (p - 1)
        elif last == 0.0:
            rest = 0.0
        else:
            rest = math.inf
        return 2.0 * (math.fsum(terms.tolist()) + rest)

    return close(explicit, anchor, p_total), close(weighted, anchor / (math.pi * L2), p_total + 1)


def _round_up(k: int) -> float:
    """A double >= 1 + gamma_k, gamma_k = k*u/(1 - k*u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1).

    A value that took k - 1 roundings, each a relative error of at most u,
    times this factor (the k-th rounding) is at least its exact value.
    """
    return math.nextafter(1.0 + k * _U / (1.0 - k * _U), math.inf)


def deviation_bound(chain: ChainSpec, interval: FoldInterval, L: int = 64) -> BoundResult:
    """Rigorous bound on |P(Y_n mod 1 in [a,b]) - (b-a)|.

    The bound is (b-a) * (sum of |spectrum(l)| over 0 < |l| <= L + tail),
    the triangle inequality applied to the folded Fourier series.  Both
    signs of l enter, with |c_{-l}| = |c_l|; the tail likewise covers both.
    Each |c_l| is bounded from above by the product of the families'
    certified closed-form moduli, which needs no complex Gamma, times
    1 + gamma_k for the k - 1 rounded multiplies of k links; one pass over
    1..max(2L, 256) gives the sum's moduli and the tail's explicit terms.
    The sum 2 * fsum(moduli) (fsum is correctly rounded and doubling is
    exact), the width b - a, the tail add and the width multiply are four
    roundings, and the value is rounded up by 1 + gamma_5 for them.
    """
    L = _check_L(L)
    width = interval.width
    bounds, _ = _moduli(chain, 1, max(2 * L, 256))
    bounds *= _round_up(len(chain.links))
    support = bounds[:L]
    # All family moduli decrease strictly in |l|, so the retained terms
    # must too; a violation means the spectrum code is wrong.
    grows = ~(support[1:] <= support[:-1] * (1.0 + 1e-12) + 1e-305)
    if grows.any():
        ell = int(np.argmax(grows)) + 2
        raise SpectrumCheckError(f"spectrum modulus grows from |l| = {ell - 1} to {ell}")
    moduli = np.zeros(L)
    moduli[: support.size] = support
    moduli.flags.writeable = False
    tail, _ = _tails(chain, bounds, L)
    if width == 0.0:
        value = 0.0
    else:
        value = width * (2.0 * math.fsum(support.tolist()) + tail) * _round_up(5)
    return BoundResult(value=value, truncation_L=L, moduli=moduli, tail=tail)


def _cis(ells: np.ndarray, xs) -> np.ndarray:
    """e^(i*(2*pi*x)*l), one row per x, from numpy's complex exp, which gives cmath.exp's bits.

    Row by row the phases ascend, which keeps the exp's argument reduction
    about a third faster than in the transposed order.
    """
    phase = (_TWO_PI * np.asarray(xs, dtype=np.float64))[:, None] * ells
    y = np.zeros(phase.shape, dtype=np.complex128)
    y.imag = phase
    return np.exp(y)


def _significant(moduli: np.ndarray) -> int:
    """K, the length of the significant prefix of moduli: the least K whose
    dropped terms moduli[K:] sum to less than _FOLD_FLOOR."""
    # The running sums from the last term back never decrease.
    dropped = np.add.accumulate(moduli[::-1])
    return moduli.size - int(np.searchsorted(dropped, _FOLD_FLOOR))


def _fold_series(chain: ChainSpec, edges: list[float], moduli: np.ndarray, w: np.ndarray) -> list[float]:
    """Truncated fold series on [edges[k], edges[k+1]], sharing one spectrum.

    moduli are the certified moduli of c_1..c_K, the significant prefix
    (_significant), and w their rows from _moduli.  Each l adds
    z = c_l * I_l, I_l = (e^(2 pi i b l) - e^(2 pi i a l))/(2 pi i l), and
    then c_{-l} * I_{-l} = conj(z), in that order and not as 2*Re(z), which
    rounds differently; the quotient and the product are spelled out in real
    arithmetic in the order of the scalar complex operations.  The intervals
    go in blocks of consecutive ones, each block one (intervals x S) product
    with a row-wise running sum, and adjacent intervals share their common
    edge's exponentials; a block holds at most _FOLD_BLOCK_TERMS terms, so
    memory stays O(L) and a few MiB.  Every operation is elementwise or runs
    along its row, so each interval has the bits of its own one-row series.
    Widths 0 and 1 are exact (every l != 0 integral vanishes), and with an
    empty prefix every interval is exactly its width.
    """
    widths = [b - a for a, b in zip(edges, edges[1:])]
    re, im = _polar(chain, moduli, w)
    if not re.size:
        return widths
    ells = _frequencies(1, re.size)
    denom = _TWO_PI * ells
    rows = max(1, _FOLD_BLOCK_TERMS // ells.size)
    e = _cis(ells, edges[: rows + 1])  # edge a's row, then the first block's
    out = []
    for start in range(0, len(widths), rows):
        if start:
            e = np.concatenate((e[-1:], _cis(ells, edges[start + 1 : start + rows + 1])))
        diff = e[1:] - e[:-1]
        z_re = re * (diff.imag / denom) - im * (-diff.real / denom)
        # The running sum goes down the columns of the transpose: one
        # vector add per term, each column one interval's sum.
        acc = np.add.accumulate(np.repeat(z_re.T, 2, axis=0))[-1]
        for width, a in zip(widths[start : start + rows], acc.tolist()):
            out.append(width if width in (0.0, 1.0) else width + a)
    return out


# Rounding error of the fold series against the exact truncated sum, with
# u = 2**-53 and M_l >= |c_l| the certified moduli rounded up.  The bound
# sums over l = 1..S, S = min(L, the support), a superset of the terms
# 1..K the series runs (_FOLD_FLOOR), so it still bounds that series;
# every term it counts only adds to it.  For l = 1..S the series adds
# Re(c_l * I_l) twice, I_l = (e_b - e_a)/(2*pi*i*l) with
# e_x = e^(2*pi*i*x*l), and then adds the sum to the width b - a.
# * I_l.  The phase (2*pi*x)*l takes three roundings (math.pi 0.35u and two
#   multiplies): an absolute 2.4u*2*pi*x*l, which no |I_l| scales down.
#   numpy's exp is taken to be within 4 ulp a component, 8u in all; the
#   difference rounds by 2u, and the divides by 2*pi*l (its 1.35u, their u)
#   by 2.4u of |e_b - e_a| <= 2.  So |I^_l - I_l| <= 2.4u*(a + b) +
#   11.5u/(pi*l), and |I^_l| <= 1/(pi*l) to first order.
# * c_l.  Each family's certified modulus lies within (2e_f + 2u) relative
#   of its exact value (e_f as families.py derives it at its kernel), and
#   each of the k - 1 products rounds by u.  Each phase has arg_gamma's
#   stated error at x = 1, y = w (exponential) or x = 1/2, y = w/2, and the
#   6u of w times |d phi/dw|, with |Re psi(1 + iy)| <= 1 + ln(1 + y) and
#   |Re psi(1/2 + iy)| <= 2 + ln(1 + y): below zero_beyond, (485 + 129.4w)u
#   and (473 + 67.7w)u (half-Gaussian).  The constants below still take
#   8.4u + 58.2u*w and 8.4u + 33.2u*w, from an older statement of that error;
#   its sharper form with the 6u term is 1.2 to 2.24 and 2.05 times those,
#   so a re-pin of the fold error must raise them.  The uniform's arctan w
#   (4 ulp, and 6u*w/(1 + w^2)) gives 15.6u.  With the modulus, a link's
#   error is at most (59 + 84*w)*u of M_l.  Adding the k phases, each at most
#   1.6 + 7.2*w, rounds k - 1 times, and cos, sin and the multiply by the
#   modulus add 9u.  So |c^_l - c_l| <= M_l*eps_l with eps_l = (9 + 59k +
#   1.6k(k - 1) + (84 + 7.2(k - 1))*W*l)*u, W*l the sum of the links' w at l.
# * Re(c*I) is two multiplies and a subtract, 2.2u*M_l/(pi*l); the running
#   sum of 2S terms, each at most M_l/(pi*l), is off by 2S*u times their
#   sum; and b - a and the final add are off by u*(b - a) and u*|p|.
# In all, 2u * sum_l M_l*(2.4(a + b) + (84 + 7.2(k - 1))*W/pi + (22.7 + 2S +
# 59k + 1.6k(k - 1))/(pi*l)) + u*(b - a + |p|).  A benford link leaves S = 0:
# a ChainSpec gives it the chain's base.  Each constant below is rounded up
# by more than 1%, which covers the second-order terms and the roundings of
# this sum.
def _fold_rounding(chain: ChainSpec, interval: FoldInterval, moduli: np.ndarray, prob: float) -> float:
    """A bound on the rounding error of the fold series over c_1..c_S, S = moduli.size.

    moduli are the certified moduli rounded up on the support prefix, cut
    at L: the terms the series ran over and those it dropped (_FOLD_FLOOR).
    With S = 0 the probability is the width b - a as computed and the bound
    is 0.0, so the rounding of that subtraction, at most u*(b - a), is left
    uncounted there.
    """
    S = moduli.size
    if not S:
        return 0.0
    k = len(chain.links)
    w = _TWO_PI * sum(abs(r) for _, r in chain._factors) / math.log(chain.base)
    flat = 2.5 * (interval.a + interval.b) + (86.0 + 7.4 * (k - 1)) * w / math.pi
    per_l = 23.0 + 2.1 * S + 60.0 * k + 1.7 * k * (k - 1)
    ells = _frequencies(1, S)
    series = flat * float(moduli.sum()) + per_l / math.pi * float((moduli / ells).sum())
    return 2.0 * _U * series + _U * (interval.width + abs(prob))


def fold_probability(
    chain: ChainSpec, interval: FoldInterval, L: int = 64
) -> tuple[float, float]:
    """P(Y_n mod 1 in [a,b]) from the truncated Fourier series.

    Returns (probability, error).  The series runs over the significant
    prefix c_1..c_K, K the least k <= L whose dropped certified moduli
    m_{k+1}..m_L sum to below _FOLD_FLOOR (2**-110).  The error is the
    smaller of two rigorous tails beyond K, the width-scaled plain tail and
    the tail weighted by |I_l| <= 1/(pi*l), plus a bound on the series'
    rounding.  So the dropped terms enter both tails with their rounded-up
    moduli, and probability +- error still brackets the series truncated
    at L.  Widths 0 and 1 are exact, with error 0.0 and no spectrum.
    """
    L = _check_L(L)
    width = interval.width
    if width in (0.0, 1.0):
        return width, 0.0
    m, w = _moduli(chain, 1, max(2 * L, 256))
    K = _significant(m[:L])
    [prob] = _fold_series(chain, [interval.a, interval.b], m[:K], w[:, :K])
    bounds = m * _round_up(len(chain.links))
    tail_plain, tail_weighted = _tails(chain, bounds, L, K)
    rounding = _fold_rounding(chain, interval, bounds[:L], prob)
    return prob, min(width * tail_plain, tail_weighted) + rounding


def first_digit_probabilities(chain: ChainSpec, L: int = 64) -> list[float]:
    """Leading-digit probabilities: fold over [log_B d, log_B(d+1)].

    The series runs over the significant prefix, as fold_probability's
    does.  A table costs at most (base - 1) * (L + 128) series terms; above
    2**24 (about 2 s) it raises ValueError before any work.
    """
    L = _check_L(L)
    cost = (chain.base - 1) * (L + _DIGIT_INTERVAL_COST)
    if cost > _DIGIT_TABLE_MAX_COST:
        raise ValueError(
            f"a base-{chain.base} digit table at L = {L} costs (base - 1) * (L + "
            f"{_DIGIT_INTERVAL_COST}) = {cost} series terms, above the limit {_DIGIT_TABLE_MAX_COST}"
        )
    if chain.base == 2:  # the one digit's interval is [0, 1], exact
        return [1.0]
    log_base = math.log(chain.base)
    edges = [math.log(d) / log_base for d in range(1, chain.base + 1)]
    m, w = _moduli(chain, 1, L)
    K = _significant(m)
    return _fold_series(chain, edges, m[:K], w[:, :K])
