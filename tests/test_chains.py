"""Chain validation, spectrum algebra, rigorous bounds, fold
probabilities, and the closed forms for pure chains."""

import itertools
import math
import random

import numpy as np
import pytest

import full_spectrum
from benford_chains.chains import (
    BoundResult,
    ChainLink,
    ChainSpec,
    ChainSpecError,
    FoldInterval,
    SpectrumCheckError,
    _round_up,
    chain_spectrum,
    cumulative_powers,
    deviation_bound,
    exponential_chain_bound,
    first_digit_probabilities,
    fold_probability,
    load_chain,
    parse_chain,
    uniform_chain_cdf_bound,
    uniform_chain_cdf_terms,
    uniform_chain_density,
)
from benford_chains.families import _TABLE, FAMILY_NAMES, get_family, mellin_at
from benford_chains.montecarlo import sample_batch

SEED = 20260814


def chain(*families, base=10, powers=None):
    powers = powers or [1] * len(families)
    return ChainSpec(base, tuple(ChainLink(f, p) for f, p in zip(families, powers)))


# ---------------------------------------------------------------- validation

def test_chain_spec_validation():
    with pytest.raises(ChainSpecError):
        ChainSpec(10, ())
    with pytest.raises(ChainSpecError):
        ChainSpec(1, (ChainLink("uniform", 1),))
    with pytest.raises(ChainSpecError):
        ChainSpec(10, (ChainLink("uniform", 2),))  # first power must be 1
    with pytest.raises(ChainSpecError):
        ChainLink("gaussian", 1)
    with pytest.raises(ChainSpecError):
        ChainLink("uniform", 0)
    with pytest.raises(ChainSpecError):
        ChainLink("uniform", True)  # JSON booleans are not powers
    assert len(chain("uniform", "exponential")) == 2


def test_chain_spec_rejects_links_that_are_not_chain_links():
    # Each must be a named error that names the link, raised before the
    # cumulative exponents read a power.
    with pytest.raises(ChainSpecError, match=r"^links\[0\]: must be a ChainLink, got \('exponential', 1\)"):
        ChainSpec(10, [("exponential", 1)])
    with pytest.raises(ChainSpecError, match=r"^links\[0\]: must be a ChainLink, got 'a'"):
        ChainSpec(10, "ab")
    with pytest.raises(ChainSpecError, match=r"^links\[1\]: must be a ChainLink, got None"):
        ChainSpec(10, [ChainLink("uniform", 1), None])
    links = [ChainLink("uniform", 1), ChainLink("exponential", 2)]
    assert ChainSpec(10, links).links == tuple(links)


@pytest.mark.parametrize("links", [None, 5, 2.5])
def test_chain_spec_rejects_links_that_are_not_a_sequence(links):
    with pytest.raises(ChainSpecError, match=r"^links must be a sequence of ChainLink$"):
        ChainSpec(10, links)


def test_parse_chain_reports_offending_link():
    good = {"base": 10, "links": [{"family": "uniform", "power": 1}]}
    assert parse_chain(good).base == 10

    bad = {
        "base": 10,
        "links": [
            {"family": "uniform", "power": 1},
            {"family": "exponential", "power": 2},
            {"family": "gamma", "power": 1},
        ],
    }
    with pytest.raises(ChainSpecError, match=r"links\[2\]"):
        parse_chain(bad)
    with pytest.raises(ChainSpecError, match=r"links\[1\]"):
        parse_chain({"base": 10, "links": [{"family": "uniform", "power": 1}, {"power": 1}]})
    with pytest.raises(ChainSpecError, match=r"links\[0\]"):
        parse_chain({"base": 10, "links": [{"family": "uniform", "power": 3}]})
    with pytest.raises(ChainSpecError):
        parse_chain({"base": 10, "links": []})
    with pytest.raises(ChainSpecError):
        parse_chain({"links": [{"family": "uniform", "power": 1}]})
    with pytest.raises(ChainSpecError):
        parse_chain([1, 2, 3])


def test_parse_chain_prefixes_link_errors_once():
    def message(links):
        with pytest.raises(ChainSpecError) as info:
            parse_chain({"base": 10, "links": links})
        return str(info.value)

    first = {"family": "uniform", "power": 1}
    assert message([{"family": "uniform", "power": 3}]) == "links[0]: first power must be 1, got 3"
    assert message([first, {"family": "uniform", "power": 0}]).startswith("links[1]: power must be")
    assert message([first, first, {"family": "uniform", "power": True}]).startswith(
        "links[2]: power must be an integer"
    )
    assert message([first, {"family": "cauchy", "power": 1}]).startswith(
        "links[1]: unknown family 'cauchy'"
    )
    with pytest.raises(ChainSpecError, match="^base must be an integer"):
        parse_chain({"base": "10", "links": [first]})


def test_parse_chain_rejects_cumulative_exponents_beyond_two_to_53():
    # The kernels take R_m as a double; past 2**53 float(R_m) != R_m, and
    # past the double range the conversion raises OverflowError.
    def spec(*powers):
        return {"base": 10, "links": [{"family": "exponential", "power": 1}]
                + [{"family": "uniform", "power": p} for p in powers]}

    with pytest.raises(ChainSpecError, match=r"^links\[0\]: cumulative exponent"):
        parse_chain(spec(10**400))
    with pytest.raises(ChainSpecError, match=r"^links\[0\]: cumulative exponent"):
        parse_chain(spec(2**30, 2**30))  # R_0 = 2**60
    with pytest.raises(ChainSpecError, match=r"^links\[1\]: cumulative exponent"):
        parse_chain(spec(3, 2**30, -2**30))  # R_1 = -2**60
    for powers in ((2**53,), (-(2**53),), (2**26, -(2**27))):
        assert cumulative_powers(parse_chain(spec(*powers)))[0] == math.prod(powers)


def test_load_chain_round_trip(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"base": 10, "links": [{"family": "exponential", "power": 1}, '
                 '{"family": "uniform", "power": -2}]}')
    ch = load_chain(p)
    assert ch.links[1] == ChainLink("uniform", -2)

    p.write_text("{not json")
    with pytest.raises(ChainSpecError, match="not valid JSON"):
        load_chain(p)


def test_fold_interval_validation():
    assert FoldInterval(0.25, 0.75).width == 0.5
    assert FoldInterval(0.3, 0.3).width == 0.0
    for a, b in ((-0.1, 0.5), (0.5, 1.1), (0.6, 0.4)):
        with pytest.raises(ChainSpecError):
            FoldInterval(a, b)


# ------------------------------------------------------------------ spectrum

def test_cumulative_powers():
    assert cumulative_powers(chain("uniform", "uniform", "uniform")) == [1, 1, 1]
    assert cumulative_powers(chain("uniform", "uniform", "uniform", powers=[1, 2, 3])) == [6, 3, 1]
    assert cumulative_powers(chain("uniform", "uniform", powers=[1, -1])) == [-1, 1]
    assert cumulative_powers(chain("uniform")) == [1]


def test_spectrum_at_zero_and_single_link():
    ch = chain("exponential")
    assert chain_spectrum(ch, 0) == 1.0 + 0.0j
    assert chain_spectrum(ch, 1) == mellin_at(get_family("exponential"), 1, 10)
    assert chain_spectrum(ch, -2) == chain_spectrum(ch, 2).conjugate()


def test_spectrum_factorizes_with_cumulative_exponents():
    ch = chain("exponential", "uniform", "half_gaussian", powers=[1, 2, 3])
    # R = (6, 3, 1): each family is evaluated at R_m * l
    for ell in (1, 2, 5):
        by_hand = (
            mellin_at(get_family("exponential"), 6 * ell, 10)
            * mellin_at(get_family("uniform"), 3 * ell, 10)
            * mellin_at(get_family("half_gaussian"), ell, 10)
        )
        assert chain_spectrum(ch, ell) == pytest.approx(by_hand, rel=1e-14)


def test_spectrum_contains_benford_link_vanishes():
    ch = chain("exponential", "benford", "uniform")
    for ell in (1, 2, 7, -4):
        assert chain_spectrum(ch, ell) == 0.0 + 0.0j
        assert anchor_product(ch, abs(ell)) == 0.0


def test_spectrum_is_permutation_invariant_bitwise():
    fams = ["exponential", "uniform", "half_gaussian", "exponential", "uniform"]
    ref = None
    for perm in itertools.permutations(fams):
        ch = chain(*perm)
        vals = tuple(chain_spectrum(ch, ell) for ell in (1, 2, 3))
        if ref is None:
            ref = vals
        else:
            assert vals == ref  # bitwise, not approx


def test_spectrum_negative_frequency_is_the_conjugate_bitwise():
    # The fold series adds conj(c_l * I_l) for -l instead of evaluating
    # c_{-l}; that is exact only if the spectrum is conjugate-symmetric
    # bit for bit, for every family, sign of power and base.
    rng = random.Random(SEED)
    ells = list(range(1, 65)) + sorted(rng.sample(range(65, 1025), 64))
    for _ in range(40):
        n = rng.randint(1, 6)
        fams = [rng.choice(FAMILY_NAMES) for _ in range(n)]
        powers = [1] + [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n - 1)]
        ch = chain(*fams, base=rng.choice((2, 3, 10, 16, 1000)), powers=powers)
        for ell in ells:
            c = chain_spectrum(ch, ell)
            assert chain_spectrum(ch, -ell) == c.conjugate(), (ch, ell)


def anchor_product(ch, ell) -> float:
    """The product of the links' tail anchors at ell, as the tails form it at L2 = ell."""
    return math.prod(a for a, _, _ in full_spectrum.anchors(ch, ell))


def test_the_tail_anchors_dominate_the_spectrum():
    # each anchor is c*m rounded up with c >= 1 (or the link's modulus
    # itself, exponential), so their product is at least the product of the
    # moduli; |c_l| as abs of the polar value adds up to 2u
    chains = [
        chain("exponential", "uniform"),
        chain("half_gaussian", "half_gaussian", "uniform"),
        chain("exponential", "uniform", powers=[1, -2]),
        chain("exponential", "exponential", powers=[1, 3]),
        chain("benford", "exponential"),
    ]
    for ch in chains:
        for ell in range(1, 65):
            assert abs(chain_spectrum(ch, ell)) <= anchor_product(ch, ell) * (1.0 + 4.0 * 2.0**-53), (ch, ell)


# ------------------------------------------------------------------- bounds

def test_deviation_bound_matches_exponential_closed_form():
    ch = chain("exponential", "exponential")
    res = deviation_bound(ch, FoldInterval(0.0, 1.0), L=64)
    # two-sided sum vs the one-sided closed form: a factor of exactly 2
    assert res.value == pytest.approx(2.0 * exponential_chain_bound(2, 10), rel=1e-13)
    assert res.value == pytest.approx(0.0064907182036420046, rel=1e-12)
    assert res.truncation_L == 64
    assert res.tail < 1e-200  # the moduli are astronomically small past l = 64


def test_deviation_bound_structure():
    ch = chain("exponential", "uniform")
    iv = FoldInterval(0.3, 0.55)
    res = deviation_bound(ch, iv, L=8)
    assert isinstance(res, BoundResult)
    assert [ell for ell, _ in res.per_term] == [1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8]
    # the reported value is exactly reassembled from the reported pieces,
    # then rounded up for its own four roundings
    total = math.fsum(m for _, m in res.per_term) + res.tail
    assert res.value == iv.width * total * _round_up(5)
    moduli = [m for _, m in res.per_term]
    assert all(moduli[i] <= moduli[i - 2] * (1 + 1e-12) for i in range(2, len(moduli)))


def test_deviation_bound_degenerate_and_benford():
    ch = chain("exponential", "exponential")
    assert deviation_bound(ch, FoldInterval(0.4, 0.4)).value == 0.0

    absorbed = chain("benford", "exponential", "uniform")
    res = deviation_bound(absorbed, FoldInterval(0.0, 1.0))
    assert res.value == 0.0
    assert res.tail == 0.0
    assert all(m == 0.0 for _, m in res.per_term)


def test_deviation_bound_rejects_a_growing_spectrum(monkeypatch):
    # A family whose modulus grows in |l| breaks the triangle-inequality
    # bookkeeping; the check must raise a named error, also under -O.
    growing = _TABLE["uniform"]._replace(modulus=lambda own, w, base: w)
    monkeypatch.setitem(_TABLE, "uniform", growing)
    with pytest.raises(SpectrumCheckError, match=r"\|l\| = 1 to 2"):
        deviation_bound(chain("uniform"), FoldInterval(0.0, 0.5), L=4)


def test_deviation_bound_validates_L():
    with pytest.raises(ValueError):
        deviation_bound(chain("exponential"), FoldInterval(0.0, 1.0), L=0)
    with pytest.raises(ValueError):
        fold_probability(chain("exponential"), FoldInterval(0.0, 0.5), L=-3)


def test_tail_shrinks_when_L_grows():
    chains = [
        chain("exponential", "exponential"),
        chain("half_gaussian", "uniform"),
        chain("uniform", "uniform"),
        chain("exponential", "uniform", powers=[1, 3]),
    ]
    iv = FoldInterval(0.0, 1.0)
    for ch in chains:
        b64 = deviation_bound(ch, iv, L=64)
        b128 = deviation_bound(ch, iv, L=128)
        assert b128.tail <= b64.tail
        assert b128.value <= b64.value * (1 + 1e-12)


def test_single_uniform_tail_is_honestly_infinite():
    # one uniform link decays like 1/l: not summable, and the bound says so
    res = deviation_bound(chain("uniform"), FoldInterval(0.0, 0.5))
    assert math.isinf(res.tail)
    assert math.isinf(res.value)
    # a second link restores summability
    assert math.isfinite(deviation_bound(chain("uniform", "uniform"), FoldInterval(0.0, 0.5)).value)


def test_deeper_chains_tighten_the_bound():
    iv = FoldInterval(0.0, 1.0)
    for name, start in (("exponential", 1), ("half_gaussian", 1), ("uniform", 2)):
        values = []
        for n in range(start, start + 4):
            values.append(deviation_bound(chain(*[name] * n), iv).value)
        assert all(values[i + 1] < values[i] for i in range(len(values) - 1)), name


# --------------------------------------------------------------------- fold

def test_fold_full_circle_is_exact():
    assert fold_probability(chain("uniform"), FoldInterval(0.0, 1.0)) == (1.0, 0.0)
    assert fold_probability(chain("exponential", "uniform"), FoldInterval(0.0, 1.0)) == (1.0, 0.0)


def test_fold_degenerate_interval():
    assert fold_probability(chain("exponential"), FoldInterval(0.7, 0.7)) == (0.0, 0.0)


def test_fold_benford_chain_is_flat():
    ch = chain("benford", "half_gaussian")
    for a, b in ((0.0, 0.25), (0.1, 0.9), (0.5, 0.75)):
        p, err = fold_probability(ch, FoldInterval(a, b))
        assert p == b - a
        assert err == 0.0


def test_fold_three_exponentials_digit_one():
    # P(first digit = 1) for a depth-3 exponential chain, frozen value
    p, err = fold_probability(chain(*["exponential"] * 3), FoldInterval(0.0, math.log10(2.0)))
    assert p == pytest.approx(0.30105089548416523, rel=1e-13)
    # the tails are below 1e-100; the error is the rounding bound of the
    # series, which carries u * (width + p) for the width and the last add
    assert err <= 4 * 2.0**-53


def test_fold_single_uniform_against_exact_cdf():
    # P(Y in [0, log10 2]) for one Unif(0,1) draw: mantissa in [1,2) means
    # x in union of [10^-k, 2*10^-k); exact sum (2-1)/9... = 1/9
    p, err = fold_probability(chain("uniform"), FoldInterval(0.0, math.log10(2.0)))
    assert err < 0.004
    assert abs(p - 1.0 / 9.0) <= err


def test_fold_probabilities_stay_in_unit_interval():
    rng = np.random.default_rng(7)
    chains = [
        chain("uniform", "uniform"),
        chain("exponential", "half_gaussian", powers=[1, -2]),
        chain("half_gaussian", "uniform", "exponential"),
    ]
    for ch in chains:
        for _ in range(8):
            a, b = sorted(rng.random(2))
            p, err = fold_probability(ch, FoldInterval(a, b))
            assert 0.0 <= p <= 1.0
            assert err >= 0.0


def test_first_digit_probabilities_sum_to_one():
    for ch in (
        chain("exponential", "exponential", "exponential"),
        chain("uniform"),
        chain("exponential", "uniform", "half_gaussian", powers=[1, 2, 3]),
        chain("benford", "exponential"),
    ):
        probs = first_digit_probabilities(ch)
        assert len(probs) == 9
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


def test_first_digit_probabilities_benford_chain_exact():
    # the series part is identically zero, leaving the interval width alone
    probs = first_digit_probabilities(chain("benford", "uniform"))
    for d, p in enumerate(probs, start=1):
        assert p == pytest.approx(math.log10(d + 1) - math.log10(d), rel=1e-15)
    assert math.fsum(probs) == 1.0


def test_first_digit_probabilities_respect_base():
    probs = first_digit_probabilities(chain("exponential", "exponential", base=2))
    assert len(probs) == 1
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------- closed forms

def test_exponential_chain_bound_frozen_values():
    assert exponential_chain_bound(2, 10) == pytest.approx(0.0032453591018210023, rel=1e-12)
    assert exponential_chain_bound(3, 10) == pytest.approx(0.00018477822364034969, rel=1e-12)
    assert exponential_chain_bound(5, 10) == pytest.approx(5.9944036703876041e-07, rel=1e-12)
    assert exponential_chain_bound(10, 10) == pytest.approx(3.5932875163347775e-13, rel=1e-12)
    assert exponential_chain_bound(25, 10) == pytest.approx(7.7398032620682361e-32, rel=1e-12)


def test_exponential_chain_bound_geometric_envelope():
    # each extra link multiplies the bound by |Gamma(1 - 2 pi i/ln 10)| at
    # worst, about 0.057; the l = 1 term dominates everything
    for n in range(2, 51):
        assert exponential_chain_bound(n, 10) <= 0.057**n
    assert exponential_chain_bound(2, 2) < 1.0  # slower decay at base 2, still finite


def test_exponential_chain_bound_domain():
    with pytest.raises(ValueError):
        exponential_chain_bound(1, 10)
    with pytest.raises(ValueError):
        exponential_chain_bound(2, 1)
    for n in (2**53 + 1, 10**400):
        with pytest.raises(ValueError, match=r"n <= 2\*\*53"):
            exponential_chain_bound(n, 10)


def test_uniform_chain_density_values():
    assert uniform_chain_density(1, 5.0, 3.0) == 0.2
    assert uniform_chain_density(2, math.e, 1.0) == pytest.approx(0.36787944117144232, rel=1e-13)
    assert uniform_chain_density(3, 5.0, 1.0) == pytest.approx(0.25902903939802349, rel=1e-13)
    assert uniform_chain_density(5, 5.0, 2.0) == pytest.approx(0.0058742432841529383, rel=1e-13)
    assert uniform_chain_density(4, 5.0, 5.0) == 0.0  # ln(k/k) = 0 kills n >= 2
    assert uniform_chain_density(2, 1.0, 0.25) == pytest.approx(1.3862943611198906, rel=1e-13)


def test_uniform_chain_density_domain():
    with pytest.raises(ValueError):
        uniform_chain_density(0, 5.0, 1.0)
    with pytest.raises(ValueError):
        uniform_chain_density(2, 0.5, 0.2)
    with pytest.raises(ValueError):
        uniform_chain_density(2, 5.0, 0.0)
    with pytest.raises(ValueError):
        uniform_chain_density(2, 5.0, 5.5)
    for k in (math.inf, math.nan):
        with pytest.raises(ValueError, match="k must be finite"):
            uniform_chain_density(2, k, 1.0)


def test_uniform_chain_density_integrates_to_one():
    from scipy.integrate import quad

    for n, k in ((2, 5.0), (4, 5.0), (6, 2.0)):
        total, _ = quad(lambda x: uniform_chain_density(n, k, x), 1e-12, k, limit=300)
        assert total == pytest.approx(1.0, abs=1e-7), (n, k)


def test_uniform_chain_cdf_bound_frozen_values():
    assert uniform_chain_cdf_bound(2, 1.0, 2.0) == pytest.approx(0.12485182111887979, rel=1e-12)
    assert uniform_chain_cdf_bound(10, 5.0, 2.0) == pytest.approx(0.00051350577808389031, rel=1e-12)
    assert uniform_chain_cdf_bound(3, 2.0, 9.5) == pytest.approx(0.15082517545704555, rel=1e-12)
    head, spectral = uniform_chain_cdf_terms(10, 5.0, 2.0)
    assert head == pytest.approx(0.00049916603091815218, rel=1e-12)
    assert spectral == pytest.approx(1.4339747165738127e-05, rel=1e-12)
    assert uniform_chain_cdf_bound(10, 5.0, 2.0) == head + spectral
    # k = 1 starts already inside [1, 10): no head mass at all
    h, _ = uniform_chain_cdf_terms(4, 1.0, 3.0)
    assert h == 0.0


def test_uniform_chain_cdf_bound_domain():
    for bad in ((1, 5.0, 2.0), (3, 0.9, 2.0), (3, 10.0, 2.0), (3, 5.0, 0.5), (3, 5.0, 10.0)):
        with pytest.raises(ValueError):
            uniform_chain_cdf_bound(*bad)


def test_uniform_chain_cdf_bound_decays_with_depth():
    vals = [uniform_chain_cdf_bound(n, 5.0, 2.0) for n in range(2, 12)]
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


# ------------------------------------------------- spectrum vs Monte Carlo

def _digit_freqs(values, base=10):
    m = np.log(values) / math.log(base)
    digits = np.floor(np.power(float(base), np.mod(m, 1.0))).astype(int)
    digits = np.clip(digits, 1, base - 1)
    return np.bincount(digits, minlength=base)[1:] / len(values)


def test_power_chain_fold_matches_monte_carlo_on_grid():
    ch = chain("exponential", "exponential", powers=[1, 2])
    batch = sample_batch(ch, 1_000_000, SEED, stream=500)
    y = np.mod(np.log10(batch.values), 1.0)
    for j in range(10):
        a, b = j / 10.0, (j + 1) / 10.0
        p, err = fold_probability(ch, FoldInterval(a, b))
        emp = float(np.mean((y >= a) & (y < b)))
        sigma = math.sqrt(p * (1.0 - p) / batch.count)
        assert abs(emp - p) <= 3.0 * sigma + err, (a, b)


def test_cumulative_exponents_arbitrated_by_sampling():
    """Uniform chain with powers (1, 2, 3): the sampled digit law matches
    the cumulative-exponent spectrum and rejects the same-spectrum-per-link
    variant by a wide margin."""
    ch = chain("uniform", "uniform", "uniform", powers=[1, 2, 3])
    n = 4_000_000
    batch = sample_batch(ch, n, SEED, stream=300)
    emp = _digit_freqs(batch.values)

    probs = first_digit_probabilities(ch)

    # variant: evaluate each link at its own power instead of the product
    # of downstream powers
    fam = get_family("uniform")
    variant = []
    for d in range(1, 10):
        a, b = math.log10(d), math.log10(d + 1)
        acc = 0.0 + 0.0j
        for ell in list(range(1, 65)) + list(range(-64, 0)):
            prod = 1.0 + 0.0j
            for p in (1, 2, 3):
                prod *= mellin_at(fam, p * ell, 10)
            i_ell = (
                np.exp(2j * math.pi * b * ell) - np.exp(2j * math.pi * a * ell)
            ) / (2j * math.pi * ell)
            acc += prod * i_ell
        variant.append((b - a) + acc.real)

    z_cum = max(
        abs(emp[d] - probs[d]) / math.sqrt(probs[d] * (1 - probs[d]) / n) for d in range(9)
    )
    z_var = max(
        abs(emp[d] - variant[d]) / math.sqrt(variant[d] * (1 - variant[d]) / n) for d in range(9)
    )
    assert z_cum < 3.0
    assert z_var > 3.0
