"""Scale-family exact Mellin values, tail laws and samplers, checked against
the density, CDF and quadrature oracles in tests/oracles.py."""

import math
import pickle

import numpy as np
import pytest

from benford_chains.families import FAMILY_NAMES, get_family, mellin_at
from benford_chains.montecarlo import make_rng
from oracles import (
    NonConvergenceError,
    cdf_at_unit,
    density_at_unit,
    mellin_numeric,
    power_density,
    power_shift,
)

BASE = 10
LN10 = math.log(10.0)

# Mellin values at l = 1, base 10, frozen from a 50-digit evaluation.
MELLIN_L1 = {
    "exponential": complex(0.041079784737789048, -0.039453546940565922),
    "uniform": complex(0.11839796182414734, 0.32307875891187134),
    "half_gaussian": complex(0.10195609325193739, 0.13080825738220182),
}
MELLIN_ABS = {
    ("exponential", 1): 0.056957274164890691,
    ("exponential", 2): 0.0011080040606059202,
    ("exponential", 3): 1.8666553810827292e-05,
    ("uniform", 1): 0.34409004900483149,
    ("half_gaussian", 1): 0.16584886237344563,
    ("half_gaussian", 2): 0.019453249419876738,
    ("half_gaussian", 3): 0.0022815539648018082,
}


def test_registry_names_and_lookup():
    assert FAMILY_NAMES == ("exponential", "uniform", "half_gaussian", "benford")
    for name in FAMILY_NAMES:
        assert get_family(name, BASE).name == name
    with pytest.raises(ValueError):
        get_family("lognormal")
    with pytest.raises(ValueError):
        get_family("Exponential")


def test_benford_takes_an_integer_base_of_at_least_two():
    for base in (2, 10, 10**200):
        assert get_family("benford", base).base == base
    for bad in (10.7, 10.0, "10", True, None, 1, 0, -10):
        with pytest.raises(ValueError, match="integer base >= 2"):
            get_family("benford", bad)
    # The fixed families ignore the base.
    assert get_family("uniform", 10.7) is get_family("uniform")


def test_family_records_pickle_by_value():
    # Each kernel is a module-level function, which pickles by name.
    for name in FAMILY_NAMES:
        fam = get_family(name, 7)
        assert pickle.loads(pickle.dumps(fam)) == fam


def test_density_and_cdf_point_values():
    e = get_family("exponential")
    assert density_at_unit(e, 0.0) == 1.0
    assert density_at_unit(e, -1.0) == 0.0
    assert cdf_at_unit(e, 1.0) == pytest.approx(1.0 - 1.0 / math.e, rel=1e-15)

    u = get_family("uniform")
    assert density_at_unit(u, 0.5) == 1.0
    assert density_at_unit(u, 1.5) == 0.0
    assert cdf_at_unit(u, 0.25) == 0.25
    assert cdf_at_unit(u, 2.0) == 1.0

    h = get_family("half_gaussian")
    assert density_at_unit(h, 0.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-15)
    assert cdf_at_unit(h, 1.0) == pytest.approx(math.erf(1.0), rel=1e-15)

    b = get_family("benford", BASE)
    assert density_at_unit(b, 1.0) == pytest.approx(1.0 / LN10, rel=1e-15)
    assert density_at_unit(b, 0.99) == 0.0
    assert density_at_unit(b, 10.0) == 0.0
    assert cdf_at_unit(b, math.sqrt(10.0)) == pytest.approx(0.5, rel=1e-15)


def test_densities_integrate_to_one():
    from scipy.integrate import quad

    for name in FAMILY_NAMES:
        fam = get_family(name, BASE)
        total, _ = quad(lambda x: density_at_unit(fam, x), 0.0, 40.0, points=[1.0, 10.0], limit=200)
        assert total == pytest.approx(1.0, abs=1e-9), name


def test_mellin_exact_at_zero_is_exactly_one():
    for name in FAMILY_NAMES:
        assert mellin_at(get_family(name, BASE), 0, BASE) == 1.0 + 0.0j


def test_mellin_exact_frozen_values():
    for name, ref in MELLIN_L1.items():
        got = mellin_at(get_family(name), 1, BASE)
        assert got.real == pytest.approx(ref.real, rel=1e-13)
        assert got.imag == pytest.approx(ref.imag, rel=1e-13)
    for (name, ell), ref in MELLIN_ABS.items():
        assert abs(mellin_at(get_family(name), ell, BASE)) == pytest.approx(ref, rel=1e-13)


def test_mellin_conjugate_symmetry():
    for name in ("exponential", "uniform", "half_gaussian"):
        fam = get_family(name)
        for ell in (1, 3, 17):
            assert mellin_at(fam, -ell, BASE) == mellin_at(fam, ell, BASE).conjugate()


def test_half_gaussian_modulus_identity():
    # |Mellin| = 1/sqrt(cosh(pi^2 l / ln B)) exactly
    fam = get_family("half_gaussian")
    for ell in range(1, 7):
        closed = 1.0 / math.sqrt(math.cosh(math.pi**2 * ell / LN10))
        assert abs(mellin_at(fam, ell, BASE)) == pytest.approx(closed, rel=1e-12)


def test_benford_is_absorbing_at_matched_base():
    for base in (2, 10, 16):
        fam = get_family("benford", base)
        for ell in (1, 2, 5, -3):
            assert mellin_at(fam, ell, base) == 0.0 + 0.0j
        assert tail(fam, 1, base, 256) == (0.0, 0.0, 0)


def test_benford_foreign_base_closed_form():
    # base-2 benford density seen through base-10 frequencies
    got = mellin_at(get_family("benford", 2), 1, 10)
    assert got.real == pytest.approx(0.50175694850286825, rel=1e-13)
    assert got.imag == pytest.approx(-0.69532962028983263, rel=1e-13)
    assert abs(got) < 1.0


def test_mellin_modulus_below_one_for_nonzero_frequency():
    for name in ("exponential", "uniform", "half_gaussian"):
        fam = get_family(name)
        for ell in range(1, 65):
            assert abs(mellin_at(fam, ell, BASE)) < 1.0, (name, ell)


def tail(fam, r, base, ell0):
    """(A, g, p) of a link with |R| = r past ell0, from its certified modulus there."""
    [m] = fam.certified_modulus(np.array([float(r * ell0)]), base).tolist()
    w = 2.0 * math.pi * float(r * ell0) / math.log(base)
    return fam.tail(fam.base, float(r), base, ell0, w, m)


TAIL_FAMILIES = [get_family(name) for name in ("exponential", "uniform", "half_gaussian")] + [
    get_family("benford", 2)
]


def test_the_tail_law_bounds_every_modulus_past_ell0():
    # |M f|(r*l) <= A * g**(l - ell0) * (ell0/l)**p for l >= ell0, up to the
    # certified moduli's own rounding allowance (the decimal oracle checks
    # the law against the exact moduli)
    for fam in TAIL_FAMILIES:
        for r in (1, 2, 3):
            for ell0 in (1, 2, 5, 64):
                a, g, p = tail(fam, r, BASE, ell0)
                if a >= 1.0:  # capped: the chain tails take (1, 0)
                    continue
                for ell in range(ell0, ell0 + 300):
                    bound = a * g ** (ell - ell0) * (ell0 / ell) ** p
                    got = abs(mellin_at(fam, r * ell, BASE))
                    assert got <= bound * (1.0 + 1e-11) + 1e-300, (fam.name, r, ell0, ell)


def test_certified_modulus_frozen_values():
    # at or above the 50-digit moduli, within 1e-13 relative
    for (name, ell), ref in MELLIN_ABS.items():
        [got] = get_family(name).certified_modulus(np.array([float(ell)]), BASE)
        assert ref <= got <= ref * (1.0 + 1e-13), (name, ell)


def test_certified_modulus_bounds_the_mellin_modulus():
    # |mellin_exact| is within 4e-12 of the exact modulus, far above the
    # closed forms' rounding allowance
    ells = np.array([0.0, 1.0, 2.0, 3.0, 17.0, 64.0, 333.0, 1e4, 1e9])
    for name in ("exponential", "uniform", "half_gaussian"):
        fam = get_family(name)
        for base in (2, 10, 1000):
            got = fam.certified_modulus(ells, base)
            ref = np.abs(fam.mellin_exact(ells, base))
            assert got[0] == 1.0 and (got <= 1.0).all()
            assert np.allclose(got, ref, rtol=4e-12, atol=1e-300), (name, base)
    foreign = get_family("benford", 2)
    got = foreign.certified_modulus(ells, 10)
    assert got[0] == 1.0
    assert (np.abs(got - np.abs(foreign.mellin_exact(ells, 10))) <= 1e-14).all()
    assert not get_family("benford", 10).certified_modulus(ells[1:], 10).any()


def test_certified_modulus_of_a_benford_base_whose_modulus_vanishes():
    # base-100 benford in base-10 frequencies: x = 2*pi*l, where the exact
    # modulus is 0; the rounding allowance keeps the value a small upper bound
    got = get_family("benford", 100).certified_modulus(np.arange(1.0, 65.0), 10)
    assert (got > 0.0).all() and (got < 1e-14).all()


def test_the_anchor_is_capped_at_1_nonincreasing_and_above_the_modulus():
    for fam in TAIL_FAMILIES:
        prev = 1.0
        for ell0 in range(1, 200):
            a, _, _ = tail(fam, 1, BASE, ell0)
            assert 0.0 <= a <= prev + 1e-16, (fam.name, ell0)
            if fam.name != "benford":
                [m] = fam.certified_modulus(np.array([float(ell0)]), BASE)
                assert a >= m, (fam.name, ell0)
            prev = a


def test_tail_law_shapes():
    assert tail(get_family("uniform"), 1, BASE, 64)[1:] == (1.0, 1)
    assert tail(get_family("benford", BASE), 1, BASE, 64) == (0.0, 0.0, 0)
    _, g, p = tail(get_family("exponential"), 1, BASE, 64)
    assert p == 0 and 0.0 < g < 1.0
    _, g, p = tail(get_family("half_gaussian"), 1, BASE, 64)
    assert p == 0 and 0.0 < g < 1.0
    # a benford family at another base decays harmonically
    assert tail(get_family("benford", BASE), 1, 10**200, 64)[1:] == (1.0, 1)
    # the exponential's law holds for its exact modulus, so its anchor is m
    [m] = get_family("exponential").certified_modulus(np.array([64.0]), BASE)
    assert tail(get_family("exponential"), 1, BASE, 64)[0] == m


def test_the_tails_claim_no_decay_while_the_cap_binds():
    # At these absurd bases min(1, .) still caps the anchor at L2 = 256, so
    # the tails must not close with the ratio law, which would claim g < 1
    # (half-Gaussian) or a degree p = 2 (two uniform links).
    from benford_chains import chains

    for base, links, capped in [
        (10**2000, [("half_gaussian", 1)], "half_gaussian"),
        (10**700, [("uniform", 1), ("uniform", 1)], "uniform"),
    ]:
        fam = get_family(capped)
        a, g, p = tail(fam, 1, base, 256)
        assert a == 1.0 and (g, p) != (1.0, 0)
        chain = chains.ChainSpec(base, tuple(chains.ChainLink(f, p) for f, p in links))
        assert chains.deviation_bound(chain, chains.FoldInterval(0.1, 0.6), 128).tail == math.inf
    # At base 10 the same chains close
    for links in ([("half_gaussian", 1)], [("uniform", 1), ("uniform", 1)]):
        chain = chains.ChainSpec(10, tuple(chains.ChainLink(f, p) for f, p in links))
        assert chains.deviation_bound(chain, chains.FoldInterval(0.1, 0.6), 128).tail < math.inf


def test_mellin_numeric_matches_exact():
    for name in ("exponential", "uniform", "half_gaussian"):
        fam = get_family(name, BASE)
        for ell in (0, 1, 2, 4, 8, 16):
            exact = mellin_at(fam, ell, BASE)
            numeric = mellin_numeric(lambda x: density_at_unit(fam, x), ell, BASE, tol=1e-10)
            assert abs(numeric - exact) <= 1e-8, (name, ell)


def test_mellin_numeric_benford_absorbing():
    fam = get_family("benford", BASE)
    got = mellin_numeric(lambda x: density_at_unit(fam, x), 1, BASE, tol=1e-10)
    assert abs(got) <= 1e-8


def test_mellin_numeric_rejects_empty_density():
    with pytest.raises(NonConvergenceError):
        mellin_numeric(lambda x: 0.0, 1, BASE)
    with pytest.raises(ValueError):
        mellin_numeric(lambda x: density_at_unit(get_family("exponential"), x), 1, BASE, tol=0.0)


def test_power_density_closed_points():
    e = get_family("exponential")
    # at u = 1 every power factor is exactly 1
    assert power_density(e, 2, 1.0) == math.exp(-1.0) / 2.0
    assert power_density(e, -1, 1.0) == math.exp(-1.0)
    assert power_density(e, 1, 0.7) == density_at_unit(e, 0.7)
    # W^2 at u = 4: phi(2) * 4^(-1/2) / 2
    assert power_density(e, 2, 4.0) == pytest.approx(math.exp(-2.0) / 4.0, rel=1e-14)
    # W^-1 at u = 2: phi(1/2) * 2^(-2)
    assert power_density(e, -1, 2.0) == pytest.approx(math.exp(-0.5) / 4.0, rel=1e-14)


def test_power_density_normalizes():
    from scipy.integrate import quad

    e = get_family("exponential")
    # windows chosen so the excluded mass in W-space is below 1e-8
    windows = {2: (1e-20, 3600.0), 3: (1e-30, 216000.0), -1: (5e-3, np.inf), -2: (2.5e-5, np.inf)}
    for r, (lo, hi) in windows.items():
        total, _ = quad(lambda u: power_density(e, r, u), lo, hi, limit=500)
        assert total == pytest.approx(1.0, abs=1e-6), r


def test_power_density_domain():
    e = get_family("exponential")
    with pytest.raises(ValueError):
        power_density(e, 0, 1.0)
    with pytest.raises(ValueError):
        power_density(e, 2, 0.0)
    with pytest.raises(ValueError):
        power_density(e, 2, -1.0)


def test_power_shift_is_frequency_rescaling():
    for name in ("exponential", "uniform", "half_gaussian"):
        fam = get_family(name)
        assert power_shift(fam, 1, 3, BASE) == mellin_at(fam, 3, BASE)
        assert power_shift(fam, 2, 1, BASE) == mellin_at(fam, 2, BASE)
        assert power_shift(fam, -1, 1, BASE) == mellin_at(fam, 1, BASE).conjugate()
    with pytest.raises(ValueError):
        power_shift(get_family("uniform"), 0, 1, BASE)


def test_power_shift_matches_numeric_transform_of_power_density():
    # the W^2 density integrated numerically must land on the shifted value
    e = get_family("exponential")
    exact = power_shift(e, 2, 1, BASE)
    numeric = mellin_numeric(lambda u: power_density(e, 2, u), 1, BASE, tol=1e-9)
    assert abs(numeric - exact) <= 1e-8


def test_mellin_at_validates_base():
    with pytest.raises(ValueError):
        mellin_at(get_family("uniform"), 1, 1)


def test_samplers_match_cdf_under_scaling():
    # draws of theta * W must follow the unit CDF at x / theta
    rng = make_rng(20260814, stream=400)
    n = 40_000
    crit = 1.63 / math.sqrt(n)
    for name in FAMILY_NAMES:
        fam = get_family(name, BASE)
        for theta in (0.5, 1.0, 3.0):
            draws = np.sort(theta * fam.sample_unit_batch(rng, n))
            ranks = np.arange(1, n + 1) / n
            model = np.array([cdf_at_unit(fam, x / theta) for x in draws])
            assert np.max(np.abs(ranks - model)) < crit, (name, theta)
