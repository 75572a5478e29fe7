"""Scale-family densities, exact Mellin values, majorants, and the
numeric quadrature oracle that cross-checks them."""

import math

import numpy as np
import pytest

from benford_chains.families import (
    FAMILY_NAMES,
    NonConvergenceError,
    get_family,
    mellin_at,
    mellin_numeric,
    power_density,
    power_shift,
)
from benford_chains.montecarlo import make_rng

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


def test_density_and_cdf_point_values():
    e = get_family("exponential")
    assert e.density_at_unit(0.0) == 1.0
    assert e.density_at_unit(-1.0) == 0.0
    assert e.cdf_at_unit(1.0) == pytest.approx(1.0 - 1.0 / math.e, rel=1e-15)

    u = get_family("uniform")
    assert u.density_at_unit(0.5) == 1.0
    assert u.density_at_unit(1.5) == 0.0
    assert u.cdf_at_unit(0.25) == 0.25
    assert u.cdf_at_unit(2.0) == 1.0

    h = get_family("half_gaussian")
    assert h.density_at_unit(0.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-15)
    assert h.cdf_at_unit(1.0) == pytest.approx(math.erf(1.0), rel=1e-15)

    b = get_family("benford", BASE)
    assert b.density_at_unit(1.0) == pytest.approx(1.0 / LN10, rel=1e-15)
    assert b.density_at_unit(0.99) == 0.0
    assert b.density_at_unit(10.0) == 0.0
    assert b.cdf_at_unit(math.sqrt(10.0)) == pytest.approx(0.5, rel=1e-15)


def test_densities_integrate_to_one():
    from scipy.integrate import quad

    for name in FAMILY_NAMES:
        fam = get_family(name, BASE)
        total, _ = quad(fam.density_at_unit, 0.0, 40.0, points=[1.0, 10.0], limit=200)
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
            assert fam.majorant(abs(ell), base) == 0.0


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


def test_majorant_dominates_modulus():
    for name in FAMILY_NAMES:
        fam = get_family(name, BASE)
        for ell in list(range(1, 65)) + [128, 333]:
            assert abs(mellin_at(fam, ell, BASE)) <= fam.majorant(ell, BASE), (name, ell)


def test_majorant_nonincreasing_and_capped():
    for name in FAMILY_NAMES:
        fam = get_family(name, BASE)
        prev = 1.0
        for ell in range(1, 200):
            m = fam.majorant(ell, BASE)
            assert 0.0 <= m <= prev + 1e-16, (name, ell)
            prev = m


def test_majorant_tail_profile_shapes():
    assert get_family("uniform").majorant_tail_profile(1, BASE, 64) == (1.0, 1)
    assert get_family("benford", BASE).majorant_tail_profile(1, BASE, 64) == (0.0, 0)
    g, p = get_family("exponential").majorant_tail_profile(1, BASE, 64)
    assert p == 0 and 0.0 < g < 1.0
    g, p = get_family("half_gaussian").majorant_tail_profile(1, BASE, 64)
    assert p == 0 and 0.0 < g < 1.0


def test_majorant_tail_profile_is_a_valid_ratio_bound():
    # majorant(r*(l+1)) <= majorant(r*l) * g * (l/(l+1))**p for l >= ell0
    for name in ("exponential", "uniform", "half_gaussian"):
        fam = get_family(name, BASE)
        for r in (1, 2, 3):
            g, p = fam.majorant_tail_profile(r, BASE, 64)
            for ell in range(64, 400):
                lhs = fam.majorant(r * (ell + 1), BASE)
                rhs = fam.majorant(r * ell, BASE) * g * (ell / (ell + 1)) ** p
                assert lhs <= rhs * (1.0 + 1e-12) + 1e-300, (name, r, ell)


def test_majorant_tail_profile_cap_fallback_at_absurd_base():
    # with base huge the majorants are still clipped at 1 for small l; the
    # profile must then refuse to claim any decay
    huge = 10**200
    assert get_family("exponential").majorant(1, huge) == 1.0
    g, p = get_family("exponential").majorant_tail_profile(1, huge, 1)
    assert (g, p) == (1.0, 0)
    g, p = get_family("uniform").majorant_tail_profile(1, huge, 1)
    assert (g, p) == (1.0, 0)


def test_mellin_numeric_matches_exact():
    for name in ("exponential", "uniform", "half_gaussian"):
        fam = get_family(name, BASE)
        for ell in (0, 1, 2, 4, 8, 16):
            exact = mellin_at(fam, ell, BASE)
            numeric = mellin_numeric(fam.density_at_unit, ell, BASE, tol=1e-10)
            assert abs(numeric - exact) <= 1e-8, (name, ell)


def test_mellin_numeric_benford_absorbing():
    fam = get_family("benford", BASE)
    got = mellin_numeric(fam.density_at_unit, 1, BASE, tol=1e-10)
    assert abs(got) <= 1e-8


def test_mellin_numeric_rejects_empty_density():
    with pytest.raises(NonConvergenceError):
        mellin_numeric(lambda x: 0.0, 1, BASE)
    with pytest.raises(ValueError):
        mellin_numeric(get_family("exponential").density_at_unit, 1, BASE, tol=0.0)


def test_power_density_closed_points():
    e = get_family("exponential")
    # at u = 1 every power factor is exactly 1
    assert power_density(e, 2, 1.0) == math.exp(-1.0) / 2.0
    assert power_density(e, -1, 1.0) == math.exp(-1.0)
    assert power_density(e, 1, 0.7) == e.density_at_unit(0.7)
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
    # draws of theta * W must follow cdf_at_unit(x / theta)
    rng = make_rng(20260814, stream=400)
    n = 40_000
    crit = 1.63 / math.sqrt(n)
    for name in FAMILY_NAMES:
        fam = get_family(name, BASE)
        for theta in (0.5, 1.0, 3.0):
            draws = np.sort(theta * fam.sample_unit_batch(rng, n))
            ranks = np.arange(1, n + 1) / n
            model = np.array([fam.cdf_at_unit(x / theta) for x in draws])
            assert np.max(np.abs(ranks - model)) < crit, (name, theta)
