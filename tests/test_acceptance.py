"""Acceptance gate: one test per headline claim, at the stated tolerance.

Every test here pins the package against an independent route to the same
number: high-precision closed forms, a numerical convolution oracle, or
seeded Monte Carlo with explicit z-score budgets.  Criterion 10b asserts
the documented expectation that the per-link spectrum variant fails the
sampling test; for exponential links the two spectra agree to 4e-10, far
below Monte Carlo resolution, so that assertion cannot pass and the red
outcome is the recorded finding (see the repository decision notes).
"""

import io
import json
import math
import time

import numpy as np
import pytest

from benford_chains import cli
from benford_chains.chains import (
    ChainLink,
    ChainSpec,
    FoldInterval,
    first_digit_probabilities,
    fold_probability,
    uniform_chain_cdf_bound,
    uniform_chain_density,
)
from benford_chains.conformance import audit_dataset, two_sample_ks
from benford_chains.families import get_family, mellin_at
from benford_chains.montecarlo import (
    batch_mantissas,
    make_rng,
    product_batch,
    sample_batch,
)
from benford_chains.chains import exponential_chain_bound
import scalar_reference
from oracles import mellin_numeric, power_density, power_shift

SEED = 20260814
N_LARGE = 1_000_000
N_AUDIT = 100_000


def chain(*families, base=10, powers=None):
    powers = powers or [1] * len(families)
    return ChainSpec(base, tuple(ChainLink(f, p) for f, p in zip(families, powers)))


def digit_freqs(values, base=10):
    digits = batch_mantissas(values, base).astype(int)
    return np.bincount(digits, minlength=base)[1:base] / len(values)


def max_digit_z(emp, probs, n):
    return max(
        abs(emp[d] - probs[d]) / math.sqrt(probs[d] * (1.0 - probs[d]) / n)
        for d in range(len(probs))
    )


def run_cli(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


def test_criterion_01_exponential_bound_table():
    # reference values, each within 1% of the closed form
    table = {2: 0.0032457, 3: 1.848e-4, 10: 3.595e-13}
    for n, reference in table.items():
        value = exponential_chain_bound(n, 10)
        assert abs(value - reference) / reference < 0.01, n

    # n = 5: the commonly quoted .000011 is 18x the closed form; the
    # correct value is 5.996e-7 and the discrepancy is the documented fact
    v5 = exponential_chain_bound(5, 10)
    assert abs(v5 - 5.996e-7) / 5.996e-7 < 0.01
    assert v5 < 1.1e-5 / 10.0  # the quoted value cannot be right

    # each evaluation in well under a millisecond
    for n in (2, 3, 5, 10):
        exponential_chain_bound(n, 10)  # warm
        t0 = time.perf_counter()
        exponential_chain_bound(n, 10)
        assert time.perf_counter() - t0 < 1e-3, n


def test_criterion_02_envelope():
    for n in range(2, 51):
        assert exponential_chain_bound(n, 10) <= 0.057**n, n


def test_criterion_03_gamma_modulus_identity():
    for x in (0.5, 1.0, 2.72875, 5.0, 10.0):
        direct = abs(scalar_reference.gamma(complex(1.0, x))) ** 2
        closed = math.pi * x / math.sinh(math.pi * x)
        assert abs(direct - closed) / closed < 1e-10, x


def _convolution_oracle(n, k, npts=200_001):
    # f_{m+1}(x) = integral_x^k f_m(y)/y dy, iterated from f_1 = 1/k on
    # (0, k]: cumulative trapezoid on a dense geometric grid
    y = np.geomspace(0.005 * k, k, npts)
    f = np.full(npts, 1.0 / k)
    for _ in range(n - 1):
        h = f / y
        seg = 0.5 * (h[1:] + h[:-1]) * np.diff(y)
        f = np.concatenate([[0.0], np.cumsum(seg[::-1])])[::-1]
    return y, f


def test_criterion_04_uniform_density_against_convolution_oracle():
    for k in (1.0, 5.0):
        for n in range(2, 7):
            y, f = _convolution_oracle(n, k)
            m = y >= 0.01 * k
            closed = np.array([uniform_chain_density(n, k, x) for x in y[m]])
            assert np.max(np.abs(f[m] - closed)) <= 1e-6, (n, k)
            # arbitration: the off-by-one variant ln^n/(k*n!) must lose
            wrong = np.log(k / y[m]) ** n / (k * math.factorial(n))
            assert np.max(np.abs(f[m] - wrong)) > 1e-6, (n, k)


def test_criterion_05_fold_matches_monte_carlo_digits():
    cases = [
        chain("exponential", "exponential", "exponential"),
        chain("uniform", "uniform", "uniform", "uniform"),
        chain("exponential", "uniform", "half_gaussian"),
    ]
    for stream, ch in enumerate(cases):
        batch = sample_batch(ch, N_LARGE, SEED, stream=stream)
        emp = digit_freqs(batch.values)
        probs = first_digit_probabilities(ch)
        assert max_digit_z(emp, probs, batch.count) < 3.0, stream


def test_criterion_06_benford_link_absorbs():
    ch = chain("benford", "exponential", "uniform", "exponential")
    g = np.random.default_rng(SEED)
    for _ in range(10):
        a, b = sorted(g.random(2))
        p, _ = fold_probability(ch, FoldInterval(a, b))
        assert abs(p - (b - a)) < 1e-12

    batch = sample_batch(ch, N_AUDIT, SEED, stream=11)
    report = audit_dataset(batch.values, 10)
    assert report.conforms
    assert report.sup_deviation < 1.63 / math.sqrt(batch.count)


def test_criterion_07_product_form_and_permutation_equidistribute():
    ch = chain("exponential", "uniform", "half_gaussian", powers=[1, 2, 3])
    rejections = 0
    for s in range(20):
        walk = sample_batch(ch, N_AUDIT, SEED + s, stream=0)
        prod = product_batch(ch, N_AUDIT, SEED + s, stream=1)
        _, reject = two_sample_ks(batch_mantissas(walk.values), batch_mantissas(prod.values))
        rejections += int(reject)
    assert rejections <= 2

    original = chain("exponential", "uniform", "half_gaussian")
    permuted = chain("uniform", "half_gaussian", "exponential")
    rejections = 0
    for s in range(20):
        a = sample_batch(original, N_AUDIT, SEED + s, stream=2)
        b = sample_batch(permuted, N_AUDIT, SEED + s, stream=3)
        _, reject = two_sample_ks(batch_mantissas(a.values), batch_mantissas(b.values))
        rejections += int(reject)
    assert rejections <= 2


def test_criterion_08_power_rule():
    exponential = get_family("exponential")
    for r in (-2, -1, 2, 3):
        exact = power_shift(exponential, r, 1, 10)
        numeric = mellin_numeric(lambda u: power_density(exponential, r, u), 1, 10, tol=1e-9)
        assert abs(numeric - exact) / abs(exact) <= 1e-8, r

        # histogram of W**r over 50 equiprobable bins (exact quantile
        # edges), each bin within 4 binomial sigmas of 1/50
        rng = make_rng(SEED, stream=40 + r + 2)
        draws = exponential.sample_unit_batch(rng, N_LARGE) ** float(r)
        q = np.arange(1, 50) / 50.0
        inner = (-np.log1p(-q)) ** r if r > 0 else (-np.log(q)) ** r
        edges = np.concatenate([[0.0], np.sort(inner), [np.inf]])
        counts, _ = np.histogram(draws, bins=edges)
        p = 1.0 / 50.0
        sigma = math.sqrt(p * (1.0 - p) / N_LARGE)
        assert np.max(np.abs(counts / N_LARGE - p)) <= 4.0 * sigma, r


def test_criterion_09_uniform_chain_cdf_bound_holds():
    batch = sample_batch(chain(*["uniform"] * 10), N_LARGE, SEED, stream=9)
    mants = np.sort(batch_mantissas(batch.values * 5.0))  # chain started at k = 5
    slack = 3.0 / math.sqrt(batch.count)
    for j in range(100):
        s = 10.0 ** (j / 100.0)
        empirical = np.searchsorted(mants, s, side="right") / batch.count
        deviation = abs(empirical - math.log10(s))
        limit = slack if s == 1.0 else uniform_chain_cdf_bound(10, 5.0, s) + slack
        assert deviation <= limit, (j, s)


def _per_link_variant_digits(ch, link_powers, L=64):
    # same fold series, but each link evaluated at its own power instead of
    # the product of downstream powers
    fam = get_family(ch.links[0].family)
    out = []
    for d in range(1, 10):
        a, b = math.log10(d), math.log10(d + 1)
        acc = 0.0 + 0.0j
        for ell in list(range(1, L + 1)) + list(range(-L, 0)):
            prod = 1.0 + 0.0j
            for p in link_powers:
                prod *= mellin_at(fam, p * ell, 10)
            i_ell = (
                np.exp(2j * math.pi * b * ell) - np.exp(2j * math.pi * a * ell)
            ) / (2j * math.pi * ell)
            acc += prod * i_ell
        out.append((b - a) + acc.real)
    return out


def test_criterion_10a_cumulative_exponents_match_monte_carlo():
    ch = chain("exponential", "exponential", "exponential", powers=[1, 2, 3])
    batch = sample_batch(ch, N_LARGE, SEED, stream=10)
    emp = digit_freqs(batch.values)
    probs = first_digit_probabilities(ch)
    assert max_digit_z(emp, probs, batch.count) < 3.0


def test_criterion_10b_per_link_variant_must_fail_the_same_test():
    """Expected to FAIL, and the failure is the finding: for exponential
    links with powers (1,2,3) the per-link spectrum differs from the
    cumulative one by under 4e-10 in every digit probability, while the
    3-sigma resolution at N=1e6 is about 6e-4.  No sampling test can tell
    them apart, so the required rejection cannot occur."""
    ch = chain("exponential", "exponential", "exponential", powers=[1, 2, 3])
    batch = sample_batch(ch, N_LARGE, SEED, stream=10)
    emp = digit_freqs(batch.values)
    variant = _per_link_variant_digits(ch, [1, 2, 3])
    assert max_digit_z(emp, variant, batch.count) > 3.0


def test_criterion_11_cli_simulate_audit_round_trip(tmp_path):
    exp5 = tmp_path / "exp5.json"
    exp5.write_text(json.dumps({"base": 10, "links": [{"family": "exponential", "power": 1}] * 5}))
    draws = tmp_path / "exp5.csv"
    code, text = run_cli(["simulate", "--chain", str(exp5), "--samples", str(N_AUDIT),
                          "--seed", str(SEED), "--out", str(draws)])
    assert code == 0
    sim = json.loads(text)
    code, text = run_cli(["audit", "--input", str(draws), "--column", "value"])
    assert code == 0
    report = json.loads(text)["report"]
    assert report["count"] == sim["count"] == N_AUDIT - sim["failures"]
    assert report["conforms"] is True

    unif1 = tmp_path / "unif1.json"
    unif1.write_text('{"base": 10, "links": [{"family": "uniform", "power": 1}]}')
    raw = tmp_path / "unif1.csv"
    code, _ = run_cli(["simulate", "--chain", str(unif1), "--samples", str(N_AUDIT),
                       "--seed", str(SEED), "--out", str(raw)])
    assert code == 0
    code, text = run_cli(["audit", "--input", str(raw), "--column", "value"])
    assert code == 0
    report = json.loads(text)["report"]
    assert report["conforms"] is False
    freq1 = report["digit_frequencies"][0]
    sigma = math.sqrt((1.0 / 9.0) * (8.0 / 9.0) / report["count"])
    assert abs(freq1 - 1.0 / 9.0) <= 3.0 * sigma
