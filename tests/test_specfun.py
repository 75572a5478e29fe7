"""Gamma and zeta helper checks against frozen high-precision values.

The phases of Gamma are checked against 40-digit values in
tests/frozen_moduli.py (regenerate it with tests/freeze_moduli.py) and the
moduli against scipy's loggamma, an independent implementation."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import benford_chains
import scalar_reference as ref
from benford_chains.specfun import (
    arg_gamma,
    gamma_abs_on_line,
    gamma_real,
    zeta_minus_one,
)
from frozen_moduli import ARG_GAMMA

U = 2.0**-53

# |Gamma(1 + ix)| reference points, frozen from a 50-digit evaluation.
GAMMA_ABS_REF = {
    0.5: 0.82617761427604523,
    1.0: 0.52156404686493984,
    2.0: 0.15318961879123462,
    2.72875: 0.056957488158339766,
    5.0: 0.0021758755481870834,
    5.45750: 0.0011080129360858181,
    10.0: 1.1945605411034557e-06,
}


def test_arg_gamma_matches_40_digit_values():
    # the stated error, from the terms of the sum, is checked on random
    # points in test_decimal_oracle.py; these frozen points are within 8u*(|value| + 4)
    for x, y, exact in ARG_GAMMA:
        got = float(arg_gamma(x, y))
        assert abs(got - float(exact)) <= 8.0 * U * (abs(float(exact)) + 4.0), (x, y)


def test_arg_gamma_is_zero_on_the_real_axis_and_odd_in_y():
    for x in (0.3, 0.5, 1.0, 4.5, 9.0):
        assert arg_gamma(x, 0.0) == 0.0
        for y in (1e-300, 0.25, 1.0, 7.0, 480.0, 1e22):
            assert arg_gamma(x, -y) == -arg_gamma(x, y)
    ys = np.array([[-3.0, 0.0], [2.5, 1e6]])
    got = arg_gamma(0.5, ys)
    assert got.shape == (2, 2)
    assert got.tolist() == [[float(arg_gamma(0.5, y)) for y in row] for row in ys.tolist()]


def test_arg_gamma_is_minus_euler_gamma_times_y_near_one():
    # Im lnGamma(1 + iy) = -euler*y + O(y^3)
    for y in (1e-12, 1e-9, 1e-6):
        assert float(arg_gamma(1.0, y)) == pytest.approx(-0.5772156649015329 * y, rel=1e-10)


def test_arg_gamma_rejects_x_at_or_below_zero():
    with pytest.raises(ValueError, match="x > 0"):
        arg_gamma(0.0, 1.0)
    with pytest.raises(ValueError, match="x > 0"):
        arg_gamma(np.array([1.0, -1.0]), 2.0)
    with pytest.raises(ValueError, match="x > 0"):
        arg_gamma(math.nan, 2.0)


def test_first_calls_in_a_fresh_interpreter_bind_scipy_and_match_frozen_bits():
    # arg_gamma and zeta_minus_one are numpy and math alone: no scipy
    # module is loaded after either call, and the first calls already give
    # the frozen bits.
    src = str(Path(benford_chains.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys\n"
        "from benford_chains.specfun import arg_gamma, zeta_minus_one\n"
        "g = float(arg_gamma(1.0, 2.0))\n"
        "assert 'scipy' not in sys.modules\n"
        "z = zeta_minus_one(3)\n"
        "assert not [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(g.hex(), z.hex())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    arg_hex, zeta_hex = proc.stdout.split()
    # Im lnGamma(1 + 2i) = 0.12964631630978831138...
    assert arg_hex == "0x1.09840204c7820p-3"
    assert abs(float.fromhex(arg_hex) - 0.1296463163097883113837) <= 1e-15
    # zeta(3) - 1
    assert zeta_hex == "0x1.9dd002780310ap-3"


def test_gamma_abs_on_line_frozen_values():
    for x, ref in GAMMA_ABS_REF.items():
        got = gamma_abs_on_line(x)
        assert got == pytest.approx(ref, rel=1e-13), x


def test_gamma_abs_on_line_matches_reflection_identity():
    # |Gamma(1+ix)|^2 = pi x / sinh(pi x), checked via scipy's complex Gamma
    for x in (0.5, 1.0, 2.72875, 5.0, 8.0):
        direct = abs(ref.gamma(complex(1.0, x))) ** 2
        closed = math.pi * x / math.sinh(math.pi * x)
        assert direct == pytest.approx(closed, rel=1e-12)
        assert gamma_abs_on_line(x) ** 2 == pytest.approx(closed, rel=1e-12)


def test_gamma_abs_on_line_even_and_at_zero():
    assert gamma_abs_on_line(0.0) == 1.0
    for x in (0.75, 3.25, 12.0):
        assert gamma_abs_on_line(-x) == gamma_abs_on_line(x)


def test_gamma_abs_on_line_is_continuous_across_the_old_crossover():
    # the two-branch body switched forms at pi*x = 30; the one form matches
    # the exp-scaled identity in math there and away from it
    x0 = 30.0 / math.pi
    for x in (x0 * 0.999, x0 * 1.001, 15.0, 40.0):
        scaled = math.sqrt(2.0 * math.pi * x) * math.exp(-math.pi * x / 2.0)
        scaled /= math.sqrt(-math.expm1(-2.0 * math.pi * x))
        assert gamma_abs_on_line(x) == pytest.approx(scaled, rel=1e-12)


def test_gamma_abs_on_line_no_overflow_far_out():
    assert gamma_abs_on_line(1e6) == 0.0
    assert gamma_abs_on_line(500.0) >= 0.0


def test_gamma_abs_on_line_is_zero_at_infinity_and_nan_at_nan():
    # the two-branch body gave NaN at +-inf (inf * 0 in the exp-scaled form)
    with np.errstate(all="raise", under="ignore"):
        assert gamma_abs_on_line(math.inf) == 0.0
        assert gamma_abs_on_line(-math.inf) == 0.0
        got = gamma_abs_on_line(np.array([math.inf, -math.inf, 1e308, -5e-324]))
    assert got.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert math.isnan(gamma_abs_on_line(math.nan))
    assert np.isnan(gamma_abs_on_line(np.array([1.0, math.nan]))).tolist() == [False, True]


def two_branch_gamma_abs_on_line(x):
    """The body the one exp-scaled form replaced: sqrt(p/sinh p) up to
    p = pi*|x| = 30 and the exp-scaled form above, each clamped to its own
    side and picked by np.where."""
    px = math.pi * np.abs(np.asarray(x, dtype=np.float64))
    p = np.maximum(np.minimum(px, 30.0), 5e-324)
    near = np.sqrt(p / np.sinh(p))
    p = np.maximum(px, 30.0)
    far = np.sqrt(2.0 * p) * np.exp(-p / 2.0) / np.sqrt(-np.expm1(-2.0 * p))
    return np.where(px <= 30.0, near, far)


X0 = 30.0 / math.pi
EDGES = [0.0, -0.0, 1e-320, 5e-324, 1e-9, -2.5, X0, math.nextafter(X0, 0.0), math.nextafter(X0, 1.0)]
SWEEP = np.concatenate([np.linspace(0.0, 2000.0, 2 * 10**6), np.geomspace(1e-300, 30.0, 10**5), EDGES])


def test_gamma_abs_on_line_keeps_the_far_bits_of_the_two_branch_body():
    # Past pi*|x| = 30 the one form is the old far branch, bit for bit; at
    # and below it the near branch sqrt(p/sinh p) differed by at most
    # 4.5e-16 relative.
    with np.errstate(all="raise", under="ignore"):  # no overflow and no 0/0
        got = gamma_abs_on_line(SWEEP)
        old = two_branch_gamma_abs_on_line(SWEEP)
    far = math.pi * np.abs(SWEEP) > 30.0
    assert far.sum() > 10**6 and (~far).sum() > 10**5
    assert got[far].view(np.uint64).tolist() == old[far].view(np.uint64).tolist()
    assert (np.abs(got[~far] - old[~far]) <= 4.5e-16 * old[~far]).all()
    for value in EDGES:
        assert type(gamma_abs_on_line(value)) is float
        assert gamma_abs_on_line(value) == float(gamma_abs_on_line(np.array([value]))[0])
    assert gamma_abs_on_line(0.0) == gamma_abs_on_line(-0.0) == gamma_abs_on_line(5e-324) == 1.0


def test_gamma_abs_on_line_is_one_expression_at_every_x():
    # No branch: every entry has the bits of the exp-scaled form, where the
    # two-branch body differed at about half the entries with pi*|x| <= 30.
    with np.errstate(all="raise", under="ignore"):
        p = np.maximum(math.pi * np.minimum(np.abs(SWEEP), 512.0), 5e-324)
        one = np.sqrt(2.0 * p) * np.exp(-p / 2.0) / np.sqrt(-np.expm1(-2.0 * p))
        got = gamma_abs_on_line(SWEEP)
    assert got.view(np.uint64).tolist() == one.view(np.uint64).tolist()
    x = np.linspace(0.0, 30.0 / math.pi, 10**5)
    assert (gamma_abs_on_line(x) != two_branch_gamma_abs_on_line(x)).mean() > 0.25


@pytest.mark.parametrize("base", [2, 3, 10, 16, 1000, 10**6])
def test_the_analytic_queries_raise_no_floating_point_warning(base):
    from benford_chains.chains import (
        ChainLink,
        ChainSpec,
        FoldInterval,
        deviation_bound,
        first_digit_probabilities,
        fold_probability,
    )

    chains = [
        [("exponential", 1)],
        [("half_gaussian", 1), ("exponential", -2)],
        [("uniform", 1), ("exponential", 3), ("half_gaussian", -1)],
        [("uniform", 1), ("uniform", -2)],
        [("exponential", 1), ("benford", 2), ("uniform", 1)],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for links in chains:
            chain = ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))
            for L in (1, 64, 4096):
                deviation_bound(chain, FoldInterval(0.1, 0.7), L)
                fold_probability(chain, FoldInterval(0.1, 0.7), L)
                if (base - 1) * L <= 50000:
                    first_digit_probabilities(chain, L)


def test_zeta_minus_one_frozen_values():
    assert zeta_minus_one(2) == pytest.approx(0.64493406684822644, rel=1e-14)
    assert zeta_minus_one(3) == pytest.approx(0.20205690315959429, rel=1e-14)
    assert zeta_minus_one(10) == pytest.approx(9.945751278180853e-04, rel=1e-14)


# zeta(n) - 1 for n = 2..171, correctly rounded: frozen from a 200-digit
# evaluation of the Hurwitz zeta(n, 2), rounded once to the nearest double.
ZETA_MINUS_ONE_HEX = [
    "0x1.4a34cc4a60fa6p-1", "0x1.9dd002780310ap-3", "0x1.51322ac7d8483p-4",
    "0x1.2e831d94f99b7p-5", "0x1.1c26130249124p-6", "0x1.1196d0a679c47p-7",
    "0x1.0b36af86396e9p-8", "0x1.073e7b02d6ae0p-9", "0x1.04b8ce96ee5f8p-10",
    "0x1.0318df2459954p-11", "0x1.020a5b2cd3042p-12", "0x1.01593a1177bd6p-13",
    "0x1.00e4af2b4e156p-14", "0x1.0097bcbf11bedp-15", "0x1.0064cdeb22f0fp-16",
    "0x1.0043073686681p-17", "0x1.002c9953744ccp-18", "0x1.001db08f9ba4ap-19",
    "0x1.0013c594466eap-20", "0x1.000d2bab28121p-21", "0x1.0008c66cec77dp-22",
    "0x1.0005d8f13858cp-23", "0x1.0003e59ffde12p-24", "0x1.000298ea55633p-25",
    "0x1.0001bb316ccdap-26", "0x1.0001276b90845p-27", "0x1.0000c4ed05ae3p-28",
    "0x1.0000834601a87p-29", "0x1.00005782aaebep-30", "0x1.00003a56719b9p-31",
    "0x1.000026e3f644fp-32", "0x1.000019ed24201p-33", "0x1.00001148ad653p-34",
    "0x1.00000b85be414p-35", "0x1.000007ae797ffp-36", "0x1.0000051ef8ffap-37",
    "0x1.00000369f9ff9p-38", "0x1.00000246a5ffbp-39", "0x1.000001846e551p-40",
    "0x1.00000102f40e1p-41", "0x1.000000aca29ebp-42", "0x1.000000731709dp-43",
    "0x1.0000004cba013p-44", "0x1.0000003326a8dp-45", "0x1.0000002219c49p-46",
    "0x1.00000016bbd7bp-47", "0x1.0000000f27e4dp-48", "0x1.0000000a1a986p-49",
    "0x1.00000006bc658p-50", "0x1.000000047d98fp-51", "0x1.00000002fe65fp-52",
    "0x1.00000001feeeap-53", "0x1.00000001549f1p-54", "0x1.00000000e314bp-55",
    "0x1.0000000097632p-56", "0x1.0000000064eccp-57", "0x1.0000000043488p-58",
    "0x1.000000002cdb0p-59", "0x1.000000001de75p-60", "0x1.0000000013ef9p-61",
    "0x1.000000000d4a6p-62", "0x1.0000000008dc4p-63", "0x1.0000000005e83p-64",
    "0x1.0000000003f02p-65", "0x1.0000000002a01p-66", "0x1.0000000001c01p-67",
    "0x1.00000000012abp-68", "0x1.0000000000c72p-69", "0x1.000000000084cp-70",
    "0x1.0000000000588p-71", "0x1.00000000003b0p-72", "0x1.0000000000275p-73",
    "0x1.00000000001a4p-74", "0x1.0000000000118p-75", "0x1.00000000000bap-76",
    "0x1.000000000007cp-77", "0x1.0000000000053p-78", "0x1.0000000000037p-79",
    "0x1.0000000000025p-80", "0x1.0000000000019p-81", "0x1.0000000000010p-82",
    "0x1.000000000000bp-83", "0x1.0000000000007p-84", "0x1.0000000000005p-85",
    "0x1.0000000000003p-86", "0x1.0000000000002p-87", "0x1.0000000000001p-88",
    "0x1.0000000000001p-89", "0x1.0000000000001p-90", "0x1.0000000000000p-91",
    "0x1.0000000000000p-92", "0x1.0000000000000p-93", "0x1.0000000000000p-94",
    "0x1.0000000000000p-95", "0x1.0000000000000p-96", "0x1.0000000000000p-97",
    "0x1.0000000000000p-98", "0x1.0000000000000p-99", "0x1.0000000000000p-100",
    "0x1.0000000000000p-101", "0x1.0000000000000p-102", "0x1.0000000000000p-103",
    "0x1.0000000000000p-104", "0x1.0000000000000p-105", "0x1.0000000000000p-106",
    "0x1.0000000000000p-107", "0x1.0000000000000p-108", "0x1.0000000000000p-109",
    "0x1.0000000000000p-110", "0x1.0000000000000p-111", "0x1.0000000000000p-112",
    "0x1.0000000000000p-113", "0x1.0000000000000p-114", "0x1.0000000000000p-115",
    "0x1.0000000000000p-116", "0x1.0000000000000p-117", "0x1.0000000000000p-118",
    "0x1.0000000000000p-119", "0x1.0000000000000p-120", "0x1.0000000000000p-121",
    "0x1.0000000000000p-122", "0x1.0000000000000p-123", "0x1.0000000000000p-124",
    "0x1.0000000000000p-125", "0x1.0000000000000p-126", "0x1.0000000000000p-127",
    "0x1.0000000000000p-128", "0x1.0000000000000p-129", "0x1.0000000000000p-130",
    "0x1.0000000000000p-131", "0x1.0000000000000p-132", "0x1.0000000000000p-133",
    "0x1.0000000000000p-134", "0x1.0000000000000p-135", "0x1.0000000000000p-136",
    "0x1.0000000000000p-137", "0x1.0000000000000p-138", "0x1.0000000000000p-139",
    "0x1.0000000000000p-140", "0x1.0000000000000p-141", "0x1.0000000000000p-142",
    "0x1.0000000000000p-143", "0x1.0000000000000p-144", "0x1.0000000000000p-145",
    "0x1.0000000000000p-146", "0x1.0000000000000p-147", "0x1.0000000000000p-148",
    "0x1.0000000000000p-149", "0x1.0000000000000p-150", "0x1.0000000000000p-151",
    "0x1.0000000000000p-152", "0x1.0000000000000p-153", "0x1.0000000000000p-154",
    "0x1.0000000000000p-155", "0x1.0000000000000p-156", "0x1.0000000000000p-157",
    "0x1.0000000000000p-158", "0x1.0000000000000p-159", "0x1.0000000000000p-160",
    "0x1.0000000000000p-161", "0x1.0000000000000p-162", "0x1.0000000000000p-163",
    "0x1.0000000000000p-164", "0x1.0000000000000p-165", "0x1.0000000000000p-166",
    "0x1.0000000000000p-167", "0x1.0000000000000p-168", "0x1.0000000000000p-169",
    "0x1.0000000000000p-170", "0x1.0000000000000p-171",
]
# Larger orders: 2^-n to the last normal power, then subnormals; at n = 1075
# the value lies just above half the least subnormal, so it rounds up to it.
ZETA_MINUS_ONE_LARGE_HEX = {
    172: "0x1.0000000000000p-172",
    200: "0x1.0000000000000p-200",
    500: "0x1.0000000000000p-500",
    1000: "0x1.0000000000000p-1000",
    1022: "0x1.0000000000000p-1022",
    1050: "0x0.0000001000000p-1022",
    1074: "0x0.0000000000001p-1022",
    1075: "0x0.0000000000001p-1022",
    1076: "0x0.0p+0",
    2000: "0x0.0p+0",
    10**6: "0x0.0p+0",
}


def test_zeta_minus_one_is_correctly_rounded():
    got = {n: zeta_minus_one(n).hex() for n in range(2, 172)}
    assert got == dict(zip(range(2, 172), ZETA_MINUS_ONE_HEX))
    got = {n: zeta_minus_one(n).hex() for n in ZETA_MINUS_ONE_LARGE_HEX}
    assert got == ZETA_MINUS_ONE_LARGE_HEX


def test_zeta_minus_one_large_order_tracks_two_to_minus_n():
    # zeta(n) - 1 ~ 2^-n for large n; the naive alternating-series shortcut
    # loses all precision here, which is why the full routine is used
    assert zeta_minus_one(60) == pytest.approx(2.0**-60, rel=1e-3)


def test_zeta_minus_one_domain():
    with pytest.raises(ValueError):
        zeta_minus_one(1)
    with pytest.raises(ValueError):
        zeta_minus_one(0)


def test_gamma_real_factorials():
    assert gamma_real(1) == 1.0
    assert gamma_real(2) == 1.0
    assert gamma_real(5) == 24.0
    assert gamma_real(11) == 3628800.0
    assert gamma_real(171) == float(math.factorial(170))
    with pytest.raises(ValueError):
        gamma_real(0)
    # 171! overflows a double: a named error, not OverflowError
    with pytest.raises(ValueError, match="n <= 171"):
        gamma_real(172)


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
def test_gamma_real_takes_only_an_integer(n):
    # a float used to reach math.factorial (TypeError), and True passed as 1
    with pytest.raises(ValueError, match="^n must be an integer"):
        gamma_real(n)
