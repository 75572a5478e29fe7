"""The numpy spectrum against the scalar code it replaced, and the phase
of Gamma against complex Gamma values frozen from a 40-digit mpmath
evaluation."""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import full_spectrum as full
import scalar_reference as ref
from benford_chains import chains, cli
from benford_chains.chains import (
    ChainLink,
    ChainSpec,
    FoldInterval,
    chain_spectrum,
    deviation_bound,
    first_digit_probabilities,
    fold_probability,
)
from benford_chains.families import FAMILY_NAMES, get_family, mellin_at
from benford_chains.specfun import arg_gamma, gamma_abs_on_line

U = 2.0**-53

# (Re z, Im z, Re Gamma(z), Im Gamma(z)): |z| <= 10
GAMMA_NEAR = [
    (1.0, 0.0, 1.0, 0.0),
    (0.5, 0.0, 1.772453850905516, 0.0),
    (5.0, 0.0, 24.0, 0.0),
    (1.0, 2.0, 0.15190400267003615, 0.01980488016185498),
    (1.1, 0.05, 0.9494365758323416, -0.02008263530011382),
    (0.9, -0.1, 1.0554756093930675, 0.07926964224676511),
    (2.0, 0.0, 1.0, 0.0),
    (0.001, 0.001, 499.4237733891342, -499.9990127569994),
    (10.0, 0.0, 362880.0, 0.0),
    (0.25, 9.9, 2.459429561864971e-07, -4.017562275500862e-08),
    (7.9, 0.5, 2185.1718635170528, 3414.4387651398547),
    (8.0, 0.1, 4934.674427186404, 1008.3614738081232),
    (5.023259, 0.900337, 4.61627724102915, 22.274472325521486),
    (1.155795, -5.583888, 0.0003626346498960485, 0.0011460946446754093),
    (0.560139, -4.547132, -0.0016618236675473438, -0.0013964762892689044),
    (5.75763, 7.016446, 1.5146597055483766, 0.8912794703893884),
    (1.856939, 0.793539, 0.7323226322410822, 0.223515233688325),
    (1.109214, 1.772798, 0.21873863310996097, 0.025862454756040595),
    (9.27863, 2.13803, -2616.1270772785433, -56779.09508503287),
    (5.013582, 7.609461, 0.08986269589730136, 0.17280399198576904),
    (0.964343, 8.111174, -1.9142123371310767e-05, -3.1664243096840895e-06),
    (4.851817, 6.425574, -0.0023619191234194948, -0.4552565904491115),
    (5.563658, 3.779468, 15.632772319348375, 2.4505170853183995),
    (7.855697, 2.510545, 841.3395392389078, -2332.3681082029316),
    (9.227015, 1.361928, -58142.13806112134, 10872.643914049657),
    (0.32211, 0.953947, 0.18052692771202314, -0.5402246726179913),
    (0.973118, -8.841832, 1.0958426868755866e-06, 6.440416753117667e-06),
    (7.084455, -0.806315, 38.834250815494876, -802.4251282993401),
    (4.7355, 0.249984, 15.080472333995257, 5.703386372576289),
    (8.686624, -1.386662, -18011.493248264316, -4003.5814306202146),
    (1.976016, 4.975666, 0.004346182937817985, -0.01010736023043181),
    (9.474186, 1.442232, -100398.90541100339, -3018.7909375856816),
    (1.180324, -1.909098, 0.18687248493030129, -0.0567367190743272),
    (2.008764, 7.889576, -8.27103244409859e-05, -0.00022159574971498592),
    (3.742582, 4.070406, 0.3976319014582904, -0.3496005894026506),
    (2.040232, -7.684672, -0.00022527574263060316, 0.0002476221093857751),
    (5.890087, 2.439315, -29.120938722403558, -50.65789901618935),
    (2.317314, -6.988516, -0.001463966715418392, -0.0002955739840140178),
    (5.060305, -8.401892, -0.09093261557626593, -0.022511876559005165),
    (6.872971, -1.797546, -432.7093220425221, 93.39151581538074),
    (3.99496, 8.465458, -0.0021613304624584244, 0.007767538600212191),
    (5.967318, -1.084233, -28.154047401620595, -98.07226859591866),
    (8.091637, -4.86662, -1032.8980216780524, 945.639622072089),
    (3.800994, 6.761575, -0.015466197039385851, -0.03459986173683802),
    (9.049573, 1.080513, -28595.56702336286, 30613.863680184844),
    (7.709482, -2.077707, -1148.9350099002938, 1759.444957009249),
    (7.513582, -2.441652, 117.74207942547147, 1261.8159804218917),
    (1.068412, -1.073881, 0.4750545934379811, 0.10543456001491752),
    (1.548747, -7.94373, -6.554301483274626e-05, 5.2725285814765085e-05),
    (2.026207, -6.646026, -0.00041679610228754485, -0.0012692657857845506),
    (0.485728, 4.329102, -0.0011421261169945417, 0.002483735656180788),
    (1.652603, 2.330415, 0.06561938468474769, 0.16471933713049122),
    (6.100563, 2.377505, -45.37148343663171, -74.71355496869369),
    (2.79604, -3.17078, -0.28319046977956713, 0.05481706756473306),
    (5.562382, 1.543431, -37.59064769863416, 26.43221390358872),
    (1.761637, 3.651205, -0.04062891495025387, 0.011952543919585872),
    (3.165549, 5.607624, 0.008550194621715934, 0.03975469804679382),
    (0.391749, 9.941364, 3.1900376623973366e-07, 5.089224627107303e-08),
    (3.211398, 5.591219, 0.008520447255087769, 0.04422238310238851),
    (1.261216, 4.310108, -0.008763659585303434, 0.00014506694370340517),
]
# Re z in (0, 10], |Im z| <= 500, Gamma(z) in the normal double range; the
# lines Re z = 1/2 and Re z = 1 first
GAMMA_FAR = [
    (0.5, -440.0, 3.4871218459140724e-301, -1.6873713099286693e-300),
    (0.5, -300.5, 2.429165307578102e-205, -6.7358496241043e-206),
    (0.5, -123.25, 8.77738610679574e-85, 1.892783918742408e-84),
    (0.5, -47.0, -9.241000309800376e-33, -1.962217693626334e-32),
    (0.5, -8.5, -3.8404414491377974e-06, 1.0657283456870109e-06),
    (0.5, 3.75, 0.002396982806088788, 0.006504828100695132),
    (0.5, 19.0, 1.998919639659231e-13, -1.8718348313861278e-13),
    (0.5, 88.8, -9.545821141547164e-62, 6.549610712783071e-61),
    (0.5, 211.0, 1.7882398966993246e-144, 2.240592818828325e-144),
    (0.5, 333.3, 8.499269986053208e-228, 6.353197676784373e-228),
    (0.5, 400.0, 3.4609997039062786e-274, -3.3225818625244328e-273),
    (0.5, 447.0, 2.8872497054731864e-305, 1.3730113338742271e-306),
    (1.0, -440.0, -1.9846943212073505e-299, -3.0205638219511395e-299),
    (1.0, -300.5, 2.1535109220909396e-204, -3.802347418606049e-204),
    (1.0, -123.25, 2.1740950404134055e-83, 7.990321109655537e-84),
    (1.0, -47.0, -1.3978510364598002e-31, -5.069657559972997e-32),
    (1.0, -8.5, -5.8684192499642744e-06, 1.0029066689908294e-05),
    (1.0, 3.75, -0.005214289792410276, 0.012370523996698616),
    (1.0, 19.0, 1.193278554632598e-12, 3.131947951395682e-14),
    (1.0, 88.8, -4.995040250647407e-60, 3.735188631902339e-60),
    (1.0, 211.0, -4.621745395558791e-144, 4.138417246088582e-143),
    (1.0, 333.3, 2.7776194932465495e-227, 1.9172454192603397e-226),
    (1.0, 400.0, 5.1869839189027875e-272, -4.2110021984993994e-272),
    (1.0, 447.0, 4.112414413227146e-304, 4.520528387635921e-304),
    (6.51239, 87.542608, 1.3041535646140904e-48, -1.8704364217697815e-48),
    (3.566792, -104.922376, 9.496285503161409e-67, 1.0429401787217898e-65),
    (1.499065, -242.395868, -2.6348429285222935e-163, -1.8225741356563866e-164),
    (3.143061, -51.251582, -7.129983268177079e-31, 5.525200720018865e-31),
    (2.57152, 41.592583, -2.1811371325855485e-25, -9.891404057779561e-26),
    (8.142389, -277.513034, 1.513735892657981e-171, -5.495925226457091e-171),
    (7.268687, 13.267292, 0.018975102636106553, -0.1148956757125604),
    (6.219599, -445.253708, -5.532361034271778e-290, 6.304486421263459e-289),
    (0.33715, 73.252042, -8.546262965651775e-51, 1.0185790460192978e-50),
    (0.870837, 160.823299, -3.140377128199822e-109, -6.293535152708375e-110),
    (6.035605, 238.332054, 8.527483522044953e-150, 3.85175413623233e-150),
    (1.312004, -120.29788, 1.0182930923726476e-81, 1.0481855617442598e-80),
    (5.987754, -99.431205, -1.2384732086771384e-57, -3.16583161579701e-57),
    (1.720825, 239.92948, -3.286923929527262e-161, 2.6835896775180047e-161),
    (3.899924, 345.757088, -1.4429808653333929e-227, -2.8364515580225025e-229),
    (1.854454, 52.010117, 1.8601798529511413e-34, -1.7392120720038086e-33),
    (6.259978, 389.212349, 5.844944918098321e-251, -2.4728392780635773e-251),
    (9.546555, -365.49169, -1.0306898624199132e-226, -1.4521004091133061e-226),
    (5.757437, 134.359516, -2.2909771861264425e-81, -8.206031155092179e-81),
    (4.456516, 128.024574, -2.4715578810874496e-79, 4.4985823961596825e-80),
    (0.406627, -137.35436, -4.6489341844454095e-95, 3.112883045796118e-94),
    (9.016326, 445.117333, -5.669238507515108e-282, 1.9168875787868266e-281),
    (9.475952, 246.857265, -1.9250998672165858e-147, 2.2487000820478472e-147),
    (8.717766, 7.838118, 153.09058703549704, -793.8467615691127),
    (9.587571, 154.07304, 1.59671270428766e-86, 1.4900634992693058e-85),
    (8.835196, 219.478932, -1.4739042386540893e-130, 4.757670115460229e-131),
    (6.622185, -306.353989, 3.257569684423732e-194, 2.74373755468194e-194),
    (0.995325, -357.533572, 6.375773332004611e-244, 5.700811225328196e-243),
    (3.231037, 353.997369, 7.32154364302089e-235, 8.768225354148448e-236),
    (8.381335, -339.351057, -3.693876515074667e-212, 5.906498055721726e-212),
    (0.058, 281.5869, 1.021677085980396e-193, -1.313196536823041e-193),
    (8.446107, 116.209313, -2.7836651196215896e-63, 2.010463165272144e-63),
    (7.031923, 428.053856, -1.0692836958800439e-275, 3.6000299937612155e-275),
    (1.63865, -347.707633, 4.481775630807934e-236, 1.2311767575886463e-234),
    (7.000406, 373.756807, -1.4112225138867684e-238, 1.787097395454163e-240),
    (2.333587, -99.239267, -3.832243544672917e-65, -2.2605683344124254e-64),
]



def assert_phases_match(table):
    """arg_gamma against the argument of each frozen Gamma value, modulo 2*pi.

    The frozen value's argument is within a few u of the exact one, and
    arg_gamma within 8u*(|phase| + 4) at these points (its stated error,
    from the terms of its sum, is checked in test_decimal_oracle.py).
    """
    x = np.array([row[0] for row in table])
    y = np.array([row[1] for row in table])
    got = arg_gamma(x, y)
    for xi, yi, g, (_, _, gr, gi) in zip(x, y, got.tolist(), table):
        d = g - math.atan2(gi, gr)
        d -= 2.0 * math.pi * round(d / (2.0 * math.pi))
        assert abs(d) <= 8.0 * U * (abs(g) + 4.0), (xi, yi, d)
        assert arg_gamma(xi, yi) == g  # a scalar gives the array's bits


def test_arg_gamma_near_the_origin_matches_40_digit_values():
    assert_phases_match(GAMMA_NEAR)


def test_arg_gamma_far_up_the_line_matches_40_digit_values():
    assert_phases_match(GAMMA_FAR)


def test_arg_gamma_keeps_the_array_shape_and_stays_finite_far_out():
    y = np.array([[2.0, -3.0], [-500.0, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = arg_gamma(np.array([[1.0, 0.5], [1.0, 1.0]]), y)
    assert got.shape == (2, 2) and got.dtype == np.float64
    assert got[0, 0] == arg_gamma(1.0, 2.0)
    assert np.isfinite(got[:, 0]).all() and got[1, 1] > 0.0


def test_gamma_abs_on_line_arrays_match_the_scalar_form():
    x = np.array([0.0, -0.5, 1.0, 30.0 / math.pi, 10.0, 40.0, 1e6])
    got = gamma_abs_on_line(x)
    assert [gamma_abs_on_line(float(v)) for v in x] == got.tolist()
    for v, g in zip(x, got):
        assert g == pytest.approx(ref.gamma_abs_on_line(v), rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("name", FAMILY_NAMES)
@pytest.mark.parametrize("base", [2, 10, 1000])
def test_family_kernels_agree_with_their_scalar_views(name, base):
    fam = get_family(name, 10)
    ells = np.arange(-40, 41)
    values = fam.mellin_exact(ells, base)
    assert values.shape == ells.shape
    for ell, v in zip(ells.tolist(), values):
        assert mellin_at(fam, ell, base) == v
        # the polar value and scipy's Gamma are within 2e-12 of the exact
        # value up to |Im z| = 500; only a foreign-base benford modulus
        # carries an absolute 10u
        tiny = 12.0 * U if name == "benford" and base != 10 else 1e-300
        assert v == pytest.approx(ref.mellin(fam, ell, base), rel=4e-12, abs=tiny)
    # the tail anchors, from the certified moduli, against the reference's
    # own moduli times each family's constant c
    for ell in range(1, 41):
        [m] = fam.certified_modulus(np.array([float(ell)]), base).tolist()
        a, _, _ = fam.tail(fam.base, 1.0, base, ell, 2.0 * math.pi * ell / math.log(base), m)
        assert a == pytest.approx(ref.anchor(fam, ell, base), rel=4e-12, abs=1e-300)


def test_uniform_kernel_is_the_scalar_quotient_within_its_rounding():
    # the certified modulus carries at most 2 * 20u + 2u and the phase
    # arctan(w) a few u: |w| <= 1 and |w| > 1 alike
    fam = get_family("uniform")
    for base in (2, 3, 10, 1000, 10**6, 10**300):
        ells = np.arange(-300, 301)
        got = fam.mellin_exact(ells, base)
        want = np.array([ref.mellin(fam, ell, base) for ell in ells.tolist()])
        assert (np.abs(got - want) <= 48.0 * U * np.abs(want)).all(), base


LINKS = st.lists(
    st.tuples(st.sampled_from(FAMILY_NAMES), st.integers(1, 9), st.booleans()),
    min_size=1,
    max_size=6,
)


def build(base, links):
    return ChainSpec(
        base,
        tuple(ChainLink(f, 1 if i == 0 else (-p if neg else p)) for i, (f, p, neg) in enumerate(links)),
    )


def close(new, old, rel=1e-12):
    return new == old or abs(new - old) <= rel * abs(old) + 1e-300


@settings(max_examples=150, deadline=None)
@given(
    base=st.integers(2, 1000),
    links=LINKS,
    L=st.one_of(st.sampled_from([1, 2, 64]), st.integers(1, 300)),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
)
def test_numpy_spectrum_matches_the_scalar_code(base, links, L, ends):
    chain = build(base, links)
    interval = FoldInterval(*ends)
    families = {f for f, _, _ in links}
    # A benford link zeroes the spectrum, which must keep every bit.  Every
    # other chain moves with the polar spectrum: certified moduli and phases.
    exact = "benford" in families
    same = (lambda new, old: new == old) if exact else close

    old_c = [ref.chain_spectrum(chain, ell) for ell in range(1, L + 1)]
    # _polar keeps the support prefix c_1..c_S; every c_l past S is 0.
    bounds, w = chains._moduli(chain, 1, max(2 * L, 256))
    spectrum = chains._polar(chain, bounds[:L], w[:, :L])
    re, im = (np.pad(part, (0, L - part.size)) for part in spectrum)
    bounds *= chains._round_up(len(chain.links))
    if exact:
        assert [complex(r, i) for r, i in zip(re, im)] == old_c
    # Each c_l carries its certified moduli's rounding allowance and the
    # phases' error, about |phase| * u: within 2e-12 of the exact value.
    for r, i, c in zip(re, im, old_c):
        assert close(complex(r, i), c, rel=2e-12)
    for ell in (1, L):
        assert chain_spectrum(chain, -ell) == complex(re[ell - 1], -im[ell - 1])

    # The bound's moduli moved for every chain with the certified closed-form
    # moduli, so they compare within 1e-12.  The tails moved to those moduli
    # up to max(2L, 256) and to their anchors past it: they compare within
    # 1e-12 with the tails from the reference's own |c_l| and anchors, and
    # lie below its majorant tails within the rounding slack; so does the
    # value.
    new_b, old_b = deviation_bound(chain, interval, L), ref.deviation_bound(chain, interval, L)
    assert [ell for ell, _ in new_b.per_term] == [ell for ell, _ in old_b.per_term]
    for new, old in zip(new_b.per_term, old_b.per_term):
        assert close(new[1], old[1])
    plain, weighted = ref.tails(chain, L)
    assert same(new_b.tail, plain)
    assert new_b.tail <= old_b.tail * full.tail_slack(chain)
    width = interval.width
    assert same(new_b.value, 0.0 if width == 0.0 else width * (math.fsum(m for _, m in old_b.per_term) + plain))
    assert new_b.value <= old_b.value * (1.0 + 1e-12) * full.tail_slack(chain)

    # A truncated series can cancel to far below its terms, so fold values
    # are compared at the scale of the series, width * (1 + 2 sum |c_l|).
    scale = 1.0 + 2.0 * math.fsum(abs(c) for c in old_c)
    new_p, new_e = fold_probability(chain, interval, L)
    old_p, old_e = ref.fold_probability(chain, interval, L)
    if width in (0.0, 1.0):
        assert new_e == old_e == 0.0
    else:
        # the error adds the series' rounding bound to the smaller tail
        rounding = chains._fold_rounding(chain, interval, bounds[:L], new_p)
        assert same(new_e, min(width * plain, weighted) + rounding)
        assert new_e <= old_e * full.tail_slack(chain) + rounding
    if exact:
        assert new_p == old_p
    else:
        assert abs(new_p - old_p) <= 1e-12 * interval.width * scale
    if (base - 1) * L <= 20000:
        log_base = math.log(base)
        for d, (new, old) in enumerate(
            zip(first_digit_probabilities(chain, L), ref.first_digit_probabilities(chain, L)), 1
        ):
            width = math.log(d + 1) / log_base - math.log(d) / log_base
            assert new == old if exact else abs(new - old) <= 1e-12 * width * scale, d


def test_digit_table_cost_is_capped_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(chains, "_fold_series", lambda chain, edges, moduli, w: calls.append(moduli.size) or [])
    cap, per_interval = chains._DIGIT_TABLE_MAX_COST, chains._DIGIT_INTERVAL_COST
    uniform = (ChainLink("uniform", 1),)
    for base in (16, 1000):
        L = cap // (base - 1) - per_interval  # the largest L within the cap
        first_digit_probabilities(ChainSpec(base, uniform), L)
        assert calls[-1] == L
        with pytest.raises(ValueError, match=r"digit table .* above the limit"):
            first_digit_probabilities(ChainSpec(base, uniform), L + 1)
    # at L = 1 the cap bounds the base, so the table's size too
    base = cap // (1 + per_interval) + 1
    first_digit_probabilities(ChainSpec(base, uniform), 1)
    with pytest.raises(ValueError, match=str(cap)):
        first_digit_probabilities(ChainSpec(base + 1, uniform), 1)
    assert len(calls) == 3
    # --lmax 65536 still fits up to base 256
    first_digit_probabilities(ChainSpec(256, uniform), 65536)
    assert len(calls) == 4


def test_cli_digits_beyond_the_cap_exits_two_with_empty_stdout(tmp_path, capsys):
    spec = tmp_path / "chain.json"
    spec.write_text('{"base": 1000, "links": [{"family": "uniform", "power": 1}]}')
    out = io.StringIO()
    assert cli.main(["digits", "--chain", str(spec), "--lmax", "65536"], out=out) == 2
    assert out.getvalue() == ""
    assert "above the limit" in capsys.readouterr().err
