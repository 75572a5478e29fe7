"""The closed-form moduli that deviation_bound sums are upper bounds in
floating point: each retained modulus lies at or above the exact |c_l|,
frozen to 40 digits in tests/frozen_moduli.py (regenerate it with
tests/freeze_moduli.py), and within 1e-11 relative of it.  The polar
spectrum, those moduli times e^(i*phase), lies within 2e-12 relative of
the frozen complex c_l.  The bound path evaluates no phase, and the package
has no complex Gamma at all.  The explicit part of the tails lies at or
above the frozen exact sum of |c_l| over L+1..max(2L, 256), and the fold's
rounding bound covers the distance to frozen exact truncated series."""

import ast
import io
import json
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import benford_chains
import full_spectrum as full
from benford_chains import chains, cli, families
from benford_chains.chains import (
    ChainLink,
    ChainSpec,
    FoldInterval,
    chain_spectrum,
    deviation_bound,
    fold_probability,
)
from benford_chains.families import get_family
from frozen_moduli import (
    CHAIN_MODULI,
    CHAIN_VALUES,
    EXPLICIT_TAILS,
    FAMILY_MODULI,
    FOLD_SUMS,
    UNIFORM_FAR_MODULI,
)

U = 2.0**-53
# e_f = (a + b*pi*w)*u of each family, as derived at its kernel in families.py
STATED = {"exponential": (16.0, 4.0), "uniform": (20.0, 0.0), "half_gaussian": (18.0, 2.0)}
# (index into CHAIN_MODULI, float.hex of |c_l|) as the bound took it before
# the closed-form moduli: hypot of the spectrum that complex Gamma gave,
# furthest below the exact modulus of the frozen cases, by 1.27e-13 relative.
HYPOT_BELOW = (158, "0x1.c7273abca81c0p-410")


def build(base, links):
    return ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))


def relative_excess(value: float, exact: str) -> Decimal:
    """(value - exact)/exact, exactly enough: Decimal(float) is exact."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(value) - Decimal(exact)) / Decimal(exact)


def bound_modulus(chain, ell):
    return deviation_bound(chain, FoldInterval(0.0, 1.0), ell).moduli[ell - 1]


def anchor_product(chain, ell) -> float:
    """The product of the links' tail anchors at ell, as chains._tails forms it at L2 = ell."""
    out = 1.0
    for a, _, _ in full.anchors(chain, ell):
        out *= a
    return out


def assert_certified(chain, ell, modulus, exact):
    excess = relative_excess(modulus, exact)
    assert 0 <= excess <= Decimal("1e-11"), (chain, ell, modulus, exact)
    # a tail closed at L2 = ell starts from the anchors, which lie at or
    # above the exact modulus there too
    assert relative_excess(anchor_product(chain, ell), exact) >= 0, (chain, ell)


def test_every_frozen_chain_modulus_is_certified_and_tight():
    for base, links, ell, exact in CHAIN_MODULI:
        chain = build(base, links)
        assert_certified(chain, ell, bound_modulus(chain, ell), exact)


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(CHAIN_MODULI),
    extra=st.sampled_from([0, 1, 64]),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
)
# A 1-ulp interval: the rounded phases (2*pi*x)*l put an absolute few u*x
# into every I_l, so the series read 1.61e-16 against the width 1.11e-16,
# beyond bound + error until the error carried its rounding bound.
@example(case=CHAIN_MODULI[1], extra=0, ends=[0.9999999999999999, 1.0])
def test_the_bound_is_certified_on_frozen_chains(case, extra, ends):
    base, links, ell, exact = case
    chain = build(base, links)
    interval = FoldInterval(*ends)
    L = ell + extra
    bound = deviation_bound(chain, interval, L)
    assert_certified(chain, ell, bound.moduli[ell - 1], exact)
    prob, err = fold_probability(chain, interval, L)
    assert bound.value >= abs(prob - interval.width) - err


@pytest.mark.parametrize("name", sorted(STATED))
def test_family_moduli_keep_their_stated_error_budget(name):
    # exact <= m * (1 + e) needs |m/exact - 1| <= e of the uninflated m, so
    # the returned value lies in [exact, exact * (1 + 2e + 2u)]
    a, b = STATED[name]
    family = get_family(name)
    cases = [case for case in FAMILY_MODULI if case[0] == name]
    assert len(cases) >= 100
    for _, base, n, exact in cases:
        [got] = family.certified_modulus(np.array([float(n)]), base)
        e = (a + b * math.pi * (2.0 * math.pi * n / math.log(base))) * U
        excess = relative_excess(float(got), exact)
        assert 0 <= excess <= Decimal(2.0 * e + 2.0 * U), (base, n, got, exact)


def test_the_old_hypot_modulus_fell_below_the_exact_value():
    # hypot of the complex spectrum, the moduli of the bound before the
    # closed forms, lay below the exact |c_l| on this frozen case
    index, old = HYPOT_BELOW
    base, links, ell, exact = CHAIN_MODULI[index]
    chain = build(base, links)
    assert relative_excess(float.fromhex(old), exact) < 0
    assert_certified(chain, ell, bound_modulus(chain, ell), exact)


def test_the_polar_spectrum_matches_the_frozen_coefficients():
    for (base, links, ell, _), (re, im) in zip(CHAIN_MODULI, CHAIN_VALUES, strict=True):
        chain = build(base, links)
        exact = complex(float(re), float(im))
        assert abs(chain_spectrum(chain, ell) - exact) <= 2e-12 * abs(exact), (base, links, ell)
        assert chain_spectrum(chain, -ell) == chain_spectrum(chain, ell).conjugate()


def test_the_uniform_anchor_lies_above_the_modulus_far_out():
    # At l ~ 1e9 the anchor c*m rounded up, c = sqrt(1 + 1/w^2), is within u
    # of 1/w and of the exact modulus: only its rounding keeps it above the
    # exact value, by at most 65u (m's 42u, c's 9u, the 12u and two
    # multiplies, tests/full_spectrum.py).
    chain = build(10, [("uniform", 1)])
    for ell, exact in enumerate(UNIFORM_FAR_MODULI, 10**9):
        anchor = anchor_product(chain, ell)
        assert Decimal(anchor) >= Decimal(exact), ell
        assert relative_excess(anchor, exact) <= Decimal(65.0 * U)


def test_the_package_has_no_complex_gamma():
    with pytest.raises(AttributeError):
        benford_chains.complex_gamma
    # every Gamma a module defines or imports is a phase or a modulus on the
    # line, or the real factorial
    defined, imported = set(), set()
    for path in Path(benford_chains.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and "gamma" in node.name:
                defined.add(node.name)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(a.name for a in node.names if "gamma" in a.name)
    assert defined == {"arg_gamma", "gamma_abs_on_line", "gamma_real"}
    assert imported <= defined


def test_the_bound_path_evaluates_no_phase(tmp_path, monkeypatch):
    def refuse(x, y):
        raise AssertionError("arg_gamma called")

    monkeypatch.setattr(families, "arg_gamma", refuse)
    links = [("exponential", 1), ("half_gaussian", -2), ("uniform", 3), ("exponential", 2)]
    chain = build(10, links)
    interval = FoldInterval(0.1, 0.45)
    for L in (1, 64, 1024):
        assert deviation_bound(chain, interval, L).value > 0.0
    with pytest.raises(AssertionError, match="arg_gamma called"):
        fold_probability(chain, interval, 64)

    spec = tmp_path / "chain.json"
    spec.write_text(json.dumps({"base": 10, "links": [{"family": f, "power": p} for f, p in links]}))
    out = io.StringIO()
    assert cli.main(["bound", "--chain", str(spec), "--a", "0.1", "--b", "0.45"], out=out) == 0
    assert json.loads(out.getvalue())["value"] == deviation_bound(chain, interval, 64).value


def test_the_moduli_carry_the_link_rounding_and_the_sum_its_own():
    # the value is width * (2 * fsum + tail), rounded up for its four
    # roundings, and never below the unrounded expression
    chain = build(3, [("uniform", 1), ("uniform", -1)])
    interval = FoldInterval(0.1, 0.45)
    bound = deviation_bound(chain, interval, 64)
    plain = interval.width * (2.0 * math.fsum(bound.moduli.tolist()) + bound.tail)
    assert plain < bound.value <= plain * (1.0 + 8.0 * U)
    raw, _ = chains._moduli(chain, 1, 64)
    assert (raw < bound.moduli).all() and (bound.moduli <= raw * (1.0 + 4.0 * U)).all()


def certified_moduli(chain, L):
    """The rounded-up certified moduli of 1..max(2L, 256) that a bound or a fold sums."""
    moduli, _ = chains._moduli(chain, 1, max(2 * L, 256))
    return moduli * chains._round_up(len(chain.links))


@pytest.mark.parametrize("base, links, L, exact", EXPLICIT_TAILS)
def test_the_explicit_tail_lies_at_or_above_the_exact_one(base, links, L, exact):
    chain = build(base, links)
    explicit = math.fsum(certified_moduli(chain, L)[L:].tolist())
    assert Decimal(explicit) >= Decimal(exact)
    assert relative_excess(explicit, exact) <= Decimal("1e-11")
    with localcontext() as ctx:
        ctx.prec = 60
        assert Decimal(deviation_bound(chain, FoldInterval(0.0, 1.0), L).tail) >= 2 * Decimal(exact)


@pytest.mark.parametrize("base, links, L, a, b, exact", FOLD_SUMS)
def test_the_fold_rounding_bound_covers_the_exact_truncated_series(base, links, L, a, b, exact):
    chain = build(base, links)
    interval = FoldInterval(float.fromhex(a), float.fromhex(b))
    prob, err = fold_probability(chain, interval, L)
    rounding = chains._fold_rounding(chain, interval, certified_moduli(chain, L)[:L], prob)
    with localcontext() as ctx:
        ctx.prec = 60
        distance = abs(Decimal(prob) - Decimal(exact))
        assert distance <= Decimal(rounding) <= Decimal(err)
        assert Decimal(prob) - Decimal(err) <= Decimal(exact) <= Decimal(prob) + Decimal(err)
