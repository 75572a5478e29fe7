"""Regenerate tests/frozen_moduli.py: chain spectra and phases to 40 digits.

Run from the root of a checkout:

    PYTHONPATH=src python tests/freeze_moduli.py

It needs mpmath, which neither the package nor its test suite uses, and
exits with a message when mpmath is missing.  The moduli come from the
Mellin transforms themselves, evaluated by mpmath at 50 digits:
|Gamma(1 - iw)| (exponential), |1/(1 - iw)| (uniform) and
|Gamma(1/2 - iw/2)|/sqrt(pi) (half-Gaussian), at w = 2*pi*|R|*l/ln B with
the exact R, l and B, not from the closed forms the package computes.
The same chains' complex coefficients c_l come from the complex Mellin
values, at the signed R.  The phases Im lnGamma(x + iy) are mpmath's
loggamma, and the uniform moduli far out (l = 1e9..1e9+199, base 10)
check the uniform tail anchor.  FOLD_SUMS holds truncated fold series
(b - a) + 2 * sum_{l <= L} Re(c_l I_l) of a few chains over 1-ulp, ordinary
and near-0 intervals, from the exact c_l and the exact endpoints, and
EXPLICIT_TAILS the explicit part of the tails, sum_{L < l <= L2} |c_l| with
L2 = max(2L, 256).  The draws are seeded, so a rerun writes the same file.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

try:
    import mpmath as mp
except ImportError:
    sys.exit("freeze_moduli.py needs mpmath (pip install mpmath); the test suite does not")

from benford_chains.chains import ChainLink, ChainSpec, cumulative_powers

OUT = Path(__file__).with_name("frozen_moduli.py")
FAMILIES = ("exponential", "uniform", "half_gaussian")
POWERS = [p for p in range(-9, 10) if p != 0]
ELLS = list(range(1, 200)) + [300, 500, 1000]
SMALLEST = mp.mpf("1e-290")  # below the normal range the relative certificate stops
CHAIN_CASES = 400
FAMILY_CASES = 120  # per family
# The largest w of each family's single-link cases: a little below the w
# where the double result leaves the normal range.
W_MAX = {"exponential": 440.0, "uniform": 1e9, "half_gaussian": 880.0}
ARG_GAMMA_X = (1, 0.5)
ARG_GAMMA_Y = (0.03, 0.3, 3, 30, 300, 1500)
UNIFORM_FAR_ELLS = range(10**9, 10**9 + 200)
# (base, links, L) of the fold sums and the explicit tails.  The first is
# the 1-ulp case where the fold's rounding once went unbounded.
FOLD_CHAINS = (
    (719, (("uniform", 1), ("uniform", -7)), 61),
    (10, (("exponential", 1), ("uniform", -2), ("half_gaussian", 3), ("exponential", -1)), 64),
    (3, (("uniform", 1), ("uniform", -1)), 64),
    (10, (("exponential", 1), ("exponential", 2), ("exponential", 3)), 64),
    (16, (("half_gaussian", 1), ("uniform", -2)), 128),
    (10, (("uniform", 1), ("uniform", 3)), 4096),
)
FOLD_INTERVALS = (
    (0.9999999999999999, 1.0),  # 1 ulp at the top
    (0.5, 0.5000000000000001),  # 1 ulp in the middle
    (0.1, 0.45),
    (2.0**-40, 3 * 2.0**-40),  # near 0
    (0.0, 1e-300),
)
# Every tail's first term lies in the normal range, where the certificate
# holds: past it a modulus that underflows is reported as 0.
TAIL_CHAINS = (
    FOLD_CHAINS[0],
    FOLD_CHAINS[2],
    (10, (("exponential", 1), ("uniform", -2), ("half_gaussian", 3), ("exponential", -1)), 1),
    (3, (("uniform", 1), ("uniform", -1)), 1),
    (2, (("exponential", 1), ("half_gaussian", 1)), 1),
    (16, (("half_gaussian", 1), ("uniform", -2)), 8),
    (10, (("uniform", 1),), 64),
    (10, (("uniform", 1), ("uniform", 3)), 1024),
)

mp.mp.dps = 50


def exact_mellin(family: str, n: int, base: int):
    """M f(1 - iw) at w = 2*pi*n/ln B, n = R*l with the sign of R."""
    w = 2 * mp.pi * n / mp.log(base)
    if family == "exponential":
        return mp.gamma(mp.mpc(1, -w))
    if family == "uniform":
        return 1 / mp.mpc(1, -w)
    return mp.gamma(mp.mpc(0.5, -w / 2)) / mp.sqrt(mp.pi)


def exact_modulus(family: str, n: int, base: int):
    """|M f(1 - iw)| at w = 2*pi*n/ln B."""
    return abs(exact_mellin(family, n, base))


def chain_modulus(base: int, links, ell: int):
    chain = ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))
    out = mp.mpf(1)
    for (family, _), r in zip(links, cumulative_powers(chain)):
        out *= exact_modulus(family, abs(r) * ell, base)
    return out


def chain_value(base: int, links, ell: int):
    chain = ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))
    out = mp.mpc(1)
    for (family, _), r in zip(links, cumulative_powers(chain)):
        out *= exact_mellin(family, r * ell, base)
    return out


def fold_sum(base: int, links, L: int, a: float, b: float):
    """(b - a) + 2 * sum_{l=1..L} Re(c_l * I_l), I_l = (e^(2 pi i b l) - e^(2 pi i a l))/(2 pi i l)."""
    with mp.workdps(70):
        a, b = mp.mpf(a), mp.mpf(b)  # the doubles exactly
        total = b - a
        for ell in range(1, L + 1):
            i_ell = (mp.expj(2 * mp.pi * b * ell) - mp.expj(2 * mp.pi * a * ell)) / (2j * mp.pi * ell)
            total += 2 * mp.re(chain_value(base, links, ell) * i_ell)
        return total


def explicit_tail(base: int, links, L: int):
    """sum_{L < l <= max(2L, 256)} |c_l|."""
    return mp.fsum(chain_modulus(base, links, ell) for ell in range(L + 1, max(2 * L, 256) + 1))


def draw_chain(rng: random.Random):
    """(base, links, l) with 1-6 links, powers +-1..+-9, bases 2..1000."""
    base = rng.randint(2, 1000)
    count = rng.randint(1, 6)
    links = tuple(
        (rng.choice(FAMILIES), 1 if i == 0 else rng.choice(POWERS)) for i in range(count)
    )
    return base, links, rng.choice(ELLS)


def main() -> None:
    rng = random.Random(20261019)
    chain_cases = []
    while len(chain_cases) < CHAIN_CASES:
        base, links, ell = draw_chain(rng)
        exact = chain_modulus(base, links, ell)
        if exact >= SMALLEST:
            chain_cases.append((base, links, ell, exact))

    family_cases = []
    for family in FAMILIES:
        while sum(case[0] == family for case in family_cases) < FAMILY_CASES:
            base = rng.choice([2, 3, 10, 16, 1000, rng.randint(2, 10**6)])
            n_max = max(1, int(W_MAX[family] * math.log(base) / (2 * math.pi)))
            n = rng.randint(1, n_max if rng.random() < 0.7 else min(n_max, 50))
            family_cases.append((family, base, n, exact_modulus(family, n, base)))

    lines = [
        '"""Chain spectra, moduli and Gamma phases frozen to 40 significant digits.',
        "",
        "Written by tests/freeze_moduli.py (mpmath at 50 digits, from the Mellin",
        "transforms, not the package's closed forms); do not edit by hand.",
        '"""',
        "",
        "# (base, ((family, power), ...), l, |c_l|): 1-6 links of exponential,",
        "# uniform and half_gaussian, powers +-1..+-9, bases 2..1000,",
        "# l in 1..199, 300, 500, 1000; every |c_l| >= 1e-290.",
        "CHAIN_MODULI = (",
    ]
    for base, links, ell, exact in chain_cases:
        lines.append(f'    ({base}, {links!r}, {ell}, "{mp.nstr(exact, 40)}"),')
    lines += [
        ")",
        "",
        "# (family, base, n, |M f(1 - iw)|) at w = 2*pi*n/ln B, one link.",
        "FAMILY_MODULI = (",
    ]
    for family, base, n, exact in family_cases:
        lines.append(f'    ("{family}", {base}, {n}, "{mp.nstr(exact, 40)}"),')
    lines += [
        ")",
        "",
        "# (Re c_l, Im c_l) of the chains of CHAIN_MODULI, in their order.",
        "CHAIN_VALUES = (",
    ]
    for base, links, ell, _ in chain_cases:
        c = chain_value(base, links, ell)
        lines.append(f'    ("{mp.nstr(c.real, 40)}", "{mp.nstr(c.imag, 40)}"),')
    lines += [
        ")",
        "",
        "# (x, y, Im lnGamma(x + iy)), the continuous branch that is 0 at y = 0.",
        "ARG_GAMMA = (",
    ]
    for x in ARG_GAMMA_X:
        for y in ARG_GAMMA_Y:
            lines.append(f'    ({x}, {y}, "{mp.nstr(mp.loggamma(mp.mpc(x, y)).imag, 40)}"),')
    lines += [
        ")",
        "",
        f"# |1/(1 - iw)| at w = 2*pi*l/ln 10 for l = {UNIFORM_FAR_ELLS.start}, ... in order.",
        "UNIFORM_FAR_MODULI = (",
    ]
    for ell in UNIFORM_FAR_ELLS:
        lines.append(f'    "{mp.nstr(exact_modulus("uniform", ell, 10), 40)}",')
    lines += [
        ")",
        "",
        "# (base, links, L, float.hex(a), float.hex(b), (b - a) + 2 * sum_{l <= L}",
        "# Re(c_l I_l)) from the exact c_l and the exact endpoints.",
        "FOLD_SUMS = (",
    ]
    for base, links, L in FOLD_CHAINS:
        for a, b in FOLD_INTERVALS:
            exact = mp.nstr(fold_sum(base, links, L, a, b), 40)
            lines.append(f'    ({base}, {links!r}, {L}, "{a.hex()}", "{b.hex()}", "{exact}"),')
    lines += [
        ")",
        "",
        "# (base, links, L, sum_{L < l <= L2} |c_l|), L2 = max(2L, 256).",
        "EXPLICIT_TAILS = (",
    ]
    for base, links, L in TAIL_CHAINS:
        lines.append(f'    ({base}, {links!r}, {L}, "{mp.nstr(explicit_tail(base, links, L), 40)}"),')
    lines += [")", ""]
    OUT.write_text("\n".join(lines))
    print(f"wrote {OUT}: {len(chain_cases)} chain moduli and values, {len(family_cases)} family"
          f" moduli, {len(ARG_GAMMA_X) * len(ARG_GAMMA_Y)} phases, {len(UNIFORM_FAR_ELLS)} far uniform moduli,"
          f" {len(FOLD_CHAINS) * len(FOLD_INTERVALS)} fold sums, {len(TAIL_CHAINS)} explicit tails")


if __name__ == "__main__":
    main()
