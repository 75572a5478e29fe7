"""Regenerate tests/frozen_moduli.py: chain spectrum moduli to 40 digits.

Run from the root of a checkout:

    PYTHONPATH=src python tests/freeze_moduli.py

It needs mpmath, which neither the package nor its test suite uses, and
exits with a message when mpmath is missing.  The moduli come from the
Mellin transforms themselves, evaluated by mpmath at 50 digits:
|Gamma(1 - iw)| (exponential), |1/(1 - iw)| (uniform) and
|Gamma(1/2 - iw/2)|/sqrt(pi) (half-Gaussian), at w = 2*pi*|R|*l/ln B with
the exact R, l and B, not from the closed forms the package computes.
The draws are seeded, so a rerun writes the same file.
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

import numpy as np

from benford_chains import chains
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

mp.mp.dps = 50


def exact_modulus(family: str, n: int, base: int):
    """|M f(1 - iw)| at w = 2*pi*n/ln B, n = |R|*l."""
    w = 2 * mp.pi * n / mp.log(base)
    if family == "exponential":
        return abs(mp.gamma(mp.mpc(1, -w)))
    if family == "uniform":
        return 1 / abs(mp.mpc(1, -w))
    return abs(mp.gamma(mp.mpc(0.5, -w / 2))) / mp.sqrt(mp.pi)


def chain_modulus(base: int, links, ell: int):
    chain = ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))
    out = mp.mpf(1)
    for (family, _), r in zip(links, cumulative_powers(chain)):
        out *= exact_modulus(family, abs(r) * ell, base)
    return out


def draw_chain(rng: random.Random):
    """(base, links, l) with 1-6 links, powers +-1..+-9, bases 2..1000."""
    base = rng.randint(2, 1000)
    count = rng.randint(1, 6)
    links = tuple(
        (rng.choice(FAMILIES), 1 if i == 0 else rng.choice(POWERS)) for i in range(count)
    )
    return base, links, rng.choice(ELLS)


def hypot_modulus(base: int, links, ell: int) -> float:
    """|c_l| as the bound took it before the closed-form moduli: hypot of the spectrum."""
    chain = ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))
    support = np.hypot(*chains._spectrum(chain, ell))
    return float(support[ell - 1]) if support.size == ell else 0.0


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

    # The case where hypot of the spectrum falls furthest below the exact
    # modulus (relative): the bound before the closed-form moduli was not
    # an upper bound there.
    undershoot = [
        (float((exact - hypot_modulus(base, links, ell)) / exact), i)
        for i, (base, links, ell, exact) in enumerate(chain_cases)
    ]
    worst, index = max(undershoot)
    if worst <= 0.0:
        sys.exit("no frozen case has the hypot modulus below the exact value")

    lines = [
        '"""Chain spectrum moduli frozen to 40 significant digits.',
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
        "# Index into CHAIN_MODULI of the case where hypot of the spectrum lay",
        f"# furthest below the exact modulus, by {worst:.3g} relative.",
        f"HYPOT_BELOW = {index}",
        "",
    ]
    OUT.write_text("\n".join(lines))
    print(f"wrote {OUT}: {len(chain_cases)} chain and {len(family_cases)} family moduli;"
          f" hypot below the exact value in {sum(u > 0 for u, _ in undershoot)} chain cases")


if __name__ == "__main__":
    main()
