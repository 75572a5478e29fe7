"""Each query evaluates the chain's certified moduli once: deviation_bound
and fold_probability make one pass over 1..max(2L, 256), whose first L
moduli feed the bound's sum or the fold's series and whose rest is the
explicit tail; the majorants only close the tail past L2, one vector call
per family at |R| * L2.  A digit table computes no tail, and a base-2
table or a fold of width 0 or 1 computes no spectrum at all."""

import numpy as np
import pytest

from benford_chains import chains
from benford_chains.chains import (
    ChainLink,
    ChainSpec,
    FoldInterval,
    deviation_bound,
    first_digit_probabilities,
    fold_probability,
)
from benford_chains.families import Family

LINKS = [("exponential", 1), ("uniform", -2), ("half_gaussian", 3), ("exponential", -1), ("uniform", 1)]


@pytest.fixture
def spy(monkeypatch):
    """(passes, majorants): each _products call as (kernel, first, last), and
    each majorant call as (family, sorted arguments)."""
    passes, majorants = [], []
    products, majorant = chains._products, Family.majorant

    def spying_products(chain, ells, kernel):
        passes.append((kernel, int(ells[0]), int(ells[-1])))
        return products(chain, ells, kernel)

    def spying_majorant(family, ells, base):
        majorants.append((family.name, sorted(np.ravel(ells).tolist())))
        return majorant(family, ells, base)

    monkeypatch.setattr(chains, "_products", spying_products)
    monkeypatch.setattr(Family, "majorant", spying_majorant)
    return passes, majorants


def build(base, links):
    return ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))


@pytest.mark.parametrize("L", [1, 64, 200, 1024])
@pytest.mark.parametrize("query", [deviation_bound, fold_probability])
def test_a_bound_or_a_fold_makes_one_moduli_pass_and_one_majorant_call_per_family(spy, query, L):
    passes, majorants = spy
    chain = build(10, LINKS)
    query(chain, FoldInterval(0.1, 0.45), L)
    L2 = max(2 * L, 256)
    assert passes == [(Family.certified_modulus, 1, L2)]
    # one call per family, in the _factors order, at |R| * L2 for its links
    expected = {}
    for family, r in chain._factors:
        expected.setdefault(family.name, []).append(float(abs(r) * L2))
    assert majorants == [(name, sorted(args)) for name, args in expected.items()]


def test_a_digit_table_makes_one_moduli_pass_and_no_majorant_call(spy):
    passes, majorants = spy
    first_digit_probabilities(build(10, LINKS), 64)
    assert passes == [(Family.certified_modulus, 1, 64)]
    assert majorants == []


def test_a_base_2_table_and_a_width_0_or_1_fold_compute_no_spectrum(spy):
    passes, majorants = spy
    assert first_digit_probabilities(build(2, LINKS), 64) == [1.0]
    chain = build(10, LINKS)
    assert fold_probability(chain, FoldInterval(0.0, 1.0), 64) == (1.0, 0.0)
    assert fold_probability(chain, FoldInterval(0.3, 0.3), 64) == (0.0, 0.0)
    assert passes == [] and majorants == []
