"""Bitwise regression guard for the analytic and empirical outputs and CLI output.

The analytic values below were taken from the implementation before the
spectrum was shared across consumers; any later rewrite of the analytic
core must reproduce them bit for bit (float.hex for scalars, sha256 over
float.hex for sequences, sha256 over the exact stdout bytes for the CLI).
The empirical values further down are frozen the same way.

Chains with exponential or half-Gaussian links moved when complex Gamma
left scipy for numpy.  Their new values are pinned in REPINNED and
CLI_REPINNED; the old pins stay, as a check that the old values (frozen
scalars, and the scalar reference's sequences, whose digests equal the old
ones) lie within 1e-12 relative of the new values.

The deviation_bound value and per_term moduli of every chain with a nonzero
spectrum moved once more, to the certified closed-form moduli.  They are
pinned in BOUND_REPINNED and CLI_BOUND_REPINNED.

The spectrum then became polar, the certified moduli times e^(i*phase), and
the uniform majorant gained a rounding pad.  The outputs that moved, fold
and digit values of uniform chains and the tails (so the fold errors and
bound values) of chains with uniform links, are pinned in POLAR_REPINNED
and CLI_POLAR_REPINNED.  The code of the complex-Gamma spectrum is gone, so
the pins in between are no longer reproduced; every earlier scalar pin
stays as a check within 1e-12 relative of the new value, and the scalar
reference, which reproduces the oldest sequence and stdout pins bit for
bit, checks the sequences and the stdout the same way.

The tails then took the certified moduli up to max(2L, 256) in place of the
majorants, and the fold error gained a bound on the series' rounding.  The
bound values, tails and fold errors that moved are pinned in TAIL_REPINNED
and CLI_TAIL_REPINNED; every fold probability and digit table kept its
bits.  The earlier pins of those three stay as a check: each new tail and
bound value lies at or below the old one within the derived rounding slack
(full_spectrum.tail_slack, and the 1e-12 of the moves before), and each new
fold error within that slack plus its rounding bound.

|Gamma(1 + ix)| then took one exp-scaled form for every x in place of two
branches.  The entries that moved, the mixed_negative bound tail at L = 1,
its per_term digests at L = 64 and 1024 and its bound stdout at both --lmax,
are pinned in GAMMA_REPINNED and CLI_GAMMA_REPINNED, and every earlier pin
stays as a check within the same slack.

The tails then closed past max(2L, 256) from each link's certified modulus
there, times the constant c of its family's ratio law, in place of the
family majorants.  The fold errors and tails that moved, those of the
chains with uniform links at L = 64 and 1024, are pinned in
ANCHOR_REPINNED and CLI_ANCHOR_REPINNED, and the seeded stream in
STREAM_PINNED; every earlier pin stays as the same check, and no fold
probability, digit table or modulus moved.

PYTHONPATH=src python tests/test_pinned_outputs.py --print prints each pin
key's value today in the tables' literal syntax, marking the keys that
differ from their effective pin, so a re-pin copies the marked entries.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import benford_chains
import full_spectrum
import scalar_reference
from benford_chains import chains, cli
from benford_chains.chains import (
    ChainLink,
    ChainSpec,
    FoldInterval,
    deviation_bound,
    first_digit_probabilities,
    fold_probability,
)
from benford_chains.montecarlo import BLOCK_SIZE, batch_mantissas, product_batch, sample_batch

# name -> (base, [(family, power), ...])
CHAINS = {
    "benford_link": (10, [("exponential", 1), ("benford", 2), ("uniform", 1)]),
    "single_uniform": (10, [("uniform", 1)]),
    "base2": (2, [("exponential", 1), ("half_gaussian", 1)]),
    "mixed_negative": (10, [("exponential", 1), ("uniform", -2), ("half_gaussian", 3), ("exponential", -1)]),
    "uniform_pair": (3, [("uniform", 1), ("uniform", -1)]),
}
INTERVAL = (0.1, 0.45)

# (chain, L) -> (bound value, bound tail, digest of per_term,
#                fold probability, fold error, digest of digit table)
PINNED = {
    ("benford_link", 1): (
        "0x0.0p+0",
        "0x0.0p+0",
        "23f9b93325f49139fd73c2e751dec5b244a884b87d0f53397b1a1c280ddc11b2",
        "0x1.6666666666666p-2",
        "0x0.0p+0",
        "5492a54825933f35fdaa097629a8a92304dc297675cfd00827b4efeaee4b27e2",
    ),
    ("benford_link", 64): (
        "0x0.0p+0",
        "0x0.0p+0",
        "bce83fe5faed452827c2e49255e078b00eb627479a1a50713f70a293c91d3137",
        "0x1.6666666666666p-2",
        "0x0.0p+0",
        "5492a54825933f35fdaa097629a8a92304dc297675cfd00827b4efeaee4b27e2",
    ),
    ("benford_link", 1024): (
        "0x0.0p+0",
        "0x0.0p+0",
        "be69a6c86f112c4d9dd39ad25d37afbb5c36dcb8e003b7fc13e0abc73578d4be",
        "0x1.6666666666666p-2",
        "0x0.0p+0",
        "5492a54825933f35fdaa097629a8a92304dc297675cfd00827b4efeaee4b27e2",
    ),
    ("single_uniform", 1): (
        "inf",
        "inf",
        "211f6de15073c99d099352c9cb574a83a231f1a281139d697e0b74648fd9c138",
        "0x1.4496257eb89c7p-3",
        "0x1.3427286ae8be3p-3",
        "4f46d09e2f257e89f8577bb14326a2a18207eb8b57ac741dfcb260aa9f80a702",
    ),
    ("single_uniform", 64): (
        "inf",
        "inf",
        "eb29456da5026fee7cc5d14d87249aaaa2961ddf7ab3774f2c5b60ec75daa8b9",
        "0x1.62d591a1d8483p-3",
        "0x1.da51c11552657p-9",
        "0682356558297ffbb322848736c49f65afc07ad608973ce75d77816faa45975d",
    ),
    ("single_uniform", 1024): (
        "inf",
        "inf",
        "cb629fad2bead5996547ed662f93a8914e4be96669a30dad5eeb6240366f7cc7",
        "0x1.62dcf5c5d16efp-3",
        "0x1.dd9ff3f366240p-13",
        "005d5bcf3717384cfd7fa5883192b412fa18767a64cbade9f11bb1b9a66db390",
    ),
    ("base2", 1): (
        "0x1.1013d24d5d139p-28",
        "0x1.3bf91a8ad9c5ap-57",
        "72b33dde1ab8965c605c13443ffaca6ddadee2733ae9c4072014e5faf18fd6d0",
        "0x1.6666669b756d4p-2",
        "0x1.924f349d24558p-60",
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ),
    ("base2", 64): (
        "0x1.1013d24d54244p-28",
        "0x0.0p+0",
        "b8fa5fc36b55102fcc152b4fe52cfea40540736dd5a5c93471dbe8b3faca665b",
        "0x1.6666669b756d4p-2",
        "0x0.0p+0",
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ),
    ("base2", 1024): (
        "0x1.1013d24d54244p-28",
        "0x0.0p+0",
        "a73b2d867f735964658078bc6558b15301609d7eeeb80469203544e6fe6bf85f",
        "0x1.6666669b756d4p-2",
        "0x0.0p+0",
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ),
    ("mixed_negative", 1): (
        "0x1.f033ab0bea5f3p-45",
        "0x1.157c7673df81dp-89",
        "c6944497d7a37d786b7aa83cdab710a40878b1dc468fb580e0900e2a92d42852",
        "0x1.6666666666980p-2",
        "0x1.614e6ef596238p-92",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
    ("mixed_negative", 64): (
        "0x1.f033ab0bea5f3p-45",
        "0x0.0p+0",
        "0d1f92b77c9a5594a560c090ce5c3b5ce86b73670762a07ca9afcac97e03be93",
        "0x1.6666666666980p-2",
        "0x0.0p+0",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
    ("mixed_negative", 1024): (
        "0x1.f033ab0bea5f3p-45",
        "0x0.0p+0",
        "00abd2d9f42c9f209b7bd5579800792ff085431eee29516b289992aa0663ddf7",
        "0x1.6666666666980p-2",
        "0x0.0p+0",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
    ("uniform_pair", 1): (
        "0x1.1b2e4f98f3fc8p-5",
        "0x1.430cc397fac41p-5",
        "371ac96eb5dec96372adf1b6b3052d1b816e98f7be4ecb00ad7e5000a90380a1",
        "0x1.63b4582f03822p-2",
        "0x1.01ba93ad48bf8p-8",
        "b43bbe45e46755e7e5cbde5073f5c7980157e2a6f0b64850648e3f4f7f59f440",
    ),
    ("uniform_pair", 64): (
        "0x1.1abe1440996b6p-5",
        "0x1.f13fc8d471943p-11",
        "eef0f58d1ad6037a4bef978faabfd9af0428fc5611f2f1e0ae117bf09921ba12",
        "0x1.61a1874728742p-2",
        "0x1.3a03f9e0a8d50p-19",
        "70d077680b47eb12bc5826a61a48a67afb8df4422d6dd5fc68bd77b6a23e2d17",
    ),
    ("uniform_pair", 1024): (
        "0x1.1abdbda481f02p-5",
        "0x1.f4b6e3fdee960p-15",
        "8320a03c9742693b4c135682e01ed2ab4183a5b316eb864f2e54bdca64e8ca24",
        "0x1.61a18c2063424p-2",
        "0x1.3e9bed76a792fp-27",
        "2081dc47b8b48a0eeb9e72b55409cc25bfaa0d7e33680623bb5849f81611a074",
    ),
}

# Pins of PINNED entries that moved with the numpy Gamma: the bound value
# and the per_term moduli of chains with exponential or half-Gaussian links
# (the per_term digests are a record: the code that made them is gone).
REPINNED = {
    ("base2", 1): (
        "0x1.1013d24d5d128p-28",
        "0x1.3bf91a8ad9c5ap-57",
        "4fae8663ab8ea0a0f51b1fa717e922b8d5e7d2467d84e1e6c313e1f553233aac",
        "0x1.6666669b756d4p-2",
        "0x1.924f349d24558p-60",
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ),
    ("base2", 64): (
        "0x1.1013d24d54232p-28",
        "0x0.0p+0",
        "d4c17f29df800fabdf21e8d7386864cf93bf00c5642063feb6c90c507ae0c82b",
        "0x1.6666669b756d4p-2",
        "0x0.0p+0",
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ),
    ("base2", 1024): (
        "0x1.1013d24d54232p-28",
        "0x0.0p+0",
        "557c7be26441a96da4f2b2462ac1ca5e4980a26550162d24dc2811d9437ba5e4",
        "0x1.6666669b756d4p-2",
        "0x0.0p+0",
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ),
    ("mixed_negative", 1): (
        "0x1.f033ab0bea603p-45",
        "0x1.157c7673df81dp-89",
        "64de3d05b8f5ce6ec8f9df25438847aa883080c74ea40dec7b2fc213629d7937",
        "0x1.6666666666980p-2",
        "0x1.614e6ef596238p-92",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
    ("mixed_negative", 64): (
        "0x1.f033ab0bea603p-45",
        "0x0.0p+0",
        "9041bd21d6609eeb68b0cf1fc27d0c6769e6f59ba67ff22e4bbaab52a1c8c5d9",
        "0x1.6666666666980p-2",
        "0x0.0p+0",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
    ("mixed_negative", 1024): (
        "0x1.f033ab0bea603p-45",
        "0x0.0p+0",
        "859090e57cb77ebd965f08cb38061d499ffb2a5f06491a1b8f50fc403e9a24e8",
        "0x1.6666666666980p-2",
        "0x0.0p+0",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
}

# (chain, L) -> (bound value, digest of per_term) since the certified
# closed-form moduli; the other four entries of PINNED/REPINNED keep their bits.
BOUND_REPINNED = {
    ("base2", 1): ("0x1.1013d24d5d1a7p-28", "26e7aa11f248c601d64ffff67f7dad3b0eb04c475475cb591ff631b92aab92d1"),
    ("base2", 64): ("0x1.1013d24d542b2p-28", "edd362671a232b552378962038c8008243bb2cdaca0b64bcfc51babf6d65b655"),
    ("base2", 1024): ("0x1.1013d24d542b2p-28", "411bab83d5107e0c339ac18145cc9455db6730a1799a90850e82c722210b07f9"),
    ("benford_link", 1): ("0x0.0p+0", "23f9b93325f49139fd73c2e751dec5b244a884b87d0f53397b1a1c280ddc11b2"),
    ("benford_link", 64): ("0x0.0p+0", "bce83fe5faed452827c2e49255e078b00eb627479a1a50713f70a293c91d3137"),
    ("benford_link", 1024): ("0x0.0p+0", "be69a6c86f112c4d9dd39ad25d37afbb5c36dcb8e003b7fc13e0abc73578d4be"),
    ("mixed_negative", 1): ("0x1.f033ab0bea74ep-45", "e0fcfadca3d1de0dca10359079443687abbf71e9210100e9b3aac430d3bad314"),
    ("mixed_negative", 64): ("0x1.f033ab0bea74ep-45", "e0cbb56dee6288d4e77a1e092ab92867715a46785ca5de6f53f13231a9add613"),
    ("mixed_negative", 1024): ("0x1.f033ab0bea74ep-45", "8e5cbb5051a6b8253e5edc34d0be0092cd539f075349307c472eb2958d90871a"),
    ("single_uniform", 1): ("inf", "eb71900de6d82eb0f90c3fd1fc2aae764e59996014b3f3d28309facf19228a30"),
    ("single_uniform", 64): ("inf", "19e9f6c5a93af0e515ae7d56de962bcd6ba6bc6aa37c1251a1d84d097e65fa43"),
    ("single_uniform", 1024): ("inf", "79b54ed7e800fa93ae75389e6741c224221e069410560fcd18b72656d781ecd1"),
    ("uniform_pair", 1): ("0x1.1b2e4f98f3fdbp-5", "1180fd7fbccbd69460b5a276564ed5e1ef6f6b0142782e5924dcae6db0997b9f"),
    ("uniform_pair", 64): ("0x1.1abe1440996d2p-5", "8271d0801824ff7b43a848b247e0a71f867d66cab1769bd85af52a3647884c74"),
    ("uniform_pair", 1024): ("0x1.1abdbda481f1fp-5", "f07ad63f67521451d463eb99a2500949823bc9e33c3db2f8153891e450d9ccdb"),
}

# (chain, L) -> all six entries since the polar spectrum and the padded
# uniform majorant, where any moved; the other entries keep their bits.
POLAR_REPINNED = {
    ("mixed_negative", 1): (
        "0x1.f033ab0bea74ep-45",
        "0x1.157c7673df821p-89",
        "e0fcfadca3d1de0dca10359079443687abbf71e9210100e9b3aac430d3bad314",
        "0x1.6666666666980p-2",
        "0x1.614e6ef59623dp-92",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
    ("single_uniform", 1): (
        "inf",
        "inf",
        "eb71900de6d82eb0f90c3fd1fc2aae764e59996014b3f3d28309facf19228a30",
        "0x1.4496257eb89b7p-3",
        "0x1.3427286ae8be8p-3",
        "0cfd8f322369f2030fc915dcc267811860d045490a128fff3b41459b57d164b4",
    ),
    ("single_uniform", 64): (
        "inf",
        "inf",
        "19e9f6c5a93af0e515ae7d56de962bcd6ba6bc6aa37c1251a1d84d097e65fa43",
        "0x1.62d591a1d8477p-3",
        "0x1.da51c1155265fp-9",
        "ccd59b7393535a383e8f424833e08f29f7b055cbd554a08785fc60627f1ef451",
    ),
    ("single_uniform", 1024): (
        "inf",
        "inf",
        "79b54ed7e800fa93ae75389e6741c224221e069410560fcd18b72656d781ecd1",
        "0x1.62dcf5c5d16e3p-3",
        "0x1.dd9ff3f366248p-13",
        "f30713fc16e7370a9735057c76639947af9dafdfe96e596e39396dbc1fbb81fe",
    ),
    ("uniform_pair", 1): (
        "0x1.1b2e4f98f3fdfp-5",
        "0x1.430cc397fac4bp-5",
        "1180fd7fbccbd69460b5a276564ed5e1ef6f6b0142782e5924dcae6db0997b9f",
        "0x1.63b4582f03821p-2",
        "0x1.01ba93ad48c01p-8",
        "b6c54972635558ee4d8fd7cd7ad13ade35ad92c68b2d020036f8c97e10ed7d88",
    ),
    ("uniform_pair", 64): (
        "0x1.1abe1440996d2p-5",
        "0x1.f13fc8d471952p-11",
        "8271d0801824ff7b43a848b247e0a71f867d66cab1769bd85af52a3647884c74",
        "0x1.61a1874728742p-2",
        "0x1.3a03f9e0a8d5ap-19",
        "1a1a81e5fe0970e981f17508c11c2c5e53459860f68a4801f4acf85c1b9961e1",
    ),
    ("uniform_pair", 1024): (
        "0x1.1abdbda481f1fp-5",
        "0x1.f4b6e3fdee970p-15",
        "f07ad63f67521451d463eb99a2500949823bc9e33c3db2f8153891e450d9ccdb",
        "0x1.61a18c2063424p-2",
        "0x1.3e9bed76a793ap-27",
        "e0b7a9df97d8b3a6ea24dda704efb5cda2580e5bcb38943ce3343dd377b06f00",
    ),
}

# (chain, L) -> all six entries since the tails took the certified moduli
# up to max(2L, 256) and the fold error its rounding bound, where any
# moved; the other entries keep their bits.
TAIL_REPINNED = {
    ("base2", 1): (
        "0x1.1013d24d542b2p-28",
        "0x1.38c834ff9941bp-57",
        "26e7aa11f248c601d64ffff67f7dad3b0eb04c475475cb591ff631b92aab92d1",
        "0x1.6666669b756d4p-2",
        "0x1.6ca041f4844e6p-54",
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ),
    ("base2", 64): (
        "0x1.1013d24d542b2p-28",
        "0x0.0p+0",
        "edd362671a232b552378962038c8008243bb2cdaca0b64bcfc51babf6d65b655",
        "0x1.6666669b756d4p-2",
        "0x1.66674e2e22fa7p-54",
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ),
    ("base2", 1024): (
        "0x1.1013d24d542b2p-28",
        "0x0.0p+0",
        "411bab83d5107e0c339ac18145cc9455db6730a1799a90850e82c722210b07f9",
        "0x1.6666669b756d4p-2",
        "0x1.66674e2e22fa7p-54",
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    ),
    ("mixed_negative", 1): (
        "0x1.f033ab0bea74ep-45",
        "0x1.121e3bea53603p-89",
        "e0fcfadca3d1de0dca10359079443687abbf71e9210100e9b3aac430d3bad314",
        "0x1.6666666666980p-2",
        "0x1.66666667f1b37p-54",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
    ("mixed_negative", 64): (
        "0x1.f033ab0bea74ep-45",
        "0x0.0p+0",
        "e0cbb56dee6288d4e77a1e092ab92867715a46785ca5de6f53f13231a9add613",
        "0x1.6666666666980p-2",
        "0x1.66666667f1567p-54",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
    ("mixed_negative", 1024): (
        "0x1.f033ab0bea74ep-45",
        "0x0.0p+0",
        "8e5cbb5051a6b8253e5edc34d0be0092cd539f075349307c472eb2958d90871a",
        "0x1.6666666666980p-2",
        "0x1.66666667f1567p-54",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
    ("single_uniform", 1): (
        "inf",
        "inf",
        "eb71900de6d82eb0f90c3fd1fc2aae764e59996014b3f3d28309facf19228a30",
        "0x1.4496257eb89b7p-3",
        "0x1.3190fa6900badp-3",
        "0cfd8f322369f2030fc915dcc267811860d045490a128fff3b41459b57d164b4",
    ),
    ("single_uniform", 64): (
        "inf",
        "inf",
        "19e9f6c5a93af0e515ae7d56de962bcd6ba6bc6aa37c1251a1d84d097e65fa43",
        "0x1.62d591a1d8477p-3",
        "0x1.da511c9937d5ap-9",
        "ccd59b7393535a383e8f424833e08f29f7b055cbd554a08785fc60627f1ef451",
    ),
    ("single_uniform", 1024): (
        "inf",
        "inf",
        "79b54ed7e800fa93ae75389e6741c224221e069410560fcd18b72656d781ecd1",
        "0x1.62dcf5c5d16e3p-3",
        "0x1.dd9ff362bdae7p-13",
        "f30713fc16e7370a9735057c76639947af9dafdfe96e596e39396dbc1fbb81fe",
    ),
    ("uniform_pair", 1): (
        "0x1.1abe13d2afa67p-5",
        "0x1.41cc18cf3781ap-5",
        "1180fd7fbccbd69460b5a276564ed5e1ef6f6b0142782e5924dcae6db0997b9f",
        "0x1.63b4582f03821p-2",
        "0x1.004c7581699b0p-8",
        "b6c54972635558ee4d8fd7cd7ad13ade35ad92c68b2d020036f8c97e10ed7d88",
    ),
    ("uniform_pair", 64): (
        "0x1.1abe13d2afa67p-5",
        "0x1.f13f7a5208374p-11",
        "8271d0801824ff7b43a848b247e0a71f867d66cab1769bd85af52a3647884c74",
        "0x1.61a1874728742p-2",
        "0x1.3a03aea22f591p-19",
        "1a1a81e5fe0970e981f17508c11c2c5e53459860f68a4801f4acf85c1b9961e1",
    ),
    ("uniform_pair", 1024): (
        "0x1.1abdbda47bb3bp-5",
        "0x1.f4b6e3b694994p-15",
        "f07ad63f67521451d463eb99a2500949823bc9e33c3db2f8153891e450d9ccdb",
        "0x1.61a18c2063424p-2",
        "0x1.3e9c02dabccdcp-27",
        "e0b7a9df97d8b3a6ea24dda704efb5cda2580e5bcb38943ce3343dd377b06f00",
    ),
}

# (chain, L) -> all six entries since |Gamma(1 + ix)| took one exp-scaled
# form for every x, where any moved; the other entries keep their bits.
GAMMA_REPINNED = {
    ("mixed_negative", 1): (
        "0x1.f033ab0bea74ep-45",
        "0x1.121e3bea53602p-89",
        "e0fcfadca3d1de0dca10359079443687abbf71e9210100e9b3aac430d3bad314",
        "0x1.6666666666980p-2",
        "0x1.66666667f1b37p-54",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
    ("mixed_negative", 64): (
        "0x1.f033ab0bea74ep-45",
        "0x0.0p+0",
        "9ff0691c24dfc0c654dfd2d8a9ff03dcb19362b2325805bdb9ed73fa93cefa49",
        "0x1.6666666666980p-2",
        "0x1.66666667f1567p-54",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
    ("mixed_negative", 1024): (
        "0x1.f033ab0bea74ep-45",
        "0x0.0p+0",
        "87cf910f094a79cc8d1c2d5ccaca0c41791cb5eb23665735bcd233dec80a10ec",
        "0x1.6666666666980p-2",
        "0x1.66666667f1567p-54",
        "3312fa090b0293946485a97b56f7e8e768c9b928673c1fc13c757a040ab35342",
    ),
}

# (chain, L) -> all six entries since the tails closed from each link's
# certified modulus at max(2L, 256) times its constant c, where any moved;
# the other entries keep their bits.  Only fold errors and tails moved.
ANCHOR_REPINNED = {
    ("single_uniform", 64): (
        "inf",
        "inf",
        "19e9f6c5a93af0e515ae7d56de962bcd6ba6bc6aa37c1251a1d84d097e65fa43",
        "0x1.62d591a1d8477p-3",
        "0x1.da511c9937d5fp-9",
        "ccd59b7393535a383e8f424833e08f29f7b055cbd554a08785fc60627f1ef451",
    ),
    ("single_uniform", 1024): (
        "inf",
        "inf",
        "79b54ed7e800fa93ae75389e6741c224221e069410560fcd18b72656d781ecd1",
        "0x1.62dcf5c5d16e3p-3",
        "0x1.dd9ff362bdaf2p-13",
        "f30713fc16e7370a9735057c76639947af9dafdfe96e596e39396dbc1fbb81fe",
    ),
    ("uniform_pair", 64): (
        "0x1.1abe13d2afa67p-5",
        "0x1.f13f7a5208380p-11",
        "8271d0801824ff7b43a848b247e0a71f867d66cab1769bd85af52a3647884c74",
        "0x1.61a1874728742p-2",
        "0x1.3a03aea22f592p-19",
        "1a1a81e5fe0970e981f17508c11c2c5e53459860f68a4801f4acf85c1b9961e1",
    ),
    ("uniform_pair", 1024): (
        "0x1.1abdbda47bb3bp-5",
        "0x1.f4b6e3b6949acp-15",
        "f07ad63f67521451d463eb99a2500949823bc9e33c3db2f8153891e450d9ccdb",
        "0x1.61a18c2063424p-2",
        "0x1.3e9c02dabcce3p-27",
        "e0b7a9df97d8b3a6ea24dda704efb5cda2580e5bcb38943ce3343dd377b06f00",
    ),
}

# (chain, command, --lmax) -> sha256 of stdout, run on ./chain.json
CLI_PINNED = {
    ("mixed_negative", "bound", 64): "8d77d2a4228deb028d2490daab0745633d20bf31337b1646a30ee851ab0f72c3",
    ("mixed_negative", "bound", 1024): "838341ec33acaa922b9a9dc59c0cf92a082128598fb199a86f8cb0117fb54387",
    ("mixed_negative", "fold", 64): "cd210c7f2a8b7035b1d2f997829d6b57887c6f63adf8e93dd4ff9a3e0e2aac91",
    ("mixed_negative", "fold", 1024): "e142abd64430859918ab36d3e1f88f96cb4c253bb9d37f17d556d506ac8f61dc",
    ("mixed_negative", "digits", 64): "1232a199ee89b317b2f0a1e26b017b834453130fc93b65345c76ba210cacb1a4",
    ("mixed_negative", "digits", 1024): "eccd8c6d8cbb22d8cdec0c0c31be8f403669d78ecee74401732e6691e67969fb",
    ("uniform_pair", "bound", 64): "d2807600914d45b4c75dae279152721fb3da610935e3e9ae68908c19c6d11e8f",
    ("uniform_pair", "bound", 1024): "9a95bda920d0de0f541578ed3e8aa9bf1c219c314d1b5396f5f2969f85b14389",
    ("uniform_pair", "fold", 64): "ec6a25233a1ff1dfbf0506e0bf0ffefe35b2d2a649e35c4b3bbfe767be002b9e",
    ("uniform_pair", "fold", 1024): "a5afbfde7b98c18d770b88fa6773e9ea62f00db71146d15ebaa838d75e25e247",
    ("uniform_pair", "digits", 64): "8087707f9d2f0969d4d0a58ec71fb865893b04460cdccd6ba8e6c374f6ee6340",
    ("uniform_pair", "digits", 1024): "c33b266a04918918d765fade60ac2415bfae110f20bd24654aedc300e1a5d667",
}

# Pins of the bound stdout since the certified closed-form moduli.
CLI_BOUND_REPINNED = {
    ("mixed_negative", "bound", 64): "23aa70513554d74d6ad07341b7ddd719586c4a8e9908e31277c49ff625151b12",
    ("mixed_negative", "bound", 1024): "6487fe54bcc6772fe3a55065192cdeb7a37644d73c60f321f592f05ca7caf59b",
    ("uniform_pair", "bound", 64): "76134190936fb4af262f6785a313b8a1a0f496ae00340d275f285e2f96888b32",
    ("uniform_pair", "bound", 1024): "5b18954d074031fbd5c6691e62ed3de4344f8a42df3bd1ceac141e1683266895",
}

# Pins of the stdout since the polar spectrum and the padded uniform majorant.
CLI_POLAR_REPINNED = {
    ("uniform_pair", "bound", 64): "b6fced469a96e436cfba430ff0e9b215d171325104d03f022aa66ede3353c648",
    ("uniform_pair", "bound", 1024): "cb6c92e44dcda85c87915081d9bc2da8a9e526ff376e847d3a4d1eebe018bcdc",
    ("uniform_pair", "digits", 64): "ecd98b9ac344e1eddd5138c154de51dd56e2411fa7ab1ff75a7947944ddaedbb",
    ("uniform_pair", "digits", 1024): "ac91d0b6d6ff83f84351b3cb46a11d174a2971f0fc3345f92f7f1f5e7c8ff0de",
    ("uniform_pair", "fold", 64): "2906dfa3f3da9f6c6d8e28225b40455ec477411efd3d65ff68c3bcf7d2950c2c",
    ("uniform_pair", "fold", 1024): "c42535d5520cb4ab8afa3e30742005bdcadee8312be0d143e4160ee0f2749900",
}


# Pins of the stdout since the certified-moduli tails and the fold rounding bound.
CLI_TAIL_REPINNED = {
    ("mixed_negative", "fold", 64): "67711a7f5ae9c033ebecd3a42b9dd58766c2b66db539a05b082879838def7765",
    ("mixed_negative", "fold", 1024): "13f4306959b9ba1045fc4e0bfe2116a9c231ed36f533118cf08a6ad5978e9600",
    ("uniform_pair", "bound", 64): "d4d69ac124e2997d4c00901fad9b3aee2e0ef60c8a816531bc3e9e1a1e5d0d18",
    ("uniform_pair", "bound", 1024): "5a99764b797a012c7e402d28b25dfecb5cc888acf06de5c318b66b0f7ea1a2c6",
    ("uniform_pair", "fold", 64): "d91dd18b2c2c026f4002915f755a003000e5229d0c53c5c675bf7f93da8e9a56",
    ("uniform_pair", "fold", 1024): "cd36ec807fa0d70355fa6777d8c5c0b37922904a3f42390c2b73f8277b80acc2",
}

# Pins of the stdout since |Gamma(1 + ix)| took one exp-scaled form.
CLI_GAMMA_REPINNED = {
    ("mixed_negative", "bound", 64): "205ce8ebddf9fba9729693a169123af1e5f45c2da6339b5737852131709e50ea",
    ("mixed_negative", "bound", 1024): "e5fc13ace919c7f8c062b50c83a6e3ad390cecdaf0f835811726f9083b02b464",
}


# Pins of the stdout since the tails closed from the anchors.
CLI_ANCHOR_REPINNED = {
    ("uniform_pair", "bound", 64): "42a489fef801cf30d111d7fc24e456635368e14eeb130b3ffe054087de2e6c6a",
    ("uniform_pair", "bound", 1024): "4e40b0c7ebeb959799abae5056007cd9aeae7b71b874392cf929002815bdb206",
    ("uniform_pair", "fold", 64): "46b4b3ad3d056ed80918dd4443fa30296d8f682b9f4ad3aef3a3a95ca9f8434d",
    ("uniform_pair", "fold", 1024): "5ba6cc28e71e6ddb93edc890d2c5eb8b05b38aae5e3405fcea96167aeac0449e",
}


def cli_pin(key):
    """The stdout pin of a (chain, command, --lmax) key today."""
    for pins in (CLI_ANCHOR_REPINNED, CLI_GAMMA_REPINNED, CLI_TAIL_REPINNED, CLI_POLAR_REPINNED, CLI_BOUND_REPINNED):
        if key in pins:
            return pins[key]
    return CLI_PINNED[key]


def build(name):
    base, links = CHAINS[name]
    return ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))


def digest(floats):
    return hashlib.sha256(",".join(float.hex(x) for x in floats).encode()).hexdigest()


def per_term_digest(bound):
    return digest([x for ell, m in bound.per_term for x in (float(ell), m)])


def assert_within_1e12(new, old):
    assert len(new) == len(old)
    for i, (x, y) in enumerate(zip(new, old)):
        assert x == y or abs(x - y) <= 1e-12 * abs(y) + 1e-300, (i, x, y)


def fold_rounding(ch, iv, L, prob):
    """The fold error's rounding bound, the part of it no earlier pin holds."""
    moduli, _ = chains._moduli(ch, 1, L)
    return chains._fold_rounding(ch, iv, moduli * chains._round_up(len(ch.links)), prob)


def assert_within_slack(ch, new, old, extra=0.0):
    """new <= old within the tails' rounding slack and the 1e-12 of earlier moves."""
    assert new <= old * (1.0 + 1e-12) * full_spectrum.tail_slack(ch) + extra, (new, old)


def analytic_pins(name, L):
    """The six-entry pins of (chain, L), oldest first; the last is the effective pin."""
    key = (name, L)
    previous = REPINNED.get(key, PINNED[key])
    value, moduli = BOUND_REPINNED[key]
    before = (value, previous[1], moduli, *previous[3:])
    polar = POLAR_REPINNED.get(key, before)
    tail = TAIL_REPINNED.get(key, polar)
    gamma = GAMMA_REPINNED.get(key, tail)
    return [PINNED[key], previous, before, polar, tail, gamma, ANCHOR_REPINNED.get(key, gamma)]


def analytic_results(name, L):
    """(deviation_bound, fold probability, fold error, digit table) of a pinned chain."""
    ch = build(name)
    iv = FoldInterval(*INTERVAL)
    prob, err = fold_probability(ch, iv, L)
    return deviation_bound(ch, iv, L), prob, err, first_digit_probabilities(ch, L)


def pinned_form(bound, prob, err, digits):
    """The six entries of an analytic pin."""
    return (bound.value.hex(), bound.tail.hex(), per_term_digest(bound), prob.hex(), err.hex(), digest(digits))


@pytest.mark.parametrize("name,L", sorted(PINNED))
def test_analytic_outputs_are_bitwise_pinned(name, L):
    ch = build(name)
    iv = FoldInterval(*INTERVAL)
    bound, prob, err, digits = analytic_results(name, L)
    pins = analytic_pins(name, L)
    assert pinned_form(bound, prob, err, digits) == pins[-1]
    # Every earlier probability pin lies within 1e-12 relative of the new
    # one, and every earlier bound value, tail and fold error at or above
    # the new one within the rounding slack.
    rounding = 0.0 if iv.width in (0.0, 1.0) else fold_rounding(ch, iv, L, prob)
    for old in pins[:-1]:
        assert_within_1e12([prob], [float.fromhex(old[3])])
        assert_within_slack(ch, bound.value, float.fromhex(old[0]))
        assert_within_slack(ch, bound.tail, float.fromhex(old[1]))
        assert_within_slack(ch, err, float.fromhex(old[4]), rounding)
    # The scalar reference reproduces the oldest sequences, and the new ones
    # lie within 1e-12 relative of them.
    old_bound = scalar_reference.deviation_bound(ch, iv, L)
    old_digits = scalar_reference.first_digit_probabilities(ch, L)
    assert (per_term_digest(old_bound), digest(old_digits)) == (PINNED[name, L][2], PINNED[name, L][5])
    assert_within_1e12([m for _, m in bound.per_term], [m for _, m in old_bound.per_term])
    assert_within_1e12(digits, old_digits)


# The library function behind each analytic command.
ENTRY = {"bound": "deviation_bound", "fold": "fold_probability", "digits": "first_digit_probabilities"}


def write_chain(directory, base, links):
    """Write a chain as ./chain.json of directory, where the CLI pins read it."""
    (Path(directory) / "chain.json").write_text(
        json.dumps({"base": base, "links": [{"family": f, "power": p} for f, p in links]})
    )


def cli_argv(command, lmax):
    argv = [command, "--chain", "chain.json", "--lmax", str(lmax)]
    if command != "digits":
        argv += ["--a", str(INTERVAL[0]), "--b", str(INTERVAL[1])]
    return argv


def stdout_of(argv):
    """stdout of one command, run in process."""
    buf = io.StringIO()
    assert cli.main(argv, out=buf) == 0, argv
    return buf.getvalue()


def run_cli(monkeypatch, argv, reference=False):
    """stdout of one command; on the scalar reference's function when reference is set."""
    with monkeypatch.context() as patch:
        if reference:
            name = ENTRY[argv[0]]
            patch.setattr(benford_chains.chains, name, getattr(scalar_reference, name))
        return stdout_of(argv)


def stdout_numbers(command, text):
    """The floats of one command's stdout, in order."""
    if command == "digits":
        rows = [line.split(",") for line in text.splitlines() if line and line[0].isdigit()]
        return [float(x) for row in rows for x in row[1:3]]
    out = json.loads(text)
    if command == "fold":
        return [out["probability"], out["truncation_error"]]
    return [out["value"], out["tail"]] + [m for _, m in out["per_term"]]


def assert_stdout_matches_the_reference(name, command, lmax, new, old):
    """Probabilities and moduli within 1e-12, bound values, tails and fold errors within the slack."""
    if command != "digits":
        assert json.loads(new)["config"] == json.loads(old)["config"]
        if command == "bound":
            assert [ell for ell, _ in json.loads(new)["per_term"]] == [ell for ell, _ in json.loads(old)["per_term"]]
    else:
        assert [line for line in new.splitlines() if line.startswith("#")] == [
            line for line in old.splitlines() if line.startswith("#")
        ]
    new_numbers, old_numbers = stdout_numbers(command, new), stdout_numbers(command, old)
    if command == "digits":
        assert_within_1e12(new_numbers, old_numbers)
        return
    ch = build(name)
    if command == "bound":
        assert_within_1e12(new_numbers[2:], old_numbers[2:])
        for x, y in zip(new_numbers[:2], old_numbers[:2]):
            assert_within_slack(ch, x, y)
    else:
        (prob, err), (old_prob, old_err) = new_numbers, old_numbers
        assert_within_1e12([prob], [old_prob])
        assert_within_slack(ch, err, old_err, fold_rounding(ch, FoldInterval(*INTERVAL), lmax, prob))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,command,lmax", sorted(CLI_PINNED))
def test_cli_stdout_is_bytewise_pinned(tmp_path, monkeypatch, name, command, lmax):
    monkeypatch.chdir(tmp_path)
    write_chain(tmp_path, *CHAINS[name])
    argv = cli_argv(command, lmax)
    key = (name, command, lmax)
    stdout = run_cli(monkeypatch, argv)
    assert sha256(stdout) == cli_pin(key)
    # The oldest pin is the same command on the scalar reference's code;
    # the new stdout lies within 1e-12 relative of it, or within the tails'
    # rounding slack.
    old = run_cli(monkeypatch, argv, reference=True)
    assert sha256(old) == CLI_PINNED[key]
    assert_stdout_matches_the_reference(name, command, lmax, stdout, old)


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("L", [1, 64, 1024])
def test_digit_table_equals_fold_on_each_digit_bitwise(name, L):
    ch = build(name)
    log_base = math.log(ch.base)
    probs = first_digit_probabilities(ch, L)
    for d, p in enumerate(probs, start=1):
        iv = FoldInterval(math.log(d) / log_base, math.log(d + 1) / log_base)
        assert p == fold_probability(ch, iv, L)[0], d


# A seeded stream of analytic queries, the mix the bench's analytic workload
# runs: bounds, folds on random intervals and digit tables at L = 64 and
# 1024, on chains of 1-6 links with powers +-1..+-9 (the first 1) at bases
# 2, 3, 10 and 16, one chain in five holding a benford link.  One sha256
# over the results' reprs (a float repr round-trips its bits) and the bytes
# of each BoundResult.moduli pins every bit of the stream at once.
STREAM_SEED = 20261020
STREAM_QUERIES = 1200
# Re-pinned when the tails closed from the anchors, from 14043e43...78da;
# STREAM_PROBABILITIES_PINNED, frozen before that move, checks that only
# bound values, tails and fold errors moved.
STREAM_PINNED = "a3ecf10edc0ce577789bf2d6efa8ef0871c3ec2ba0d81b8e0ca07e9bbc544f7e"
STREAM_PROBABILITIES_PINNED = "d9b9e994add89e76a3dd62055d31c8e85896cc75cc7d3eb5b05fa8b2179d663f"


def stream_digest(seed=STREAM_SEED, count=STREAM_QUERIES, tails=True):
    """sha256 over the results of the seeded analytic query stream; with
    tails False, over its digit tables, fold probabilities and bound moduli
    only, leaving out the bound values and tails and the fold errors."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        families = [rng.choice(("exponential", "half_gaussian", "uniform")) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.2:
            families[rng.randrange(len(families))] = "benford"
        powers = [1] + [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in families[1:]]
        ch = ChainSpec(rng.choice((2, 3, 10, 16)), tuple(map(ChainLink, families, powers)))
        L = rng.choice((64, 1024))
        kind = rng.choice(("bound", "fold", "digits"))
        if kind == "digits":
            h.update(repr(first_digit_probabilities(ch, L)).encode())
            continue
        iv = FoldInterval(*sorted((rng.random(), rng.random())))
        if kind == "fold":
            prob, err = fold_probability(ch, iv, L)
            h.update(repr((prob, err) if tails else prob).encode())
            continue
        bound = deviation_bound(ch, iv, L)
        if tails:
            h.update(repr(bound).encode())
        h.update(bound.moduli.tobytes())
    return h.hexdigest()


def test_the_seeded_analytic_stream_is_bitwise_pinned():
    assert stream_digest() == STREAM_PINNED


def test_the_anchored_tails_move_no_probability_or_modulus_of_the_stream():
    # frozen before the tails closed from the certified moduli: only bound
    # values, tails and fold errors moved
    assert stream_digest(tails=False) == STREAM_PROBABILITIES_PINNED


# ------------------------------------------------------------ empirical path
#
# Frozen from the implementation that still had scalar samplers and a
# per-exponent mask loop in batch_mantissas; the single block-kernel and
# mantissa-kernel implementations must reproduce every bit.

MANTISSA_BASES = (2, 3, 10, 16, 1000)

# base -> sha256 of the little-endian mantissa bytes of mantissa_sweep(base)
MANTISSA_PINNED = {
    2: "a015b329a4d8b2cb4c368ebb4221c9fb14c69280c0550e9b2e3b19171b894438",
    3: "8d3ff3f7028166d7b5d3c88df6f01d3c24a776b8f2803651850fd316614c08e3",
    10: "c7869cc81960138a5f468ea3769b9b69e4fc403458f50605f65493f81ae560c9",
    16: "91381c83bddb55d7c7e874031625682f34721270bd725137f671414ef28e633c",
    1000: "4d509c37eb60c0d2e163b232b6f6992d14993c203da3021fdad0a869ea76b6a9",
}

# name -> (base, [(family, power), ...]) for the sampling pins
SAMPLING_CHAINS = {
    "mixed": (10, [("exponential", 1), ("uniform", -2), ("half_gaussian", 3)]),
    "benford16": (16, [("half_gaussian", 1), ("benford", -1), ("exponential", 2)]),
    "uniform_199": (10, [("uniform", 1), ("uniform", 9), ("uniform", 9)]),
}

# (chain, sampler) -> (sha256 of the values' bytes, count, failures) at
# count BLOCK_SIZE + 4321, seed 20260814, stream 3
SAMPLING_PINNED = {
    ("benford16", "sample_batch"): ("0d1a2b2d64c8eea0e95eb3a36c610cc56b46fb865d17e611ee37399efc6d594d", 69857, 0),
    ("benford16", "product_batch"): ("46eca701e5db223b76ab3e388aa7ca876f04df6260b7d2ba866adcbee1a4dc71", 69857, 0),
    ("mixed", "sample_batch"): ("e9ccbeb9f9ec0e39e8efbef4502229358d56e5c60bf2b3a1df2e8925158aca94", 69857, 0),
    ("mixed", "product_batch"): ("8535afe8e635a2e3f2892091f03bf547350324752970d788a1894b268c78b9dc", 69857, 0),
    ("uniform_199", "sample_batch"): ("a693d82eaaaf11eed7eef92eb4824c8cd29285a68a26063c3dd20651614b59d8", 69840, 17),
    ("uniform_199", "product_batch"): ("97b7525c0726e22fd1e825a3dfd635ce29bfb7445a7ee6d40df84821756c9252", 69840, 17),
}

# chain -> (sha256 of the simulate CSV, of simulate stdout, of audit stdout)
SIMULATE_PINNED = {
    "mixed_negative": (
        "c32a8d2526ed52d5f50cb64789087fe18b25528d0c4df66bcbc92f22ff5fa738",
        "2a0bf0c16f09fb538a55624bbc43d565480970d48888ba9d1f5354a226f93c52",
        "9c233872e0d38d08d073fecf4cf31b5f8386bb99fc1b0d056ed5547a596b2eb6",
    ),
    "uniform_pair": (
        "15992a1a725a46e77f2f7b4c15e5217a0bcc5ea550cfe01c9c09a46716257b8a",
        "2a0bf0c16f09fb538a55624bbc43d565480970d48888ba9d1f5354a226f93c52",
        "f9ddd4ea042ebbf4d8d85acd077009da6136194ff52456e349fd390311f896ea",
    ),
}


def sha(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def mantissa_sweep(base):
    """200k positive finite doubles drawn from their bit patterns (subnormals
    included), then the doubles nearest base**k for every k they reach."""
    rng = np.random.default_rng(20260814)
    bits = rng.integers(1, 0x7FF0000000000000, size=200_000, dtype=np.int64)
    powers, k = [], 0
    while base**k <= sys.float_info.max:
        powers.append(float(base**k))
        k += 1
    k = 1
    while float(Fraction(1, base**k)) > 0.0:
        powers.append(float(Fraction(1, base**k)))
        k += 1
    return np.concatenate([bits.view(np.float64), np.array(powers)])


@pytest.mark.parametrize("base", MANTISSA_BASES)
def test_batch_mantissas_are_bitwise_pinned(base):
    assert sha(batch_mantissas(mantissa_sweep(base), base)) == MANTISSA_PINNED[base]


def batch_outputs(name, sampler):
    """(sha256 of the values' bytes, count, failures) of a pinned sampling chain."""
    base, links = SAMPLING_CHAINS[name]
    ch = ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))
    draw = {"sample_batch": sample_batch, "product_batch": product_batch}[sampler]
    got = draw(ch, BLOCK_SIZE + 4321, 20260814, stream=3)
    return sha(got.values), got.count, got.failures


@pytest.mark.parametrize("sampler", ["sample_batch", "product_batch"])
@pytest.mark.parametrize("name", sorted(SAMPLING_CHAINS))
def test_batches_are_bitwise_pinned(name, sampler):
    assert batch_outputs(name, sampler) == SAMPLING_PINNED[name, sampler]


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def simulate_digests(name):
    """(sha256 of the simulate CSV, of simulate stdout, of audit stdout) in ./"""
    sim = stdout_of(["simulate", "--chain", "chain.json", "--samples", "5000", "--seed", "7", "--out", "draws.csv"])
    audit = stdout_of(["audit", "--input", "draws.csv", "--column", "value", "--base", str(CHAINS[name][0])])
    return file_digest("draws.csv"), sha256(sim), sha256(audit)


@pytest.mark.parametrize("name", ["mixed_negative", "uniform_pair"])
def test_simulate_and_audit_are_bytewise_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    write_chain(tmp_path, *CHAINS[name])
    assert simulate_digests(name) == SIMULATE_PINNED[name]


# sha256 of the simulate CSV and stdout for uniform_199 at 2 * BLOCK_SIZE +
# 4321 samples, seed 7: lanes abort in all three blocks (17, 10 and 2), so
# the index column must count kept rows across block boundaries.
SIMULATE_BLOCKS_PINNED = (
    "f7c98c514e593f79b92e6ea7beafc905a8e1e401f169c5defed06b7918d8fcf0",
    "9b0b846d02e3d1f3eae5f9f1f60a52d394162dc9c24a8e410c56710feee43e8a",
)


def simulate_blocks_digests():
    """(sha256 of the simulate CSV, of its stdout) of uniform_199 across blocks, in ./"""
    sim = stdout_of(["simulate", "--chain", "chain.json", "--samples", str(2 * BLOCK_SIZE + 4321),
                     "--seed", "7", "--out", "draws.csv"])
    return file_digest("draws.csv"), sha256(sim)


def test_simulate_is_bytewise_pinned_across_blocks(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_chain(tmp_path, *SAMPLING_CHAINS["uniform_199"])
    assert simulate_blocks_digests() == SIMULATE_BLOCKS_PINNED


COLD_PATH_CHILD = """
import hashlib, io, json, sys
from benford_chains.cli import main

def run(*argv):
    buf = io.StringIO()
    assert main(list(argv), out=buf) == 0, argv
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    return [hashlib.sha256(buf.getvalue().encode()).hexdigest(), scipy]

short = json.loads(sys.argv[2])
print(json.dumps({
    "import": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "bound-exp": run(*short["bound-exp"]),
    "density-uniform": run(*short["density-uniform"]),
    "simulate": run("simulate", "--chain", "chain.json", "--samples", "5000", "--seed", "7",
                    "--out", "draws.csv"),
    "audit": run("audit", "--input", "draws.csv", "--column", "value", "--base", sys.argv[1]),
    "bound": run("bound", "--chain", "chain.json", "--lmax", "64", "--a", "0.1", "--b", "0.45"),
    "fold": run("fold", "--chain", "chain.json", "--lmax", "64", "--a", "0.1", "--b", "0.45"),
    "digits": run("digits", "--chain", "chain.json", "--lmax", "64"),
    "bound-uniform": run(*short["bound-uniform"]),
}))
"""


# sha256 of the stdout of the short commands that CLI_PINNED does not cover,
# frozen while bound-uniform still took zeta from scipy (zeta(3) - 1 kept its
# bits when it moved to the Euler-Maclaurin sum).
SHORT_PINNED = {
    "bound-exp": "c3233893aab637108fe7e95927722f07b7d1425d40c1b8e6279fe49a95ba178e",
    "density-uniform": "c11d889d22bf55ed5ccd489325f970f1cd55d4b8b700ad568cf75fb49e9a60c3",
    "bound-uniform": "fa170f9a7c6f74c4b267610a5cc9ab4824a49b340837356ee62cd940792e9e7d",
}
SHORT_ARGV = {
    "bound-exp": ["bound-exp", "--n", "3"],
    "density-uniform": ["density-uniform", "--n", "4", "--k", "5"],
    "bound-uniform": ["bound-uniform", "--n", "3", "--k", "2", "--s", "3"],
}


def run_cold_child(tmp_path, prelude=""):
    """The eight commands in one fresh interpreter; checks their pinned bytes."""
    name = "mixed_negative"
    write_chain(tmp_path, *CHAINS[name])
    src = str(Path(benford_chains.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", prelude + COLD_PATH_CHILD, str(CHAINS[name][0]),
                           json.dumps(SHORT_ARGV)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["simulate"][0] == SIMULATE_PINNED[name][1]
    assert got["audit"][0] == SIMULATE_PINNED[name][2]
    assert file_digest(tmp_path / "draws.csv") == SIMULATE_PINNED[name][0]
    for command in ("bound", "fold", "digits"):
        assert got[command][0] == cli_pin((name, command, 64)), command
    for command, digest in SHORT_PINNED.items():
        assert got[command][0] == digest, command
    return got


def test_scipy_stays_out_of_the_cold_path(tmp_path):
    # No command imports scipy: each of the eight runs without it, in one
    # interpreter, and gives the pinned bytes.
    got = run_cold_child(tmp_path)
    assert got["import"] == []
    for command in ("bound-exp", "density-uniform", "simulate", "audit", "bound", "fold", "digits",
                    "bound-uniform"):
        assert got[command][1] == [], command


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    # A None entry in sys.modules makes every scipy import raise ImportError.
    run_cold_child(tmp_path, prelude="import sys\nsys.modules['scipy'] = None\n")


# ------------------------------------------------------------- pin printer


def literal(x):
    """x in the pin tables' literal syntax."""
    if isinstance(x, tuple):
        return "(" + ", ".join(literal(v) for v in x) + ")"
    return json.dumps(x) if isinstance(x, str) else repr(x)


def print_table(name, now, pins, out):
    """One table of today's values, a mark on each key whose value differs from its pin."""
    out.write(f"{name} = {{\n")
    for key, value in now.items():
        mark = "" if value == pins[key] else "  # differs from the pin"
        if isinstance(value, tuple) and all(isinstance(v, str) for v in value):
            entries = "".join(f"        {literal(v)},\n" for v in value)
            out.write(f"    {literal(key)}: ({mark}\n{entries}    ),\n")
        else:
            out.write(f"    {literal(key)}: {literal(value)},{mark}\n")
    out.write("}\n\n")


def print_pins(out):
    """Every pin key with the value the code gives today, table by table.

    ANALYTIC and CLI hold the effective pins: the latest re-pin of each key.
    A key marked as differing is one that a re-pin would copy into a new
    table; an unmarked one keeps its bits.
    """
    now = {key: pinned_form(*analytic_results(*key)) for key in sorted(PINNED)}
    print_table("ANALYTIC", now, {key: analytic_pins(*key)[-1] for key in now}, out)
    sampling = {key: batch_outputs(*key) for key in sorted(SAMPLING_PINNED)}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        simulate = {}
        for name in sorted(SIMULATE_PINNED):
            write_chain(tmp, *CHAINS[name])
            simulate[name] = simulate_digests(name)
        write_chain(tmp, *SAMPLING_CHAINS["uniform_199"])
        blocks = {"uniform_199": simulate_blocks_digests()}
        stdout = {}
        for name, command, lmax in sorted(CLI_PINNED):
            write_chain(tmp, *CHAINS[name])
            stdout[name, command, lmax] = sha256(stdout_of(cli_argv(command, lmax)))
        short = {command: sha256(stdout_of(argv)) for command, argv in SHORT_ARGV.items()}
    print_table("CLI", stdout, {key: cli_pin(key) for key in stdout}, out)
    mantissas = {base: sha(batch_mantissas(mantissa_sweep(base), base)) for base in MANTISSA_BASES}
    print_table("MANTISSA_PINNED", mantissas, MANTISSA_PINNED, out)
    print_table("SAMPLING_PINNED", sampling, SAMPLING_PINNED, out)
    print_table("SIMULATE_PINNED", simulate, SIMULATE_PINNED, out)
    print_table("SIMULATE_BLOCKS_PINNED", blocks, {"uniform_199": SIMULATE_BLOCKS_PINNED}, out)
    print_table("SHORT_PINNED", short, SHORT_PINNED, out)
    stream = stream_digest()
    mark = "" if stream == STREAM_PINNED else "  # differs from the pin"
    out.write(f"STREAM_PINNED = {literal(stream)}{mark}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--print"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_pinned_outputs.py --print")
    print_pins(sys.stdout)
