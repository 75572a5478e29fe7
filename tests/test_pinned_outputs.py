"""Bitwise regression guard for the analytic and empirical outputs and CLI output.

The analytic values below were taken from the implementation before the
spectrum was shared across consumers; any later rewrite of the analytic
core must reproduce them bit for bit (float.hex for scalars, sha256 over
float.hex for sequences, sha256 over the exact stdout bytes for the CLI).
The empirical values further down are frozen the same way.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import benford_chains
from benford_chains import cli
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


def build(name):
    base, links = CHAINS[name]
    return ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))


def digest(floats):
    return hashlib.sha256(",".join(float.hex(x) for x in floats).encode()).hexdigest()


@pytest.mark.parametrize("name,L", sorted(PINNED))
def test_analytic_outputs_are_bitwise_pinned(name, L):
    ch = build(name)
    iv = FoldInterval(*INTERVAL)
    bound = deviation_bound(ch, iv, L)
    prob, err = fold_probability(ch, iv, L)
    got = (
        bound.value.hex(),
        bound.tail.hex(),
        digest([x for ell, m in bound.per_term for x in (float(ell), m)]),
        prob.hex(),
        err.hex(),
        digest(first_digit_probabilities(ch, L)),
    )
    assert got == PINNED[name, L]


@pytest.mark.parametrize("name,command,lmax", sorted(CLI_PINNED))
def test_cli_stdout_is_bytewise_pinned(tmp_path, monkeypatch, name, command, lmax):
    base, links = CHAINS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.json").write_text(
        json.dumps({"base": base, "links": [{"family": f, "power": p} for f, p in links]})
    )
    argv = [command, "--chain", "chain.json", "--lmax", str(lmax)]
    if command != "digits":
        argv += ["--a", str(INTERVAL[0]), "--b", str(INTERVAL[1])]
    buf = io.StringIO()
    assert cli.main(argv, out=buf) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CLI_PINNED[name, command, lmax]


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("L", [1, 64, 1024])
def test_digit_table_equals_fold_on_each_digit_bitwise(name, L):
    ch = build(name)
    log_base = math.log(ch.base)
    probs = first_digit_probabilities(ch, L)
    for d, p in enumerate(probs, start=1):
        iv = FoldInterval(math.log(d) / log_base, math.log(d + 1) / log_base)
        assert p == fold_probability(ch, iv, L)[0], d


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


@pytest.mark.parametrize("sampler", ["sample_batch", "product_batch"])
@pytest.mark.parametrize("name", sorted(SAMPLING_CHAINS))
def test_batches_are_bitwise_pinned(name, sampler):
    base, links = SAMPLING_CHAINS[name]
    ch = ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))
    draw = {"sample_batch": sample_batch, "product_batch": product_batch}[sampler]
    got = draw(ch, BLOCK_SIZE + 4321, 20260814, stream=3)
    assert (sha(got.values), got.count, got.failures) == SAMPLING_PINNED[name, sampler]


@pytest.mark.parametrize("name", ["mixed_negative", "uniform_pair"])
def test_simulate_and_audit_are_bytewise_pinned(tmp_path, monkeypatch, name):
    base, links = CHAINS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.json").write_text(
        json.dumps({"base": base, "links": [{"family": f, "power": p} for f, p in links]})
    )
    sim, audit = io.StringIO(), io.StringIO()
    argv = ["simulate", "--chain", "chain.json", "--samples", "5000", "--seed", "7", "--out", "draws.csv"]
    assert cli.main(argv, out=sim) == 0
    argv = ["audit", "--input", "draws.csv", "--column", "value", "--base", str(base)]
    assert cli.main(argv, out=audit) == 0
    got = (
        hashlib.sha256((tmp_path / "draws.csv").read_bytes()).hexdigest(),
        hashlib.sha256(sim.getvalue().encode()).hexdigest(),
        hashlib.sha256(audit.getvalue().encode()).hexdigest(),
    )
    assert got == SIMULATE_PINNED[name]


COLD_PATH_CHILD = """
import hashlib, io, json, sys
from benford_chains.cli import main

def run(*argv):
    buf = io.StringIO()
    assert main(list(argv), out=buf) == 0, argv
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    return [hashlib.sha256(buf.getvalue().encode()).hexdigest(), scipy]

print(json.dumps({
    "import": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "bound-exp": run("bound-exp", "--n", "3"),
    "density-uniform": run("density-uniform", "--n", "4", "--k", "5"),
    "simulate": run("simulate", "--chain", "chain.json", "--samples", "5000", "--seed", "7",
                    "--out", "draws.csv"),
    "audit": run("audit", "--input", "draws.csv", "--column", "value", "--base", sys.argv[1]),
    "digits": run("digits", "--chain", "chain.json", "--lmax", "64"),
}))
"""


def test_scipy_stays_out_of_the_cold_path(tmp_path):
    # Commands that evaluate no Mellin value never import scipy; the first
    # one that does (digits) loads scipy.special and gives the pinned bytes.
    name = "mixed_negative"
    base, links = CHAINS[name]
    (tmp_path / "chain.json").write_text(
        json.dumps({"base": base, "links": [{"family": f, "power": p} for f, p in links]})
    )
    src = str(Path(benford_chains.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", COLD_PATH_CHILD, str(base)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["import"] == []
    for command in ("bound-exp", "density-uniform", "simulate", "audit"):
        assert got[command][1] == [], command
    assert got["simulate"][0] == SIMULATE_PINNED[name][1]
    assert got["audit"][0] == SIMULATE_PINNED[name][2]
    assert hashlib.sha256((tmp_path / "draws.csv").read_bytes()).hexdigest() == SIMULATE_PINNED[name][0]
    digits, scipy = got["digits"]
    assert digits == CLI_PINNED[name, "digits", 64]
    assert "scipy.special" in scipy
