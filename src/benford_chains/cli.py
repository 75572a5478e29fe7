"""Command-line front end: bounds, fold probabilities, densities,
simulation, and dataset audits as reproducible batch commands.

Every run echoes its full resolved configuration (defaults included,
plus the RNG algorithm identifier) into the output: a "config" object in
JSON outputs, '#'-prefixed comment lines ahead of the header in CSV
outputs.  All floats are printed with 17 significant digits so outputs
round-trip doubles exactly and identical command lines give byte-
identical bytes.

Exit codes: 0 success; 2 invalid input or chain spec, or output that
could not be written (a failed write or flush of stdout, after --help too);
3 a failed internal spectrum check (SpectrumCheckError).  Each failure
prints one "error: ..." line to stderr.

main(argv, out) runs one command in process and returns its exit code; it
never ends the process.  run(), the console script and the __main__ block,
calls main(), flushes stdout and stderr, and ends the process with
os._exit: by then every output is written and every file main opened is
closed, so the interpreter's teardown (module cleanup and a last garbage
collection over numpy's objects, about 20 ms a child) has nothing left to
do.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NoReturn

# Only the math-only module loads with the CLI.  Each command imports the
# rest of what it runs when it runs, so bound-exp, bound-uniform and
# density-uniform start without numpy, and bound, fold and digits without
# montecarlo and conformance.
from ._closed import (
    RNG_ALGORITHM,
    ChainSpecError,
    SpectrumCheckError,
    _check_base,
    benford_digit_prob,
    exponential_chain_bound,
    uniform_chain_cdf_terms,
    uniform_chain_density,
)

__all__ = ["main", "run"]

# Integer flag limits (lo, hi) by argparse dest, checked in main before any
# file is read.  The library checks the rest (--grid >= 2, --n, --seed).
# simulate holds two blocks at a time, so --samples is capped by time and
# disk: about 49 bytes of CSV and 0.9 us per row, so 10**8 draws write
# about 5 GB in about 1.5 minutes (10**7 draws: 8.7 s, 43 MiB).
# digit_stats builds the audit grid in a Python list, and an audit report
# lists base - 1 digits (--base 10**6 takes about 7 s and 233 MiB); a
# density row costs about 3 us and 40 bytes; --lmax 65536 on a 3-link
# base-16 chain takes up to about 1 s and 67 MiB (each a subprocess on a
# 2-CPU Xeon VM).  The library caps the cost of a digit table
# (chains._DIGIT_TABLE_MAX_COST).  The reader's numpy index arithmetic
# takes --col-index as an intp, so it is capped far below 2**63.
_LIMITS = {
    "lmax": (1, 65536),
    "points": (2, 10**6),
    "samples": (1, 10**8),
    "col_index": (0, 2**31 - 1),
    "grid": (-math.inf, 10**6),
    "base": (2, 10**6),
}

# Rows formatted per write in simulate.
_CHUNK = 8192


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if math.isnan(x):
        return "NaN"
    return format(float(x), ".17g")


def _to_json(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_to_json(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _print_json(obj, out) -> None:
    out.write(_to_json(obj) + "\n")


def _config(args) -> dict:
    """Every parsed flag (command first, parser order), plus the RNG id."""
    return {**vars(args), "rng": RNG_ALGORITHM}


def _csv_header(config: dict, columns: str, out) -> None:
    for key, value in config.items():
        text = str(value)
        if not text.isprintable():  # a line break would split the echo line
            text = json.dumps(text)
        out.write(f"# {key}={text}\n")
    out.write(columns + "\n")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose --help text fails as loudly as any output.

    argparse drops a failed write of its own messages; main reports this
    one, so --help to a full device exits 2 whether stdout is buffered or
    not.  The subcommand parsers are of this class too.
    """

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="benford-chains",
        description="Benford deviation bounds, fold probabilities, and audits "
        "for chained scale-family distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="rigorous deviation bound for a chain")
    p.add_argument("--chain", required=True, help="chain-spec JSON path")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--lmax", type=int, default=64)

    p = sub.add_parser("bound-exp", help="closed-form bound for exponential chains")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=int, default=10)

    p = sub.add_parser("bound-uniform", help="closed-form CDF bound for uniform chains")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--s", type=float, required=True)

    p = sub.add_parser("fold", help="probability of the folded log landing in [a, b]")
    p.add_argument("--chain", required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--lmax", type=int, default=64)

    p = sub.add_parser("digits", help="leading-digit probabilities of a chain (CSV)")
    p.add_argument("--chain", required=True)
    p.add_argument("--lmax", type=int, default=64)

    p = sub.add_parser("density-uniform", help="uniform-chain density on a grid (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--points", type=int, default=200)

    p = sub.add_parser("simulate", help="draw chain samples to CSV, stats JSON on stdout")
    p.add_argument("--chain", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="sample CSV output path")

    p = sub.add_parser("audit", help="Benford conformance report for a CSV dataset")
    p.add_argument("--input", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--column", help="column name (implies a header row)")
    group.add_argument("--col-index", type=int, help="0-based column index")
    p.add_argument("--header", action="store_true", help="input has a header row")
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--bound", type=float, default=None, help="analytic bound for context")
    p.add_argument("--grid", type=int, default=1000)

    return parser


def _cmd_bound(args, out) -> int:
    from .chains import FoldInterval, deviation_bound, load_chain

    chain = load_chain(args.chain)
    result = deviation_bound(chain, FoldInterval(args.a, args.b), args.lmax)
    _print_json(
        {
            "value": result.value,
            "truncation_L": result.truncation_L,
            "tail": result.tail,
            "per_term": [[ell, m] for ell, m in result.per_term],
            "config": _config(args),
        },
        out,
    )
    return 0


def _cmd_bound_exp(args, out) -> int:
    value = exponential_chain_bound(args.n, args.base)
    _print_json(
        {
            "value": value,
            "envelope": 0.057**args.n,
            "n": args.n,
            "base": args.base,
            "config": _config(args),
        },
        out,
    )
    return 0


def _cmd_bound_uniform(args, out) -> int:
    head, spectral = uniform_chain_cdf_terms(args.n, args.k, args.s)
    _print_json(
        {
            "value": head + spectral,
            "head_term": head,
            "spectral_term": spectral,
            "n": args.n,
            "k": args.k,
            "s": args.s,
            "config": _config(args),
        },
        out,
    )
    return 0


def _cmd_fold(args, out) -> int:
    from .chains import FoldInterval, fold_probability, load_chain

    chain = load_chain(args.chain)
    prob, err = fold_probability(chain, FoldInterval(args.a, args.b), args.lmax)
    _print_json(
        {
            "probability": prob,
            "truncation_error": err,
            "config": _config(args),
        },
        out,
    )
    return 0


def _cmd_digits(args, out) -> int:
    from .chains import first_digit_probabilities, load_chain

    chain = load_chain(args.chain)
    probs = first_digit_probabilities(chain, args.lmax)
    _csv_header(_config(args), "d,probability,benford,delta", out)
    for d, p in enumerate(probs, start=1):
        bp = benford_digit_prob(d, chain.base)
        out.write(f"{d},{_fmt(p)},{_fmt(bp)},{_fmt(p - bp)}\n")
    return 0


def _cmd_density_uniform(args, out) -> int:
    # k is the last grid point: check --n and --k before any output.
    uniform_chain_density(args.n, args.k, args.k)
    _csv_header(_config(args), "x,f", out)
    # Geometric grid over three decades up to k, endpoint included.
    p = args.points
    for j in range(1, p + 1):
        x = args.k * 10.0 ** (-3.0 * (p - j) / (p - 1))
        f = uniform_chain_density(args.n, args.k, x)
        out.write(f"{_fmt(x)},{_fmt(f)}\n")
    return 0


def _cmd_simulate(args, out) -> int:
    from ._rows import format_rows
    from .chains import load_chain
    from .montecarlo import _blocks, batch_mantissas

    chain = load_chain(args.chain)
    _check_base(chain.base, double=True)  # batch_mantissas' check, before --out is opened
    blocks = _blocks(chain, args.samples, args.seed)
    config = _config(args)
    count = failures = 0
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        _csv_header(config, "index,value,mantissa,first_digit", fh)
        fh.flush()  # the rows go to the binary buffer beneath
        for values, failed in blocks:
            mants = batch_mantissas(values, chain.base)
            digits = mants.astype(int)
            for lo in range(0, len(values), _CHUNK):
                hi = lo + _CHUNK
                fh.buffer.write(format_rows(count + lo, values[lo:hi], mants[lo:hi], digits[lo:hi]))
            count += len(values)
            failures += failed
            del values, mants, digits  # the next two blocks are drawn beside none of this one
    _print_json(
        {
            "requested": args.samples,
            "count": count,
            "failures": failures,
            "failure_rate": failures / args.samples,
            "out": args.out,
            "config": config,
        },
        out,
    )
    return 0


def _cmd_audit(args, out) -> int:
    from ._column import _parts
    from .conformance import _audit

    args.header = args.header or args.column is not None
    parts = _parts(args.input, args.column, args.col_index, args.header)
    report = _audit(parts, args.base, args.bound, args.grid)
    _print_json(
        {
            "config": _config(args),
            "report": report.to_json_dict(),
        },
        out,
    )
    return 0


def _check_limits(args) -> None:
    for dest, (lo, hi) in _LIMITS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if value < lo:
            raise ValueError(f"{flag} must be >= {lo}, got {value}")
        if value > hi:
            raise ValueError(f"{flag} must be at most {hi}, got {value}")


_DISPATCH = {
    "bound": _cmd_bound,
    "bound-exp": _cmd_bound_exp,
    "bound-uniform": _cmd_bound_uniform,
    "fold": _cmd_fold,
    "digits": _cmd_digits,
    "density-uniform": _cmd_density_uniform,
    "simulate": _cmd_simulate,
    "audit": _cmd_audit,
}


def main(argv=None, out=None) -> int:
    """Run one command (argv, default sys.argv[1:]) and return its exit code.

    Output goes to out (default sys.stdout) and is flushed before the
    return, so a failed write exits 2 like any other error.
    """
    if out is None:
        out = sys.stdout
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse: 0 after --help, 2 on a bad command line
            code = exc.code if isinstance(exc.code, int) else 2
            if code == 0:
                sys.stdout.flush()  # the --help text
            return code
        _check_limits(args)
        code = _DISPATCH[args.command](args, out)
        out.flush()
        return code
    except SpectrumCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ChainSpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """main() on sys.argv, then end the process without interpreter teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # main already reported a failed stdout; stderr has no one to tell
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
