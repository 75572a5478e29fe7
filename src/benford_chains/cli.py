"""Command-line front end: bounds, fold probabilities, densities,
simulation, and dataset audits as reproducible batch commands.

Every run echoes its full resolved configuration (defaults included,
plus the RNG algorithm identifier) into the output: a "config" object in
JSON outputs, '#'-prefixed comment lines ahead of the header in CSV
outputs.  All floats are printed with 17 significant digits so outputs
round-trip doubles exactly and identical command lines give byte-
identical bytes.

Exit codes: 0 success, 2 invalid input or chain spec, 3 numerical
non-convergence or a failed internal spectrum check.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings

import numpy as np

from .chains import (
    ChainSpecError,
    FoldInterval,
    SpectrumCheckError,
    deviation_bound,
    exponential_chain_bound,
    first_digit_probabilities,
    fold_probability,
    load_chain,
    uniform_chain_cdf_terms,
    uniform_chain_density,
)
from .conformance import audit_dataset, benford_digit_prob
from .families import NonConvergenceError
from .montecarlo import RNG_ALGORITHM, batch_mantissas, sample_batch

__all__ = ["main"]

# Integer flag limits (lo, hi) by argparse dest, checked in main before any
# file is read.  The library checks the rest (--grid >= 2, --n, --base,
# --seed).  simulate holds about 32 bytes per draw (values, block copies,
# mantissas, digits), so 10**8 draws need about 3.2 GB; digit_stats builds
# the audit grid in a Python list; a density row costs about 3 us and 40
# bytes; --lmax 65536 on a 3-link base-16 chain takes up to about 2.2 s
# and 91 MiB.
_LIMITS = {
    "lmax": (1, 65536),
    "points": (2, 10**6),
    "samples": (1, 10**8),
    "col_index": (0, math.inf),
    "grid": (-math.inf, 10**6),
}


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
        out.write(f"# {key}={value}\n")
    out.write(columns + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    chain = load_chain(args.chain)
    batch = sample_batch(chain, args.samples, args.seed)
    mants = batch_mantissas(batch.values, chain.base)
    digits = mants.astype(int)
    config = _config(args)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        _csv_header(config, "index,value,mantissa,first_digit", fh)
        # tolist() hands out Python numbers faster than indexing the arrays
        # per row; chunks keep those lists from raising the peak memory.
        for lo in range(0, batch.count, 4096):
            cols = (a[lo : lo + 4096].tolist() for a in (batch.values, mants, digits))
            for i, (value, mant, digit) in enumerate(zip(*cols), lo):
                fh.write(f"{i},{_fmt(value)},{_fmt(mant)},{digit}\n")
    _print_json(
        {
            "requested": args.samples,
            "count": batch.count,
            "failures": batch.failures,
            "failure_rate": batch.failures / args.samples,
            "out": args.out,
            "config": config,
        },
        out,
    )
    return 0


# Characters on which a plain comma split and float() may read a line apart
# from csv.reader and float(): a quote, a '#' (a comment line), a CR (a line
# end of its own), and the ASCII separators that numpy strips as whitespace
# and float() does not.
_UNSAFE = '"#\r\x1c\x1d\x1e\x1f'


def _csv_rows(lines, path: str, column: str | None, col_index: int | None, header: bool):
    """csv rows of `lines` after the header row, and the column's index.

    Lines starting with '#' (our own config echo) and blank lines are
    skipped before CSV parsing.  A column name needs header=True.
    """
    rows = csv.reader(line for line in lines if line.strip() and not line.lstrip().startswith("#"))
    idx = col_index or 0
    head = next(rows, None) if header else None
    if column is not None:
        if head is None:
            raise ValueError(f"{path}: empty input")
        names = [c.strip() for c in head]
        if column not in names:
            raise ValueError(f"{path}: no column named {column!r} in {names}")
        idx = names.index(column)
    return rows, idx


def _clean_column(fh, path: str, column: str | None, col_index: int | None, header: bool):
    """The column from one np.loadtxt pass, or None if csv might read it otherwise.

    The lines after the header must be ASCII with no _UNSAFE character;
    loadtxt then splits them as csv does and parses each cell as float()
    does, or rejects it (an empty or text cell, a short row).  fh must be
    seekable: the guard reads the body once before loadtxt reads it.
    """
    # readline, not iteration, keeps tell() working
    _, idx = _csv_rows(iter(fh.readline, ""), path, column, col_index, header)
    try:
        start = fh.tell()
        while chunk := fh.read(1 << 20):
            if not chunk.isascii() or any(c in chunk for c in _UNSAFE):
                return None
        fh.seek(start)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt on no lines
            return np.loadtxt(fh, delimiter=",", usecols=idx, comments=None, ndmin=1)
    except ValueError:  # a cell loadtxt rejects, or a byte that is not UTF-8
        return None


def _read_csv_column(path: str, column: str | None, col_index: int | None, header: bool):
    """One numeric column from a CSV file; unparsable cells become NaN.

    A clean file is parsed in one np.loadtxt pass.  Any other file, and a
    pipe, which cannot be read twice, is read row by row by csv.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        values = None
        if fh.seekable():
            values = _clean_column(fh, path, column, col_index, header)
            fh.seek(0)
        if values is None:
            rows, idx = _csv_rows(fh, path, column, col_index, header)
            values = []
            for row in rows:
                try:
                    values.append(float(row[idx]))
                except (ValueError, IndexError):
                    values.append(math.nan)
    if not len(values):
        raise ValueError(f"{path}: no data rows")
    return values


def _cmd_audit(args, out) -> int:
    args.header = args.header or args.column is not None
    values = _read_csv_column(args.input, args.column, args.col_index, args.header)
    report = audit_dataset(values, args.base, args.bound, args.grid)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if out is None:
        out = sys.stdout
    try:
        _check_limits(args)
        return _DISPATCH[args.command](args, out)
    except (NonConvergenceError, SpectrumCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ChainSpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
