"""The audit CSV reader: the one-pass numpy parse of a clean file must read
every file exactly as the per-row csv loop does, values and errors alike."""

import csv
import io
import json
import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benford_chains import cli


def csv_loop(path, column, col_index, header):
    """The per-row reader as it was before the numpy parse, kept as the oracle."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(
            line for line in fh if line.strip() and not line.lstrip().startswith("#")
        )
        idx = col_index or 0
        head = next(rows, None) if header else None
        if column is not None:
            if head is None:
                raise ValueError(f"{path}: empty input")
            names = [c.strip() for c in head]
            if column not in names:
                raise ValueError(f"{path}: no column named {column!r} in {names}")
            idx = names.index(column)
        values = []
        for row in rows:
            try:
                values.append(float(row[idx]))
            except (ValueError, IndexError):
                values.append(math.nan)
    if not values:
        raise ValueError(f"{path}: no data rows")
    return values


def outcome(read, path, column, col_index, header):
    """The bits read, or the error raised; no warning may escape the reader."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = np.asarray(read(str(path), column, col_index, header), dtype=float)
            got = ("values", values.view(np.uint64).tolist())
        except Exception as exc:  # the oracle's own errors are part of its answer
            got = ("error", type(exc), str(exc))
    assert [str(w.message) for w in caught] == []
    return got


def assert_reads_like_the_loop(path, column, col_index, header):
    assert outcome(cli._read_csv_column, path, column, col_index, header) == outcome(
        csv_loop, path, column, col_index, header
    )


def clean_column(path, column, col_index, header):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return cli._clean_column(fh, str(path), column, col_index, header)


def write(path, text):
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return path


# Cells both parsers accept, cells only one of them accepts, and cells that
# change how a line splits.
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.3e}"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["inf", "-inf", "+inf", "nan", "-nan", "Infinity", "NaN", "1e400", ".5", "5.", "-0"]),
)
PADDING = st.sampled_from(["", " ", "\t", "  ", "\x0c", "\x1c", "\x1f"])
ODD = st.one_of(
    st.text(alphabet="0123456789+-.eE_ \t", max_size=8),
    st.sampled_from(["", "n/a", "text", "1_000", '"7"', '"a,b"', '"', "#", "# c", "1#2"]),
)
CELL = st.one_of(
    st.tuples(PADDING, NUMBERS, PADDING).map("".join),
    NUMBERS,
    NUMBERS,
    ODD,
)
ROW = st.lists(CELL, min_size=0, max_size=4).map(",".join)
LINE = st.one_of(ROW, ROW, ROW, st.sampled_from(["", "   ", "\t", "# comment", "  # indented"]))
END = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
HEADER = "a,b,c,d"


@st.composite
def csv_files(draw):
    lines = draw(st.lists(st.tuples(LINE, END), max_size=12))
    if draw(st.booleans()):
        lines.insert(0, (HEADER, draw(END)))
    if draw(st.booleans()):
        lines.insert(0, ("# config=echo", "\n"))
    text = "".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_files(), col_index=st.integers(0, 4), header=st.booleans(), column=st.sampled_from("abcdz"))
def test_fast_parse_reads_what_the_csv_loop_reads(tmp_path, text, col_index, header, column):
    path = write(tmp_path / "data.csv", text)
    assert_reads_like_the_loop(path, None, col_index, header)
    assert_reads_like_the_loop(path, column, None, True)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(NUMBERS, NUMBERS), min_size=1, max_size=50))
def test_clean_numeric_files_take_the_numpy_pass(tmp_path, rows):
    body = "".join(f"{a},{b}\n" for a, b in rows)
    # with a header, and without one below a config echo and a blank line
    for text, column, col_index, header in (
        ("# seed=1\nx,y\n" + body, "y", None, True),
        ("# seed=1\n# rng=x\n\n" + body, None, 1, False),
    ):
        path = write(tmp_path / "data.csv", text)
        fast = clean_column(path, column, col_index, header)
        assert fast is not None
        expected = np.array(csv_loop(str(path), column, col_index, header))
        assert fast.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


# name -> (file text, column, col_index, header)
EDGE_FILES = {
    "quoted cell": ('v\n"1.5"\n2\n', "v", None, True),
    # csv reads 7; a comma split that ignores quotes would read 5
    "quoted comma": ('a,b,c\n"a,b",5,7\n1,2,3\n', None, 2, True),
    "crlf": ("v\r\n1\r\n2\r\n", "v", None, True),
    "whitespace-only line": ("v\n1\n   \n2\n", "v", None, True),
    "blank line": ("v\n1\n\n2\n", "v", None, True),
    "mid-file comment": ("v\n1\n# note\n2\n", "v", None, True),
    "header only": ("# config\nv\n", "v", None, True),
    "empty file": ("", None, 0, False),
    "one data row": ("v\n3.25\n", "v", None, True),
    "underscore digits": ("v\n1_000\n2\n", "v", None, True),
    "index past the row": ("a,b\n1,2\n3\n", None, 1, True),
    "index past every row": ("1,2\n3,4\n", None, 5, False),
    # numpy strips the ASCII separators as whitespace, float() does not
    "file separator": ("v\n\x1c1\x1d\n3\n", "v", None, True),
    "non-UTF-8 byte": (b"v\n1\n\xff\n2\n", "v", None, True),
    "non-UTF-8 byte past the first read": (b"v\n" + b"1\n" * 10000 + b"\xff\n", "v", None, True),
    "non-UTF-8 byte in the header": (b"\xffv\n1\n", None, 0, True),
    "clean": ("# seed=7\nindex,value\n0,1.5\n1,-2e-300\n2,inf\n3,nan\n", "value", None, True),
}
# files the numpy pass must hand to the csv loop without reading a value
DECLINED = {
    "quoted cell", "quoted comma", "crlf", "mid-file comment", "file separator",
    "non-UTF-8 byte past the first read",
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_edge_files_read_like_the_csv_loop(tmp_path, capfd, name):
    text, column, col_index, header = EDGE_FILES[name]
    path = write(tmp_path / "data.csv", text)
    assert_reads_like_the_loop(path, column, col_index, header)
    if name in DECLINED:
        assert clean_column(path, column, col_index, header) is None
    if name == "clean":
        assert clean_column(path, column, col_index, header) is not None
    assert capfd.readouterr().err == ""


def test_audit_stdout_is_the_same_for_a_file_either_path_reads(tmp_path, capfd):
    # the same numbers, once clean and once behind a quote that sends the
    # file to the csv loop, give the same report
    numbers = [f"{1.5 ** k:.17g}" for k in range(-40, 40)]
    clean = write(tmp_path / "clean.csv", "v\n" + "\n".join(numbers) + "\n")
    quoted = write(tmp_path / "quoted.csv", "v\n" + "\n".join(f'"{x}"' for x in numbers) + "\n")
    reports = []
    for path in (clean, quoted):
        out = io.StringIO()
        assert cli.main(["audit", "--input", str(path), "--column", "v"], out=out) == 0
        reports.append(out.getvalue().split('"report": ', 1)[1])
    assert reports[0] == reports[1]
    assert clean_column(clean, "v", None, True) is not None
    assert clean_column(quoted, "v", None, True) is None
    assert capfd.readouterr().err == ""


def test_a_pipe_is_read_once_by_the_csv_loop(tmp_path):
    # a pipe cannot be read twice, so it skips the guarded numpy pass
    fifo = tmp_path / "data.fifo"
    os.mkfifo(fifo)
    text = "# seed=7\nv\n1.5\n2.5\nn/a\n"
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        got = cli._read_csv_column(str(fifo), "v", None, True)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    expected = csv_loop(str(write(tmp_path / "data.csv", text)), "v", None, True)
    assert np.array_equal(got, expected, equal_nan=True)


@pytest.mark.parametrize("cells", [["1.5", "23", "0.7"], ["1.5", "n/a", "0.7"]], ids=["clean", "dirty"])
def test_a_byte_order_mark_is_not_part_of_the_first_cell(tmp_path, cells):
    # clean files take the numpy pass and dirty ones the csv loop: both
    # skip a UTF-8 byte-order mark, with and without a header row
    expected = [float(c) if c != "n/a" else math.nan for c in cells]
    for head, argv in ((["value,other"], ["--column", "value"]), ([], ["--col-index", "0"])):
        path = write(tmp_path / "bom.csv", b"\xef\xbb\xbf" + "".join(f"{r}\n" for r in head + cells).encode())
        out = io.StringIO()
        assert cli.main(["audit", "--input", str(path), *argv], out=out) == 0
        report = json.loads(out.getvalue())["report"]
        assert (report["count"], report["skipped"]) == (3 - cells.count("n/a"), cells.count("n/a"))
        args = (str(path), "value" if head else None, None if head else 0, bool(head))
        assert np.array_equal(cli._read_csv_column(*args), expected, equal_nan=True)
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            assert (cli._clean_column(fh, *args) is None) == ("n/a" in cells)
