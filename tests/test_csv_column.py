"""The audit CSV reader: the chunked numpy parse, and the csv reader it hands
a chunk to, must read every file exactly as the per-row csv loop does,
values and errors alike."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import benford_chains
from benford_chains import _column, cli
from benford_chains.conformance import audit_dataset


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


def read_parts(path, column, col_index, header):
    """The reader's parts, concatenated: the column as audit counts it."""
    return np.concatenate(list(_column._parts(str(path), column, col_index, header)))


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
    assert outcome(read_parts, path, column, col_index, header) == outcome(
        csv_loop, path, column, col_index, header
    )


def numpy_chunk(path, column, col_index, header):
    """The values of a file of one chunk as numpy reads them, or None where
    csv must read the header or the rows."""
    raw = path.read_bytes()
    data = raw.removeprefix(_column._BOM)
    head = _column._head(data, len(raw) - len(data), str(path), column, col_index, header)
    if head is None:
        return None
    idx, start = head
    return _column._chunk(data[start:], idx, csv.field_size_limit())


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
        fast = numpy_chunk(path, column, col_index, header)
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
    "text cell": ("v\n1\nn/a\n2\n", "v", None, True),
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
    # csv decodes the byte before it finds the column missing
    "non-UTF-8 byte below a header without the column": (b"a,b\n1,2\n\xff\n", "v", None, True),
    "clean": ("# seed=7\nindex,value\n0,1.5\n1,-2e-300\n2,inf\n3,nan\n", "value", None, True),
    # the lines up to the header are read as text, the body by numpy
    "non-ASCII header": ("température,v\n1.5,2\n2.5,3\n", "température", None, True),
    "non-ASCII config echo": ("# out=données.csv\nindex,v\n0,1.5\n1,n/a\n", "v", None, True),
    "non-ASCII echo without a header": ("# out=données.csv\n\n1.5\n2.5\n", None, 0, False),
    "quoted header": ('"index","v"\n0,1.5\n1,2.5\n', "v", None, True),
    "header quote over two lines": ('v,"a\nb"\n1.5,2\n', "v", None, True),
    # in text mode a CR ends a line: csv reads 5 as a row
    "CR in a config echo": ("# c\r5\n1.5\n", None, 0, False),
    "space-padded rows": ("v\n   1.5\n\t  2.5 \n \t\n  # c\n   \n 3\n", "v", None, True),
}
# files numpy must hand to csv without reading a value, and files it must read
DECLINED = {
    "quoted cell", "quoted comma", "crlf", "file separator", "non-UTF-8 byte past the first read",
    "header quote over two lines", "CR in a config echo",
}
READ_BY_NUMPY = {
    "mid-file comment", "text cell", "whitespace-only line", "blank line", "clean", "non-ASCII header",
    "non-ASCII config echo", "non-ASCII echo without a header", "quoted header", "space-padded rows",
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_edge_files_read_like_the_csv_loop(tmp_path, capfd, name):
    text, column, col_index, header = EDGE_FILES[name]
    path = write(tmp_path / "data.csv", text)
    assert_reads_like_the_loop(path, column, col_index, header)
    if name in DECLINED:
        assert numpy_chunk(path, column, col_index, header) is None
    if name in READ_BY_NUMPY:
        assert numpy_chunk(path, column, col_index, header) is not None
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
    assert numpy_chunk(clean, "v", None, True) is not None
    assert numpy_chunk(quoted, "v", None, True) is None
    assert capfd.readouterr().err == ""


def test_a_pipe_is_read_in_one_pass(tmp_path, csv_log):
    # a pipe cannot be read twice; numpy reads it chunk by chunk as a file
    fifo = tmp_path / "data.fifo"
    os.mkfifo(fifo)
    text = "# seed=7\nv\n1.5\n2.5\nn/a\n"
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        got = read_parts(fifo, "v", None, True)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    expected = csv_loop(str(write(tmp_path / "data.csv", text)), "v", None, True)
    assert np.array_equal(got, expected, equal_nan=True)
    assert csv_log == []


@pytest.mark.parametrize("cells", [["1.5", "23", "0.7"], ["1.5", "n/a", "0.7"]], ids=["clean", "dirty"])
def test_a_byte_order_mark_is_not_part_of_the_first_cell(tmp_path, csv_log, cells):
    # numpy reads clean and dirty files alike, and skips a UTF-8
    # byte-order mark, with and without a header row
    expected = [float(c) if c != "n/a" else math.nan for c in cells]
    for head, argv in ((["value,other"], ["--column", "value"]), ([], ["--col-index", "0"])):
        path = write(tmp_path / "bom.csv", b"\xef\xbb\xbf" + "".join(f"{r}\n" for r in head + cells).encode())
        out = io.StringIO()
        assert cli.main(["audit", "--input", str(path), *argv], out=out) == 0
        report = json.loads(out.getvalue())["report"]
        assert (report["count"], report["skipped"]) == (3 - cells.count("n/a"), cells.count("n/a"))
        args = (str(path), "value" if head else None, None if head else 0, bool(head))
        assert np.array_equal(read_parts(*args), expected, equal_nan=True)
        assert numpy_chunk(path, *args[1:]) is not None
    assert csv_log == []


CHUNK = _column._CHUNK


def filled(head, count, line=b"0,2.5\n"):
    """head, then rows, count bytes in all: the last row's first cell is
    padded with zeros to make up the count."""
    fill = count - len(head)
    rows, rest = divmod(fill, len(line))
    return head + line * (rows - 1) + b"0" * rest + line


@pytest.fixture
def csv_log(monkeypatch):
    """The offsets at which the reader hands a file to csv."""
    log = []
    text = _column._text

    def logged(rest, at, bom, fh):
        log.append(at)
        return text(rest, at, bom, fh)

    monkeypatch.setattr(_column, "_text", logged)
    return log


def feed(path, data):
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except BrokenPipeError:  # the reader stopped at an error
        pass


def read_pipe(tmp_path, data, column, col_index, header):
    """outcome() of the reader on a pipe that data is written into."""
    fifo = tmp_path / "data.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=feed, args=(fifo, data))
    writer.start()
    try:
        return outcome(read_parts, fifo, column, col_index, header)
    finally:
        writer.join(timeout=60)
        assert not writer.is_alive()


# lines that numpy must read as csv does wherever a chunk ends
BOUNDARY_LINES = {
    "bad cell": b"4,n/a",
    "comment": b"# note, 7",
    "whitespace-led row": b" 5,6.5",
    "whitespace-led comment": b"\t# 8,9",
    "short row": b"7",
}


@pytest.mark.parametrize("into", [0, 1, 3])
@pytest.mark.parametrize("name", sorted(BOUNDARY_LINES))
def test_odd_lines_at_a_chunk_boundary_read_like_the_csv_loop(tmp_path, csv_log, name, into):
    # the line starts at the first read's end, or that end cuts it after
    # `into` bytes
    line = BOUNDARY_LINES[name] + b"\n"
    data = filled(b"# seed=1\nindex,v\n", CHUNK - into) + line + b"1,3.5\n" * 100
    assert data.index(line, CHUNK - 10) == CHUNK - into
    path = write(tmp_path / "data.csv", data)
    assert_reads_like_the_loop(path, "v", None, True)
    assert csv_log == []


def test_a_quote_after_the_first_chunk_hands_the_rest_to_csv(tmp_path, csv_log):
    data = filled(b"v,w\n", CHUNK + 5000) + b'"2.5",1\n"3,5",x\n' + b"1.5,2\n" * 100
    path = write(tmp_path / "data.csv", data)
    assert_reads_like_the_loop(path, "v", None, True)
    assert_reads_like_the_loop(path, None, 1, True)
    assert 0 < csv_log[0] <= CHUNK + 5000


@pytest.mark.parametrize("offset", [CHUNK + 1, CHUNK + 8190, CHUNK + 8193, 3 * CHUNK + 20000])
def test_a_byte_that_is_not_utf8_after_the_first_chunk_fails_as_in_the_csv_loop(tmp_path, offset):
    # the error names the byte's position in the decoder's 8192-byte step,
    # so the csv stream must decode in the steps of the whole file
    data = filled(b"v\n", offset - 3, b"1.5\n") + "é".encode() + b"\xff\n" + b"2.5\n" * 10
    assert data.index(b"\xff") == offset - 1
    path = write(tmp_path / "data.csv", data)
    expected = outcome(csv_loop, path, "v", None, True)
    assert expected[:2] == ("error", UnicodeDecodeError)
    assert outcome(read_parts, path, "v", None, True) == expected
    assert read_pipe(tmp_path, data, "v", None, True) == expected


def csv_from_the_top(path, column, col_index, header):
    """The reader's own csv loop over the file as text, byte-order mark
    skipped, which csv_loop does not skip."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return np.concatenate(list(_column._csv_parts(fh, str(path), column, col_index, header)))


@pytest.mark.parametrize("bom", [b"", _column._BOM], ids=["plain", "bom"])
@pytest.mark.parametrize("bad", [False, True], ids=["utf8", "bad byte"])
@pytest.mark.parametrize("cut", [False, True], ids=["whole", "cut"])
def test_a_long_non_ascii_echo_reads_like_the_csv_loop(tmp_path, csv_log, bom, bad, cut):
    # numpy reads the body below text lines that cross the decoder's first
    # 8192-byte step, unless a character straddles the step; then csv reads
    # from the top, as a byte that is not UTF-8 further in that step would
    # otherwise be reported at another position
    head = bom + b"# out=" + b"x" * ((len(bom) + cut) % 2) + "é".encode() * 5000 + b"\nv\n"
    assert (0x80 <= head[8192] < 0xC0) == cut
    data = head + b"1.5\n" * 20 + (b"\xff\n" if bad else b"") + b"2.5\n" * 3000
    path = write(tmp_path / "data.csv", data)
    expected = outcome(csv_from_the_top if bom else csv_loop, path, "v", None, True)
    assert expected[0] == ("error" if bad else "values")
    assert outcome(read_parts, path, "v", None, True) == expected
    assert (csv_log[:1] == [0]) == cut
    assert bool(csv_log) == (cut or bad)
    if bad:
        assert read_pipe(tmp_path, data, "v", None, True) == expected


def test_a_dirty_body_reads_from_a_pipe_as_from_a_file(tmp_path, csv_log):
    rows = [b"", b"n/a", b"-1.5", b"nan", b"  2.5", b"1e400", b"1_0"] + [b"%d.25" % i for i in range(33)]
    lines = b"".join(b"%d,%s\n" % (i, rows[i % len(rows)]) for i in range(200_000))
    data = b"# seed=7\nindex,v\n" + lines.replace(b"\n7", b"\n# c\n7")
    assert len(data) > 2 * CHUNK
    path = write(tmp_path / "data.csv", data)
    expected = outcome(csv_loop, path, "v", None, True)
    assert outcome(read_parts, path, "v", None, True) == expected
    assert read_pipe(tmp_path, data, "v", None, True) == expected
    assert csv_log == []


def dirty_file(path, rows):
    rng = np.random.default_rng(11)
    cells = np.exp(rng.normal(0.0, 20.0, rows)).astype(str).astype(object)
    kind = rng.integers(0, 100, rows)
    cells[kind == 0], cells[kind == 1] = "", "n/a"
    lines = ["# dirty", "index,v"] + [f"{i},{c}" for i, c in enumerate(cells.tolist())]
    lines[2::10_000] = [f"# row {i}" for i in range(len(lines[2::10_000]))]
    path.write_text("\n".join(lines) + "\n")
    return rows - len(lines[2::10_000])


def test_audit_memory_does_not_grow_with_rows(tmp_path):
    # audit counts each part of the column as it is read: the traced peak of
    # a whole audit, read and count, at 10**6 rows matches the peak at
    # 2 * 10**5 rows (holding the column, 8 bytes a row, took 11.8 MiB
    # against 5.3 MiB)
    files = []
    for rows in (200_000, 1_000_000):
        path = tmp_path / f"dirty{rows}.csv"
        files.append((path, dirty_file(path, rows)))
    argv = ["audit", "--column", "v", "--input"]
    # one untraced run first, so that imports and the helper thread land in
    # neither traced peak
    assert cli.main([*argv, str(files[0][0])], out=io.StringIO()) == 0
    peaks = []
    for path, rows in files:
        out = io.StringIO()
        tracemalloc.start()
        try:
            code = cli.main([*argv, str(path)], out=out)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        report = json.loads(out.getvalue())["report"]
        assert report["count"] + report["skipped"] == rows
        assert report["skipped"] >= rows // 60
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks
    assert peaks[1] < 6 * 2**20, peaks


def dirty_rows(rows, seed):
    """rows CSV lines "i,v" of spread positive values, one cell in 50 text."""
    cells = np.exp(np.random.default_rng(seed).normal(0.0, 20.0, rows)).astype(str)
    cells[::50] = "n/a"
    return "".join(f"{i},{c}\n" for i, c in enumerate(cells.tolist())).encode()


# name -> the file's bytes, each read in more than one part
STREAMED = {
    "numpy chunks": lambda: b"# seed=7\nindex,v\n" + dirty_rows(100_000, 1),
    # csv reads on from the chunk that holds the quote, past the first
    "csv after the first chunk": lambda: b"index,v\n" + dirty_rows(60_000, 2) + b'7,"2.5"\n'
    + dirty_rows(5000, 3),
    "pipe": lambda: b"# seed=7\nindex,v\n" + dirty_rows(100_000, 4),
    # a chunk of nothing but comment lines gives an empty part
    "a chunk of comments": lambda: b"index,v\n" + dirty_rows(1000, 5)
    + (b"# " + b"c" * 97 + b"\n") * (2 * CHUNK // 100) + dirty_rows(1000, 6),
}


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_counts_equal_the_whole_column_counts(tmp_path, csv_log, name):
    data = STREAMED[name]()
    path = write(tmp_path / "data.csv", data)

    def through(read):
        """read(path), or read of a pipe that data is written into."""
        if name != "pipe":
            return read(path)
        fifo = tmp_path / "data.fifo"
        if not fifo.exists():
            os.mkfifo(fifo)
        writer = threading.Thread(target=feed, args=(fifo, data))
        writer.start()
        try:
            return read(fifo)
        finally:
            writer.join(timeout=60)
            assert not writer.is_alive()

    def cli_report(source):
        out = io.StringIO()
        assert cli.main(["audit", "--input", str(source), "--column", "v"], out=out) == 0
        return json.loads(out.getvalue())["report"]

    sizes = [part.size for part in _column._parts(str(path), "v", None, True)]
    assert len(sizes) > 1
    assert (0 in sizes) == (name == "a chunk of comments")
    values = through(lambda source: read_parts(source, "v", None, True))
    report = through(cli_report)
    assert report == audit_dataset(values).to_json_dict()
    assert report["skipped"] > 0
    if name == "csv after the first chunk":
        assert CHUNK // 2 < csv_log[0] <= data.index(b'"')
    else:
        assert csv_log == []


LONG_FIELD = "1" * 200_000


@pytest.mark.parametrize("rows", [["1.5", "n/a", LONG_FIELD, "2.5"], ["1.5", LONG_FIELD, "2.5"]],
                         ids=["after a text cell", "in a numeric column"])
def test_a_field_over_the_csv_limit_exits_2_naming_the_file(tmp_path, capsys, rows):
    path = write(tmp_path / "long.csv", "value\n" + "\n".join(rows) + "\n")
    out = io.StringIO()
    assert cli.main(["audit", "--input", str(path), "--column", "value"], out=out) == 2
    assert out.getvalue() == ""
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == f"error: {path}: field larger than field limit ({limit})\n"


READER_CHILD = """
import io, sys
from benford_chains import cli

assert cli.main(["bound-exp", "--n", "3"], out=io.StringIO()) == 0
print("benford_chains._column" in sys.modules, "csv" in sys.modules)
assert cli.main(["audit", "--input", sys.argv[1], "--col-index", "0"], out=io.StringIO()) == 0
print("benford_chains._column" in sys.modules)
"""


def test_only_audit_loads_the_reader(tmp_path):
    src = str(Path(benford_chains.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    data = write(tmp_path / "data.csv", "1.5\n23\n")
    proc = subprocess.run([sys.executable, "-c", READER_CHILD, str(data)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["False False", "True", ""]
