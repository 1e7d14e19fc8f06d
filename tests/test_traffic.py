"""Trace/feature I/O round-trips, parse errors, and synthetic generation."""

import csv
import errno
import os

import numpy as np
import pytest

from aadetect import traffic
from aadetect.evaluation import read_decision_log
from aadetect.traffic import (TRACE_FIELDS, AttackSegment, FeatureTable, Trace,
                              TraceParseError, TraceSpec, load_feature_dataset, load_trace,
                              save_trace, synth_trace)
from oracles import per_row_load_feature_dataset, per_row_load_trace, write_feature_file


def random_rows(rng, n):
    """``n`` packets as six-column rows, in ``TRACE_FIELDS`` order."""
    ts = np.cumsum(rng.integers(0, 300_000, size=n))
    labels = [None, False, True]
    types = [None, "flood", "mirai", "scan"]
    rows = []
    for i in range(n):
        label = labels[int(rng.integers(3))]
        rows.append((
            int(ts[i]),
            f"10.0.0.{int(rng.integers(1, 6))}",
            f"10.0.1.{int(rng.integers(1, 6))}",
            int(rng.integers(0, 1500)),
            label,
            types[int(rng.integers(1, 4))] if label else None,
        ))
    return rows


def trace_of(rows):
    """The trace whose packets are ``rows`` (six-column tuples)."""
    return Trace(*zip(*rows))


def columns(trace):
    """A trace's six columns as tuples of plain values, for comparisons."""
    return (tuple(trace.timestamp_us.tolist()), trace.src, trace.dst,
            tuple(trace.size_bytes.tolist()), trace.label, trace.attack_type)


# -- the Trace type -------------------------------------------------------------


def test_packet_record_rejects_negative_size():
    with pytest.raises(ValueError, match="negative packet size: -1"):
        Trace([0, 1], ["a", "a"], ["b", "b"], [10, -1])
    assert len(Trace([0], ["a"], ["b"], [0])) == 1  # a zero-byte packet is fine


def test_trace_constructor_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError) as err:
        Trace([0, 1, 2], ["a", "a"], ["b", "b", "b"], [1, 2, 3])
    assert "'timestamp_us': 3" in str(err.value) and "'src': 2" in str(err.value)
    with pytest.raises(ValueError, match="'label': 1"):
        Trace([0, 1], ["a", "a"], ["b", "b"], [1, 2], label=[True])
    with pytest.raises(ValueError, match="'attack_type': 3"):
        Trace([0], ["a"], ["b"], [1], attack_type=["x", "y", "z"])
    bare = Trace([0, 5], ["a", "c"], ["b", "d"], [1, 2])
    assert bare.label == bare.attack_type == (None, None)  # as in FeatureTable
    assert Trace.__slots__ == TRACE_FIELDS


@pytest.mark.parametrize("values, shown", [
    (np.array([2**63, 2**63 + 5], dtype=np.uint64), "9223372036854775813"),
    ([2**63, 2**63 + 5], "9223372036854775813"),
    ([2**64, 1], None),  # numpy picks the dtype of these two by release
    ([-1, 2**63], None),
    ([1.7, 2.9], "float64 values"),
    ([1, 2.0], "float64 values"),
    (["5", "6"], "<U1 values"),
    ([True, False], "bool values"),
])
@pytest.mark.parametrize("column", ["timestamp_us", "size_bytes"])
def test_trace_columns_take_integers_that_fit_int64_exactly(values, shown, column):
    fields = {"timestamp_us": [1, 2], "src": ["a"] * 2, "dst": ["b"] * 2, "size_bytes": [1, 2]}
    fields[column] = values
    with pytest.raises(ValueError) as err:
        Trace(**fields)
    message = f"{column} must hold integers that fit int64, got "
    assert str(err.value).startswith(message) and shown in (None, str(err.value)[len(message):])


def test_trace_columns_keep_every_int64_and_share_an_int64_array():
    edges = [-2**63, -1, 0, 2**63 - 1]
    trace = Trace(edges, ["a"] * 4, ["b"] * 4, np.array([0, 1, 2**32, 2**63 - 1], np.uint64))
    assert trace.timestamp_us.tolist() == edges
    assert trace.size_bytes.tolist() == [0, 1, 2**32, 2**63 - 1]
    assert Trace(np.int32([5, 6]), "ab", "ba", np.uint8([7, 8])).size_bytes.dtype == np.int64
    parsed = np.arange(4, dtype=np.int64)
    assert np.shares_memory(Trace(parsed, "abcd", "dcba", parsed).timestamp_us, parsed)
    assert len(Trace([], [], [], [])) == 0 == len(Trace(np.empty(0), (), (), np.empty(0)))


def test_trace_iterates_as_the_zip_of_its_four_columns():
    rows = random_rows(np.random.default_rng(6), 2500)  # past two _TRACE_BLOCK edges
    trace = trace_of(rows)
    assert traffic._TRACE_BLOCK == 1024
    got = list(trace)
    assert got == list(zip(trace.timestamp_us.tolist(), trace.src, trace.dst,
                           trace.size_bytes.tolist()))
    assert got == [row[:4] for row in rows]
    assert all(type(p) is tuple and type(p[0]) is int and type(p[3]) is int for p in got)
    assert list(trace) == got  # iterating again starts over


# -- trace CSV round-trip ---------------------------------------------------------


def test_trace_round_trip_identity(tmp_path):
    rng = np.random.default_rng(1)
    rows = random_rows(rng, 100)
    path = tmp_path / "t.csv"
    save_trace(trace_of(rows), path)
    loaded = load_trace(path)
    assert columns(loaded) == columns(trace_of(rows)) == tuple(zip(*rows))
    # A second save of the loaded trace is byte-identical.
    path2 = tmp_path / "t2.csv"
    save_trace(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_a_csv_write_that_fails_part_way_leaves_the_old_file_whole(tmp_path):
    # A trace or a plot CSV replaces its file only once written in full.
    path = tmp_path / "t.csv"
    save_trace(trace_of(random_rows(np.random.default_rng(2), 20)), path)
    old = path.read_bytes()

    def rows():
        yield from random_rows(np.random.default_rng(3), 5)
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        traffic.write_csv(path, TRACE_FIELDS, rows())
    assert path.read_bytes() == old and os.listdir(tmp_path) == ["t.csv"]


def test_trace_labels_and_blank_fields(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "timestamp_us,src,dst,size_bytes,label,attack_type\n"
        "0,a,b,10,,\n"
        "5,a,b,10,0,\n"
        "9,a,b,10,1,flood\n")
    t = load_trace(path)
    assert t.label == (None, False, True)
    assert t.attack_type == (None, None, "flood")


def test_trace_parse_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp_us,src,dst,size_bytes,label,attack_type\n"
        "0,a,b,10,2,\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(path)
    assert ":2:" in str(err.value) and "label" in str(err.value)

    path.write_text("timestamp_us,src,dst,size_bytes,label,attack_type\n"
                    "x,a,b,10,0,\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(path)
    assert ":2:" in str(err.value)

    path.write_text("timestamp_us,src,size_bytes,label\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(path)
    assert ":1:" in str(err.value)

    path.write_text("timestamp_us,src,dst,size_bytes,label,attack_type\n"
                    "0,a,b,-5,0,\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(path)
    assert "negative" in str(err.value)


def test_trace_backwards_timestamp_is_an_error(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text(
        "timestamp_us,src,dst,size_bytes,label,attack_type\n"
        "10,a,b,1,0,\n"
        "5,c,d,2,0,\n"
        "10,e,f,3,0,\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(path)
    assert "backwards" in str(err.value) and err.value.line_no == 3


def test_trace_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "timestamp_us,src,dst,size_bytes,label,attack_type\n"
        "\n"
        "0,a,b,10,0,\n"
        "\n")
    assert len(load_trace(path)) == 1


def trace_lines(n, seed=4):
    """A header and ``n`` canonical rows; the timestamps repeat now and then."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(0, 3, size=n))
    lines = ["timestamp_us,src,dst,size_bytes,label,attack_type"]
    for i in range(n):
        label, kind = [("0", ""), ("1", "flood"), ("", ""), ("1", " scan ")][int(rng.integers(4))]
        lines.append(f"{ts[i]},10.0.0.{int(rng.integers(1, 9))},10.0.1.{int(rng.integers(1, 9))},"
                     f"{int(rng.integers(0, 1500))},{label},{kind}")
    return lines


def assert_loads_as_per_row(path):
    got, expected = load_trace(path), per_row_load_trace(path)
    assert columns(got) == columns(trace_of(expected))
    assert tuple(got) == tuple(row[:4] for row in expected)
    assert len(got) == len(expected)
    assert got.timestamp_us.dtype == got.size_bytes.dtype == np.int64
    for pkt in got:
        assert type(pkt[0]) is int and type(pkt[3]) is int
    return got


@pytest.mark.parametrize("block", [1024, 7])
def test_column_loader_equals_per_row_loader_across_blocks(tmp_path, monkeypatch, block):
    monkeypatch.setattr(traffic, "_TRACE_BLOCK", block)
    path = tmp_path / "t.csv"
    path.write_text("\n".join(trace_lines(2500)) + "\n")
    got = assert_loads_as_per_row(path)
    assert len(got) == 2500
    assert len(set(map(id, got.src + got.dst))) <= 16  # each address is stored once
    assert {t for t in got.attack_type} == {None, "flood", "scan"}


# Whole-file edits (line index, replacement, or None to delete the line) that
# csv.reader reads differently from a plain split, or that end the file oddly.
ODD_FILES = {
    "quoted fields": [(3, '"7",10.0.0.1,"10.0.1.2",5,"0",'), (9, '24,"a,b",c,1,1,"x,y"')],
    "a quoted newline across a block edge": [(6, '20,a,b,1,1,"multi'), (7, 'line"')],
    "a quote inside a field": [(5, '15,a"b,c,1,0,')],
    "NUL in an address": [(4, "12,a\0b,c,1,0,")],
    "blank lines": [(2, ""), (8, ""), (9, "")],
    "a spaced label": [(4, "12,a,b,1, 1 ,x")],
    "an underscored integer": [(4, "1_2,a,b,3,0,")],
}


def odd_lines(edits, n=40):
    lines = [f"{i * 3},a,b,{i},0," for i in range(n)]
    lines.insert(0, "timestamp_us,src,dst,size_bytes,label,attack_type")
    for idx, text in sorted(edits, reverse=True):
        lines[idx] = text
    return lines


@pytest.mark.parametrize("name", sorted(ODD_FILES))
@pytest.mark.parametrize("block", [1024, 6, 1])
def test_column_loader_reads_odd_files_as_csv_does(tmp_path, monkeypatch, name, block):
    monkeypatch.setattr(traffic, "_TRACE_BLOCK", block)
    path = tmp_path / "odd.csv"
    path.write_text("\n".join(odd_lines(ODD_FILES[name])) + "\n")
    assert_loads_as_per_row(path)


@pytest.mark.parametrize("block", [1024, 3])
def test_column_loader_line_endings_and_empty_bodies(tmp_path, monkeypatch, block):
    monkeypatch.setattr(traffic, "_TRACE_BLOCK", block)
    lines = trace_lines(20)
    path = tmp_path / "t.csv"
    for body in ["\r\n".join(lines) + "\r\n",       # CRLF line endings
                 "\n".join(lines),                    # no trailing newline
                 "\n".join(lines[:8]) + "\r\n" + "\n".join(lines[8:]) + "\n",
                 lines[0] + "\n",                     # an empty body
                 lines[0],                             # a header without a newline
                 lines[0] + "\n\n\n"]:                 # only blank lines
        path.write_bytes(body.encode())
        assert_loads_as_per_row(path)


# (line index, replacement) edits to a 60-row file; each must report the
# first bad line as the per-row loader does.
BAD_TRACE_FILES = [
    [(12, "x,a,b,1,0,")],                                  # bad integer timestamp
    [(30, "90,a,b,1.5,0,")],                               # bad integer size
    [(7, "21,a,b,1,2,")],                                  # bad label
    [(44, "132,a,b,-3,0,")],                               # negative size
    [(20, "1,a,b,1,0,")],                                  # backwards timestamp
    [(33, "99,a,b,1,0")],                                  # five columns
    [(33, "99,a,b,1,0,,")],                                # seven columns
    [(0, "timestamp_us,src,dst,size,label,attack_type")],  # bad header
    [(25, "75,a,b,-1,0,"), (27, "81,a,b,1,yes,")],         # two errors in one block
    [(27, "81,a,b,1,yes,"), (25, "75,a,b,-1,0,")],         # the same, in the other order
    [(17, "51,a,b,1,0,"), (18, "50,a,b,1,0,")],            # backwards by one
    [(40, '120,"a\n",b,1,0,'), (41, "1,a,b,1,0,")],        # after a quoted newline
    [(50, "150,a,b,-7,0,")],                               # in the last block
    [(16, "48,a,b,1,0,x,")],                               # column count on a block edge
    [(33, "99,a,b,1,0"), (34, "0,102,a,b,1,0,x")],         # five then seven: the commas balance
    [(22, "66,a\rb,c,1,0,")],                              # a carriage return ends a csv row
    [(9, "27,a,b,1,0\r,")],                                # ... also before the last field
]


@pytest.mark.parametrize("block", [1024, 8])
@pytest.mark.parametrize("edits", BAD_TRACE_FILES)
def test_column_loader_reports_errors_as_the_per_row_loader(tmp_path, monkeypatch, edits, block):
    monkeypatch.setattr(traffic, "_TRACE_BLOCK", block)
    lines = [f"{i * 3},a,b,{i},0," for i in range(60)]
    lines.insert(0, "timestamp_us,src,dst,size_bytes,label,attack_type")
    for idx, text in edits:
        lines[idx] = text
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as expected:
        per_row_load_trace(path)
    with pytest.raises(TraceParseError) as got:
        load_trace(path)
    assert str(got.value) == str(expected.value)
    assert got.value.line_no == expected.value.line_no


def test_column_loader_keeps_csvs_field_size_limit(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("timestamp_us,src,dst,size_bytes,label,attack_type\n"
                    f"0,{'a' * (csv.field_size_limit() + 1)},b,1,0,\n")
    with pytest.raises(TraceParseError) as expected:
        per_row_load_trace(path)
    with pytest.raises(TraceParseError) as got:
        load_trace(path)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == f"{path}:2: field larger than field limit (131072)"


# Each file kind's header and a row maker, for the tests of the one reader.
FILE_KINDS = {
    "trace": (",".join(TRACE_FIELDS), lambda i: f"{i},10.0.0.1,10.0.0.2,{i % 1500},0,", load_trace),
    "features": ("f1,f2,label,attack_type", lambda i: f"0.{i},{i}.5,0,", load_feature_dataset),
    "log": ("timestamp_us,decision_value,threshold,is_attack,mode",
            lambda i: f"{i},0.{i},0.5,0,botnet", read_decision_log),
}


@pytest.mark.parametrize("kind", sorted(FILE_KINDS))
@pytest.mark.parametrize("bad_lines", [[1], [3, 7], [1500, 1900]],
                         ids=["header", "body", "past 8 KiB"])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_a_file_that_is_not_utf8_names_its_first_bad_line(tmp_path, kind, bad_lines, ending):
    # The decoder's own error names neither the file nor the line, and counts
    # its position from a read chunk; line 1500 is past the first 8 KiB. Lines
    # end as csv ends them, at a CR too.
    header, make_row, load = FILE_KINDS[kind]
    lines = [line.encode() for line in [header] + [make_row(i) for i in range(2000)]]
    for n in bad_lines:
        lines[n - 1] = lines[n - 1][:3] + b"\xff" + lines[n - 1][3:]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(ending.encode().join(lines) + ending.encode())
    with pytest.raises(TraceParseError) as err:
        load(path)
    assert str(err.value) == (f"{path}:{bad_lines[0]}: not UTF-8 text: 'utf-8' codec can't "
                              "decode byte 0xff in position 3: invalid start byte")
    assert err.value.line_no == bad_lines[0]


@pytest.mark.parametrize("kind", sorted(FILE_KINDS))
@pytest.mark.parametrize("line, edit, message", [
    (1, lambda text: '"' + text, "unexpected end of data"),
    (6, lambda text: '"' + text, "unexpected end of data"),
    (6, lambda text: text[:2] + ',"' + text[3:], "unexpected end of data"),
    (1, lambda text: '"x"y' + text[1:], "',' expected after '\"'"),
    (9, lambda text: '"1" ' + text[1:], "',' expected after '\"'"),
], ids=["open in the header", "open in a row", "open in a later field",
        "text after a closing quote in the header", "text after a closing quote in a row"])
def test_a_quote_left_open_or_closed_early_is_an_error_naming_its_line(tmp_path, kind, line,
                                                                       edit, message):
    # Read loosely, csv takes the rest of the file into a quoted field that is
    # never closed, so a small file loses its later rows without a word.
    header, make_row, load = FILE_KINDS[kind]
    lines = [header] + [make_row(i + 1) for i in range(40)]
    lines[line - 1] = edit(lines[line - 1])
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as err:
        load(path)
    assert str(err.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("kind, header", [
    ("trace", None), ("log", None), ("features", "f1,f2,lbl,attack_type"), ("features", None)])
def test_a_byte_order_mark_before_a_bad_header_is_named(tmp_path, kind, header):
    # A UTF-8 byte-order mark is invisible in most editors, so "expected header"
    # alone reads as wrong for a header that looks right. A feature file whose
    # header is otherwise valid is rejected too: it used to load, naming its
    # first feature "\ufefff1".
    default, make_row, load = FILE_KINDS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text("\ufeff" + "\n".join([header or default, make_row(1)]) + "\n",
                    encoding="utf-8")
    with pytest.raises(TraceParseError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}:1: expected ")
    assert str(err.value).endswith(", but the file starts with a UTF-8 byte-order mark (U+FEFF)")


def test_column_loader_rejects_integers_past_64_bits(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("timestamp_us,src,dst,size_bytes,label,attack_type\n"
                    "0,a,b,1,0,\n"
                    f"{2 ** 63},a,b,1,0,\n")
    assert len(per_row_load_trace(path)) == 2  # Python ints never overflow
    with pytest.raises(TraceParseError) as err:
        load_trace(path)
    assert err.value.line_no == 3 and "64 bits" in str(err.value)


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def trace_files(st):
    """Trace CSV texts that mix rows both loaders must read alike with rows
    that each must reject alike: quoted fields (a quoted newline among them,
    which a small block splits across its edge), odd integers, bad labels,
    stray columns, blank lines, CR and CRLF endings, timestamps that go
    back, and values at and next to either int64 bound (not past them:
    those have their own test)."""
    good_address = st.sampled_from(["10.0.0.1", "10.0.0.2", "a", ""])
    odd_address = st.sampled_from(['"a"', '"a,b"', '"x\ny"', '"q""r"', 'a"b', "a\0b", '"open'])
    odd_integer = st.sampled_from(["x", "", "1.5", "0x10", " 7 ", "+3", "1_0", "\u0663", "-0"])
    size = st.one_of(st.integers(0, 1500), st.sampled_from([INT64_MAX, INT64_MAX - 1])).map(str)
    odd_size = st.one_of(odd_integer, st.just("-1"))
    label, odd_label = st.sampled_from(["0", "1", ""]), st.sampled_from([" 1 ", "2", "yes"])
    kind, odd_kind = st.sampled_from(["", "flood", " scan "]), st.sampled_from(['"a,b"', "\0"])
    odd_line = st.sampled_from([
        lambda line: "", lambda line: "  ", lambda line: line + ",x",
        lambda line: line.rsplit(",", 1)[0], lambda line: '"' + line.replace(",", '",', 1)])

    @st.composite
    def text(draw):
        odd_in_100 = draw(st.sampled_from([0, 2, 15]))

        def pick(good, odd):
            return draw(odd if draw(st.integers(0, 99)) < odd_in_100 else good)

        ts = draw(st.sampled_from([0, 10**6, INT64_MIN, INT64_MIN + 1, INT64_MAX - 40]))
        lines = [",".join(TRACE_FIELDS) + "\n"]
        for _ in range(draw(st.integers(0, 40))):
            step = pick(st.integers(0, 3), st.integers(-3, -1))
            ts = min(max(ts + step, INT64_MIN), INT64_MAX)
            fields = [pick(st.just(str(ts)), odd_integer), pick(good_address, odd_address),
                      pick(good_address, odd_address), pick(size, odd_size),
                      pick(label, odd_label), pick(kind, odd_kind)]
            line = pick(st.just(lambda line: line), odd_line)(",".join(fields))
            lines.append(line + pick(st.just("\n"), st.sampled_from(["\r\n", "\r"])))
        if draw(st.booleans()):
            lines[-1] = lines[-1].rstrip("\r\n")
        return "".join(lines)

    return text()


@pytest.mark.parametrize("block", [1024, 3])
def test_column_loader_equals_per_row_loader_on_generated_files(tmp_path, monkeypatch, block):
    # Every block is either split at once or parsed by the row loop; either way
    # the columns, or the error and its line, must be the per-row loader's.
    hypothesis = pytest.importorskip("hypothesis")
    monkeypatch.setattr(traffic, "_TRACE_BLOCK", block)
    path = tmp_path / "generated.csv"
    header = ",".join(TRACE_FIELDS) + "\n"

    @hypothesis.settings(deadline=None)  # a slow example on a loaded box is not a failure
    @hypothesis.given(trace_files(hypothesis.strategies))
    @hypothesis.example(header + '0,a,b,1,0,\n1,a,b,1,0,\n2,"multi\nline",b,1,0,\n3,a,b,1,0,\n')
    # A quoted newline across a block edge, each physical line of six fields:
    # only a split that knows quotes sees one record where there are two lines.
    @hypothesis.example(header + '0,a,b,1,0,\n1,a,b,1,0,\n2,a,b,1,0,"x\ny"\n3,a,b,1,0,\n')
    @hypothesis.example(header + '0,"a",b,1,0,\r\n1,a,b,2,1," scan "\r\n\r\n2,a,b,3,0,\r')
    @hypothesis.example(header + f"{INT64_MIN},a,b,{INT64_MAX},0,\n{INT64_MAX},a,b,0,1,x\n")
    @hypothesis.example(header + "5,a,b,1,0,\n4,a,b,1,0,\n")
    def check(text):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        (got, got_err), (rows, want_err) = load_both(path, load_trace, per_row_load_trace)
        if want_err is not None:
            assert type(got_err) is type(want_err) and str(got_err) == str(want_err)
            assert getattr(got_err, "line_no", None) == getattr(want_err, "line_no", None)
            return
        assert got_err is None and columns(got) == columns(trace_of(rows))

    check()


def test_trace_from_records_indexes_slices_and_iterates():
    rows = random_rows(np.random.default_rng(5), 30)
    trace = trace_of(rows)
    assert tuple(trace) == tuple(row[:4] for row in rows) and len(trace) == 30
    part = trace[5:12]
    assert isinstance(part, Trace) and columns(part) == columns(trace_of(rows[5:12]))
    assert columns(trace[::-1][:3]) == columns(trace_of(rows[:-4:-1]))
    mask = [i % 3 == 0 for i in range(30)]
    assert columns(trace[mask]) == columns(trace_of(rows[::3]))
    assert columns(trace[np.array(mask)]) == columns(trace_of(rows[::3]))
    for idx in (0, -1, np.int64(3), mask[1:], [1] * 30):
        with pytest.raises(TypeError):
            trace[idx]  # a single packet is read from the columns; a mask is one bool a packet
    assert list(trace.label) == [row[4] for row in rows]
    with pytest.raises(ValueError):
        trace.timestamp_us[0] = 1  # the columns are read-only
    ts = np.arange(30, dtype=np.int64)
    Trace(ts, trace.src, trace.dst, ts)
    assert ts.flags.writeable  # the trace's view is read-only, the caller's array is not
    assert len(Trace()) == 0 and tuple(Trace()) == () and columns(Trace()) == ((),) * 6


# -- feature CSV ------------------------------------------------------------------


def test_feature_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    table = FeatureTable(rng.uniform(-5, 5, size=(100, 4)),
                         [bool(b) for b in rng.integers(2, size=100)],
                         ["scan" if b else None for b in rng.integers(2, size=100)])
    path = tmp_path / "f.csv"
    write_feature_file(table, path)
    loaded = load_feature_dataset(path)
    assert len(loaded) == len(table) == 100
    assert np.array_equal(loaded.features, table.features)  # repr() round-trips floats
    assert loaded.label == table.label and loaded.attack_type == table.attack_type


def test_feature_dataset_header_without_type_column(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("f1,f2,label\n0.5,1.5,1\n-2.0,0.0,\n")
    table = load_feature_dataset(path)
    assert np.array_equal(table[0], [0.5, 1.5])
    assert table.label == (True, None) and table.attack_type == (None, None)


def test_feature_table_rows_are_its_matrix_rows(tmp_path):
    matrix = np.arange(12.0).reshape(4, 3)
    table = FeatureTable(matrix, [False, True, None, False], [None, "scan", None, None])
    assert len(table) == 4 and table.features.shape == (4, 3)
    assert [row.tolist() for row in table] == matrix.tolist()
    assert np.array_equal(table[1], matrix[1]) and np.array_equal(table[1:3], matrix[1:3])
    with pytest.raises(ValueError):
        table.features[0, 0] = 1.0
    assert matrix.flags.writeable  # the table's view is read-only, the caller's matrix is not
    bare = FeatureTable(matrix)
    assert bare.label == bare.attack_type == (None,) * 4
    with pytest.raises(ValueError):
        FeatureTable(matrix, [False] * 3)
    with pytest.raises(ValueError):
        FeatureTable(np.zeros(3))
    path = tmp_path / "empty.csv"
    path.write_text("f1,f2,label,attack_type\n")
    empty = load_feature_dataset(path)
    assert len(empty) == 0 and empty.features.shape == (0, 2)
    path.write_bytes(b"")  # no header either
    with pytest.raises(TraceParseError) as err:
        load_feature_dataset(path)
    assert str(err.value) == f"{path}:1: empty file"


def test_feature_dataset_bad_header(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(TraceParseError):
        load_feature_dataset(path)


def feature_lines(n, seed=3):
    rng = np.random.default_rng(seed)
    lines = ["f1,f2,f3,label,attack_type"]
    for i in range(n):
        label, kind = ("1", "scan") if i % 7 == 0 else ("0", "")
        lines.append(",".join(repr(float(v)) for v in rng.uniform(-1, 1, size=3))
                     + f",{label},{kind}")
    return lines


def test_block_loader_equals_per_row_loader_across_blocks(tmp_path):
    lines = feature_lines(2500)
    lines[1500] = ""  # a blank line shifts every later line number
    path = tmp_path / "f.csv"
    path.write_text("\n".join(lines) + "\n")
    got, expected = load_feature_dataset(path), per_row_load_feature_dataset(path)
    assert isinstance(got, FeatureTable) and len(got) == len(expected) == 2499
    feats, labels, types = zip(*expected)
    assert got.features.shape == (2499, 3) and got.features.dtype == np.float64
    assert np.array_equal(got.features, np.vstack(feats))
    assert got.label == labels and got.attack_type == types
    assert not got.features.flags.writeable
    with pytest.raises(ValueError):
        got[0][0] = 1.0


# (line index, replacement) edits; each file reports the first error in line order.
BAD_FEATURE_FILES = [
    [(10, "0.1,inf,0.2,0,"), (20, "0.1,0.2,0.3,2,")],        # non-finite before a bad label
    [(12, "0.1,nan,0.2,x,")],                                # both on one row: non-finite first
    [(30, "0.1,0.2,0.3,0"), (25, "-inf,0.2,0.3,0,")],       # non-finite before a column count
    [(5, "1e999,0.2,0.3,0,"), (8, "0.1,abc,0.3,0,")],        # non-finite before a bad float
    [(1100, "0.1,0.2,inf,0,")],                              # in the second block
    [(40, "inf,0.2,0.3,0,"), (50, "0.1,nan,0.3,0,")],        # two in one block: the first
    [(1025, "0.1,0.2,nan,0,"), (1027, "0.1,0.2,0.3,7,")],    # last row of the first block
    [(1026, "0.1,0.2,nan,0,")],                              # first row of the second block
    [(1030, "0.1,0.2,0.3,0,"), (1040, "0.1,0.2,z,0,")],      # a bad float alone
    [(3, "0.1,0.2,0.3,0,,")],                                # a column count alone
    [(2000, "0.1,0.2,0.3,yes,")],                            # a bad label alone
]


@pytest.mark.parametrize("edits", BAD_FEATURE_FILES)
def test_block_loader_reports_errors_as_the_per_row_loader(tmp_path, edits):
    lines = feature_lines(2100)
    lines[600] = ""  # data rows 1-1024 (the first block) are lines 2-1026
    for idx, text in edits:
        lines[idx] = text
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as expected:
        per_row_load_feature_dataset(path)
    with pytest.raises(TraceParseError) as got:
        load_feature_dataset(path)
    assert str(got.value) == str(expected.value)
    assert got.value.line_no == expected.value.line_no


def feature_files(st):
    """Feature CSV texts that mix rows both loaders must read alike with rows
    that each must reject alike: odd floats, bad labels, blank and quoted
    lines, stray columns and carriage returns."""
    number = st.floats(allow_nan=False, allow_infinity=False)
    good_field = st.one_of(
        number.map(repr), number.map(lambda v: "%.3e" % v), number.map(lambda v: f"+{abs(v)!r}"),
        st.tuples(st.sampled_from(["", " ", "  "]), number, st.sampled_from(["", " ", "\t"])).map(
            lambda t: f"{t[0]}{t[1]!r}{t[2]}"))
    odd_field = st.sampled_from([
        "1_0", "inf", "-inf", "nan", "1e999", "-1e999", "Infinity", "\u0661\u0662",
        "\u0663.\u0665", "", " ", "#", "1.0#x", "0x10", "1.0\x1c", "\x1f2", "\u00a01.5",
        "1.5\u2028", "\x0c2\x0b", "1,5", '"1.5"', '"2'])
    odd_line = st.sampled_from([
        lambda line: "", lambda line: "  ", lambda line: line + ",x",
        lambda line: line.split(",", 1)[1], lambda line: '"' + line.replace(",", '",', 1),
        lambda line: '"' + line, lambda line: '"1,\n2"' + line[line.index(","):]])

    @st.composite
    def text(draw):
        width, typed = draw(st.integers(1, 3)), draw(st.booleans())
        odd_in_100 = draw(st.sampled_from([0, 2, 15]))

        def pick(good, odd):
            return draw(odd if draw(st.integers(0, 99)) < odd_in_100 else good)

        lines = [",".join([f"f{i + 1}" for i in range(width)] + ["label"]
                          + ["attack_type"] * typed) + "\n"]
        for _ in range(draw(st.integers(0, 40))):
            fields = [pick(good_field, odd_field) for _ in range(width)]
            fields.append(pick(st.sampled_from(["0", "1", " 1 ", ""]),
                               st.sampled_from(["2", "yes", "#"])))
            if typed:
                fields.append(draw(st.sampled_from(["", "scan", " flood ", "a#b"])))
            line = pick(st.just(lambda line: line), odd_line)(",".join(fields))
            lines.append(line + pick(st.just("\n"), st.sampled_from(["\r\n", "\r"])))
        if draw(st.booleans()):
            lines[-1] = lines[-1].rstrip("\r\n")
        return "".join(lines)

    return text()


def load_both(path, *loaders):
    """``(result, None)`` from each loader, or ``(None, error)`` for one that raised."""
    out = []
    for load in loaders:
        try:
            out.append((load(path), None))
        except (TraceParseError, csv.Error) as exc:
            out.append((None, exc))
    return out


@pytest.mark.parametrize("block", [1024, 7])
def test_block_loader_equals_per_row_loader_on_generated_files(tmp_path, monkeypatch, block):
    # Every block either goes through np.loadtxt at once or falls back to the
    # row loop; either way the table, or the error and its line, must be the
    # per-row loader's, bit for bit.
    hypothesis = pytest.importorskip("hypothesis")
    monkeypatch.setattr(traffic, "_TRACE_BLOCK", block)
    path = tmp_path / "generated.csv"

    @hypothesis.settings(deadline=None)  # a slow example on a loaded box is not a failure
    @hypothesis.given(feature_files(hypothesis.strategies))
    @hypothesis.example("f1,label\n1.0\x1c,0\n")  # loadtxt strips \x1c, float does not
    @hypothesis.example("f1,label\n1.0#x,0\n")  # "#" starts no comment
    @hypothesis.example("f1,f2,label,attack_type\n" + "0.5,0.25,0,\n" * 20 + "1_0,2,1,scan\n")
    def check(text):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        (table, got_err), (rows, want_err) = load_both(
            path, load_feature_dataset, per_row_load_feature_dataset)
        if want_err is not None:
            assert type(got_err) is type(want_err) and str(got_err) == str(want_err)
            assert getattr(got_err, "line_no", None) == getattr(want_err, "line_no", None)
            return
        assert got_err is None
        width = table.features.shape[1]
        expected = np.array([feats for feats, _, _ in rows], dtype=float).reshape(-1, width)
        assert table.features.tobytes() == expected.tobytes()
        assert table.features.shape == expected.shape
        assert table.label == tuple(label for _, label, _ in rows)
        assert table.attack_type == tuple(kind for _, _, kind in rows)

    check()


# -- synthetic traces ---------------------------------------------------------------


def test_synth_is_deterministic_and_pure():
    spec = TraceSpec(duration_s=5.0, rate_pps=40.0, hosts=("a", "b", "c"))
    t1 = synth_trace(spec, seed=9)
    t2 = synth_trace(spec, seed=9)
    assert columns(t1) == columns(t2)
    assert tuple(synth_trace(spec, seed=10)) != tuple(t1)


def test_synth_is_sorted_labeled_and_in_range():
    seg = AttackSegment(2.0, 4.0, 10.0, attackers=("evil",), victims=("a",))
    spec = TraceSpec(duration_s=6.0, rate_pps=30.0, hosts=("a", "b"), attacks=(seg,))
    trace = synth_trace(spec, seed=3)
    ts = trace.timestamp_us.tolist()
    assert ts == sorted(ts)
    assert all(0 <= t <= 6_000_000 for t in ts)
    for (t, src, dst, _), label, kind in zip(trace, trace.label, trace.attack_type):
        assert label in (True, False)
        if label:
            assert src == "evil" and dst == "a"
            assert kind == "flood"
            assert 2_000_000 <= t <= 4_000_000
        else:
            assert src in ("a", "b") and dst in ("a", "b")
            assert src != dst and kind is None


def test_synth_attack_rate_multiplier_scales_counts():
    seg = AttackSegment(0.0, 50.0, 20.0, attackers=("evil",), victims=("a",))
    spec = TraceSpec(duration_s=50.0, rate_pps=20.0, hosts=("a", "b"), attacks=(seg,))
    trace = synth_trace(spec, seed=0)
    n_attack = trace.label.count(True)
    n_benign = trace.label.count(False)
    # Expected 20x the benign count over the same interval; Poisson noise only.
    assert 15.0 < n_attack / n_benign < 25.0


def test_synth_ramp_increases_late_arrivals():
    spec = TraceSpec(duration_s=100.0, rate_pps=20.0, rate_ramp=3.0)
    trace = synth_trace(spec, seed=4)
    first = int((trace.timestamp_us < 50_000_000).sum())
    second = len(trace) - first
    # Linear ramp to 3x: expected second/first = 2500/1500 = 5/3.
    assert 1.45 < second / first < 1.9


def test_synth_benign_until_truncates_background():
    seg = AttackSegment(8.0, 10.0, 5.0, attackers=("evil",), victims=("a",))
    spec = TraceSpec(duration_s=10.0, rate_pps=50.0, hosts=("a", "b"),
                     attacks=(seg,), benign_until=8.0)
    trace = synth_trace(spec, seed=6)
    assert all(label for t, label in zip(trace.timestamp_us, trace.label) if t > 8_000_000)
    assert False in trace.label


def test_synth_spray_pool_addresses():
    seg = AttackSegment(0.0, 2.0, 50.0, attackers=("evil",), spray=300)
    spec = TraceSpec(duration_s=2.0, rate_pps=10.0, attacks=(seg,))
    trace = synth_trace(spec, seed=8)
    sprayed = {dst for dst, label in zip(trace.dst, trace.label) if label}
    pool = {f"198.51.{i // 256}.{i % 256}" for i in range(300)}
    assert sprayed and sprayed <= pool
    assert "198.51.1.43" in pool  # the third octet wraps past .0.255


def test_synth_single_host_uses_placeholder_dst():
    spec = TraceSpec(duration_s=2.0, rate_pps=30.0, hosts=("only",))
    trace = synth_trace(spec, seed=1)
    assert set(trace.src) == {"only"} and set(trace.dst) == {"0.0.0.0"}


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        synth_trace(TraceSpec(duration_s=0.0, rate_pps=10.0), seed=0)
    with pytest.raises(ValueError):
        synth_trace(TraceSpec(duration_s=1.0, rate_pps=-1.0), seed=0)
    with pytest.raises(ValueError):
        synth_trace(TraceSpec(duration_s=1.0, rate_pps=10.0, hosts=()), seed=0)
    with pytest.raises(ValueError):
        synth_trace(TraceSpec(duration_s=1.0, rate_pps=10.0, benign_until=2.0), seed=0)
    bad = AttackSegment(0.5, 3.0, 2.0, attackers=("x",), victims=("y",))
    with pytest.raises(ValueError):
        synth_trace(TraceSpec(duration_s=1.0, rate_pps=10.0, attacks=(bad,)), seed=0)
    no_target = AttackSegment(0.0, 1.0, 2.0, attackers=("x",))
    with pytest.raises(ValueError):
        synth_trace(TraceSpec(duration_s=1.0, rate_pps=10.0, attacks=(no_target,)), seed=0)
    no_attacker = AttackSegment(0.0, 1.0, 2.0, attackers=(), victims=("y",))
    with pytest.raises(ValueError, match="^attack segment needs at least one attacker$"):
        synth_trace(TraceSpec(duration_s=1.0, rate_pps=10.0, attacks=(no_attacker,)), seed=0)


def test_synth_trace_round_trips_through_csv(tmp_path):
    seg = AttackSegment(1.0, 2.0, 5.0, attackers=("evil",), victims=("a",))
    spec = TraceSpec(duration_s=3.0, rate_pps=60.0, hosts=("a", "b"), attacks=(seg,))
    trace = synth_trace(spec, seed=12)
    path = tmp_path / "s.csv"
    save_trace(trace, path)
    assert columns(load_trace(path)) == columns(trace)
