"""CSV ingestion: happy paths and every diagnostic message with coordinates."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survival_explain import InputError, ingest
from survival_explain.ingest import ingest_csv


def write_csv(path, text):
    path.write_text(text)
    return str(path)


GOOD_CSV = "time,event,age,dose\n5.0,1,61,0.5\n2.5,0,48,1.25\n7.75,1,70,0.0\n"


class TestWellFormed:
    def test_columns_and_rows_preserved(self, tmp_path):
        path = write_csv(tmp_path / "ok.csv", GOOD_CSV)
        data = ingest_csv(path, time_column="time", event_column="event")
        assert len(data.times) == 3
        assert data.feature_names == ["age", "dose"]
        np.testing.assert_array_equal(data.times, [5.0, 2.5, 7.75])
        np.testing.assert_array_equal(data.events, [1, 0, 1])
        np.testing.assert_array_equal(data.features, [[61.0, 0.5], [48.0, 1.25], [70.0, 0.0]])

    def test_time_event_anywhere_in_header(self, tmp_path):
        # Feature order follows the header, skipping the two designated columns.
        path = write_csv(tmp_path / "shuffled.csv", "a,event,b,time\n1,0,2,3\n4,1,5,6\n")
        data = ingest_csv(path, time_column="time", event_column="event")
        assert data.feature_names == ["a", "b"]
        np.testing.assert_array_equal(data.times, [3.0, 6.0])
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [4.0, 5.0]])

    def test_zero_feature_file_accepted(self, tmp_path):
        path = write_csv(tmp_path / "bare.csv", "time,event\n1.0,1\n2.0,0\n3.0,1\n")
        data = ingest_csv(path, time_column="time", event_column="event")
        assert len(data.times) == 3
        assert data.feature_names == []
        assert data.features.shape == (3, 0)

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        plain = ingest_csv(write_csv(tmp_path / "plain.csv", GOOD_CSV), "time", "event")
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + GOOD_CSV.encode("utf-8"))
        data = ingest_csv(str(path), time_column="time", event_column="event")
        assert data.feature_names == plain.feature_names
        np.testing.assert_array_equal(data.times, plain.times)
        np.testing.assert_array_equal(data.events, plain.events)
        np.testing.assert_array_equal(data.features, plain.features)

    def test_float_formatted_event_flags(self, tmp_path):
        path = write_csv(tmp_path / "floaty.csv", "time,event,x\n1.0,1.0,0.1\n2.0,0.0,0.2\n")
        data = ingest_csv(path, time_column="time", event_column="event")
        np.testing.assert_array_equal(data.events, [1, 0])


class TestDiagnostics:
    def test_time_equals_event_column(self, tmp_path):
        path = write_csv(tmp_path / "ok.csv", GOOD_CSV)
        with pytest.raises(InputError, match="time column and event column must differ"):
            ingest_csv(path, time_column="time", event_column="time")

    def test_missing_file(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        with pytest.raises(InputError, match="cannot read"):
            ingest_csv(missing, time_column="time", event_column="event")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", "")
        with pytest.raises(InputError, match="empty file, expected a header row"):
            ingest_csv(path, time_column="time", event_column="event")

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "headeronly.csv", "time,event,x\n")
        with pytest.raises(InputError, match="no data rows"):
            ingest_csv(path, time_column="time", event_column="event")

    def test_missing_column_named(self, tmp_path):
        path = write_csv(tmp_path / "ok.csv", GOOD_CSV)
        with pytest.raises(InputError, match="column 'status' not found in CSV header"):
            ingest_csv(path, time_column="time", event_column="status")

    def test_ragged_row_coordinates(self, tmp_path):
        path = write_csv(tmp_path / "ragged.csv", "time,event,x\n1,1,2\n3,0\n")
        with pytest.raises(InputError, match=r"row 2 has 2 cells, header has 3"):
            ingest_csv(path, time_column="time", event_column="event")

    def test_non_numeric_cell_coordinates(self, tmp_path):
        path = write_csv(tmp_path / "text.csv", "time,event,age\n1,1,61\n2,0,unknown\n")
        with pytest.raises(InputError, match=r"non-numeric value 'unknown' \(row 2, column 'age'\)"):
            ingest_csv(path, time_column="time", event_column="event")

    def test_event_out_of_domain(self, tmp_path):
        rows = "\n".join(f"{t},1,0.0" for t in range(1, 5))
        path = write_csv(tmp_path / "bad_event.csv", f"time,event,x\n{rows}\n5,2,0.0\n")
        with pytest.raises(InputError, match=r"event column must be 0/1 \(row 5\)"):
            ingest_csv(path, time_column="time", event_column="event")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,1,nan", r"non-finite value 'nan' \(row 2, column 'age'\)"),
            ("1,1,-inf", r"non-finite value '-inf' \(row 2, column 'age'\)"),
            ("inf,0,48", r"non-finite value 'inf' \(row 2, column 'time'\)"),
            ("-1,0,48", r"negative time '-1' \(row 2, column 'time'\)"),
            ("NaN,1,unknown", r"non-finite value 'NaN' \(row 2, column 'time'\)"),
        ],
        ids=["nan-feature", "inf-feature", "inf-time", "negative-time", "first-bad-cell"],
    )
    def test_rejected_cell_coordinates(self, tmp_path, row, message):
        path = write_csv(tmp_path / "bad.csv", f"time,event,age\n1,1,61\n{row}\n")
        with pytest.raises(InputError, match=message):
            ingest_csv(path, time_column="time", event_column="event")

    def test_negative_feature_accepted(self, tmp_path):
        path = write_csv(tmp_path / "neg.csv", "time,event,age\n1,1,-61\n0,0,-0.5\n")
        data = ingest_csv(path, time_column="time", event_column="event")
        np.testing.assert_array_equal(data.features, [[-61.0], [-0.5]])


class TestBlankLines:
    def test_blank_lines_are_skipped(self, tmp_path):
        # one blank line mid-file and two at the end: the clean file's dataset
        clean = ingest_csv(write_csv(tmp_path / "clean.csv", GOOD_CSV), "time", "event")
        lines = GOOD_CSV.splitlines()
        blank = "\n".join(lines[:2] + [""] + lines[2:]) + "\n\n\n"
        data = ingest_csv(write_csv(tmp_path / "blank.csv", blank), "time", "event")
        np.testing.assert_array_equal(data.times, clean.times)
        np.testing.assert_array_equal(data.events, clean.events)
        np.testing.assert_array_equal(data.features, clean.features)

    def test_blank_lines_keep_their_row_numbers(self, tmp_path):
        path = write_csv(tmp_path / "blank.csv", "time,event,age\n1,1,61\n\n2,0,x\n")
        with pytest.raises(InputError, match=r"non-numeric value 'x' \(row 3, column 'age'\)"):
            ingest_csv(path, time_column="time", event_column="event")

    def test_whitespace_only_line_is_not_blank(self, tmp_path):
        path = write_csv(tmp_path / "space.csv", "time,event,age\n1,1,61\n \n")
        with pytest.raises(InputError, match=r"row 2 has 1 cells, header has 3"):
            ingest_csv(path, time_column="time", event_column="event")

    def test_only_blank_lines_after_header(self, tmp_path):
        path = write_csv(tmp_path / "blank.csv", "time,event,age\n\n\n")
        with pytest.raises(InputError, match="no data rows"):
            ingest_csv(path, time_column="time", event_column="event")

    def test_blank_lines_before_header_are_skipped(self, tmp_path):
        clean = ingest_csv(write_csv(tmp_path / "clean.csv", GOOD_CSV), "time", "event")
        data = ingest_csv(write_csv(tmp_path / "lead.csv", "\n\r\n" + GOOD_CSV), "time", "event")
        assert data.feature_names == clean.feature_names
        np.testing.assert_array_equal(data.times, clean.times)
        np.testing.assert_array_equal(data.events, clean.events)
        np.testing.assert_array_equal(data.features, clean.features)

    def test_rows_count_from_the_header_after_leading_blank_lines(self, tmp_path):
        path = write_csv(tmp_path / "lead.csv", "\n\ntime,event,age\n1,1,61\n2,0,x\n")
        with pytest.raises(InputError, match=r"non-numeric value 'x' \(row 2, column 'age'\)"):
            ingest_csv(path, time_column="time", event_column="event")

    def test_only_blank_lines_is_an_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "blank.csv", "\n\n")
        with pytest.raises(InputError, match="empty file, expected a header row"):
            ingest_csv(path, time_column="time", event_column="event")


# Cells that Python's float() reads, by column kind, and cells it rejects or
# that break a column's rule. Digits in other scripts and underscores are
# valid float() syntax.
HEADER = ["age", "time", "dose", "event"]
VALID = {
    "age": ("61", "-2.5", " 3 ", "1_0", "1e2", "١٢", "-0"),
    "time": ("0", "7.75", " 3 ", "1_0", "1e2", "١٢", "-0"),
    "dose": ("0.5", "1.25", " 3 ", "1_0", "1e-3", "١٢"),
    "event": ("0", "1", "1.0", " 0 ", "-0"),
}
BAD = ("", "x", "nan", "inf", "1e400")
FAULTS = (*BAD, "-1", "2", "short")


def reference_ingest(path, text, time_column, event_column):
    """Cell-by-cell reference: every rule of ``ingest_csv`` applied to one
    cell at a time, in row and then column order, to the CSV ``text`` of
    the file ``path``."""
    records = list(csv.reader(io.StringIO(text, newline="")))
    while records and not records[0]:
        records.pop(0)
    if not records:
        raise InputError(f"{path}: empty file, expected a header row")
    header = records[0]
    time_idx, event_idx = header.index(time_column), header.index(event_column)
    feature_idx = [k for k in range(len(header)) if k not in (time_idx, event_idx)]
    times, events, features = [], [], []
    for row_number, row in enumerate(records[1:], start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(f"row {row_number} has {len(row)} cells, header has {len(header)}")
        values = []
        for k, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"non-numeric value {cell!r} (row {row_number}, column {header[k]!r})"
                ) from None
            if not math.isfinite(value):
                raise InputError(
                    f"non-finite value {cell!r} (row {row_number}, column {header[k]!r})"
                )
            if k == time_idx and value < 0:
                raise InputError(
                    f"negative time {cell!r} (row {row_number}, column {header[k]!r})"
                )
            values.append(value)
        if values[event_idx] not in (0.0, 1.0):
            raise InputError(f"event column must be 0/1 (row {row_number})")
        times.append(values[time_idx])
        events.append(int(values[event_idx]))
        features.append([values[k] for k in feature_idx])
    if not times:
        raise InputError(f"{path}: no data rows")
    return (
        np.array(times, dtype=float),
        np.array(events, dtype=int),
        np.array(features, dtype=float).reshape(len(times), len(feature_idx)),
    )


def assert_matches_reference(directory, text, bom=False):
    """Write ``text`` to a CSV in ``directory`` and check that ``ingest_csv``
    gives the reference's arrays bit for bit, or its message exactly."""
    path = str(directory / "data.csv")
    with open(path, "wb") as handle:
        handle.write(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
    try:
        expected = reference_ingest(path, text, "time", "event")
    except InputError as error:
        with pytest.raises(InputError) as raised:
            ingest_csv(path, "time", "event")
        assert str(raised.value) == str(error)
        return
    result = ingest_csv(path, "time", "event")
    for got, want in zip((result.times, result.events, result.features), expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags["C_CONTIGUOUS"]


@st.composite
def long_csvs(draw, kind):
    """CSV text of 1 025 to 1 536 rows of valid cells, with one ``kind`` of
    fault (a bad cell, a negative time, a 2-valued event or a short row;
    None for none) and up to one more, and up to three blank lines, placed
    anywhere."""
    n_rows = draw(st.integers(1025, 1536))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [np.array(VALID[name])[rng.integers(len(VALID[name]), size=n_rows)]
               for name in HEADER]
    rows = [list(row) for row in zip(*columns)]
    # the rows come from the seeded generator, so they spread over the whole
    # file; rows are shortened last, so every column index stays in range
    kinds = [kind] + draw(st.lists(st.sampled_from(FAULTS), max_size=1)) if kind else []
    for fault in sorted(kinds, key=lambda fault: fault == "short"):
        row = rows[rng.integers(n_rows)]
        if fault == "short":
            row.pop()
        elif fault in BAD:
            row[rng.integers(len(row))] = fault
        else:
            row[HEADER.index("time" if fault == "-1" else "event")] = fault
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(rng.integers(n_rows + 1), "")
    return ",".join(HEADER) + "\n" + "\n".join(lines) + "\n"


class TestBlockParsing:
    @pytest.mark.parametrize("kind", (None, *FAULTS))
    @settings(deadline=None, max_examples=12)
    @given(data=st.data())
    def test_matches_cell_by_cell_reference(self, tmp_path_factory, kind, data):
        text = data.draw(long_csvs(kind))
        assert_matches_reference(tmp_path_factory.mktemp("blocks"), text)


LINE_ENDINGS = ("\n", "\r\n", "\r")

# Cells numpy's reader converts as float() does, quoted ones included.
LOADABLE = {
    "time": ("0", "7.75", " 3 ", "1e2", "-0", '"12"', "+5", ".5", '"4\n"'),
    "event": ("0", "1", "1.0", " 0 ", "-0", '"1"'),
    "x": ("61", "-2.5", "1E-3", "5.", '"0.25"', "\u00a04", "1e-400", "-0", '" 7"'),
}

# Cells and lines on which numpy's reader and the cell loop could part ways:
# quotes, comment marks, blanks, non-finite values, float() syntax numpy
# refuses, ASCII separators numpy strips, and values a column's rule refuses.
EDGE_CELLS = (
    '"1"', '"1"2', '" 1"', '"1,5"', '"3\r\n"', "#", "1#2", "", " ", "inf", "nan", "1e400",
    "-0", "1_0", "١٢", "\x1c1", "1\x1f", "x", "-1", "2",
)
EDGE_LINES = ("", " ", "\t", "#", "#,1,1")


def csv_text(draw, lines):
    """``lines`` joined with drawn line endings, after up to two blank lines."""
    lines = [""] * draw(st.integers(0, 2)) + lines
    endings = draw(st.lists(st.sampled_from(LINE_ENDINGS), min_size=len(lines),
                            max_size=len(lines)))
    return "".join(line + ending for line, ending in zip(lines, endings))


@st.composite
def loadable_csvs(draw):
    """Valid CSV text of loadable cells, columns in any order, with blank
    lines and mixed line endings."""
    header = draw(st.permutations(["time", "event", "x", "y"]))
    row = st.tuples(*(st.sampled_from(LOADABLE.get(name, LOADABLE["x"])) for name in header))
    rows = draw(st.lists(st.one_of(row.map(",".join), st.just("")), min_size=1, max_size=60))
    rows.append(",".join(draw(row)))
    return csv_text(draw, [",".join(header)] + rows)


@st.composite
def edge_csvs(draw):
    """Loadable CSV text with one or two edges put in: an edge cell, an edge
    line, or a row of the wrong width, in one row or in every row."""
    columns = [st.sampled_from(LOADABLE[name]) for name in ("time", "event", "x")]
    rows = [list(row) for row in draw(st.lists(st.tuples(*columns), min_size=1, max_size=6))]
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, len(rows) - 1))
        edge = draw(st.sampled_from(("cell", "line", "width")))
        if edge == "cell":
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(st.sampled_from(EDGE_CELLS))
        elif edge == "line":
            rows.insert(k, [draw(st.sampled_from(EDGE_LINES))])
        else:
            width = draw(st.sampled_from((2, 4)))
            every = draw(st.booleans())
            rows = [(row + ["1"])[:width] if every or j == k else row
                    for j, row in enumerate(rows)]
    return csv_text(draw, ["time,event,x"] + [",".join(row) for row in rows])


class TestLoadedTables:
    @settings(deadline=None, max_examples=150)
    @given(text=loadable_csvs(), bom=st.booleans())
    def test_loadable_files_skip_the_cell_loop(self, tmp_path_factory, text, bom):
        calls = []
        cell_loop = ingest._parse_cells
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_parse_cells", lambda *args: calls.append(args) or cell_loop(*args))
            assert_matches_reference(tmp_path_factory.mktemp("loadable"), text, bom)
        assert not calls

    @settings(deadline=None, max_examples=600)
    @given(text=edge_csvs(), bom=st.booleans())
    def test_edge_cases_match_cell_by_cell_reference(self, tmp_path_factory, text, bom):
        assert_matches_reference(tmp_path_factory.mktemp("edges"), text, bom)
