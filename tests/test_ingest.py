"""CSV ingestion: happy paths and every diagnostic message with coordinates."""

import numpy as np
import pytest

from survival_explain import InputError
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
