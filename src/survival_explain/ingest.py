"""CSV dataset ingestion with coordinate-precise validation errors."""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

from .data import SurvivalDataset
from .errors import InputError

# ASCII separator controls: numpy's reader strips them around a number as
# whitespace, and float() rejects them, so a file holding one skips numpy.
_SEPARATORS = b"\x1c\x1d\x1e\x1f"


def _parse_cells(records, header, time_idx: int, event_idx: int) -> np.ndarray:
    """Parse the data ``records`` one cell at a time, raising at the first
    bad cell. Rows are numbered from 1, and empty records are skipped but
    keep their numbers. Returns the (rows, columns) table.
    """
    table = []
    for row_number, row in enumerate(records, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(
                f"row {row_number} has {len(row)} cells, header has {len(header)}"
            )
        parsed = []
        for k, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                problem = "non-numeric value"
            else:
                if not math.isfinite(value):
                    problem = "non-finite value"
                elif k == time_idx and value < 0:
                    problem = "negative time"
                else:
                    parsed.append(value)
                    continue
            raise InputError(f"{problem} {cell!r} (row {row_number}, column {header[k]!r})")
        if parsed[event_idx] not in (0.0, 1.0):
            raise InputError(f"event column must be 0/1 (row {row_number})")
        table.append(parsed)
    return np.array(table, dtype=float).reshape(len(table), len(header))


def _load_table(handle, n_columns: int, time_idx: int, event_idx: int):
    """The rest of ``handle`` through numpy's C reader, or None for the cell
    loop. numpy reads each cell it accepts as ``float()`` does, so a table
    that loads and passes these checks holds what the cell loop would give."""
    # numpy warns on input with no rows, so a file with none skips numpy
    first = next((line for line in handle if line.strip("\r\n")), None)
    if first is None:
        return None
    lines = itertools.chain([first], handle)
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float)
    except ValueError:
        return None
    valid = (
        table.shape[1] == n_columns
        and np.isfinite(table).all()
        and (table[:, time_idx] >= 0).all()
        and np.isin(table[:, event_idx], (0.0, 1.0)).all()
    )
    return table if valid else None


def ingest_csv(path, time_column: str, event_column: str) -> SurvivalDataset:
    """Read a survival dataset from a UTF-8 CSV file with a header row.

    A leading byte-order mark (spreadsheet "CSV UTF-8" exports write one) is
    skipped, and so are blank lines before and after the header. Every
    column other than the named time and event columns becomes a numeric
    feature, in header order; each cell is read as Python's ``float()``
    reads it. Rows are 1-based in error messages (the header row is row 0,
    and blank lines after it keep their numbers). Missing, non-numeric and
    non-finite cells and negative times are rejected, never imputed, with
    the row and column of the first such cell. The time and event columns
    must each appear once in the header.
    """
    if time_column == event_column:
        raise InputError("time column and event column must differ")
    try:
        with open(path, "rb") as source:
            content = source.read()
    except OSError as error:
        raise InputError(f"cannot read {path}: {error.strerror or error}") from error

    # read from memory, so the cell loop can start over on any input
    with io.TextIOWrapper(io.BytesIO(content), encoding="utf-8-sig", newline="") as handle:
        header = next((row for row in csv.reader(handle) if row), None)
        if header is None:
            raise InputError(f"{path}: empty file, expected a header row")
        for required in (time_column, event_column):
            count = header.count(required)
            if count == 0:
                raise InputError(f"column {required!r} not found in CSV header")
            if count > 1:
                raise InputError(f"column {required!r} appears {count} times in the CSV header")
        time_idx = header.index(time_column)
        event_idx = header.index(event_column)
        feature_idx = [k for k in range(len(header)) if k not in (time_idx, event_idx)]

        table = None
        if not any(separator in content for separator in _SEPARATORS):
            table = _load_table(handle, len(header), time_idx, event_idx)
        if table is None:
            handle.seek(0)
            records = csv.reader(handle)
            next(row for row in records if row)  # the header
            table = _parse_cells(records, header, time_idx, event_idx)

    if not len(table):
        raise InputError(f"{path}: no data rows")
    return SurvivalDataset(
        times=table[:, time_idx].copy(),
        events=table[:, event_idx].astype(int),
        features=np.ascontiguousarray(table[:, feature_idx]),
        feature_names=tuple(header[k] for k in feature_idx),
    )
