"""CSV dataset ingestion with coordinate-precise validation errors."""

from __future__ import annotations

import csv
import math
from itertools import islice

import numpy as np

from .data import SurvivalDataset
from .errors import InputError

# Records converted per numpy call. Only one block's cell strings are held at
# a time; converting the whole file at once would hold every cell's string
# beside the parsed table.
_BLOCK_ROWS = 512


def _parse_cells(records, first_row: int, header, time_idx: int, event_idx: int) -> np.ndarray:
    """Parse ``records`` one cell at a time, raising at the first bad cell.

    ``first_row`` is the row number of ``records[0]``; empty records are
    skipped but keep their row numbers. Returns the (rows, columns) table.
    """
    table = []
    for row_number, row in enumerate(records, start=first_row):
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


def _parse_block(records, first_row: int, header, time_idx: int, event_idx: int) -> np.ndarray:
    """Parse a block of records with one numpy conversion and whole-block checks.

    numpy converts each ``str`` cell with Python's ``float()``, so a block
    that converts and passes every check holds exactly what the cell loop
    would give. Any other block goes through the cell loop, which names the
    first bad cell.
    """
    rows = [row for row in records if row]
    try:
        block = np.array(rows, dtype=float)
    except ValueError:
        pass
    else:
        if (
            block.shape == (len(rows), len(header))
            and np.isfinite(block).all()
            and (block[:, time_idx] >= 0).all()
            and np.isin(block[:, event_idx], (0.0, 1.0)).all()
        ):
            return block
    return _parse_cells(records, first_row, header, time_idx, event_idx)


def ingest_csv(path, time_column: str, event_column: str) -> SurvivalDataset:
    """Read a survival dataset from a UTF-8 CSV file with a header row.

    A leading byte-order mark (spreadsheet "CSV UTF-8" exports write one) is
    skipped, and so are blank lines after the header. Every column other
    than the named time and event columns becomes a numeric feature, in
    header order; each cell is read as Python's ``float()`` reads it. Rows
    are 1-based in error messages (the header row is row 0, and blank lines
    keep their numbers). Missing, non-numeric and non-finite cells and
    negative times are rejected, never imputed, with the row and column of
    the first such cell.
    """
    if time_column == event_column:
        raise InputError("time column and event column must differ")
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as error:
        raise InputError(f"cannot read {path}: {error.strerror or error}") from error

    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, expected a header row") from None
        for required in (time_column, event_column):
            if required not in header:
                raise InputError(f"column {required!r} not found in CSV header")
        time_idx = header.index(time_column)
        event_idx = header.index(event_column)
        feature_idx = [k for k in range(len(header)) if k not in (time_idx, event_idx)]

        blocks = [np.empty((0, len(header)))]
        first_row = 1
        while records := list(islice(reader, _BLOCK_ROWS)):
            blocks.append(_parse_block(records, first_row, header, time_idx, event_idx))
            first_row += len(records)

    table = np.concatenate(blocks)
    if not len(table):
        raise InputError(f"{path}: no data rows")
    return SurvivalDataset(
        times=table[:, time_idx].copy(),
        events=table[:, event_idx].astype(int),
        features=np.ascontiguousarray(table[:, feature_idx]),
        feature_names=tuple(header[k] for k in feature_idx),
    )
