"""CSV dataset ingestion with coordinate-precise validation errors."""

from __future__ import annotations

import csv
import math

import numpy as np

from .data import SurvivalDataset
from .errors import InputError


def ingest_csv(path, time_column: str, event_column: str) -> SurvivalDataset:
    """Read a survival dataset from a UTF-8 CSV file with a header row.

    A leading byte-order mark (spreadsheet "CSV UTF-8" exports write one) is
    skipped. Every column other than the named time and event columns becomes
    a numeric feature, in header order. Rows are 1-based in error messages
    (the header row is row 0). Missing, non-numeric and non-finite cells
    and negative times are rejected, never imputed, with the row and column
    of the first such cell.
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
        feature_names = [header[k] for k in feature_idx]

        times, events, rows = [], [], []
        for row_number, row in enumerate(reader, start=1):
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
            times.append(parsed[time_idx])
            events.append(int(parsed[event_idx]))
            rows.append([parsed[k] for k in feature_idx])

    if not rows:
        raise InputError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=float).reshape(len(rows), len(feature_idx))
    return SurvivalDataset(
        times=np.asarray(times, dtype=float),
        events=np.asarray(events, dtype=int),
        features=features,
        feature_names=tuple(feature_names),
    )
