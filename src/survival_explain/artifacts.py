"""JSON artifact envelopes with exact float round-tripping.

Floats are serialized through Python's shortest-round-trip repr, so reading
an artifact back yields bit-identical values. NaN (an undefined metric
point) maps to JSON null; the writer refuses any NaN that slipped past
conversion. Envelopes carry no timestamps: identical runs must produce
identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError

TOOL_VERSION = "0.1.0"


def jsonify(value):
    """Convert numpy containers and scalars into plain JSON-ready values."""
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biuf":
            # one pass over the array, not one Python call per element
            cells = value.astype(object)
            cells[~np.isfinite(value)] = None
            return cells.tolist()
        return [jsonify(item) for item in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        # NaN marks an undefined point, inf an unbounded sentinel; JSON has neither
        return value if np.isfinite(value) else None
    if value is None or isinstance(value, str):
        return value
    raise InputError(f"cannot serialize value of type {type(value).__name__}")


def build_envelope(command: str, config: dict, result: dict, grid=None, curves=None) -> dict:
    envelope = {
        "tool_version": TOOL_VERSION,
        "command": command,
        "config": config,
        "result": result,
    }
    if grid is not None:
        envelope["grid"] = grid
    if curves is not None:
        envelope["curves"] = curves
    return jsonify(envelope)


def write_artifact(path, envelope: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def read_artifact(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        raise InputError(f"cannot read {path}: {error.strerror or error}") from error
    except json.JSONDecodeError as error:
        raise InputError(f"{path} is not valid JSON: {error}") from None
