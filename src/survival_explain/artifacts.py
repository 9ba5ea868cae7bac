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


def build_envelope(command: str, config: dict, result: dict, grid=None, curves=None,
                   plot=None) -> dict:
    """The JSON-ready artifact; ``plot``, the curves' axis labels, goes in only beside them."""
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
        if plot is not None:
            envelope["plot"] = plot
    return jsonify(envelope)


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _encode(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``.

    The standard library encodes with an indent in pure Python; here each
    list of scalars goes through its C encoder in one call, with the
    indented layout as the item separator.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = (f"{json.dumps(key)}: {_encode(value[key], inner)}" for key in sorted(value))
    elif isinstance(value, list) and value:
        if set(map(type, value)) <= _SCALARS:
            items = [json.dumps(value, separators=(",\n" + inner, ": "), allow_nan=False)[1:-1]]
        else:
            items = (_encode(item, inner) for item in value)
    else:
        return json.dumps(value, allow_nan=False)
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


def write_artifact(path, envelope: dict) -> None:
    text = _encode(envelope)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")


def read_artifact(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        raise InputError(f"cannot read {path}: {error.strerror or error}") from error
    except json.JSONDecodeError as error:
        raise InputError(f"{path} is not valid JSON: {error}") from None
