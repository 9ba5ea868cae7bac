import json

import numpy as np
import pytest

from survival_explain import InputError
from survival_explain.artifacts import jsonify


def elementwise_jsonify(value):
    """Reference: one Python call per element, non-finite floats to None."""
    if isinstance(value, dict):
        return {str(key): elementwise_jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [elementwise_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return [elementwise_jsonify(item) for item in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    if value is None or isinstance(value, str):
        return value
    raise TypeError(type(value).__name__)


def dumped(value):
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, 0.1, 1.0 / 3.0]

ARRAYS = [
    np.array(SPECIALS),
    np.array(SPECIALS[:8]).reshape(2, 4),
    np.array(SPECIALS[:8]).reshape(2, 2, 2),
    np.array([np.nan, np.inf, -0.0, 1e-45, 0.1], dtype=np.float32),
    np.empty((0, 3)),
    np.array([3, -1, 0], dtype=np.int64),
    np.array([7, 0], dtype=np.uint8),
    np.array([[True, False]]),
    np.array(["a", "b"]),
]


class TestJsonify:
    @pytest.mark.parametrize("array", ARRAYS, ids=lambda a: f"{a.dtype}{a.shape}")
    def test_arrays_serialize_like_the_elementwise_path(self, array):
        assert dumped(jsonify(array)) == dumped(elementwise_jsonify(array))

    def test_nested_envelope_serializes_like_the_elementwise_path(self):
        rng = np.random.default_rng(3)
        curves = rng.normal(size=(4, 51))
        curves[1, 7], curves[2, 0], curves[3, -1] = np.nan, np.inf, -0.0
        envelope = {
            "result": {
                "phi": curves,
                "thresholds": np.append(curves[0], np.inf),
                "n": np.int64(4),
            },
            "curves": [{"label": "a", "x": np.arange(51.0), "y": curves[2]}],
            "flags": (np.bool_(True), None),
        }
        assert dumped(jsonify(envelope)) == dumped(elementwise_jsonify(envelope))

    def test_non_finite_cells_become_null(self):
        assert jsonify(np.array([[np.nan, 1.5], [-np.inf, np.inf]])) == [[None, 1.5], [None, None]]

    def test_unsupported_element_rejected(self):
        with pytest.raises(InputError, match="complex"):
            jsonify(np.array([1 + 2j]))
