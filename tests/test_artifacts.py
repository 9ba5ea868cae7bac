import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survival_explain import InputError
from survival_explain.artifacts import jsonify, write_artifact


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


# JSON values as jsonify leaves them: str keys, and lists that hold scalars,
# containers or both.
TEXT = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(["", "é", "ü", "名", "\u2028", '"\\'])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**70), 10**30])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e308, 0.1])
    | TEXT
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=40,
)


class TestWriteArtifact:
    @settings(deadline=None, max_examples=300)
    @given(value=JSON_VALUES)
    def test_writes_what_the_standard_encoder_writes(self, tmp_path_factory, value):
        path = tmp_path_factory.mktemp("artifacts") / "value.json"
        write_artifact(path, value)
        assert path.read_bytes() == (dumped(value) + "\n").encode("utf-8")

    @pytest.mark.parametrize(
        "value",
        [float("nan"), [1.0, float("inf")], {"a": [[0.5], {"b": -float("inf")}]}, {"c": float("nan")}],
        ids=["nan", "inf-in-list", "inf-nested", "nan-in-dict"],
    )
    def test_non_finite_floats_are_refused(self, tmp_path, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_artifact(tmp_path / "bad.json", value)
        assert not (tmp_path / "bad.json").exists()
