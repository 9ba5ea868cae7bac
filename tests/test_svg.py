import hashlib

import pytest

from survival_explain import InputError
from survival_explain.svg import render_line_chart

# Each document's SHA-256, recorded before the element writers were factored
# out of render_line_chart. A change here is a change to every written SVG.
CASES = {
    "escaped text and a missing point": (
        [
            {"label": "a & b", "x": [0.0, 1.0, 2.5, 4.0], "y": [1.0, 0.8, None, 0.2]},
            {"label": "<c>", "x": [0.5, 3.0], "y": [0.9, 0.4]},
        ],
        {"title": "S(t) & <risk> > 0", "x_label": "t <days>", "y_label": "p & q"},
        "3534393b6552a78a356258972407d7deac230e5c2ff0bbd8ce861d3d3587f91f",
    ),
    "constant series": (
        [{"label": "flat", "x": [1.0, 2.0, 3.0], "y": [0.5, 0.5, 0.5]}],
        {},
        "90f5fb2b0c7fa805bc1608e1d60041cf0583eadca9169eda9a59c778d787c129",
    ),
    "single x": (
        [{"label": "point", "x": [7.0], "y": [0.25]}, {"label": "other", "x": [7.0], "y": [-3.0]}],
        {"title": "one time"},
        "c86e2eb898d168f12892893c63d12842e74ba81937a1496b8d5788c4b1356a78",
    ),
    "palette wraps past eight series": (
        [
            {"label": f"series {i}", "x": [0.0, 1.0, 2.0], "y": [i * 0.1, i * 0.1 + 0.05, 1.0 - i * 0.1]}
            for i in range(11)
        ],
        {"title": "eleven", "x_label": "time", "y_label": "value"},
        "9da6469af219938caedd0dd7bb7e25ce03e3e9b3cfdb182313521e1ac4ff7dc1",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_document_bytes_are_pinned(name):
    series, options, digest = CASES[name]
    document = render_line_chart(series, **options)
    assert hashlib.sha256(document.encode("utf-8")).hexdigest() == digest


def test_escaped_text_has_no_raw_markup():
    series, options, _ = CASES["escaped text and a missing point"]
    document = render_line_chart(series, **options)
    assert "S(t) &amp; &lt;risk&gt; &gt; 0" in document
    assert "t &lt;days&gt;" in document
    assert document.count("<polyline") == 2


def test_no_plottable_points_is_an_input_error():
    with pytest.raises(InputError, match="no plottable points"):
        render_line_chart([{"label": "empty", "x": [1.0], "y": [None]}])


def test_mismatched_series_lengths_are_an_input_error():
    with pytest.raises(InputError) as raised:
        render_line_chart([{"label": "a", "x": [1.0, 2.0], "y": [0.5]}])
    assert str(raised.value) == "series 'a' has mismatched x/y lengths"
