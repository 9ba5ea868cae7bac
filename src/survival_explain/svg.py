"""Minimal deterministic SVG line charts, stdlib only.

One polyline per series on linear axes with five ticks each. This is a
presentation shim: data fidelity lives in the JSON artifacts, so the
renderer favors predictability (fixed canvas, fixed palette, stable label
formatting) over configurability.
"""

from __future__ import annotations

from .errors import InputError

WIDTH = 720
HEIGHT = 420
MARGIN_LEFT = 64
MARGIN_RIGHT = 170
MARGIN_TOP = 36
MARGIN_BOTTOM = 48
N_TICKS = 5
PALETTE = (
    "#1b6ca8",
    "#c23b22",
    "#2e8b57",
    "#8860b2",
    "#c98a1b",
    "#3aa6a6",
    "#a83268",
    "#6b6b6b",
)


def _escape(text: str) -> str:
    """Text content with ``&``, ``>`` and ``<`` escaped, ``&`` first."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _coord(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    return f"{value:.6g}"


def _series_points(series) -> list[tuple[float, float]]:
    xs = series.get("x", [])
    ys = series.get("y", [])
    if len(xs) != len(ys):
        raise InputError(f"series {series.get('label', '?')!r} has mismatched x/y lengths")
    return [
        (float(x), float(y))
        for x, y in zip(xs, ys)
        if x is not None and y is not None
    ]


def _line(x1, y1, x2, y2, stroke="#333333", width=1) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x, y, size, content, anchor="", transform="") -> str:
    """A sans-serif ``<text>`` element with ``content`` escaped."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}"{transform}>'
            f"{_escape(str(content))}</text>")


def render_line_chart(series_list, title: str = "", x_label: str = "time", y_label: str = "value") -> str:
    """Render a list of ``{"label", "x", "y"}`` series as an SVG document.

    Null values (undefined metric points) are dropped from their polyline.
    The y-axis is padded by 5 percent of the data span so constant series
    do not sit on the chart border.
    """
    cleaned = [(s.get("label", f"series {i}"), _series_points(s)) for i, s in enumerate(series_list)]
    cleaned = [(label, pts) for label, pts in cleaned if pts]
    if not cleaned:
        raise InputError("no plottable points in any series")

    xs = [x for _, pts in cleaned for x, _ in pts]
    ys = [y for _, pts in cleaned for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 0.05 * max(abs(y_hi), 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    mid_x, mid_y = _coord(MARGIN_LEFT + plot_w / 2), _coord(MARGIN_TOP + plot_h / 2)
    if title:
        parts.append(_text(mid_x, 20, 14, title, anchor="middle"))

    # axes and ticks
    axis_y = MARGIN_TOP + plot_h
    parts += [_line(MARGIN_LEFT, axis_y, MARGIN_LEFT + plot_w, axis_y),
              _line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, axis_y)]
    for k in range(N_TICKS):
        frac = k / (N_TICKS - 1)
        tx = x_lo + frac * (x_hi - x_lo)
        px = _coord(sx(tx))
        parts += [_line(px, axis_y, px, axis_y + 5),
                  _text(px, axis_y + 18, 11, _tick_label(tx), anchor="middle")]
        ty = y_lo + frac * (y_hi - y_lo)
        py = sy(ty)
        parts += [_line(MARGIN_LEFT - 5, _coord(py), MARGIN_LEFT, _coord(py)),
                  _text(MARGIN_LEFT - 8, _coord(py + 4), 11, _tick_label(ty), anchor="end")]
    parts += [_text(mid_x, HEIGHT - 10, 12, x_label, anchor="middle"),
              _text(16, mid_y, 12, y_label, anchor="middle", transform=f"rotate(-90 16 {mid_y})")]

    # polylines and legend
    for i, (label, pts) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_coord(sx(x))},{_coord(sy(y))}" for x, y in pts)
        ly = MARGIN_TOP + 14 + 18 * i
        lx = MARGIN_LEFT + plot_w + 12
        parts += [f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>',
                  _line(lx, ly - 4, lx + 18, ly - 4, stroke=color, width=2),
                  _text(lx + 24, ly, 11, label)]

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
