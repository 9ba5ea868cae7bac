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
    if title:
        parts.append(
            f'<text x="{_coord(MARGIN_LEFT + plot_w / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )

    # axes and ticks
    axis_y = MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{MARGIN_LEFT + plot_w}" y2="{axis_y}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" y2="{axis_y}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    for k in range(N_TICKS):
        frac = k / (N_TICKS - 1)
        tx = x_lo + frac * (x_hi - x_lo)
        px = sx(tx)
        parts.append(
            f'<line x1="{_coord(px)}" y1="{axis_y}" x2="{_coord(px)}" y2="{axis_y + 5}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_coord(px)}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_escape(_tick_label(tx))}</text>'
        )
        ty = y_lo + frac * (y_hi - y_lo)
        py = sy(ty)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_coord(py)}" x2="{MARGIN_LEFT}" y2="{_coord(py)}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_coord(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_escape(_tick_label(ty))}</text>'
        )
    parts.append(
        f'<text x="{_coord(MARGIN_LEFT + plot_w / 2)}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_coord(MARGIN_TOP + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_coord(MARGIN_TOP + plot_h / 2)})">{_escape(y_label)}</text>'
    )

    # polylines and legend
    for i, (label, pts) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_coord(sx(x))},{_coord(sy(y))}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_TOP + 14 + 18 * i
        lx = MARGIN_LEFT + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{_escape(str(label))}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
