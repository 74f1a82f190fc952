"""Minimal SVG charts, written as text with no plotting library.

Charts are pure views: the same data always yields byte-identical SVG, so
every chart can be regenerated from its CSV alone and diffed.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

_MARGIN_LEFT = 72
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46
_TICK_COUNT = 5
_LINE_WIDTH = 720
_LINE_HEIGHT = 400
_PANEL_WIDTH = 340
_PANEL_HEIGHT = 380


def _fmt(value: float) -> str:
    """Stable short decimal for SVG coordinates."""
    text = f"{value:.2f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def _fmt_tick(value: float) -> str:
    return f"{value:.6g}"


def _ticks(lo: float, hi: float) -> List[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (_TICK_COUNT - 1)
    return [lo + i * step for i in range(_TICK_COUNT)]


def _y_ticks(x: float, lo: float, hi: float, py) -> List[str]:
    """Tick marks and labels on a y axis drawn at `x`; `py` maps a value to its y coordinate."""
    parts = []
    for tick in _ticks(lo, hi):
        ty = py(tick)
        parts.append(
            f'<line x1="{x - 4}" y1="{_fmt(ty)}" x2="{x}" y2="{_fmt(ty)}" stroke="black"/>'
            f'<text x="{x - 6}" y="{_fmt(ty + 3)}" text-anchor="end">{_fmt_tick(tick)}</text>'
        )
    return parts


def _svg(width: int, height: int, parts: List[str]) -> str:
    """A white `width` x `height` SVG document holding `parts`."""
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
    )
    return header + "".join(parts) + "</svg>\n"


# uint64 operands of `_points`, so that no operand is a Python int (NumPy 1.24 casts those by value).
_U1, _U100 = np.uint64(1), np.uint64(100)


@functools.cache
def _digit_words() -> Tuple[np.ndarray, np.ndarray]:
    """Little-endian byte words that `_points` ORs into one 8-byte word a coordinate.

    `whole[w]` holds `str(w)` right-aligned in bytes 0-2, for w < 1000; `cents[c]` holds the
    hundredths `c` as `_fmt` writes them (".dd", ".d" or nothing) in bytes 3-5 and the separator
    in byte 6, "," for c < 100 (an x) and " " for c - 100 (a y).  Unused bytes are zero.
    """
    whole = [int.from_bytes(str(w).rjust(3, "\0").encode(), "little") for w in range(1000)]
    cents = [int.from_bytes(f".{c:02d}".rstrip("0").rstrip(".").ljust(3, "\0").encode() + sep, "little") << 24
             for sep in (b",", b" ") for c in range(100)]
    tables = np.array(whole, dtype=np.uint64), np.array(cents, dtype=np.uint64)
    for table in tables:
        table.flags.writeable = False  # shared by every caller in the process
    return tables


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """The polyline points `_fmt(x),_fmt(y)` of each pair, space-separated, in one vectorised pass.

    A coordinate is m * 2**e with 0.5 <= m < 1 (`frexp`), so it is M / 2**s with the integer
    M = m * 2**53 < 2**53 and s = 53 - e.  Then 100 * M < 2**60 fits a uint64, and adding
    2**(s - 1) - 1 plus the quotient's low bit before the shift by s rounds its hundredths half
    to even, as "%.2f" rounds the exact double.  Exact for 0 and for 2**-11 <= value < 1000
    (s <= 63): `line_chart` only passes coordinates inside its plot box, [72, 704] x [34, 354].
    A whole part of 1000 or more raises IndexError in the table lookup.
    """
    whole, cents = _digit_words()
    mantissa, exponent = np.frexp(np.stack((xs, ys), axis=1))
    hundredths = np.ldexp(mantissa, 53).astype(np.uint64) * _U100
    shift = (53 - exponent).astype(np.uint64)
    hundredths += ((_U1 << (shift - _U1)) - _U1) + ((hundredths >> shift) & _U1)
    hundredths >>= shift
    units, cent = np.divmod(hundredths, _U100)
    cent[:, 1] += _U100  # the y column takes the " "-separated half of `cents`
    words = whole.take(units) | cents.take(cent)
    return words.astype("<u8", copy=False).tobytes().replace(b"\0", b"").decode("ascii")[:-1]


def _finite_range(label: str, values: np.ndarray) -> Tuple[float, float]:
    """The least and greatest of `values`; a NaN or an infinity, which either of them then is, raises."""
    lo, hi = float(values.min()), float(values.max())
    for value in (lo, hi):
        if not math.isfinite(value):
            raise ValueError(f"{label} holds {value!r}, not a finite value")
    return lo, hi


def _padded(value: float, pad: float) -> Tuple[float, float]:
    """`value` - `pad` and `value` + `pad`, kept within the float range, so that a flat series near the
    float maximum still gets a finite axis."""
    return max(value - pad, -sys.float_info.max), min(value + pad, sys.float_info.max)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart(
    x: Sequence[float],
    series: Dict[str, Sequence[float]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render one or more aligned series as SVG polylines with axes.

    Raises ValueError for no x value or no series, a series whose length differs from x's, a value
    that is not finite, or an axis whose span is wider than the float range.
    """
    # Every value is read as float64 once: the ranges, ticks and polylines all come from these values.
    xs = np.asarray(x, dtype=np.float64)
    if not xs.size:
        raise ValueError("line_chart needs at least one x value")
    if not series:
        raise ValueError("line_chart needs at least one series")
    columns = {}
    for name, values in series.items():
        if len(values) != xs.size:
            raise ValueError(f"series {name!r} length {len(values)} != x length {xs.size}")
        columns[name] = np.asarray(values, dtype=np.float64)

    x_lo, x_hi = _finite_range("x", xs)
    y_ranges = [_finite_range(f"series {name!r}", column) for name, column in columns.items()]
    y_lo, y_hi = min(lo for lo, _ in y_ranges), max(hi for _, hi in y_ranges)
    if y_lo == y_hi:  # flat series still gets a visible band
        y_lo, y_hi = _padded(y_lo, abs(y_lo) * 0.1 or 1.0)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1, x_hi + 1
        if x_lo == x_hi:  # a value beyond 2**53 rounds both back: pad it as a flat series is
            x_lo, x_hi = _padded(x_lo, abs(x_lo) * 0.1)
    for axis, lo, hi in (("x", x_lo, x_hi), ("y", y_lo, y_hi)):
        if math.isinf(hi - lo):
            raise ValueError(f"the {axis} axis spans [{lo!r}, {hi!r}], wider than the float range")

    plot_w = _LINE_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _LINE_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(value: float) -> float:
        return _MARGIN_LEFT + (value - x_lo) / (x_hi - x_lo) * plot_w

    def py(value: float) -> float:
        return _MARGIN_TOP + (y_hi - value) / (y_hi - y_lo) * plot_h

    parts = []
    if title:
        parts.append(
            f'<text x="{_LINE_WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14">{_escape(title)}</text>'
        )
    # Axes and ticks.
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>'
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(
            f'<line x1="{_fmt(tx)}" y1="{y0}" x2="{_fmt(tx)}" y2="{y0 + 4}" stroke="black"/>'
            f'<text x="{_fmt(tx)}" y="{y0 + 16}" text-anchor="middle">{_fmt_tick(tick)}</text>'
        )
    parts += _y_ticks(x0, y_lo, y_hi, py)
    if x_label:
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{_LINE_HEIGHT - 8}" text-anchor="middle">{_escape(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:.0f})">{_escape(y_label)}</text>'
        )
    # Series polylines and legend: px and py over whole series, as float64 arrays.  Each value lies in
    # [lo, hi] of its axis, whose span is finite and positive; rounding is monotonic, so every
    # (value - lo) / span lies in [0, 1], and with the exact ends every px lies in [72, 704] and
    # every py in [34, 354]: the coordinates `_points` formats exactly.
    xs = _MARGIN_LEFT + (xs - x_lo) / (x_hi - x_lo) * plot_w
    for idx, (name, column) in enumerate(columns.items()):
        color = PALETTE[idx % len(PALETTE)]
        ys = _MARGIN_TOP + (y_hi - column) / (y_hi - y_lo) * plot_h
        parts.append(f'<polyline points="{_points(xs, ys)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if len(series) > 1:
            lx = _MARGIN_LEFT + 10
            ly = _MARGIN_TOP + 14 + 14 * idx
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
                f'<text x="{lx + 24}" y="{ly}">{_escape(name)}</text>'
            )
    return _svg(_LINE_WIDTH, _LINE_HEIGHT, parts)


def grouped_bar_panels(panels: Sequence[dict]) -> str:
    """Side-by-side bar panels, one per metric.

    Each panel is {"title": str, "groups": [label, ...], "values": [float, ...],
    "errors": [float, ...] or None}; whiskers show +/- one error.  A group whose
    value is not finite (an indicator no seed defined) gets "n/a" instead of a
    bar, a non-finite error no whisker, and neither sets the y range.
    """
    if not panels:
        raise ValueError("grouped_bar_panels needs at least one panel")
    parts = []
    for p_idx, panel in enumerate(panels):
        groups: List[str] = list(panel["groups"])
        values: List[float] = [float(v) for v in panel["values"]]
        errors: Optional[List[float]] = panel.get("errors")
        if len(values) != len(groups):
            raise ValueError("panel values and groups must align")
        offset = p_idx * _PANEL_WIDTH
        plot_x = offset + 56
        plot_w = _PANEL_WIDTH - 72
        plot_y = _MARGIN_TOP
        plot_h = _PANEL_HEIGHT - _MARGIN_TOP - 64

        spreads = [errors[i] if errors is not None and math.isfinite(errors[i]) else None
                   for i in range(len(values))]
        drawn = [(v, spreads[i] or 0.0) for i, v in enumerate(values) if math.isfinite(v)]
        top = max((v + err for v, err in drawn), default=0.0)
        y_hi = top if top > 0 else 1.0
        y_lo = min((min(0.0, v - err) for v, err in drawn), default=0.0)
        if y_hi == y_lo:
            y_hi = y_lo + 1.0

        def py(value: float) -> float:
            return plot_y + (y_hi - value) / (y_hi - y_lo) * plot_h

        parts.append(
            f'<text x="{offset + _PANEL_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-size="13">{_escape(str(panel.get("title", "")))}</text>'
        )
        base_y = py(max(0.0, y_lo))
        parts.append(
            f'<line x1="{plot_x}" y1="{plot_y}" x2="{plot_x}" y2="{plot_y + plot_h}" stroke="black"/>'
            f'<line x1="{plot_x}" y1="{_fmt(base_y)}" x2="{plot_x + plot_w}" y2="{_fmt(base_y)}" stroke="black"/>'
        )
        parts += _y_ticks(plot_x, y_lo, y_hi, py)
        slot = plot_w / max(1, len(groups))
        bar_w = slot * 0.6
        for g_idx, (label, value) in enumerate(zip(groups, values)):
            color = PALETTE[g_idx % len(PALETTE)]
            cx = plot_x + slot * (g_idx + 0.5)
            if math.isfinite(value):
                bar_top = py(max(0.0, value))
                bar_h = abs(py(value) - py(0.0))
                parts.append(
                    f'<rect x="{_fmt(cx - bar_w / 2)}" y="{_fmt(bar_top)}" width="{_fmt(bar_w)}" '
                    f'height="{_fmt(bar_h)}" fill="{color}"/>'
                )
                err = spreads[g_idx]
                if err is not None:
                    parts.append(
                        f'<line x1="{_fmt(cx)}" y1="{_fmt(py(value - err))}" x2="{_fmt(cx)}" '
                        f'y2="{_fmt(py(value + err))}" stroke="black"/>'
                    )
            else:
                parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(base_y - 6)}" text-anchor="middle">n/a</text>')
            parts.append(
                f'<text x="{_fmt(cx)}" y="{plot_y + plot_h + 16}" text-anchor="middle" '
                f'transform="rotate(-30 {_fmt(cx)} {plot_y + plot_h + 16})">{_escape(label)}</text>'
            )
    return _svg(_PANEL_WIDTH * len(panels), _PANEL_HEIGHT, parts)
