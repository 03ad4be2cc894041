"""Minimal self-contained SVG emission of a table's plot points: analytic
line, Monte Carlo markers with error bars, labeled axes.  No external
assets, no timestamps, so the output is a pure function of the data."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Sequence

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55


@dataclass(frozen=True)
class PlotStyle:
    """A plot's title, axis labels and fixed y limits.  A limit left None
    follows the data, padded by 5% of its span."""

    title: str
    xlabel: str
    ylabel: str
    y_min: Optional[float] = None
    y_max: Optional[float] = None


@dataclass(frozen=True)
class PlotPoint:
    """One sweep point: the analytic line at ``x``, and the Monte Carlo
    marker at ``value`` with its bar from ``low`` to ``high``, drawn where
    ``low < high``; an infinite ``high`` reaches the frame's top edge.
    ``analytic`` or ``value`` may be None for points flagged empty."""

    x: float
    analytic: Optional[float]
    value: Optional[float]
    low: Optional[float] = None
    high: Optional[float] = None


def _finite(y: Optional[float]) -> bool:
    return y is not None and math.isfinite(y)


def _fmt(x: float) -> str:
    if not math.isfinite(x):  # an axis span beyond the float range
        raise ValueError(f"plot coordinate {x} is not finite")
    return f"{x:.6g}"


def _nonempty(lo: float, hi: float) -> tuple[float, float]:
    """The range lo..hi, widened where it is empty: up to ``lo + 1.0``, or,
    where ``lo`` absorbs 1.0 (|lo| >= 2**53), from ``lo`` halfway toward
    zero, which cannot overflow."""
    if hi > lo:
        return lo, hi
    if lo + 1.0 > lo:
        return lo, lo + 1.0
    half = 0.5 * lo
    return (half, lo) if lo > 0.0 else (lo, half)


def _ticks(lo: float, hi: float) -> list[float]:
    """Five ticks over lo..hi.  The fraction is formed first, so the
    product stays within the span: the fractions are powers of two over 4,
    and the ticks of every finite span are those of ``(hi - lo) * i / 4``."""
    return [lo + (hi - lo) * (i / 4) for i in range(5)]


def emit_plot(points: Sequence[PlotPoint], style: PlotStyle) -> str:
    """Render plot points as a standalone SVG document (as a string)."""
    if not points:
        raise ValueError("cannot plot an empty point set")
    xs = [p.x for p in points]
    marked = [p for p in points if _finite(p.value)]
    ys = [p.analytic for p in points if _finite(p.analytic)]
    ys += filter(_finite, (y for p in marked for y in (p.value, p.low, p.high)))
    x_lo, x_hi = _nonempty(min(xs), max(xs))
    y_lo, y_hi = _nonempty(
        style.y_min if style.y_min is not None else (min(ys) if ys else 0.0),
        style.y_max if style.y_max is not None else (max(ys) if ys else 1.0),
    )
    # a free end is padded by 5% of the span, unless the padded span would
    # overflow: then the data's own range is plotted
    pad = 0.05 * (y_hi - y_lo)
    lo = y_lo - pad if style.y_min is None else y_lo
    hi = y_hi + pad if style.y_max is None else y_hi
    if math.isfinite(hi - lo):
        y_lo, y_hi = lo, hi

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y: float) -> float:
        if y == math.inf:  # an unbounded bar reaches the frame's top edge
            return MARGIN_T
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (
            HEIGHT - MARGIN_T - MARGIN_B
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{style.title}</text>',
    ]
    # frame
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{_fmt(px(tx))}" y1="{HEIGHT - MARGIN_B}" '
            f'x2="{_fmt(px(tx))}" y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(tx))}" y="{HEIGHT - MARGIN_B + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py(ty))}" '
            f'x2="{MARGIN_L}" y2="{_fmt(py(ty))}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{_fmt(py(ty) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{style.xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{HEIGHT / 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" transform="rotate(-90 18 {HEIGHT / 2})">{style.ylabel}</text>'
    )

    # analytic line, broken at empty cells
    for drawn, run in groupby(points, lambda p: _finite(p.analytic)):
        if not drawn:
            continue
        seg = [f"{_fmt(px(p.x))},{_fmt(py(p.analytic))}" for p in run]
        if len(seg) == 1:
            x, y = seg[0].split(",")
            parts.append(f'<circle cx="{x}" cy="{y}" r="1.5" fill="#1f6fb4"/>')
        else:
            parts.append(
                f'<polyline points="{" ".join(seg)}" fill="none" '
                f'stroke="#1f6fb4" stroke-width="1.5"/>'
            )

    # Monte Carlo markers with error bars
    for p in marked:
        cx, cy = px(p.x), py(p.value)
        if p.low is not None and p.high is not None and p.low < p.high:
            parts.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(py(p.low))}" x2="{_fmt(cx)}" '
                f'y2="{_fmt(py(p.high))}" stroke="#c23b22"/>'
            )
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="none" '
            f'stroke="#c23b22" stroke-width="1.2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
