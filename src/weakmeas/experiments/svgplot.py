"""Minimal self-contained SVG emission: analytic line, Monte Carlo markers
with error bars, labeled axes.  No external assets, no timestamps, so the
output is a pure function of the data."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55


@dataclass(frozen=True)
class PlotStyle:
    title: str
    xlabel: str
    ylabel: str
    y_min: Optional[float] = None
    y_max: Optional[float] = None


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: analytic value plus Monte Carlo statistics.

    ``analytic`` or ``mc_mean`` may be None for points flagged empty
    (zero-success post-selection, out-of-domain inversions, ...).
    """

    sweep_value: float
    analytic: Optional[float]
    mc_mean: Optional[float]
    mc_std_error: Optional[float]
    n_kept: int
    n_total: int


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def emit_plot(rows: Sequence[SweepRow], style: PlotStyle) -> str:
    """Render sweep rows as a standalone SVG document (as a string)."""
    if not rows:
        raise ValueError("cannot plot an empty row set")
    xs = [r.sweep_value for r in rows]
    ys: list[float] = []
    for r in rows:
        if r.analytic is not None and math.isfinite(r.analytic):
            ys.append(r.analytic)
        if r.mc_mean is not None and math.isfinite(r.mc_mean):
            err = r.mc_std_error or 0.0
            ys.extend((r.mc_mean - err, r.mc_mean + err))
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = style.y_min if style.y_min is not None else (min(ys) if ys else 0.0)
    y_hi = style.y_max if style.y_max is not None else (max(ys) if ys else 1.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    if style.y_min is None:
        y_lo -= pad
    if style.y_max is None:
        y_hi += pad

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y: float) -> float:
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
    segment: list[str] = []
    segments: list[list[str]] = []
    for r in rows:
        if r.analytic is not None and math.isfinite(r.analytic):
            segment.append(f"{_fmt(px(r.sweep_value))},{_fmt(py(r.analytic))}")
        elif segment:
            segments.append(segment)
            segment = []
    if segment:
        segments.append(segment)
    for seg in segments:
        if len(seg) == 1:
            x, y = seg[0].split(",")
            parts.append(f'<circle cx="{x}" cy="{y}" r="1.5" fill="#1f6fb4"/>')
        else:
            parts.append(
                f'<polyline points="{" ".join(seg)}" fill="none" '
                f'stroke="#1f6fb4" stroke-width="1.5"/>'
            )

    # Monte Carlo markers with error bars
    for r in rows:
        if r.mc_mean is None or not math.isfinite(r.mc_mean):
            continue
        cx, cy = px(r.sweep_value), py(r.mc_mean)
        if r.mc_std_error:
            y1 = py(r.mc_mean - r.mc_std_error)
            y2 = py(r.mc_mean + r.mc_std_error)
            parts.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(y1)}" x2="{_fmt(cx)}" '
                f'y2="{_fmt(y2)}" stroke="#c23b22"/>'
            )
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="none" '
            f'stroke="#c23b22" stroke-width="1.2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
