"""Minimal self-contained SVG charts (deterministic output, no dependencies).

CSV files are the normative output of the CLI; these charts exist for quick
visual checks, so they stay plain: fixed canvas, five ticks per axis, a small
color cycle, polyline geometry only.
"""
from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 28, 46
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def _limits(values) -> tuple[float, float]:
    arr = np.concatenate([np.asarray(v, dtype=float).ravel() for v in values])
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return 0.0, 1.0
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


class _Canvas:
    def __init__(self, xlim, ylim, title, xlabel, ylabel):
        self.xlim, self.ylim = xlim, ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="18" font-size="14" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>',
        ]
        self._axes(xlabel, ylabel)

    def x_px(self, x):
        lo, hi = self.xlim
        return MARGIN_L + (x - lo) / (hi - lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def y_px(self, y):
        lo, hi = self.ylim
        return HEIGHT - MARGIN_B - (y - lo) / (hi - lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    def _axes(self, xlabel, ylabel):
        x0, x1 = MARGIN_L, WIDTH - MARGIN_R
        y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
        self.parts.append(
            f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
            'fill="none" stroke="#444" stroke-width="1"/>'
        )
        for xt in _ticks(*self.xlim):
            px = self.x_px(xt)
            self.parts.append(
                f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" stroke="#444"/>'
            )
            self.parts.append(
                f'<text x="{_fmt(px)}" y="{y0 + 18}" font-size="11" text-anchor="middle" '
                f'font-family="sans-serif">{_fmt(xt)}</text>'
            )
        for yt in _ticks(*self.ylim):
            py = self.y_px(yt)
            self.parts.append(
                f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="#444"/>'
            )
            self.parts.append(
                f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" font-size="11" text-anchor="end" '
                f'font-family="sans-serif">{_fmt(yt)}</text>'
            )
        self.parts.append(
            f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 8}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{xlabel}</text>'
        )
        self.parts.append(
            f'<text x="16" y="{(y0 + y1) / 2}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif" transform="rotate(-90 16 {(y0 + y1) / 2})">{ylabel}</text>'
        )

    def polyline(self, xs, ys, color, dash: str = "", width: float = 1.5):
        pts = []
        for x, y in zip(np.asarray(xs, float), np.asarray(ys, float)):
            if math.isfinite(x) and math.isfinite(y):
                pts.append(f"{_fmt(self.x_px(x))},{_fmt(self.y_px(y))}")
        if len(pts) < 2:
            return
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def legend(self, labels_colors):
        x = MARGIN_L + 10
        y = MARGIN_T + 16
        for label, color in labels_colors:
            self.parts.append(
                f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            self.parts.append(
                f'<text x="{x + 28}" y="{y}" font-size="11" font-family="sans-serif">{label}</text>'
            )
            y += 16

    def to_svg(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def line_chart(path, x, series, title, xlabel, ylabel):
    """Write a line chart; series is a list of (label, values) pairs over the
    shared x, drawn as solid ``plane_chart`` curves."""
    plane_chart(path, [(label, np.column_stack([x, vals]), "") for label, vals in series],
                title, xlabel, ylabel)


def plane_chart(path, curves, title, xlabel, ylabel):
    """Write a 2-D phase-plane chart; curves is a list of
    (label, points (m, 2), dash) tuples."""
    xlim = _limits([pts[:, 0] for _, pts, _ in curves if len(pts)])
    ylim = _limits([pts[:, 1] for _, pts, _ in curves if len(pts)])
    canvas = _Canvas(xlim, ylim, title, xlabel, ylabel)
    legend = []
    for idx, (label, pts, dash) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        canvas.polyline(pts[:, 0], pts[:, 1], color, dash=dash)
        legend.append((label, color))
    canvas.legend(legend)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canvas.to_svg())
