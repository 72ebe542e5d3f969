"""Minimal dependency-free SVG line plots for the command-line outputs."""

from __future__ import annotations

import numpy as np

_WIDTH, _HEIGHT, _MARGIN = 640, 420, 56
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, float) - lo) * (out_hi - out_lo) / span


def line_plot(path, x, ys, title: str = "", xlabel: str = "", ylabel: str = "",
              labels=None) -> None:
    """Write a polyline plot of one or more series sharing the x axis."""
    x = np.asarray(x, dtype=float)
    series = [np.asarray(y, dtype=float) for y in ys]
    ymin = min(float(np.nanmin(y)) for y in series)
    ymax = max(float(np.nanmax(y)) for y in series)
    if ymin == ymax:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    x0, x1 = float(x.min()), float(x.max())

    px = _scale(x, x0, x1, _MARGIN, _WIDTH - _MARGIN)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_MARGIN / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>')
    for idx, y in enumerate(series):
        py = _scale(y, ymin, ymax, _HEIGHT - _MARGIN, _MARGIN)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py) if np.isfinite(b))
        color = _COLORS[idx % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if labels:
            parts.append(
                f'<text x="{_WIDTH - _MARGIN + 4}" y="{_MARGIN + 16 * idx + 12}" '
                f'font-family="sans-serif" font-size="11" fill="{color}">{labels[idx]}</text>')
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = ymin + frac * (ymax - ymin)
        parts.append(
            f'<text x="{_scale([xv], x0, x1, _MARGIN, _WIDTH - _MARGIN)[0]:.1f}" '
            f'y="{_HEIGHT - _MARGIN + 18}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{xv:.4g}</text>')
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{_scale([yv], ymin, ymax, _HEIGHT - _MARGIN, _MARGIN)[0]:.1f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">{yv:.4g}</text>')
    if xlabel:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    if ylabel:
        parts.append(
            f'<text x="14" y="{_HEIGHT / 2}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="13" transform="rotate(-90 14 {_HEIGHT / 2})">{ylabel}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
