"""Minimal SVG emission for line plots: the chart's graph and the report's
defects against their bounds.

Plots are drawn with bare polyline/circle/rect/text primitives so report files
have no renderer dependency and are byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["line_plot"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 32, 44
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0.0:
        span = 1.0
    return out_lo + (np.asarray(vals, dtype=float) - lo) * (out_hi - out_lo) / span


def _frame(title: str, xlabel: str, ylabel: str, x_lo, x_hi, y_lo, y_hi):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
        f'<text x="{_W // 2}" y="{_H - 8}" text-anchor="middle" font-family="monospace" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="14" y="{_H // 2}" text-anchor="middle" font-family="monospace" '
        f'font-size="12" transform="rotate(-90 14 {_H // 2})">{ylabel}</text>',
        f'<text x="{_ML}" y="{_H - _MB + 16}" text-anchor="middle" font-family="monospace" '
        f'font-size="10">{_fmt(x_lo)}</text>',
        f'<text x="{_W - _MR}" y="{_H - _MB + 16}" text-anchor="middle" '
        f'font-family="monospace" font-size="10">{_fmt(x_hi)}</text>',
        f'<text x="{_ML - 4}" y="{_H - _MB}" text-anchor="end" font-family="monospace" '
        f'font-size="10">{_fmt(y_lo)}</text>',
        f'<text x="{_ML - 4}" y="{_MT + 10}" text-anchor="end" font-family="monospace" '
        f'font-size="10">{_fmt(y_hi)}</text>',
    ]
    return parts


def line_plot(path, x, series, title="", xlabel="", ylabel="", logy=False) -> None:
    """Write a polyline plot; ``series`` is a list of (label, values) pairs."""
    x = np.asarray(x, dtype=float)
    cleaned = []
    for label, ys in series:
        ys = np.asarray(ys, dtype=float)
        # a non-finite value (a null or "-inf" in a report) is left out of its line
        ys = np.where(np.isfinite(ys), ys, np.nan)
        if logy:
            ys = np.log10(np.maximum(np.abs(ys), 1e-300))
        cleaned.append((label, ys))
    y_all = np.concatenate([ys for _, ys in cleaned]) if cleaned else np.zeros(0)
    y_all = y_all[np.isfinite(y_all)]
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    # with nothing finite to draw (every value null), an empty frame over [0, 0]
    y_lo, y_hi = (float(np.min(y_all)), float(np.max(y_all))) if y_all.size else (0.0, 0.0)
    parts = _frame(title, xlabel, ("log10 " if logy else "") + ylabel, x_lo, x_hi, y_lo, y_hi)
    for idx, (label, ys) in enumerate(cleaned):
        px = _scale(x, x_lo, x_hi, _ML, _W - _MR)
        py = _scale(ys, y_lo, y_hi, _H - _MB, _MT)
        finite = [(_fmt(a), _fmt(b)) for a, b in zip(px, py) if np.isfinite(b)]
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{cx},{cy}" for cx, cy in finite)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        # a marker per point, so a one-point series (no line) still shows
        parts += [f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>' for cx, cy in finite]
        parts.append(
            f'<text x="{_W - _MR - 4}" y="{_MT + 14 + 14 * idx}" text-anchor="end" '
            f'font-family="monospace" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
