"""Static SVG line charts for analysis artifacts.

Charts are plain hand-assembled SVG strings: no timestamps, no library
metadata, fixed canvas and fixed value ranges per chart type, so rerunning
an identical experiment reproduces the files byte for byte. Out-of-range
points are clamped to the plot box rather than rescaling the axes.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

# fixed value ranges per chart type
DEPENDENCY_Y = (-5.0, 5.0)
SENSITIVITY_Y = (0.0, 5.0)

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 56, 150, 32, 44  # margins: left/right/top/bottom


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _tick_values(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def line_chart(series: Sequence[tuple[str, Sequence[float]]],
               y_range: tuple[float, float],
               title: str, x_label: str, y_label: str,
               x_range: tuple[float, float]) -> str:
    """Multi-series line chart, each series spread evenly over x_range."""
    if not series:
        raise ValueError("need at least one series")
    if max(len(ys) for _name, ys in series) < 1:
        raise ValueError("series are empty")
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    if not (x_hi > x_lo and y_hi > y_lo):
        raise ValueError("axis ranges must be increasing")

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        y = min(max(y, y_lo), y_hi)
        return _MT + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML}" y="20" font-family="monospace" font-size="14">'
        f'{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for tv in _tick_values(y_lo, y_hi):
        y = sy(tv)
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" '
                     f'y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="monospace" font-size="10">{_fmt(tv)}</text>')
        if y_lo < tv < y_hi:
            parts.append(f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + plot_w}" '
                         f'y2="{y:.2f}" stroke="#ddd" stroke-width="0.5"/>')
    for tv in _tick_values(x_lo, x_hi):
        x = sx(tv)
        parts.append(f'<line x1="{x:.2f}" y1="{_MT + plot_h}" x2="{x:.2f}" '
                     f'y2="{_MT + plot_h + 4}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{_MT + plot_h + 16}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="10">{_fmt(tv)}</text>')
    parts.append(f'<text x="{_ML + plot_w / 2:.2f}" y="{_H - 8}" '
                 f'text-anchor="middle" font-family="monospace" '
                 f'font-size="11">{x_label}</text>')
    parts.append(f'<text x="14" y="{_MT + plot_h / 2:.2f}" '
                 f'text-anchor="middle" font-family="monospace" font-size="11" '
                 f'transform="rotate(-90 14 {_MT + plot_h / 2:.2f})">'
                 f'{y_label}</text>')
    for k, (name, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        if len(ys) == 1:
            pts = f"{sx(x_lo):.2f},{sy(float(ys[0])):.2f} " \
                  f"{sx(x_hi):.2f},{sy(float(ys[0])):.2f}"
        else:
            step = (x_hi - x_lo) / (len(ys) - 1)
            pts = " ".join(f"{sx(x_lo + i * step):.2f},{sy(float(v)):.2f}"
                           for i, v in enumerate(ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MT + 14 + 16 * k
        lx = _ML + plot_w + 10
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}" font-family="monospace" '
                     f'font-size="10">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def dependency_chart(dependencies: np.ndarray, scenario_id: str,
                     max_steps: int = 50) -> str:
    """One D_i curve per agent over the rollout (1-based labels)."""
    deps = np.asarray(dependencies, dtype=float)
    series = [(f"D_{i + 1}", deps[:, i].tolist())
              for i in range(deps.shape[1])]
    return line_chart(series, DEPENDENCY_Y,
                      f"net dependency, scenario {scenario_id}",
                      "step", "D", x_range=(0.0, float(max_steps)))


def sensitivity_chart(sensitivities: np.ndarray, scenario_id: str,
                      max_steps: int = 50) -> str:
    """One |grad_ij| curve per ordered agent pair (1-based labels)."""
    sens = np.asarray(sensitivities, dtype=float)
    n = sens.shape[1]
    series = [(f"grad_{i + 1}_{j + 1}", sens[:, i, j].tolist())
              for i in range(n) for j in range(n) if i != j]
    return line_chart(series, SENSITIVITY_Y,
                      f"pairwise sensitivity, scenario {scenario_id}",
                      "step", "|grad|", x_range=(0.0, float(max_steps)))

