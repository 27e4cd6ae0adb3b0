"""Minimal native SVG emitter for log-log rate plots.

Hand-rolled so report generation needs no plotting dependency; output is a
deterministic function of the inputs.
"""

from __future__ import annotations

import math

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _log_ticks(lo: float, hi: float) -> list[float]:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0**k for k in range(first, last + 1) if lo / 10 <= 10.0**k <= hi * 10]


def loglog_chart(
    xs,
    ys,
    title: str,
    slope: float | None = None,
    intercept: float | None = None,
    y_label: str = "median",
) -> str:
    """Render one log-log series over ``n`` with markers and an optional fitted line."""
    pts = [(float(x), float(y)) for x, y in zip(xs, ys) if y > 0.0]
    if not pts:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">'
            f'<text x="20" y="40">{title}: no positive data</text></svg>'
        )
    lx = [math.log10(x) for x, _ in pts]
    ly = [math.log10(y) for _, y in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x_pad = 0.05 * max(x1 - x0, 1e-9)
    y_pad = 0.05 * max(y1 - y0, 1e-9)
    x0, x1 = x0 - x_pad, x1 + x_pad
    y0, y1 = y0 - y_pad, y1 + y_pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(logx: float) -> float:
        return _MARGIN_L + (logx - x0) / (x1 - x0) * plot_w

    def sy(logy: float) -> float:
        return _MARGIN_T + (y1 - logy) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        # axes box
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>',
    ]
    for tick in _log_ticks(10.0**x0, 10.0**x1):
        lt = math.log10(tick)
        if x0 <= lt <= x1:
            parts.append(
                f'<line x1="{_fmt(sx(lt))}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(sx(lt))}" '
                f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>'
                f'<text x="{_fmt(sx(lt))}" y="{_MARGIN_T + plot_h + 20}" '
                f'text-anchor="middle">1e{int(round(lt))}</text>'
            )
    for tick in _log_ticks(10.0**y0, 10.0**y1):
        lt = math.log10(tick)
        if y0 <= lt <= y1:
            parts.append(
                f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(sy(lt))}" x2="{_MARGIN_L}" '
                f'y2="{_fmt(sy(lt))}" stroke="black"/>'
                f'<text x="{_MARGIN_L - 8}" y="{_fmt(sy(lt) + 4)}" '
                f'text-anchor="end">1e{int(round(lt))}</text>'
            )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle">n</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.0f})">{y_label}</text>'
    )

    polyline = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(lx, ly))
    parts.append(f'<polyline points="{polyline}" fill="none" stroke="steelblue" stroke-width="2"/>')
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{_fmt(sx(a))}" cy="{_fmt(sy(b))}" r="3.5" fill="steelblue"/>')

    if slope is not None and intercept is not None and math.isfinite(slope):
        # fitted line: log(y) = slope * log(n) + intercept (natural logs)
        ln10 = math.log(10.0)
        fy0 = (slope * (x0 * ln10) + intercept) / ln10
        fy1 = (slope * (x1 * ln10) + intercept) / ln10
        parts.append(
            f'<line x1="{_fmt(sx(x0))}" y1="{_fmt(sy(fy0))}" x2="{_fmt(sx(x1))}" '
            f'y2="{_fmt(sy(fy1))}" stroke="firebrick" stroke-dasharray="6 4" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 8}" y="{_MARGIN_T + 18}" text-anchor="end" '
            f'fill="firebrick">slope = {slope:.3f}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
