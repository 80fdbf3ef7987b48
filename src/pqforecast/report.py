"""Dependency-free SVG figures of the evaluation analyses."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .evaluation import ComparisonReport, CompositionReport, SizeAggregate
from .io import write_text


_W, _H, _PAD = 640, 400, 56


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="15">{title}</text>',
    ]


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float) -> np.ndarray:
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) / span * (out_hi - out_lo)


def render_size_aggregates_svg(path: Path, aggregates: Sequence[SizeAggregate]) -> None:
    """Mean, quartile band and min-max whiskers of sMAPE per ensemble size."""
    sizes = np.array([a.size for a in aggregates], dtype=float)
    lo, hi = min(a.min for a in aggregates), max(a.max for a in aggregates)
    if hi <= lo:
        hi = lo + 1.0
    parts = _svg_header("Mean sMAPE by ensemble size")
    x = _scale(sizes, sizes.min() - 0.5, sizes.max() + 0.5, _PAD, _W - _PAD)
    y = lambda v: float(_scale(np.array([v]), lo, hi, _H - _PAD, _PAD)[0])  # noqa: E731
    for a, xi in zip(aggregates, x):
        parts.append(f'<line x1="{xi:.1f}" y1="{y(a.min):.1f}" x2="{xi:.1f}" y2="{y(a.max):.1f}" '
                     'stroke="#bbb" stroke-width="6"/>')
        parts.append(f'<line x1="{xi:.1f}" y1="{y(a.q25):.1f}" x2="{xi:.1f}" y2="{y(a.q75):.1f}" '
                     'stroke="#666" stroke-width="10"/>')
        parts.append(f'<text x="{xi:.1f}" y="{_H - _PAD + 18}" text-anchor="middle">{a.size}</text>')
    points = " ".join(f"{xi:.1f},{y(a.mean):.1f}" for a, xi in zip(aggregates, x))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#c22" stroke-width="2"/>')
    parts.append(f'<text x="{_PAD - 8}" y="{y(lo):.1f}" text-anchor="end">{lo:.1f}</text>')
    parts.append(f'<text x="{_PAD - 8}" y="{y(hi):.1f}" text-anchor="end">{hi:.1f}</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts))


def render_composition_svg(path: Path, report: CompositionReport) -> None:
    """Model shares plus size and method histograms of the top ensembles."""
    parts = _svg_header(f"Composition of top {report.top_n} ensembles")
    bar_w = (_W - 2 * _PAD) / max(len(report.model_share), 1)
    peak = max(report.model_share.values(), default=1.0)
    for i, (model, share) in enumerate(report.model_share.items()):
        height = (share / peak) * (_H / 2 - _PAD - 20)
        x0 = _PAD + i * bar_w
        parts.append(f'<rect x="{x0 + 2:.1f}" y="{_H / 2 - height:.1f}" width="{bar_w - 4:.1f}" '
                     f'height="{height:.1f}" fill="#48a"/>')
        parts.append(f'<text x="{x0 + bar_w / 2:.1f}" y="{_H / 2 + 14}" text-anchor="middle" '
                     f'font-size="9">{model}</text>')
        parts.append(f'<text x="{x0 + bar_w / 2:.1f}" y="{_H / 2 - height - 4:.1f}" '
                     f'text-anchor="middle" font-size="9">{share:.2f}</text>')

    def histogram(items: dict, x_off: float, label: str) -> None:
        width = (_W / 2 - _PAD - 20) / max(len(items), 1)
        top = max(items.values(), default=1)
        base = _H - _PAD
        for i, (key, count) in enumerate(items.items()):
            height = (count / top) * (_H / 2 - _PAD - 40)
            x0 = x_off + i * width
            parts.append(f'<rect x="{x0 + 2:.1f}" y="{base - height:.1f}" width="{width - 4:.1f}" '
                         f'height="{height:.1f}" fill="#8a4"/>')
            parts.append(f'<text x="{x0 + width / 2:.1f}" y="{base + 14}" text-anchor="middle" '
                         f'font-size="9">{key}</text>')
            parts.append(f'<text x="{x0 + width / 2:.1f}" y="{base - height - 4:.1f}" '
                         f'text-anchor="middle" font-size="9">{count}</text>')
        parts.append(f'<text x="{x_off + (_W / 2 - _PAD - 20) / 2:.1f}" y="{_H / 2 + 40}" '
                     f'text-anchor="middle">{label}</text>')

    histogram(report.size_histogram, _PAD, "ensemble size")
    histogram({k: v for k, v in report.method_histogram.items()}, _W / 2 + 20, "combination method")
    parts.append("</svg>")
    write_text(path, "\n".join(parts))


def render_comparison_svg(path: Path, report: ComparisonReport) -> None:
    """ECDF of relative improvements and the paired sMAPE scatter."""
    parts = _svg_header(
        f"{report.ensemble_producer} vs {report.individual_producer} "
        f"(wins {100 * report.win_fraction:.0f} %)"
    )
    half = _W / 2
    xs, ps = report.ecdf()
    lo, hi = float(xs.min()), float(xs.max())
    if hi <= lo:
        hi = lo + 1e-9
    px = _scale(xs, lo, hi, _PAD, half - 20)
    py = _scale(ps, 0.0, 1.0, _H - _PAD, _PAD)
    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(px, py))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#c22" stroke-width="2"/>')
    zero_x = float(_scale(np.array([0.0]), lo, hi, _PAD, half - 20)[0])
    if lo <= 0 <= hi:
        parts.append(f'<line x1="{zero_x:.1f}" y1="{_PAD}" x2="{zero_x:.1f}" y2="{_H - _PAD}" '
                     'stroke="#999" stroke-dasharray="4"/>')
    parts.append(f'<text x="{(half + _PAD) / 2:.1f}" y="{_H - _PAD + 24}" text-anchor="middle">'
                 'relative sMAPE improvement (ECDF)</text>')

    both = np.concatenate([report.individual_smape, report.ensemble_smape])
    lo2, hi2 = float(both.min()), float(both.max())
    if hi2 <= lo2:
        hi2 = lo2 + 1e-9
    sx = _scale(report.individual_smape, lo2, hi2, half + 20, _W - _PAD)
    sy = _scale(report.ensemble_smape, lo2, hi2, _H - _PAD, _PAD)
    diag0 = float(_scale(np.array([lo2]), lo2, hi2, half + 20, _W - _PAD)[0])
    diag1 = float(_scale(np.array([hi2]), lo2, hi2, half + 20, _W - _PAD)[0])
    dy0 = float(_scale(np.array([lo2]), lo2, hi2, _H - _PAD, _PAD)[0])
    dy1 = float(_scale(np.array([hi2]), lo2, hi2, _H - _PAD, _PAD)[0])
    parts.append(f'<line x1="{diag0:.1f}" y1="{dy0:.1f}" x2="{diag1:.1f}" y2="{dy1:.1f}" '
                 'stroke="#999" stroke-dasharray="4"/>')
    for x, y in zip(sx, sy):
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="#48a" fill-opacity="0.6"/>')
    parts.append(f'<text x="{(half + 20 + _W - _PAD) / 2:.1f}" y="{_H - _PAD + 24}" '
                 'text-anchor="middle">individual vs ensemble sMAPE</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts))
