"""Result series, standard observables, and deterministic artifacts.

CSV and SVG emission is byte-deterministic: identical series and
metadata produce identical files, with no timestamps or environment
traces.  SVG was picked for plots because it is textual and needs no
plotting dependency.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

from .hamiltonian import HeisenbergHamiltonian, PauliTerm, snapshot
from .ir import format_float
from .value import Value, set_fields

Point = tuple[float, float, float | None]


class ResultSeries(Value):
    """An observable traced over time (or inverse temperature).

    ``points`` holds (axis value, observable value, sigma) triples with
    strictly increasing axis values; sigma is None for exact values and
    a one-standard-error estimate for sampled ones.
    """

    def __init__(self, axis_label: str, points: tuple[Point, ...], metadata: Mapping[str, str]):
        axis = [p[0] for p in points]
        if any(b <= a for a, b in zip(axis, axis[1:])):
            raise ValueError("axis values must be strictly increasing")
        set_fields(self, axis_label, points, metadata)


def excitation_displacement_observable(num_spins: int) -> list[PauliTerm]:
    """How far a single down-spin excitation sits from site 1.

    N = sum_i (i - 1)(1 - sigma^z_i)/2, expressed as an identity offset
    plus per-site sigma^z terms.  Ranges over [0, n-1]; a down spin at
    site i contributes i - 1.
    """
    offset = sum((i - 1) / 2.0 for i in range(1, num_spins + 1))
    terms = [PauliTerm(offset, ())] if offset != 0.0 else []
    for i in range(2, num_spins + 1):
        terms.append(PauliTerm(-(i - 1) / 2.0, ((i, "z"),)))
    return terms


def site_magnetization_observable(num_spins: int, axis: str) -> list[PauliTerm]:
    """Chain-averaged magnetization along one axis: (1/n) sum_i sigma^a_i."""
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    weight = 1.0 / num_spins
    return [PauliTerm(weight, ((i, axis),)) for i in range(1, num_spins + 1)]


def energy_observable(hamiltonian: HeisenbergHamiltonian, t: float) -> list[PauliTerm]:
    """The Hamiltonian itself, frozen at time t."""
    return snapshot(hamiltonian, t)


CSV_HEADER = "axis,observable,sigma"


def write_csv(
    series: ResultSeries,
    path: str | Path,
    extra_columns: Mapping[str, Sequence[float]] | None = None,
) -> None:
    """Write the series; values round-trip exactly through the text.

    ``extra_columns`` appends named columns (one value per point) after
    the standard three, e.g. an exact reference series.
    """
    names = list(extra_columns) if extra_columns else []
    for name in names:
        if len(extra_columns[name]) != len(series.points):
            raise ValueError(f"extra column {name!r} length does not match series")
    lines = [",".join([CSV_HEADER] + names)]
    for row, (axis_value, value, sigma) in enumerate(series.points):
        sigma_text = format_float(sigma) if sigma is not None else ""
        cells = [format_float(axis_value), format_float(value), sigma_text]
        cells += [format_float(extra_columns[name][row]) for name in names]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: str | Path) -> tuple[Point, ...]:
    """Read points back from a file produced by :func:`write_csv`.

    Extra columns beyond the standard three are ignored.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith(CSV_HEADER):
        raise ValueError(f"unexpected CSV header in {path}")
    points: list[Point] = []
    for line in lines[1:]:
        axis_text, value_text, sigma_text = line.split(",")[:3]
        sigma = float(sigma_text) if sigma_text else None
        points.append((float(axis_text), float(value_text), sigma))
    return tuple(points)


_WIDTH, _HEIGHT = 640, 480
_MARGIN_LEFT, _MARGIN_RIGHT = 70, 20
_MARGIN_TOP, _MARGIN_BOTTOM = 50, 55


def _nice_ticks(low: float, high: float, target: int = 5) -> list[float]:
    if high <= low:
        return [low]
    raw = (high - low) / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = magnitude
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * magnitude:
            step = mult * magnitude
            break
    ticks = []
    value = math.ceil(low / step) * step
    while value <= high + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else float(value))
        if value + step == value:
            # a range a few ulps wide: the step is below the value's spacing
            break
        value += step
    return ticks


def _escape(text: str) -> str:
    """``text`` as XML character data: ``&``, ``<`` and ``>`` escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_plot(series: ResultSeries, path: str | Path) -> None:
    """Render the series as a standalone SVG line plot.

    The output depends only on the series and metadata, so identical
    runs yield identical bytes.
    """
    xs = [p[0] for p in series.points]
    ys = [p[1] for p in series.points]
    sigmas = [p[2] for p in series.points]
    x_low, x_high = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_candidates = list(ys)
    for y, s in zip(ys, sigmas):
        if s is not None:
            y_candidates += [y - s, y + s]
    y_low, y_high = (min(y_candidates), max(y_candidates)) if y_candidates else (0.0, 1.0)
    if x_high == x_low:
        x_low, x_high = x_low - 0.5, x_high + 0.5
    if y_high == y_low:
        y_low, y_high = y_low - 0.5, y_high + 0.5
    y_pad = 0.05 * (y_high - y_low)
    y_low, y_high = y_low - y_pad, y_high + y_pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_low) / (x_high - x_low) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + (y_high - y) / (y_high - y_low) * plot_h

    def fmt(v: float) -> str:
        return f"{v:.6g}"

    observable = series.metadata.get("observable", "observable")
    title = f"{observable} vs {series.axis_label}"
    subtitle_bits = [
        f"{k}={series.metadata[k]}" for k in sorted(series.metadata) if k != "observable"
    ]
    subtitle = ", ".join(subtitle_bits)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.6g}" y="22" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{_escape(title)}</text>',
    ]
    if subtitle:
        parts.append(
            f'<text x="{_WIDTH / 2:.6g}" y="40" font-family="sans-serif" font-size="10" '
            f'fill="#666666" text-anchor="middle">{_escape(subtitle)}</text>'
        )
    frame = (
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(frame)
    for tick in _nice_ticks(x_low, x_high):
        px = sx(tick)
        parts.append(
            f'<line x1="{fmt(px)}" y1="{_MARGIN_TOP + plot_h}" x2="{fmt(px)}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{fmt(px)}" y="{_MARGIN_TOP + plot_h + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{fmt(tick)}</text>'
        )
    for tick in _nice_ticks(y_low, y_high):
        py = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{fmt(py)}" x2="{_MARGIN_LEFT}" '
            f'y2="{fmt(py)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{fmt(py)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" dominant-baseline="middle">{fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.6g}" y="{_HEIGHT - 12}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle">'
        f"{_escape(series.axis_label)}</text>"
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.6g}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.6g})">'
        f"{_escape(observable)}</text>"
    )
    for (axis_value, value, sigma) in series.points:
        if sigma is None or sigma == 0.0:
            continue
        px, top, bottom = sx(axis_value), sy(value + sigma), sy(value - sigma)
        parts.append(
            f'<line x1="{fmt(px)}" y1="{fmt(top)}" x2="{fmt(px)}" y2="{fmt(bottom)}" '
            'stroke="#999999" stroke-width="1"/>'
        )
    if len(series.points) > 1:
        coords = " ".join(f"{fmt(sx(x))},{fmt(sy(y))}" for x, y, _ in series.points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
        )
    for axis_value, value, _ in series.points:
        parts.append(
            f'<circle cx="{fmt(sx(axis_value))}" cy="{fmt(sy(value))}" r="2.5" '
            'fill="#1f77b4"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def write_manifest(
    path: str | Path,
    config_text: str,
    seed: int | None,
    shots: int,
    mode: str,
    observable: str,
    output_files: Sequence[str],
    version: str,
    diagnostics: dict | None = None,
) -> None:
    """Emit the JSON run manifest with a stable key order.

    ``diagnostics``, when given, is written as is under that key.
    """
    manifest = {
        "config": config_text,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "mode": mode,
        "observable": observable,
        "output_files": sorted(output_files),
        "seed": seed,
        "shots": shots,
        "version": version,
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    Path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
