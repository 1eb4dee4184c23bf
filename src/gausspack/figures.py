"""Self-contained SVG rendering of scenario figures.

Wave panels draw the wavefunction modulus as a solid line, its real
part dotted, and its imaginary part dashed; density panels draw the
probability density P as a solid line and the scaled kinetic energy
density S dash-dotted.  When the scenario uses a packet-relative
window the x axis is recentered at the packet mean and labeled
accordingly.

A scenario with one requested time lays the wave panel to the left of
the density panel; with several times, panels form columns (one per
time) with the wave row above the density row.

The output is deterministic: every coordinate is formatted with fixed
precision and panels, curves and ticks are emitted in a fixed order, so
identical scenarios render byte-identical files.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._textio import format_rows
from .analytic import sample_grid, state_at
from .errors import ParameterError
from .kedensity import _positive_total, kinetic_density
from .quantities import SystemKind
from .scenarios import RelativeWindow

__all__ = ["render_figure", "figure_tables", "figure_columns"]

_PANEL_W = 300.0
_PANEL_H = 200.0
_GAP = 26.0
_MARGIN_L = 58.0
_MARGIN_R = 18.0
_MARGIN_T = 46.0
_MARGIN_B = 64.0

# The columns every table starts with; evolve writes exactly these.
_GRID_COLUMNS = ("x", "re_psi", "im_psi", "abs_psi", "prob")
# (figure_tables column, color, dasharray, stroke width) per curve.
_WAVE_STYLES = (
    ("abs_psi", "#111827", None, 1.6),
    ("re_psi", "#2563eb", "1.5 2.5", 1.1),
    ("im_psi", "#dc2626", "6 3", 1.1),
)
_DENS_STYLES = (
    ("prob", "#111827", None, 1.6),
    ("scaled", "#b45309", "7 3 1.5 3", 1.3),
)


def figure_columns(scenario):
    """Data column names the figure command exports for `scenario`."""
    columns = list(_GRID_COLUMNS)
    if "kedensity" in scenario.outputs:
        columns.append("kedensity")
    if "scaled" in scenario.outputs:
        columns.append("scaled")
    return columns


def figure_tables(scenario, columns=None):
    """One (t, columns, rows) table per scenario time, matching the plots.

    columns is figure_columns(scenario) (the default) or a prefix of it;
    evolve takes the first five.  rows is a 2-D float64 array with one
    row per grid point and one column per name in columns.
    """
    if columns is None:
        columns = figure_columns(scenario)
    system, params = scenario.system, scenario.params
    tables = []
    for t in scenario.times:
        window = scenario.window.resolve(system, params, t)
        grid = sample_grid(system, params, t, window, scenario.grid_n)
        cols = [grid.xs, grid.psi.real, grid.psi.imag, np.abs(grid.psi), grid.prob]
        if "kedensity" in columns or "scaled" in columns:
            density = kinetic_density(system, params, grid.xs, t)
            if "kedensity" in columns:
                cols.append(density)
            if "scaled" in columns:
                cols.append(density / _positive_total(system, params, t))
        tables.append((t, columns, np.column_stack(cols)))
    return tables


@dataclass
class _Panel:
    title: str
    xlabel: str
    xs: np.ndarray
    curves: list  # (color, dasharray, stroke_width, ys)


def _panel_title(scenario, t):
    kind = scenario.system.kind
    if kind is SystemKind.HARMONIC:
        tau = 2.0 * math.pi / scenario.system.omega
        return f"t = {t:.6g} ({t / tau:.4g} tau)"
    if kind is SystemKind.INVERTED:
        return f"t = {t:.6g} (wt = {scenario.system.omega_tilde * t:.4g})"
    return f"t = {t:.6g} ({t / scenario.params.t0:.4g} t0)"


def _ticks(lo, hi, count=5):
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def _render_panel(out, panel, px, py):
    xs = panel.xs
    xlo, xhi = float(xs[0]), float(xs[-1])
    ylo = min(float(np.min(ys)) for _, _, _, ys in panel.curves)
    yhi = max(float(np.max(ys)) for _, _, _, ys in panel.curves)
    if yhi <= ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.06 * (yhi - ylo)
    ylo -= pad
    yhi += pad

    out.append(
        f'<rect x="{px:.2f}" y="{py:.2f}" width="{_PANEL_W:.2f}" '
        f'height="{_PANEL_H:.2f}" fill="none" stroke="#6b7280" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{px + _PANEL_W / 2:.2f}" y="{py - 6:.2f}" text-anchor="middle" '
        f'class="ttl">{panel.title}</text>'
    )
    for tx in _ticks(xlo, xhi):
        sx = px + (tx - xlo) / (xhi - xlo) * _PANEL_W
        out.append(
            f'<line x1="{sx:.2f}" y1="{py + _PANEL_H:.2f}" x2="{sx:.2f}" '
            f'y2="{py + _PANEL_H + 4:.2f}" stroke="#6b7280" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{sx:.2f}" y="{py + _PANEL_H + 15:.2f}" '
            f'text-anchor="middle" class="tick">{tx:.3g}</text>'
        )
    for ty in _ticks(ylo, yhi):
        sy = py + _PANEL_H - (ty - ylo) / (yhi - ylo) * _PANEL_H
        out.append(
            f'<line x1="{px - 4:.2f}" y1="{sy:.2f}" x2="{px:.2f}" y2="{sy:.2f}" '
            f'stroke="#6b7280" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px - 7:.2f}" y="{sy + 3:.2f}" text-anchor="end" '
            f'class="tick">{ty:.3g}</text>'
        )
    out.append(
        f'<text x="{px + _PANEL_W / 2:.2f}" y="{py + _PANEL_H + 30:.2f}" '
        f'text-anchor="middle" class="lbl">{panel.xlabel}</text>'
    )
    sx = px + (xs - xlo) / (xhi - xlo) * _PANEL_W
    for color, dash, width, ys in panel.curves:
        sy = py + _PANEL_H - (ys - ylo) / (yhi - ylo) * _PANEL_H
        pts = "".join(format_rows(np.column_stack((sx, sy)), "%.2f", ",", " "))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )


def render_figure(scenario):
    """Render the scenario to a complete SVG document string."""
    want_wave = "psi" in scenario.outputs
    want_dens = ("prob" in scenario.outputs) or ("scaled" in scenario.outputs)
    if not (want_wave or want_dens):
        raise ParameterError(
            "figure rendering needs at least one of the outputs psi, prob, scaled"
        )

    recentered = isinstance(scenario.window, RelativeWindow)
    xlabel = "x - <x>_t" if recentered else "x"

    panel_rows = []
    wave_row = []
    dens_row = []
    for t, columns, rows in figure_tables(scenario):
        col = dict(zip(columns, rows.T))
        xs_plot = col["x"] - state_at(scenario.system, scenario.params, t).center \
            if recentered else col["x"]
        title = _panel_title(scenario, t)
        if want_wave:
            curves = [(c, d, w, col[key]) for key, c, d, w in _WAVE_STYLES]
            wave_row.append(_Panel(title, xlabel, xs_plot, curves))
        if want_dens:
            curves = [(c, d, w, col[key]) for key, c, d, w in _DENS_STYLES
                      if key in scenario.outputs]
            dens_row.append(_Panel(title, xlabel, xs_plot, curves))

    if len(scenario.times) == 1 and want_wave and want_dens:
        panel_rows = [[wave_row[0], dens_row[0]]]
    else:
        if want_wave:
            panel_rows.append(wave_row)
        if want_dens:
            panel_rows.append(dens_row)

    ncols = max(len(row) for row in panel_rows)
    nrows = len(panel_rows)
    legend_lines = []
    if want_wave:
        legend_lines.append("wave panel: |psi| solid, Re psi dotted, Im psi dashed")
    if want_dens:
        parts = []
        if "prob" in scenario.outputs:
            parts.append("probability density P solid")
        if "scaled" in scenario.outputs:
            parts.append("scaled kinetic energy density S dash-dotted")
        legend_lines.append("density panel: " + ", ".join(parts))
    if recentered:
        legend_lines.append("x axis recentered at the packet mean position")

    width = _MARGIN_L + ncols * _PANEL_W + (ncols - 1) * _GAP + _MARGIN_R
    height = (
        _MARGIN_T + nrows * _PANEL_H + (nrows - 1) * (_GAP + 24.0)
        + _MARGIN_B + 14.0 * len(legend_lines)
    )

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        "<style>"
        "text{font-family:Helvetica,Arial,sans-serif;fill:#111827}"
        ".ttl{font-size:11px}.tick{font-size:9px}.lbl{font-size:11px}"
        ".hdr{font-size:13px;font-weight:bold}.leg{font-size:10px}"
        "</style>",
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        f'<text x="{_MARGIN_L:.2f}" y="20" class="hdr">'
        f"{scenario.name} ({scenario.system.kind.value})</text>",
    ]
    for r, row in enumerate(panel_rows):
        for c, panel in enumerate(row):
            px = _MARGIN_L + c * (_PANEL_W + _GAP)
            py = _MARGIN_T + r * (_PANEL_H + _GAP + 24.0)
            _render_panel(out, panel, px, py)
    for i, line in enumerate(legend_lines):
        ly = height - _MARGIN_B + 14.0 * (i + 1)
        out.append(f'<text x="{_MARGIN_L:.2f}" y="{ly:.2f}" class="leg">{line}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
