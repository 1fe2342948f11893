"""SVG and CSV emitters for patterns, defect fields and heightmaps.

SVG conventions: stable lines 0.6-unit strokes, singular set 2.0-unit bold,
domain outline 1.2-unit, unconstrained regions unfilled.  All floats are
formatted to 9 significant digits so identical inputs produce identical
bytes.
"""

from __future__ import annotations

import numpy as np

FMT = "{:.9g}"
CSV_BLOCK_ROWS = 4096  # rows formatted per block by the CSV and heatmap rect writers
RECT = '<rect x="%.9g" y="%.9g" width="%.9g" height="%.9g" fill="%s" stroke="none"/>'
GREY_FILLS = np.array(["#%02x%02x%02x" % (g, g, g) for g in range(256)], dtype=object)


def _f(x):
    return FMT.format(float(x))


def _poly_points(points):
    return " ".join(f"{_f(p[0])},{_f(p[1])}" for p in points)


def domain_outline(domain):
    """256 boundary samples of the domain."""
    return domain.boundary_sample(256).position


class SvgCanvas:
    def __init__(self, bbox):
        """A canvas over bbox with a margin of 5% of its longer side."""
        (x0, y0), (x1, y1) = bbox
        w, h = x1 - x0, y1 - y0
        m = 0.05 * max(w, h)
        self.x0, self.y0 = x0 - m, y0 - m
        self.w, self.h = w + 2 * m, h + 2 * m
        self.elems = []

    def line(self, p, q, width, color="#000000"):
        self.elems.append(
            f'<line x1="{_f(p[0])}" y1="{_f(p[1])}" x2="{_f(q[0])}" y2="{_f(q[1])}" '
            f'stroke="{color}" stroke-width="{_f(width)}" stroke-linecap="round"/>'
        )

    def polyline(self, pts, width, color="#000000", closed=False):
        tag = "polygon" if closed else "polyline"
        self.elems.append(
            f'<{tag} points="{_poly_points(pts)}" fill="none" '
            f'stroke="{color}" stroke-width="{_f(width)}" stroke-linejoin="round"/>'
        )

    def circle(self, c, r, width, color="#000000", fill="none"):
        self.elems.append(
            f'<circle cx="{_f(c[0])}" cy="{_f(c[1])}" r="{_f(r)}" fill="{fill}" '
            f'stroke="{color}" stroke-width="{_f(width)}"/>'
        )

    def rect(self, p, w, h, fill):
        self.elems.append(
            f'<rect x="{_f(p[0])}" y="{_f(p[1])}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="none"/>'
        )

    def to_string(self):
        # flip the y axis so +y points up in the figure
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{_f(self.x0)} {_f(-self.y0 - self.h)} {_f(self.w)} {_f(self.h)}">\n'
            f'<g transform="scale(1,-1)">\n'
        )
        return header + "\n".join(self.elems) + "\n</g>\n</svg>\n"


# stroke widths relative to a unit-ish diagram; scaled by the domain size
LINE_W = 0.6
SIGMA_W = 2.0
OUTLINE_W = 1.2


def pattern_svg(domain, family, medial=None):
    """Stable lines as strokes, singular set bold, unconstrained blank; a
    stroke width unit is a hundredth of the domain's diameter."""
    canvas = SvgCanvas(domain.bbox())
    unit = domain.diameter() / 100.0
    for ln in family.lines:
        canvas.line(ln.start, ln.end, LINE_W * unit)
    if medial is not None:
        for pts in medial.polylines():
            canvas.polyline(pts, SIGMA_W * unit)
        for v, deg in medial.vertices:
            canvas.circle(v, 1.0 * unit, SIGMA_W * unit * 0.5, fill="#000000")
    canvas.polyline(domain_outline(domain), OUTLINE_W * unit, closed=True)
    return canvas.to_string()


def heatmap_svg(grid_x0, grid_y0, h, values, mask, domain=None, overlay=None):
    """Grayscale cell heatmap with optional stable-line overlay; a stroke
    width unit is a hundredth of the grid's longer side."""
    vals = np.asarray(values, dtype=float)
    lo = float(np.nanmin(vals[mask])) if mask.any() else 0.0
    hi = float(np.nanmax(vals[mask])) if mask.any() else 1.0
    span = hi - lo if hi > lo else 1.0
    nx, ny = vals.shape
    bbox = ((grid_x0, grid_y0), (grid_x0 + nx * h, grid_y0 + ny * h))
    canvas = SvgCanvas(bbox)
    unit = max(nx, ny) * h / 100.0
    # coarse row-run encoding: merge horizontal runs of equal grey level;
    # masked-out cells (level -1) form runs too, which are not drawn
    levels = np.full((ny, nx), -1, dtype=int)
    levels.T[mask] = np.clip(((vals[mask] - lo) / span * 32).astype(int), 0, 32)
    starts = np.ones((ny, nx), dtype=bool)
    starts[:, 1:] = levels[:, 1:] != levels[:, :-1]
    first = np.flatnonzero(starts)
    length = np.diff(first, append=levels.size)
    run_level = levels.ravel()[first]
    keep = run_level >= 0
    # one `SvgCanvas.rect` line per run, formatted CSV_BLOCK_ROWS runs at a time
    j, i = np.divmod(first[keep], nx)
    runs = np.empty((len(i), 5), dtype=object)
    runs[:, :4] = np.column_stack([grid_x0 + i * h, grid_y0 + j * h, length[keep] * h,
                                   np.full(len(i), h)])
    runs[:, 4] = GREY_FILLS[255 - run_level[keep] * 255 // 32]
    for a in range(0, len(runs), CSV_BLOCK_ROWS):
        block = runs[a:a + CSV_BLOCK_ROWS]
        canvas.elems.append("\n".join([RECT] * len(block)) % tuple(block.ravel().tolist()))
    if overlay is not None:
        for ln in overlay.lines:
            canvas.line(ln.start, ln.end, 0.3 * unit, color="#cc3311")
    if domain is not None:
        canvas.polyline(domain_outline(domain), OUTLINE_W * unit, closed=True)
    return canvas.to_string()


# ----------------------------------------------------------------------
# CSV writers (comma-separated, header row, row-major grid order)
# ----------------------------------------------------------------------


def csv_lines(header, rows):
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_f(v) if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
    return "\n".join(out) + "\n"


def family_csv(family):
    rows = []
    for ln in family.lines:
        rows.append(
            (
                ln.start[0], ln.start[1], ln.end[0], ln.end[1],
                ln.eta[0], ln.eta[1], ln.start_kind, ln.end_kind,
            )
        )
    return csv_lines(
        ["x1", "y1", "x2", "y2", "eta_x", "eta_y", "start_kind", "end_kind"], rows
    )


def medial_csv(medial):
    return csv_lines(["x1", "y1", "x2", "y2"], medial.to_csv_rows())


def _csv_table(header, columns):
    """The header, then row k of the equal-length 1-D float arrays
    ``columns`` on line k, each value formatted like `FMT`.

    Rows are formatted CSV_BLOCK_ROWS at a time, with one ``%`` on the row
    format repeated per row, so no string per row is ever held: the text
    exists only as the block strings and their join.
    """
    row = ",".join(["%.9g"] * len(columns))
    parts = [",".join(header)]
    for a in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = np.column_stack([c[a:a + CSV_BLOCK_ROWS] for c in columns])
        parts.append("\n".join([row] * len(block)) % tuple(block.ravel().tolist()))
    parts.append("")  # the closing newline, without a copy of the joined table
    return "\n".join(parts)


def defect_csv(defect):
    """Masked cells in row-major order: x, y, lambda, eta (NaN eta as 0),
    each value formatted like `FMT`; rows are formatted in blocks of
    CSV_BLOCK_ROWS."""
    grid = defect.grid
    m = grid.mask
    eta = defect.eta[m]
    eta[~np.isfinite(eta)] = 0.0
    return _csv_table(
        ["x", "y", "lambda", "eta_x", "eta_y"],
        [grid.X[m], grid.Y[m], defect.lam[m], eta[:, 0], eta[:, 1]],
    )


def heightmap_csv(field):
    """Every grid cell in row-major order: x, y, w, each value formatted
    like `FMT`; rows are formatted in blocks of CSV_BLOCK_ROWS."""
    X, Y = field.points()
    return _csv_table(["x", "y", "w"], [X.ravel(), Y.ravel(), field.w.ravel()])
