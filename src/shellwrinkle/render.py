"""SVG and CSV emitters for patterns, defect fields and heightmaps.

SVG conventions: stable lines 0.6-unit strokes, singular set 2.0-unit bold,
domain outline 1.2-unit, unconstrained regions unfilled.  All floats are
formatted to 9 significant digits so identical inputs produce identical
bytes.

Every value of the table CSVs (`defect_csv`, `heightmap_csv`) is exactly
``"%.9g" % v``.  `_format_g9` writes it with array arithmetic for ±0 and
every |v| in [1e-14, 1e31) whose 9-digit rounding it can prove; the rest
(NaN, ±inf, subnormals, |v| outside that range, a decimal tie or a value
whose scaled rounding lands on one) go through one ``%`` per block.
"""

from __future__ import annotations

import numpy as np

FMT = "{:.9g}"
CSV_BLOCK_ROWS = 1024  # rows formatted per block by the CSV and heatmap rect writers
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


def _ascii_word(text, at=0):
    """``text`` as the bytes ``at``, ``at`` + 1, ... of a little-endian uint64."""
    return int.from_bytes(b"\0" * at + text.encode(), "little")


def _g9_tables():
    """The lookup tables of `_format_g9`.

    ``digits4`` and ``zeros4``: the four ASCII digits of 0..9999, first
    digit in the low byte, and their trailing zeros (4 for 0).  ``low``:
    the mask of the low k bytes, k = 0..8.  ``layout``: one row per decimal
    exponent X = -14..31 of the rounded value, at row X + 14: the digits it
    writes at least (its integer digits in the fixed form), the low-byte
    mask of the digits after the first that the point follows (X = 1..7),
    its point among them, its point after the first digit, its "0.000"
    prefix and its "e+XX" suffix.
    """
    d = np.arange(10**4)
    digits4 = sum((48 + d // 10 ** (3 - i) % 10).astype(np.uint64) << np.uint64(8 * i)
                  for i in range(4))
    zeros4 = (d % 10 == 0).astype(np.uint64) + (d % 100 == 0) + (d % 1000 == 0) + (d == 0)
    low = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
    layout = np.zeros((46, 6), dtype=np.uint64)
    for x in range(-14, 32):
        fixed = -4 <= x < 9
        layout[x + 14] = (
            x + 1 if 0 <= x < 9 else 1,
            low[x if 1 <= x <= 7 else 8],
            _ascii_word(".", x) if 1 <= x <= 7 else 0,
            _ascii_word(".", 7) if x == 0 or not fixed else 0,
            _ascii_word("0." + "0" * (-x - 1), 1) if x < 0 and fixed else 0,
            0 if fixed else _ascii_word("e%+03d" % x, 1),
        )
    return digits4, zeros4, low, layout


_DIGITS4, _ZEROS4, _LOW, _LAYOUT = _g9_tables()
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_FALLBACK = _ascii_word("%.9g")


def _format_g9(values, seps):
    """``"%.9g" % v`` for every double of the (rows, cols) array ``values``,
    each followed by its column's separator, as one string.

    Each value is written as three uint64 words of ASCII and NUL padding:
    the sign, the "0.000" prefix, the first digit and its point; the other
    eight digits with the point inserted; the ninth digit when the point
    pushed it out, "e+XX" and the separator (``seps``, one word per column
    with the character in byte 5).  Stripped zeros and absent characters
    are NULs, dropped once per block.

    The digits come from one rounding: e = floor(log10|v|), and |v| is
    multiplied by 10^(8 - e), or divided by 10^(e - 8), an exact double
    when that exponent is at most 22, so e is in [-14, 30].  That rounding
    is monotone and every half-integer below 2^52 is a double, so the
    scaled value is on the same side of a half-integer as the exact one,
    or on it: q = rint(scaled) is taken only when |scaled - q| < 0.5, which
    drops every decimal tie and every value that rounds onto one.  It is
    also taken only when 1e8 - 0.04 <= scaled and q <= 1e9: a log10 one too
    high next to a power of ten leaves scaled just below 1e8, where 10^e is
    the 9-digit rounding down to 1e8 - 0.05, and one too low leaves q = 1e9.
    q = 1e9 carries into the next decade before the fixed or exponent form
    is chosen, as ``%g`` does.  Every other nonzero value is written by one ``%`` on the block's
    text, with ``"%.9g"`` in its place.
    """
    a = np.abs(values)
    ok = (a >= 1e-14) & (a < 1e31)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    p = np.clip(8 - e, -22, 22)
    ok &= p == 8 - e
    scaled = a * _POW10.take(np.maximum(p, 0)) / _POW10.take(np.maximum(-p, 0))
    q = np.rint(scaled)
    ok &= (np.abs(scaled - q) < 0.5) & (scaled >= 1e8 - 0.04) & (q <= 1e9)
    carry = q == 1e9
    # zero and every value left to the fallback get the digits of 0 at
    # X = 0, and the fallback's words are replaced below
    n = np.where(ok, np.where(carry, 1e8, q), 0.0).astype(np.int64)
    layout = _LAYOUT.take(np.where(ok, e + carry, 0) + 14, axis=0)
    keep_min, low, tail_dot, head_dot, prefix, suffix = np.moveaxis(layout, -1, 0)
    first, rest = np.divmod(n, 10**8)
    hi4, lo4 = np.divmod(rest, 10**4)
    zeros = np.where(lo4 == 0, 4 + _ZEROS4.take(hi4), _ZEROS4.take(lo4))
    keep = np.maximum(9 - zeros, keep_min)  # digits written
    point = keep > keep_min
    digits = (_DIGITS4.take(hi4) | _DIGITS4.take(lo4) << np.uint64(32)) & _LOW.take(keep - 1)
    moved = digits & ~low
    words = np.empty(values.shape + (3,), dtype=np.uint64)
    words[..., 0] = (np.signbit(values) * np.uint64(ord("-")) | prefix
                     | (first.astype(np.uint64) + np.uint64(48)) << np.uint64(48)
                     | np.where(point, head_dot, 0))
    words[..., 1] = digits & low | moved << np.uint64(8) | np.where(point, tail_dot, 0)
    words[..., 2] = moved >> np.uint64(56) | suffix | seps
    fallback = ~ok & (values != 0)
    others = tuple(values[fallback].tolist())
    if others:
        words[fallback, :2] = (0, _FALLBACK)
    text = words.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii")
    return text % others if others else text


def _csv_table(header, columns):
    """The header, then row k of the equal-length 1-D float arrays
    ``columns`` on line k, each value exactly ``"%.9g" % v``.

    Rows are written CSV_BLOCK_ROWS at a time by `_format_g9`: array
    arithmetic for ±0 and each |v| in [1e-14, 1e31) it can round with
    proof, one ``%`` per block for the rest (NaN, ±inf, subnormals, other
    magnitudes, values on or rounding onto a tie).  No string per row is
    ever held: the text exists only as the block strings and their join.
    """
    seps = np.full(len(columns), _ascii_word(",", 5), dtype=np.uint64)
    seps[-1] = _ascii_word("\n", 5)
    parts = [",".join(header) + "\n"]
    for a in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        parts.append(_format_g9(np.column_stack([c[a:a + CSV_BLOCK_ROWS] for c in columns]), seps))
    return "".join(parts)


def defect_csv(defect):
    """Masked cells in row-major order: x, y, lambda, eta (NaN eta as 0),
    each value exactly ``"%.9g" % v`` (`_csv_table`)."""
    grid = defect.grid
    m = grid.mask
    eta = defect.eta[m]
    eta[~np.isfinite(eta)] = 0.0
    return _csv_table(
        ["x", "y", "lambda", "eta_x", "eta_y"],
        [grid.X[m], grid.Y[m], defect.lam[m], eta[:, 0], eta[:, 1]],
    )


def heightmap_csv(field):
    """Every grid cell in row-major order: x, y, w, each value exactly
    ``"%.9g" % v`` (`_csv_table`)."""
    X, Y = field.points()
    return _csv_table(["x", "y", "w"], [X.ravel(), Y.ravel(), field.w.ravel()])
