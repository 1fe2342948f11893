"""CSV writers against a per-value reference formatter, the heatmap's run
encoding against a per-cell loop, and the CSV writer's memory."""

import tracemalloc

import numpy as np
import pytest

from shellwrinkle import characteristics as chars
from shellwrinkle import cli, render
from shellwrinkle.geometry import Disc
from shellwrinkle.herringbone import DisplacementField
from shellwrinkle.shell import ShellProfile


def per_value_defect_csv(defect):
    """One `"{:.9g}"` per value, masked cells in row-major order."""
    grid = defect.grid
    lines = ["x,y,lambda,eta_x,eta_y"]
    for i in range(grid.nx):
        for j in range(grid.ny):
            if not grid.mask[i, j]:
                continue
            eta = [v if np.isfinite(v) else 0.0 for v in defect.eta[i, j]]
            row = (grid.X[i, j], grid.Y[i, j], defect.lam[i, j], *eta)
            lines.append(",".join("{:.9g}".format(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def test_defect_csv_matches_per_value_format(half_disc_neg):
    df = chars.defect_field(half_disc_neg, ShellProfile.constant(-1.0), 64)
    # eta is NaN where no chart holds a cell or the field is rank two; give
    # every seventh masked cell that NaN
    i, j = np.nonzero(df.grid.mask)
    df.eta[i[::7], j[::7]] = np.nan
    assert render.defect_csv(df) == per_value_defect_csv(df)


def test_defect_csv_blocks_give_the_same_bytes(half_disc_neg, monkeypatch):
    # one row per block, blocks that end mid-table, one block one row short
    # of the table, one exactly the table, one longer than it
    df = chars.defect_field(half_disc_neg, ShellProfile.constant(-1.0), 64)
    expected = per_value_defect_csv(df)
    n = int(df.grid.mask.sum())
    assert n > 1000
    for block_rows in (1, 7, 256, n - 1, n, n + 1):
        monkeypatch.setattr(render, "CSV_BLOCK_ROWS", block_rows)
        assert render.defect_csv(df) == expected, block_rows


def test_defect_csv_holds_no_string_per_row():
    # the text is built block by block: above the output itself only the
    # block strings and the masked columns are held, not one string per row
    df = chars.defect_field(Disc(1.0), ShellProfile.constant(-1.0), 256)
    assert df.grid.mask.sum() > 10 * render.CSV_BLOCK_ROWS
    tracemalloc.start()
    try:
        text = render.defect_csv(df)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - len(text) < 2.5 * len(text), (peak, len(text))


def test_heightmap_csv_matches_per_value_format():
    nx, ny, h = 37, 29, 0.013
    rng = np.random.default_rng(3)
    w = rng.standard_normal((nx, ny)) * 10.0 ** rng.integers(-300, 300, (nx, ny))
    w.flat[:8] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2e-308, 1.0 / 3.0]
    field = DisplacementField(
        origin=(-0.2, 0.1), h=h, u=np.zeros((nx, ny, 2)), w=w,
        domain_mask=np.ones((nx, ny), dtype=bool), bulk_mask=np.ones((nx, ny), dtype=bool),
    )
    X, Y = field.points()
    rows = [(X[i, j], Y[i, j], w[i, j]) for i in range(nx) for j in range(ny)]
    assert render.heightmap_csv(field) == render.csv_lines(["x", "y", "w"], rows)


def per_cell_heatmap_svg(grid_x0, grid_y0, h, values, mask, domain=None, overlay=None):
    """The heatmap with its runs found cell by cell along each row."""
    vals = np.asarray(values, dtype=float)
    lo = float(np.nanmin(vals[mask])) if mask.any() else 0.0
    hi = float(np.nanmax(vals[mask])) if mask.any() else 1.0
    span = hi - lo if hi > lo else 1.0
    nx, ny = vals.shape
    canvas = render.SvgCanvas(((grid_x0, grid_y0), (grid_x0 + nx * h, grid_y0 + ny * h)))
    unit = max(nx, ny) * h / 100.0
    levels = np.full((nx, ny), -1, dtype=int)
    levels[mask] = np.clip(((vals[mask] - lo) / span * 32).astype(int), 0, 32)
    for j in range(ny):
        i = 0
        while i < nx:
            L = levels[i, j]
            if L < 0:
                i += 1
                continue
            i2 = i
            while i2 + 1 < nx and levels[i2 + 1, j] == L:
                i2 += 1
            grey = 255 - int(L * 255 / 32)
            fill = f"#{grey:02x}{grey:02x}{grey:02x}"
            canvas.rect((grid_x0 + i * h, grid_y0 + j * h), (i2 - i + 1) * h, h, fill)
            i = i2 + 1
    if overlay is not None:
        for ln in overlay.lines:
            canvas.line(ln.start, ln.end, 0.3 * unit, color="#cc3311")
    if domain is not None:
        canvas.polyline(render.domain_outline(domain), render.OUTLINE_W * unit, closed=True)
    return canvas.to_string()


def test_heatmap_svg_matches_per_cell_runs(half_disc_neg):
    df = chars.defect_field(half_disc_neg, ShellProfile.constant(-1.0), 64)
    g = df.grid
    args = (g.x0, g.y0, g.h, df.lam, g.mask)
    assert render.heatmap_svg(*args, domain=half_disc_neg) == per_cell_heatmap_svg(
        *args, domain=half_disc_neg)
    # plateaus, runs touching both row ends, single cells, holes in the mask
    rng = np.random.default_rng(5)
    vals = np.repeat(rng.integers(0, 4, (9, 40)), 5, axis=0).astype(float)
    mask = rng.random(vals.shape) > 0.2
    mask[:, 0] = True
    args = (-1.0, 0.5, 0.1, vals, mask)
    assert render.heatmap_svg(*args) == per_cell_heatmap_svg(*args)


def test_heatmap_rect_blocks_give_the_same_bytes(monkeypatch):
    # a small field with masked cells, written one `SvgCanvas.rect` per run
    # by the reference; blocks of one run, blocks that end mid-field, one
    # block one run short of the field, one exactly the field, one longer
    rng = np.random.default_rng(11)
    vals = np.repeat(rng.standard_normal((6, 17)), 3, axis=0)
    mask = rng.random(vals.shape) > 0.3
    args = (0.25, -2.0, 1.0 / 3.0, vals, mask)
    expected = per_cell_heatmap_svg(*args)
    n = expected.count("<rect")
    assert n > 20 and (~mask).any()
    for block_rows in (1, 7, n - 1, n, n + 1):
        monkeypatch.setattr(render, "CSV_BLOCK_ROWS", block_rows)
        assert render.heatmap_svg(*args) == expected, block_rows


@pytest.mark.parametrize("shape, rows", [
    (["disc", "--radius", "1"], ["0,0,0,0"]),
    (["ellipse", "--a", "2", "--b-axis", "1"], ["-1.5,0,1.5,0"]),
    (["rectangle", "--a", "2", "--b-axis", "1"],
     ["2,-1,1,0", "1,0,-1,0", "-1,0,-2,-1", "2,1,1,0", "-2,1,-1,0"]),
])
def test_pattern_writes_every_medial_component(tmp_path, capsys, shape, rows):
    # the disc's medial axis is its centre alone, written as one
    # zero-length row; the segments of the others one row each
    argv = ["pattern", "--shape", *shape, "--sign", "negative", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    lines = (tmp_path / "medial_axis.csv").read_text().splitlines()
    assert lines == ["x1,y1,x2,y2", *rows]
