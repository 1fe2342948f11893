"""CSV writers against a per-value reference formatter, the heatmap's run
encoding against a per-cell loop, and the CSV writer's memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def random_heightmap():
    """A 37 x 29 height map whose values span 600 decades, with zeros of
    both signs, NaN, infinities, subnormals and 1/3 among them."""
    nx, ny, h = 37, 29, 0.013
    rng = np.random.default_rng(3)
    w = rng.standard_normal((nx, ny)) * 10.0 ** rng.integers(-300, 300, (nx, ny))
    w.flat[:8] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2e-308, 1.0 / 3.0]
    return DisplacementField(
        origin=(-0.2, 0.1), h=h, u=np.zeros((nx, ny, 2)), w=w,
        domain_mask=np.ones((nx, ny), dtype=bool), bulk_mask=np.ones((nx, ny), dtype=bool),
    )


def per_value_heightmap_csv(field):
    X, Y = field.points()
    nx, ny = field.w.shape
    rows = [(X[i, j], Y[i, j], field.w[i, j]) for i in range(nx) for j in range(ny)]
    return render.csv_lines(["x", "y", "w"], rows)


@pytest.mark.parametrize("writer", ["defect_csv", "heightmap_csv"])
def test_defect_csv_blocks_give_the_same_bytes(half_disc_neg, monkeypatch, writer):
    # one row per block, blocks that end mid-table, one block one row short
    # of the table, one exactly the table, one longer than it
    if writer == "defect_csv":
        data = chars.defect_field(half_disc_neg, ShellProfile.constant(-1.0), 64)
        expected, n = per_value_defect_csv(data), int(data.grid.mask.sum())
    else:
        data = random_heightmap()
        expected, n = per_value_heightmap_csv(data), data.w.size
    assert n > 1000
    for block_rows in (1, 7, 256, n - 1, n, n + 1):
        monkeypatch.setattr(render, "CSV_BLOCK_ROWS", block_rows)
        assert getattr(render, writer)(data) == expected, block_rows


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
    field = random_heightmap()
    assert render.heightmap_csv(field) == per_value_heightmap_csv(field)


def g9_column(values):
    """`_csv_table` on one column, and ``"%.9g" % v`` line by line."""
    values = np.asarray(values, dtype=float)
    expected = "v\n" + "".join("%.9g\n" % v for v in values.tolist())
    return render._csv_table(["v"], [values]), expected


def neighbours(x, k=3):
    """x and the k doubles on each side of each of its values, both signs."""
    x = np.asarray(x, dtype=float)
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    out = np.concatenate(out)
    return np.concatenate([out, -out])


def test_g9_next_to_powers_of_ten():
    # floor(log10 |v|) is one off on either side of 10^k, and the scale by
    # 10^(8 - e) is exact only for e in [-14, 30]
    got, expected = g9_column(neighbours([float(f"1e{k}") for k in range(-324, 309)]))
    assert got == expected


def test_g9_where_rounding_carries_into_the_next_decade():
    # (1e9 - 0.5) 10^(k - 9) rounds to 10^k: the carry decides the fixed or
    # exponent form at k = -4 (e = -5 / -4) and k = 9 (e = 8 / 9); the
    # digits just above and below the half carry and do not
    values = [float(f"{m}e{k - len(m)}")
              for k in range(-20, 40) for m in ("9999999995", "99999999951", "99999999949")]
    got, expected = g9_column(neighbours(values))
    assert got == expected


def test_g9_ties_and_special_values():
    # exact decimal ties at the ninth digit round half to even in "%.9g";
    # zeros keep their sign; subnormals, the extremes, NaN and infinities,
    # with no RuntimeWarning (an error under the pytest config)
    values = [1234567885.0, 1000000005.0, 9999999995.0, 123456788.5, 12345678.25,
              0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.225073858507201e-308,
              2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    got, expected = g9_column(values)
    assert got == expected


def test_g9_next_to_decimal_ties():
    # the doubles nearest a tie at the ninth digit: the rounded scaled value
    # may land on the half, on either side of the true one
    rng = np.random.default_rng(6)
    digits = rng.integers(10**8, 10**9, 2000)
    exps = rng.integers(-24, 22, 2000)
    got, expected = g9_column(neighbours([float(f"{d}5e{k}") for d, k in zip(digits, exps)]))
    assert got == expected


def test_g9_all_fallback_column():
    # every value below 1e-14: each block goes through one "%" alone
    rng = np.random.default_rng(7)
    got, expected = g9_column(rng.standard_normal(3000) * 1e-20)
    assert got == expected


def test_g9_writes_in_range_values_itself(monkeypatch):
    # with the fallback's placeholder marked, no value of magnitude in
    # [1e-14, 1e31) away from a tie is left to it, and NaN is
    monkeypatch.setattr(render, "_FALLBACK", render._ascii_word("<%r>"))
    rng = np.random.default_rng(8)
    values = rng.uniform(1, 10, 20000) * 10.0 ** rng.integers(-14, 31, 20000)
    values[::2] *= -1
    values[::97] = 0.0
    got = render._csv_table(["v"], [values])
    assert "<" not in got
    assert render._csv_table(["v"], [np.array([1.0, np.nan])]) == "v\n1\n<nan>\n"


@given(st.lists(st.floats() | st.floats(-1e31, 1e31), min_size=1, max_size=64))
def test_g9_matches_percent_format(values):
    got, expected = g9_column(values)
    assert got == expected


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
