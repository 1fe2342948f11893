"""CSV writers against a per-value reference formatter."""

import numpy as np

from shellwrinkle import characteristics as chars
from shellwrinkle import render
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
