"""Cut-cell quadrature: every cell weight is the exact area of cell ∩ domain."""

import numpy as np
import pytest

from shellwrinkle.errors import ResolutionError
from shellwrinkle.geometry import Ellipse, HalfDisc
from shellwrinkle.grids import MaskedGrid

CATALOG = ["ellipse", "disc", "rect", "half_disc_pos", "half_disc_neg", "triangle", "pentagon"]


def _shape(request, name):
    if name == "rotated_half_disc":
        return HalfDisc(1.0, center=(0.2, 0.1), orientation=0.7)
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", CATALOG + ["rotated_half_disc"])
@pytest.mark.parametrize("n", [64, 128])
def test_covered_area_is_exact(request, name, n):
    dom = _shape(request, name)
    grid = MaskedGrid(dom, n)
    assert grid.covered_area() == pytest.approx(dom.area(), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["ellipse", "half_disc_neg", "pentagon", "rotated_half_disc"])
def test_cell_weights_match_fine_occupancy(request, name):
    # 64 x 64 occupancy samples per cell misclassify a band about h/64 wide
    # along the boundary, which measures about 1e-3 h^2 here
    dom = _shape(request, name)
    grid = MaskedGrid(dom, 32)
    h = grid.h
    offs = ((np.arange(64) + 0.5) / 64 - 0.5) * h
    ox, oy = (o.ravel() for o in np.meshgrid(offs, offs, indexing="ij"))
    for i in range(grid.nx):  # one column of cells at a time
        sub = np.stack(
            [grid.X[i][:, None] + ox[None, :], grid.Y[i][:, None] + oy[None, :]], axis=-1
        )
        ref = dom.contains(sub.reshape(-1, 2)).reshape(grid.ny, -1).mean(axis=1) * h * h
        assert np.max(np.abs(grid.weights[i] - ref)) < h * h / 100, i


@pytest.mark.parametrize("name", ["triangle", "pentagon", "regular_pentagon"])
@pytest.mark.parametrize("n", [32, 48, 64, 96, 128])
def test_eval_points_lie_in_domain(request, name, n):
    # a cut cell's centre outside a polygon near a vertex projects onto the
    # vertex, not onto the nearest side's line beyond it
    dom = _shape(request, name)
    grid = MaskedGrid(dom, n)
    pts = grid.eval_points()
    assert pts.shape == (int(grid.mask.sum()), 2)
    assert np.all(dom.contains(pts, tol=1e-12))


def test_shape_too_thin_for_the_grid_raises():
    # no cell of side 2/64 lies wholly inside an ellipse 2e-6 thick
    with pytest.raises(ResolutionError, match="resolution-64 grid"):
        MaskedGrid(Ellipse(1.0, 1e-6), 64)
