"""The point-to-chart locator and the values its consumers read at seams."""

import numpy as np
import pytest

from shellwrinkle import airy
from shellwrinkle.grids import MaskedGrid
from shellwrinkle.rulings import locate
from shellwrinkle.shell import ShellProfile

POS = ShellProfile.constant(1.0)
NEG = ShellProfile.constant(-1.0)

CASES = [
    ("ellipse", POS), ("disc", POS), ("rect", POS), ("half_disc_pos", POS),
    ("triangle", POS), ("regular_pentagon", POS),
    ("ellipse", NEG), ("disc", NEG), ("rect", NEG), ("half_disc_neg", NEG),
    ("triangle", NEG), ("pentagon", NEG),
]


def projected_masked_points(domain, resolution):
    """Masked cell centers, those outside the domain moved onto its boundary."""
    pts = MaskedGrid(domain, resolution).masked_points().copy()
    out = ~np.atleast_1d(domain.contains(pts, tol=0.0))
    pts[out] = np.atleast_2d(domain.nearest_boundary_point(pts[out]))
    return pts


def membership(charts, pts):
    """(n_charts, n_points) table of chart.contains."""
    return np.array([np.asarray(chart.contains(pts)) for chart in charts])


def seam_points(charts, pts):
    """Points held by two or more charts, and their membership table."""
    hits = membership(charts, pts)
    seam = hits.sum(axis=0) >= 2
    return pts[seam], hits[:, seam]


@pytest.mark.parametrize("name,shell", CASES, ids=[f"{n}-{s.sign}" for n, s in CASES])
def test_every_masked_point_has_a_chart(request, name, shell):
    domain = request.getfixturevalue(name)
    charts = airy.solve_dual(domain, shell).charts
    assert np.all(locate(charts, projected_masked_points(domain, 128)) >= 0)


def test_point_outside_every_station_range_is_uncovered(ellipse):
    charts = airy.solve_dual(ellipse, NEG).charts
    # foot parameter 0 falls between the two half-charts' station ranges
    assert locate(charts, np.array([[2.0 + 1e-9, 0.0]]))[0] == -1
    # just outside the lower half: the lower chart, by its station range
    below = ellipse.nearest_boundary_point(np.array([[0.3, -0.9]])) * (1 + 1e-12)
    assert locate(charts, below)[0] == 1


def test_rectangle_seams_take_the_first_chart(rect):
    af = airy.solve_dual(rect, POS)
    pts = MaskedGrid(rect, 256).masked_points()
    hits = membership(af.charts, pts)
    seam = hits.sum(axis=0) >= 2
    assert seam.any()
    held = hits.any(axis=0)
    np.testing.assert_array_equal(locate(af.charts, pts)[held], np.argmax(hits, axis=0)[held])
    # the first chart holding each seam point is an ordered corner chart
    zeta, _, rank = af.hessian_ac(pts[seam])
    assert np.all(rank == 1) and np.all(zeta == 2.0)


def test_phi_plus_at_seams_agrees_with_every_chart(rect):
    af = airy.solve_dual(rect, POS)
    pts, hits = seam_points(af.charts, MaskedGrid(rect, 256).masked_points())
    phi = af.phi(pts)
    for chart, held in zip(af.charts, hits):
        if not held.any():
            continue
        if chart.label == "O":
            own = airy.AiryField._interp_along_rulings(chart, pts[held])
        else:
            c, g = chart.clip.affine_roof()
            own = c + pts[held] @ g
        np.testing.assert_allclose(own, phi[held], rtol=0, atol=1e-12)
