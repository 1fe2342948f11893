"""The point-to-chart locator, the values its consumers read at seams, the
unconstrained-set decomposition's input check, and lines built together
against lines built one at a time."""

import json

import numpy as np
import pytest

from conftest import CASE_IDS, CASES
from shellwrinkle import airy, cli
from shellwrinkle.errors import ParameterError
from shellwrinkle.grids import MaskedGrid
from shellwrinkle.geometry import ConvexPolygon, Disc, Ellipse
from shellwrinkle.rulings import ChordChart, ExitChart, FanChart, UDecomposition, charts_for, locate
from shellwrinkle.shell import ShellProfile

POS = ShellProfile.constant(1.0)
NEG = ShellProfile.constant(-1.0)


def membership(charts, pts):
    """(n_charts, n_points) table of chart.contains."""
    return np.array([np.asarray(chart.contains(pts)) for chart in charts])


def seam_points(charts, pts):
    """Points held by two or more charts, and their membership table."""
    hits = membership(charts, pts)
    seam = hits.sum(axis=0) >= 2
    return pts[seam], hits[:, seam]


@pytest.mark.parametrize("name,shell", CASES, ids=CASE_IDS)
def test_every_masked_point_has_a_chart(request, name, shell):
    domain = request.getfixturevalue(name)
    charts = airy.solve_dual(domain, shell).charts
    assert np.all(locate(charts, MaskedGrid(domain, 128).eval_points()) >= 0)


def test_point_outside_every_station_range_is_uncovered(ellipse):
    # beyond the vertex: outside the shape, and its s = -x lies below the
    # chord chart's station range (-2, 2)
    charts = airy.solve_dual(ellipse, POS).charts
    assert locate(charts, np.array([[2.0 + 1e-9, 0.0]]))[0] == -1


def test_boundary_projection_goes_to_its_own_piece(half_disc_neg):
    # just outside the arc (or the flat side), no chart contains the point;
    # the foot's parameter lies in its own piece's station range only
    charts = airy.solve_dual(half_disc_neg, NEG).charts
    assert [c.s_range() for c in charts] == [(0.0, np.pi), (np.pi, np.pi + 2.0)]
    arc = half_disc_neg.nearest_boundary_point(np.array([[0.3, 0.9]])) * (1 + 1e-12)
    flat = np.array([[0.4, -1e-12]])
    assert not np.any(membership(charts, np.concatenate([arc, flat])))
    np.testing.assert_array_equal(locate(charts, np.concatenate([arc, flat])), [0, 1])


def test_rectangle_seams_take_the_first_chart(rect):
    af = airy.solve_dual(rect, POS)
    pts = MaskedGrid(rect, 256).masked_points()
    hits = membership(af.charts, pts)
    seam = hits.sum(axis=0) >= 2
    assert seam.any()
    held = hits.any(axis=0)
    np.testing.assert_array_equal(locate(af.charts, pts)[held], np.argmax(hits, axis=0)[held])
    # the first chart holding each seam point is an ordered corner chart
    corners = {1, 2, 3, 4}  # after the band, before the two U triangles
    assert set(locate(af.charts, pts[seam]).tolist()) <= corners
    assert all(af.charts[i].label == "O" for i in corners)


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
            c, g = chart.roof
            own = c + pts[held] @ g
        np.testing.assert_allclose(own, phi[held], rtol=0, atol=1e-12)


def test_unknown_decomposition_kind_is_rejected():
    assert UDecomposition(kind="parallel").kind == "parallel"
    assert UDecomposition(kind="mixture").kind == "mixture"
    with pytest.raises(ParameterError, match="mixure"):
        UDecomposition(kind="mixure")


def test_cli_reports_unknown_decomposition_kind(tmp_path, capsys):
    cfg = {
        "domain": {"shape": "disc", "radius": 1.0},
        "shell": {"sign": "positive"},
        "u_decomposition": {"kind": "mixure"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["defect", "--config", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mixure" in err



@pytest.mark.parametrize("name, sign, angle, kind, shape", [
    ("ellipse", 1, 0.0, ChordChart, Ellipse),
    ("disc", 1, 0.0, ChordChart, Disc),
    ("disc", 1, np.pi / 4, ChordChart, Disc),
    ("rect", 1, 0.0, ChordChart, ConvexPolygon),
    ("triangle", 1, 0.0, ChordChart, ConvexPolygon),
    ("half_disc_pos", 1, 0.0, FanChart, None),
    ("half_disc_neg", -1, 0.0, ExitChart, None),
    ("pentagon", -1, 0.0, ExitChart, None),
])
def test_lines_built_together_equal_lines_built_one_at_a_time(request, name, sign, angle, kind,
                                                              shape):
    # every step of a line's construction is elementwise (`line_spans`
    # included), so a line does not depend on the lines built with it
    domain = request.getfixturevalue(name)
    charts = charts_for(domain, sign, UDecomposition(angle=angle))
    assert all(isinstance(c, kind) for c in charts)
    assert shape is None or any(isinstance(c.shape, shape) for c in charts)
    if kind is ExitChart:
        assert len(charts) > 1  # a multi-piece shape
    for chart in charts:
        ss = np.array([ln.s for ln in chart.stations(0.02)])
        assert len(ss) > 3
        lines = chart.lines_at(ss)
        # rho on the station array, which the frozen-K fill reads, is the lines'
        rho0, rho1, _ = np.broadcast_arrays(*chart.rho(ss), ss)
        assert rho0.tolist() == [ln.rho0 for ln in lines]
        assert rho1.tolist() == [ln.rho1 for ln in lines]
        for k, ln in enumerate(lines):
            alone = chart.lines_at([ss[k]])[0]
            assert (ln.s, ln.rho0, ln.rho1, ln.start_kind, ln.end_kind) == (
                alone.s, alone.rho0, alone.rho1, alone.start_kind, alone.end_kind)
            for field in ("start", "end", "eta", "length"):
                np.testing.assert_array_equal(getattr(ln, field), getattr(alone, field))
            assert ln.length == np.hypot(*(ln.end - ln.start))
            assert chart.line_at(ss[k]).length == alone.length
