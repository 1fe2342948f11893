"""The point-to-chart locator and the coordinates it returns, the values its
consumers read at seams, the one foot pass and one medial axis of the exit
charts, the unconstrained-set decomposition's input check, and lines built
together against lines built one at a time."""

import json

import numpy as np
import pytest

from conftest import CASE_IDS, CASES
from shellwrinkle import airy, cli
from shellwrinkle.characteristics import defect_field
from shellwrinkle.errors import ParameterError
from shellwrinkle.grids import MaskedGrid
from shellwrinkle.geometry import ConvexPolygon, Disc, Ellipse
from shellwrinkle.rulings import ChordChart, ExitChart, FanChart, UDecomposition, charts_for, locate
from shellwrinkle.shell import ShellProfile

POS = ShellProfile.constant(1.0)
NEG = ShellProfile.constant(-1.0)


def membership(charts, pts):
    """(n_charts, n_points) table of chart.contains, the rule derived from
    each chart's coordinates."""
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
    assert np.all(locate(charts, MaskedGrid(domain, 128).eval_points())[0] >= 0)


def test_point_outside_every_station_range_is_uncovered(ellipse):
    # beyond the vertex: outside the shape, and its s = -x lies below the
    # chord chart's station range (-2, 2)
    charts = airy.solve_dual(ellipse, POS).charts
    which, *coords = locate(charts, np.array([[2.0 + 1e-9, 0.0]]))
    assert which[0] == -1
    assert all(np.isnan(c).all() for c in coords)


def test_boundary_projection_goes_to_its_own_piece(half_disc_neg):
    # just outside the arc (or the flat side), the point lies on its foot's
    # ray short of the axis, so it misses by 0 the piece whose station range
    # holds the foot's parameter, and only that piece
    charts = airy.solve_dual(half_disc_neg, NEG).charts
    assert [c.s_range() for c in charts] == [(0.0, np.pi), (np.pi, np.pi + 2.0)]
    arc = half_disc_neg.nearest_boundary_point(np.array([[0.3, 0.9]])) * (1 + 1e-12)
    flat = np.array([[0.4, -1e-12]])
    pts = np.concatenate([arc, flat])
    assert not np.any(half_disc_neg.contains(pts))
    np.testing.assert_array_equal(membership(charts, pts), np.eye(2, dtype=bool))
    np.testing.assert_array_equal(locate(charts, pts)[0], [0, 1])


def test_rectangle_seams_take_the_first_chart(rect):
    af = airy.solve_dual(rect, POS)
    pts = MaskedGrid(rect, 256).masked_points()
    hits = membership(af.charts, pts)
    seam = hits.sum(axis=0) >= 2
    assert seam.any()
    held = hits.any(axis=0)
    np.testing.assert_array_equal(locate(af.charts, pts)[0][held], np.argmax(hits, axis=0)[held])
    # the first chart holding each seam point is an ordered corner chart
    corners = {1, 2, 3, 4}  # after the band, before the two U triangles
    assert set(locate(af.charts, pts[seam])[0].tolist()) <= corners
    assert all(af.charts[i].label == "O" for i in corners)


def test_phi_plus_at_seams_agrees_with_every_chart(rect):
    af = airy.solve_dual(rect, POS)
    pts, hits = seam_points(af.charts, MaskedGrid(rect, 256).masked_points())
    phi = af.phi(pts)
    for chart, held in zip(af.charts, hits):
        if not held.any():
            continue
        if chart.label == "O":
            own = airy.AiryField._interp_along_rulings(pts[held], *chart.coords_eta(pts[held]))
        else:
            c, g = chart.roof
            own = c + pts[held] @ g
        np.testing.assert_allclose(own, phi[held], rtol=0, atol=1e-12)


def least_miss(charts, pts):
    """Index of the chart each point misses least, max(-u, u - L, 0) among
    the charts whose station range holds its s (the lower index on ties),
    or -1 where none does."""
    misses = []
    for chart in charts:
        s, u, L = chart.coords(pts)
        s0, s1 = chart.s_range()
        miss = np.maximum(np.maximum(-u, u - L), 0.0)
        misses.append(np.where((s >= s0) & (s <= s1), miss, np.inf))
    misses = np.array(misses)
    return np.where(np.isfinite(misses).any(axis=0), np.argmin(misses, axis=0), -1)


@pytest.mark.parametrize("name,shell", CASES, ids=CASE_IDS)
def test_locate_returns_the_holding_chart_and_its_own_coordinates(request, name, shell):
    # on the grid's evaluation points and on every cell centre, in or out:
    # the first chart that holds a point, else the one it misses least, and
    # that chart's own coordinates, bit for bit
    domain = request.getfixturevalue(name)
    charts = airy.solve_dual(domain, shell).charts
    grid = MaskedGrid(domain, 128)
    pts = np.concatenate([grid.eval_points(), grid.points()])
    which, *coords = locate(charts, pts)
    hits = membership(charts, pts)
    held = hits.any(axis=0)
    np.testing.assert_array_equal(which[held], np.argmax(hits, axis=0)[held])
    np.testing.assert_array_equal(which[~held], least_miss(charts, pts[~held]))
    for c in coords:
        assert np.isnan(c[which < 0]).all()
    for i, chart in enumerate(charts):
        own = chart.coords_eta(pts[which == i])
        for got, want in zip(coords, own):
            np.testing.assert_array_equal(got[which == i], want)


@pytest.mark.parametrize("name,shell", [c for c in CASES if c[1].sign == "negative"],
                         ids=[i for i, c in zip(CASE_IDS, CASES) if c[1].sign == "negative"])
def test_one_foot_per_cell_in_the_defect_field(request, monkeypatch, name, shell):
    # the exit charts of a shape share one foot pass: the feet found within
    # defect_field are one per inside cell, and a few for the cut cells
    # whose centres are projected onto the boundary
    domain = request.getfixturevalue(name)
    feet = []
    foot = type(domain)._foot

    def counted(self, x):
        feet.append(len(x))
        return foot(self, x)

    monkeypatch.setattr(type(domain), "_foot", counted)
    field = defect_field(domain, shell, 128)
    assert sum(feet) <= 1.05 * field.grid.mask.sum(), sum(feet) / field.grid.mask.sum()


@pytest.mark.parametrize("name", ["ellipse", "disc", "rect", "half_disc_neg", "triangle",
                                  "pentagon"])
def test_exit_charts_build_the_medial_axis_once(request, monkeypatch, name):
    domain = request.getfixturevalue(name)
    calls = []
    axis = type(domain).medial_axis

    def counted(self):
        calls.append(1)
        return axis(self)

    monkeypatch.setattr(type(domain), "medial_axis", counted)
    charts = charts_for(domain, -1)
    assert len(calls) == 1
    assert len({id(chart.rays) for chart in charts}) == 1


def test_charts_state_only_their_coordinates():
    # membership and (s, u, L) are derived on Chart from coords_eta
    for cls in (ChordChart, FanChart, ExitChart):
        assert "coords_eta" in vars(cls), cls
        assert not {"contains", "coords", "endpoints"} & set(vars(cls)), cls


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
