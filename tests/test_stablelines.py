"""Partition and stable-line families: counts, orientation, disjointness,
endpoint classification, and measure factors."""

import numpy as np
import pytest

from conftest import CASE_IDS, CASES
from shellwrinkle import airy
from shellwrinkle.errors import ParameterError
from shellwrinkle.geometry import Domain
from shellwrinkle.grids import MaskedGrid
from shellwrinkle.rulings import locate, tangential_data
from shellwrinkle.shell import ShellProfile
from shellwrinkle.stablelines import (
    ORDERED,
    OUTSIDE,
    SIGMA,
    UNCONSTRAINED,
    partition,
    stable_lines,
)

POS = ShellProfile.constant(1.0)
NEG = ShellProfile.constant(-1.0)


def segments_intersect(p1, p2, q1, q2, tol=1e-9):
    """Proper interior intersection test for two segments."""
    d1 = p2 - p1
    d2 = q2 - q1
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(den) < 1e-14:
        return False
    t = ((q1 - p1)[0] * d2[1] - (q1 - p1)[1] * d2[0]) / den
    s = ((q1 - p1)[0] * d1[1] - (q1 - p1)[1] * d1[0]) / den
    return tol < t < 1 - tol and tol < s < 1 - tol


class TestPartition:
    def test_positive_ellipse_all_ordered(self, ellipse):
        af = airy.solve_dual(ellipse, POS)
        part = partition(ellipse, af)
        grid = MaskedGrid(ellipse, 64)
        lab = part.labels(grid)
        inside = grid.mask
        assert np.all(lab[inside] == ORDERED)
        assert np.all(lab[~inside] == OUTSIDE)

    def test_positive_disc_all_unconstrained(self, disc):
        af = airy.solve_dual(disc, POS)
        lab = partition(disc, af).labels(MaskedGrid(disc, 64))
        assert np.all(lab[lab != OUTSIDE] == UNCONSTRAINED)

    def test_negative_half_disc_sigma_is_arc(self, half_disc_neg):
        af = airy.solve_dual(half_disc_neg, NEG)
        part = partition(half_disc_neg, af)
        grid = MaskedGrid(half_disc_neg, 64)
        lab = part.labels(grid)
        sig = lab == SIGMA
        assert sig.sum() > 10
        pts = grid.points().reshape(grid.nx, grid.ny, 2)[sig]
        # sigma cells sit on the parabolic medial arc 2R v = R^2 - t^2
        res = 2 * pts[:, 1] - (1 - pts[:, 0] ** 2)
        assert np.max(np.abs(res)) < 2.5 * grid.h

    def test_rectangle_positive_regions(self, rect):
        af = airy.solve_dual(rect, POS)
        part = partition(rect, af)
        grid = MaskedGrid(rect, 64)
        lab = part.labels(grid)
        pts = grid.points().reshape(grid.nx, grid.ny, 2)
        # blank triangles around (+-1.5, 0)
        assert lab[np.argmin(np.abs(pts[..., 0].ravel() - 1.5) + np.abs(pts[..., 1].ravel()))
                   // grid.ny, grid.ny // 2] == UNCONSTRAINED
        # center column is ordered (vertical band)
        assert lab[grid.nx // 2, grid.ny // 2] == ORDERED
        # union covers the rectangle mask up to boundary cells
        covered = (lab != OUTSIDE).sum()
        assert covered == grid.mask.sum()

    def test_incenter_is_unconstrained_on_tangential(self, triangle):
        af = airy.solve_dual(triangle, POS)
        c, _, _ = tangential_data(triangle)
        # the incenter is inside the contact polygon
        assert af.charts[locate(af.charts, [c])[0][0]].label == "U"

    def test_consistency_error(self, ellipse, disc):
        af = airy.solve_dual(ellipse, POS)
        from shellwrinkle.errors import ConsistencyError

        with pytest.raises(ConsistencyError):
            partition(disc, af)


class TestFamilies:
    def test_ellipse_39_chords(self, ellipse):
        af = airy.solve_dual(ellipse, POS)
        fam = stable_lines(ellipse, af, 0.1)
        assert len(fam.lines) == 39
        for ln in fam.lines:
            assert np.allclose(ln.eta, (1.0, 0.0), atol=1e-12)
            # endpoints on the boundary
            for p in (ln.start, ln.end):
                q = (p[0] / 2) ** 2 + p[1] ** 2
                assert q == pytest.approx(1.0, abs=1e-9)

    def test_negative_disc_rays(self, disc):
        af = airy.solve_dual(disc, NEG)
        fam = stable_lines(disc, af, 0.1)
        for ln in fam.lines:
            assert ln.start_kind == "focal_point"
            assert np.hypot(*ln.start) < 1e-9
            assert np.hypot(*ln.end) == pytest.approx(1.0, abs=1e-12)
            # eta perpendicular to the ray
            d = ln.end - ln.start
            assert abs(d @ ln.eta) < 1e-12

    def test_pairwise_disjoint(self, ellipse, half_disc_pos, rect):
        for dom, sh in ((ellipse, POS), (half_disc_pos, POS), (rect, NEG)):
            af = airy.solve_dual(dom, sh)
            fam = stable_lines(dom, af, dom.diameter() / 30)
            lines = fam.lines
            for i in range(len(lines)):
                for j in range(i + 1, len(lines)):
                    assert not segments_intersect(
                        lines[i].start, lines[i].end, lines[j].start, lines[j].end
                    )

    def test_perpendicularity_everywhere(self, triangle, half_disc_neg):
        for dom, sh in ((triangle, POS), (half_disc_neg, NEG)):
            af = airy.solve_dual(dom, sh)
            fam = stable_lines(dom, af, dom.diameter() / 40)
            for ln in fam.lines:
                d = ln.end - ln.start
                d = d / np.hypot(*d)
                assert abs(d @ ln.eta) < 1e-12

    def test_endpoint_classification(self, ellipse, pentagon):
        af = airy.solve_dual(ellipse, POS)
        for ln in stable_lines(ellipse, af, 0.1).lines:
            assert ln.start_kind == ln.end_kind == "boundary"
            for p in (ln.start, ln.end):
                assert ellipse.boundary_distance([p])[0] < 1e-8
        afn = airy.solve_dual(pentagon, NEG)
        for ln in stable_lines(pentagon, afn, 0.1).lines:
            assert ln.end_kind == "boundary"
            assert pentagon.boundary_distance([ln.end])[0] < 1e-8
            # start on the medial axis: two nearest sides equidistant
            sd = np.sort(pentagon.side_distances(ln.start[None, :])[0])
            assert sd[1] - sd[0] < 1e-8

    def test_exit_direction_negative_shapes(self, pentagon, half_disc_neg):
        for dom in (pentagon, half_disc_neg):
            af = airy.solve_dual(dom, NEG)
            fam = stable_lines(dom, af, dom.diameter() / 30)
            for ln in fam.lines:
                mid = 0.5 * (ln.start + ln.end)
                foot = dom.nearest_boundary_point([mid])[0]
                exit_dir = (foot - mid) / np.hypot(*(foot - mid))
                # line direction equals the exit direction -grad d
                assert np.allclose(ln.direction(), exit_dir, atol=1e-8)

    def test_spacing_guard(self, ellipse):
        af = airy.solve_dual(ellipse, POS)
        with pytest.raises(ParameterError):
            stable_lines(ellipse, af, 0.0)


@pytest.mark.parametrize("name,shell", CASES, ids=CASE_IDS)
def test_phi_hessian_is_rank_one_along_every_line(request, name, shell):
    # phi is affine along each line and curves across an ordered line with
    # density zeta = phi_eta,eta, where zeta rho is constant along the line;
    # on an unconstrained line phi is affine both ways.  Second differences
    # of phi at 7 points of every line.
    dom = request.getfixturevalue(name)
    af = airy.solve_dual(dom, shell)
    fam = stable_lines(dom, af, dom.diameter() / 15)
    h = 1e-4 * dom.diameter()
    assert fam.lines
    for chart, lines in zip(fam.charts, fam.lines_by_chart):
        for ln in lines:
            u = ln.length * np.linspace(0.15, 0.85, 7)
            x = ln.point_at(u)
            d, eta = ln.direction(), ln.eta
            phi_x = af.phi(x)
            along, across = ((af.phi(x + h * e) - 2.0 * phi_x + af.phi(x - h * e)) / h**2
                             for e in (d, eta))
            if chart.label == "O":
                assert np.all(np.abs(along) < 1e-6 * np.abs(across))
                zeta_rho = across * ln.rho_at(u)
                spread = np.ptp(zeta_rho) / np.mean(np.abs(zeta_rho))
                assert spread < 1e-3, f"line s={ln.s}: zeta rho spread {spread:.2e}"
            else:
                assert np.all(np.abs(along) < 1e-6) and np.all(np.abs(across) < 1e-6)
            eta_x = chart.coords_eta(x)[3]
            assert np.allclose(np.abs(eta_x @ eta), 1.0, rtol=0, atol=1e-12)
            assert np.all(np.abs(eta_x @ d) < 1e-12)


NEG_CASES = [(name, shell) for name, shell in CASES if shell.sign == "negative"]


@pytest.mark.parametrize("name,shell", NEG_CASES,
                         ids=[f"{n}-{s.sign}" for n, s in NEG_CASES])
def test_negative_lines_are_exit_rays(request, name, shell):
    # every station line leaves the boundary along the inward normal at its
    # end, is as long as its start's boundary distance, and neighbouring
    # lines spread as rho does: across them, |d start| / |d end| =
    # rho(0) / rho(L), which is 1 / (1 + rho1 L) off a focal point, to
    # within a tenth of the step |d end|
    dom = request.getfixturevalue(name)
    af = airy.solve_dual(dom, shell)
    spacing = dom.diameter() / 200
    fam = stable_lines(dom, af, spacing)
    for chart, lines in zip(fam.charts, fam.lines_by_chart):
        assert len(lines) > 10
        for ln in lines:
            nu = dom._outward_normal_at(ln.end[None, :])[0]
            np.testing.assert_allclose(ln.direction(), nu, rtol=0, atol=1e-12)
            assert dom.boundary_distance([ln.start])[0] == pytest.approx(ln.length, abs=1e-9)
            assert ln.start_kind == ("focal_point" if ln.rho0 == 0.0 else "medial_axis")
        for a, b in zip(lines[:-1], lines[1:]):
            eta = 0.5 * (a.eta + b.eta)
            step = abs((b.end - a.end) @ eta)
            spread = abs((b.start - a.start) @ eta) / step
            ratio = np.mean([ln.rho0 / ln.rho_at(ln.length) for ln in (a, b)])
            assert abs(spread - ratio) <= 0.1 * step


@pytest.mark.parametrize("name", ["ellipse", "rect"])
def test_stable_lines_span_each_chart_in_one_call(request, monkeypatch, name):
    # a chart builds all its chords from one line_spans call, not one per station
    calls = []
    spans = Domain.line_spans

    def counted(self, pts, d):
        calls.append(len(np.atleast_2d(pts)))
        return spans(self, pts, d)

    monkeypatch.setattr(Domain, "line_spans", counted)
    domain = request.getfixturevalue(name)
    field = airy.solve_dual(domain, POS)
    calls.clear()
    family = stable_lines(domain, field, 0.01)
    assert all(len(lines) > 10 for lines in family.lines_by_chart)
    assert 0 < len(calls) <= len(family.charts)


class TestLineRho:
    def test_ellipse_eta(self, ellipse):
        af = airy.solve_dual(ellipse, POS)
        (chart,) = af.charts
        s, u, _, _ = chart.coords_eta(np.array([[1.0, 0.3]]))
        ln = chart.line_at(s[0])
        assert np.allclose(ln.eta, (1, 0), atol=1e-12)
        assert ln.rho_at(u[0]) == 1.0

    def test_negative_disc_eta_and_rho(self, disc):
        af = airy.solve_dual(disc, NEG)
        (chart,) = af.charts
        # the ray through (0, 0.5): eta is the polar frame's -e_theta and
        # rho = r, zero at the focal point
        s, u, _, _ = chart.coords_eta(np.array([[0.0, 0.5]]))
        ln = chart.line_at(s[0])
        assert np.allclose(ln.eta, (1.0, 0.0), atol=1e-12)
        assert ln.rho_at(u[0]) == pytest.approx(0.5, abs=1e-12)
        assert ln.rho0 == 0.0 and ln.rho_at(0.0) == 0.0

    def test_half_disc_rho_ratio(self, half_disc_pos):
        af = airy.solve_dual(half_disc_pos, POS)
        (chart,) = af.charts
        # ray at theta = pi/2 runs from r=1 to r=2; index point at r=1
        s, u, _, _ = chart.coords_eta(np.array([[0.0, 1.5]]))
        assert chart.line_at(s[0]).rho_at(u[0]) == pytest.approx(1.5, abs=1e-12)
