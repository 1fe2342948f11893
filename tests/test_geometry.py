"""Geometry catalog: exact distances, exit gradients, medial axes, side regions,
sampling."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import interior_points
from shellwrinkle import cli, geometry
from shellwrinkle.errors import DomainError, ParameterError, ShellWrinkleError
from shellwrinkle.geometry import (
    OFFSET_BOUND,
    ConvexPolygon,
    Disc,
    Domain,
    Ellipse,
    HalfDisc,
    Rectangle,
    _ellipe,
    _ellipeinc,
    make_domain,
)
from shellwrinkle.grids import MaskedGrid, _cell_areas


def brute_distance(domain, x, n=100_000):
    bnd = np.array([bp.position for bp in domain.boundary_sample(n)])
    return np.min(np.hypot(*(bnd - np.asarray(x)).T))


class TestBoundaryDistance:
    def test_disc_center(self, disc):
        assert disc.boundary_distance([(0.0, 0.0)])[0] == pytest.approx(1.0, abs=1e-15)

    def test_rectangle_center_brute_force(self, rect):
        d = rect.boundary_distance([(0.0, 0.0)])[0]
        assert d == pytest.approx(1.0, abs=1e-12)
        assert d == pytest.approx(brute_distance(rect, (0.0, 0.0)), abs=1e-4)

    def test_boundary_points_give_zero(self, ellipse, rect, triangle):
        for dom in (ellipse, rect, triangle):
            for bp in dom.boundary_sample(32):
                assert dom.boundary_distance([bp.position])[0] == pytest.approx(0.0, abs=1e-9)

    def test_outside_raises(self, disc):
        with pytest.raises(DomainError):
            disc.boundary_distance([(2.0, 0.0)])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ellipse_against_brute_force(self, ellipse, seed):
        pts = interior_points(ellipse, 50, seed=seed)
        d = ellipse.boundary_distance(pts)
        phi = np.linspace(0, 2 * np.pi, 400_000)
        bnd = np.stack([2 * np.cos(phi), np.sin(phi)], axis=1)
        for p, dd in zip(pts, d):
            ref = np.min(np.hypot(*(bnd - p).T))
            assert dd == pytest.approx(ref, abs=5e-9)

    def test_lipschitz_all_shapes(self, ellipse, disc, rect, half_disc_neg, pentagon):
        for dom in (ellipse, disc, rect, half_disc_neg, pentagon):
            pts = interior_points(dom, 4000, seed=3)
            a, b = pts[:2000], pts[2000:]
            da = np.atleast_1d(dom.boundary_distance(a))
            db = np.atleast_1d(dom.boundary_distance(b))
            gap = np.abs(da - db) - np.hypot(*(a - b).T)
            assert gap.max() <= 1e-9 * dom.diameter()

    def test_concavity_on_convex_shapes(self, ellipse, disc, rect, pentagon):
        for dom in (ellipse, disc, rect, pentagon):
            pts = interior_points(dom, 4000, seed=4)
            a, b = pts[:2000], pts[2000:]
            mid = 0.5 * (a + b)
            d_mid = np.atleast_1d(dom.boundary_distance(mid))
            avg = 0.5 * (
                np.atleast_1d(dom.boundary_distance(a))
                + np.atleast_1d(dom.boundary_distance(b))
            )
            assert np.min(d_mid - avg) >= -1e-9 * dom.diameter()


def exit_gradient(dom, p):
    """grad d = (p - y) / |p - y| at interior points, y the nearest
    boundary point."""
    p = np.atleast_2d(p)
    g = p - dom.nearest_boundary_point(p)
    return g / np.hypot(g[:, 0], g[:, 1])[:, None]


class TestExitGradient:
    def test_disc_example(self, disc):
        g = exit_gradient(disc, (0.5, 0.0))
        assert np.allclose(g, (-1.0, 0.0), atol=1e-12)

    def test_rectangle_example(self, rect):
        g = exit_gradient(rect, (0.0, -0.5))
        assert np.allclose(g, (0.0, 1.0), atol=1e-12)

    def test_polygon_side_midpoint(self, pentagon):
        # nearest point of an interior point just inside a side midpoint is
        # the foot on that side, so the gradient is the inward side normal
        i = 2
        mid = 0.5 * (pentagon.vertices[i] + pentagon.vertices[(i + 1) % 5])
        p = mid - 0.05 * pentagon.edge_normals[i]
        g = exit_gradient(pentagon, p)
        assert np.allclose(g, -pentagon.edge_normals[i], atol=1e-10)

    def test_foot_at_the_boundary_distance(self, ellipse, rect, half_disc_neg, pentagon):
        for dom in (ellipse, rect, half_disc_neg, pentagon):
            pts = interior_points(dom, 400, seed=6)
            foot = np.atleast_2d(dom.nearest_boundary_point(pts))
            d = np.atleast_1d(dom.boundary_distance(pts))
            np.testing.assert_allclose(np.hypot(*(pts - foot).T), d, rtol=0, atol=1e-12)
            assert np.max(np.atleast_1d(dom.boundary_distance(foot))) < 1e-8

    def test_against_finite_differences(self, rect, ellipse):
        h = 1e-6
        for dom, p in ((rect, (0.3, -0.45)), (ellipse, (0.7, 0.4))):
            p = np.asarray(p)
            g = exit_gradient(dom, p)[0]
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = h
                fd = (
                    dom.boundary_distance([p + e])[0] - dom.boundary_distance([p - e])[0]
                ) / (2 * h)
                assert g[axis] == pytest.approx(fd, abs=1e-6)


class TestEllipseFootPoint:
    """nearest_boundary_point on Ellipse(2, 1) at seeded points: the foot lies
    on the ellipse, x - foot is normal there, and it is the nearest point."""

    @staticmethod
    def check_foot(ellipse, x, y):
        a, b = ellipse.a, ellipse.b
        assert np.abs((y[:, 0] / a) ** 2 + (y[:, 1] / b) ** 2 - 1.0).max() < 1e-12
        n = np.stack([y[:, 0] / a**2, y[:, 1] / b**2], axis=1)
        n /= np.hypot(n[:, 0], n[:, 1])[:, None]
        r = x - y
        assert np.abs(r[:, 0] * n[:, 1] - r[:, 1] * n[:, 0]).max() < 1e-12

    def test_seeded_points_inside_and_just_outside(self, ellipse):
        rng = np.random.default_rng(5)
        x = rng.uniform([-2.1, -1.1], [2.1, 1.1], size=(2000, 2))
        y = ellipse.nearest_boundary_point(x)
        self.check_foot(ellipse, x, y)
        phi = np.linspace(0.0, 2 * np.pi, 100_001)
        bnd = np.stack([2 * np.cos(phi), np.sin(phi)], axis=1)
        d = np.hypot(*(x - y).T)
        for p, dd in zip(x[:200], d[:200]):
            assert dd <= np.min(np.hypot(*(bnd - p).T)) + 1e-12

    def test_near_the_major_axis(self, ellipse):
        # 1e-13 <= |x2| <= 1e-10 inside the medial segment: the feet are
        # the closed-form symmetric pair of the axis point to O(|x2|)
        a, b = ellipse.a, ellipse.b
        rng = np.random.default_rng(6)
        m = 0.9 * ellipse.medial_segment_halflength()
        x1 = rng.uniform(-m, m, size=400)
        x2 = 10 ** rng.uniform(-13, -10, size=400) * rng.choice([-1.0, 1.0], size=400)
        x = np.stack([x1, x2], axis=1)
        y = ellipse.nearest_boundary_point(x)
        self.check_foot(ellipse, x, y)
        c = x1 * a / (a * a - b * b)
        pair = np.stack([a * c, np.sign(x2) * b * np.sqrt(1.0 - c * c)], axis=1)
        assert np.abs(y - pair).max() < 1e-8


def test_polygon_foot_of_outside_point_is_on_a_closed_side(pentagon):
    # outside near a vertex, the foot on the nearest side's line misses the
    # side; the nearest boundary point is then the vertex itself
    unit = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    assert np.array_equal(unit.nearest_boundary_point([[1.2, 1.1]]), [[1.0, 1.0]])
    assert np.array_equal(unit.nearest_boundary_point([[1.2, 0.5]]), [[1.0, 0.5]])
    rng = np.random.default_rng(3)
    x = rng.uniform(-3.0, 3.0, size=(400, 2))
    y = pentagon.nearest_boundary_point(x)
    assert np.all(pentagon.contains(y, tol=1e-12))
    # against the nearest of 20,000 boundary samples (spacing about 5e-4)
    bnd = np.array([bp.position for bp in pentagon.boundary_sample(20_000)])
    ref = np.min(np.hypot(*(x[:, None, :] - bnd[None]).transpose(2, 0, 1)), axis=1)
    assert np.all(np.abs(np.hypot(*(x - y).T) - ref) < 1e-3)


def test_polygon_feet_do_not_depend_on_the_batch(pentagon):
    # the side distances are elementwise, as in contains: a point's foot
    # and distance are the same whether it comes alone or with 4,999 others
    x = interior_points(pentagon, 5000, seed=5)
    out = np.random.default_rng(6).uniform(-3.0, 3.0, size=(1000, 2))
    alone = np.array([pentagon.nearest_boundary_point([p])[0] for p in np.vstack([x, out])])
    assert np.array_equal(pentagon.nearest_boundary_point(np.vstack([x, out])), alone)
    alone = np.array([pentagon.boundary_distance([p])[0] for p in x])
    assert np.array_equal(pentagon.boundary_distance(x), alone)
    slack = [c - n1 * x[:, 0] - n2 * x[:, 1] for n1, n2, c in pentagon.region()[0]]
    assert np.array_equal(pentagon.side_distances(x), np.stack(slack, axis=1))


def test_half_disc_foot_of_outside_point_is_on_the_boundary():
    # beyond a corner, below the flat side's line, the nearest boundary point
    # is the corner itself
    hd = HalfDisc(1.0)
    for p in ([1.01, -0.001], [1.01, -0.1]):
        y = hd.nearest_boundary_point([p])
        assert hd.contains(y, tol=1e-12)[0], (p, y)
        assert np.allclose(y, [1.0, 0.0], atol=1e-15)
    assert np.allclose(hd.nearest_boundary_point([[0.5, -0.3]]), [0.5, 0.0], atol=1e-15)
    turned = HalfDisc(1.0, center=(0.3, -0.2), orientation=1.1)
    rng = np.random.default_rng(4)
    x = rng.uniform(-3.0, 3.0, size=(400, 2))
    y = turned.nearest_boundary_point(x)
    assert np.all(turned.contains(y, tol=1e-12))
    # against the nearest of 20,000 boundary samples (spacing about 2.6e-4)
    bnd = np.array([bp.position for bp in turned.boundary_sample(20_000)])
    ref = np.min(np.hypot(*(x[:, None, :] - bnd[None]).transpose(2, 0, 1)), axis=1)
    assert np.all(np.abs(np.hypot(*(x - y).T) - ref) < 1e-3)


class TestMedialAxis:
    def test_disc_is_center(self, disc):
        ma = disc.medial_axis()
        assert ma.segments == [] and ma.arcs == []
        assert np.allclose(ma.vertices[0][0], (0.0, 0.0))

    def test_ellipse_segment_endpoints(self, ellipse):
        ma = ellipse.medial_axis()
        (p, q), = ma.segments
        ends = sorted([p[0], q[0]])
        assert ends == pytest.approx([-1.5, 1.5], abs=1e-12)
        assert p[1] == q[1] == 0.0

    def test_rectangle_axis(self, rect):
        ma = rect.medial_axis()
        assert len(ma.segments) == 5
        central = [s for s in ma.segments if abs(s[0][1]) < 1e-12 and abs(s[1][1]) < 1e-12]
        assert len(central) == 1
        (p, q), = central
        assert sorted([p[0], q[0]]) == pytest.approx([-1.0, 1.0], abs=1e-10)
        diag = [s for s in ma.segments if s not in central]
        for p, q in diag:
            v = np.subtract(q, p)
            assert abs(abs(v[0]) - abs(v[1])) < 1e-10  # 45 degree bisectors

    def test_rectangle_axis_is_the_closed_form(self, rect):
        def key(seg):
            return tuple(sorted(tuple(np.round(np.asarray(p, float), 12) + 0.0) for p in seg))

        ma = rect.medial_axis()
        expected = [((-1.0, 0.0), (1.0, 0.0))] + [
            ((sx * 2.0, sy * 1.0), (sx * 1.0, 0.0)) for sx in (-1, 1) for sy in (-1, 1)
        ]
        assert len(ma.segments) == 5
        assert {key(seg) for seg in ma.segments} == {key(seg) for seg in expected}
        got = {(tuple(np.round(np.asarray(p, float), 12) + 0.0), deg) for p, deg in ma.vertices}
        assert got == {((-1.0, 0.0), 3), ((1.0, 0.0), 3)}

    def test_square_collapses_to_center(self):
        sq = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        ma = sq.medial_axis()
        assert len(ma.segments) == 4
        for p, q in ma.segments:
            assert np.allclose(p, (0, 0), atol=1e-9) or np.allclose(q, (0, 0), atol=1e-9)

    def test_half_disc_parabolic_arc(self, half_disc_neg):
        ma = half_disc_neg.medial_axis()
        (arc,) = ma.arcs
        pts = arc.points(65)
        # on the axis: distance to the flat side equals distance to the arc
        inner = pts[2:-2]
        d_flat = inner[:, 1]
        d_arc = 1.0 - np.hypot(inner[:, 0], inner[:, 1])
        assert np.allclose(d_flat, d_arc, atol=1e-12)

    def test_exit_length_closed_forms(self, disc, ellipse, rect, half_disc_neg, pentagon):
        def exit_length(dom, y):
            return dom.medial_axis().exit_length(y, dom._outward_normal_at(y))

        # the disc's rays reach the centre; the ellipse's vertex ray runs
        # along the axis to its end, b^2/a; the minor vertex's is b long
        assert exit_length(disc, np.array([[0.6, 0.8]])) == pytest.approx([1.0], abs=1e-15)
        np.testing.assert_allclose(exit_length(ellipse, np.array([[2.0, 0.0], [0.0, -1.0]])),
                                   [0.5, 1.0], rtol=0, atol=1e-15)
        # flat sides: the rectangle's band and the half-disc's parabola
        np.testing.assert_allclose(exit_length(rect, np.array([[0.5, 1.0], [2.0, 0.5]])),
                                   [1.0, 0.5], rtol=0, atol=1e-15)
        x = np.array([-0.9, -0.3, 0.0, 0.6])
        np.testing.assert_allclose(exit_length(half_disc_neg, np.stack([x, 0 * x], axis=1)),
                                   (1 - x**2) / 2, rtol=0, atol=1e-15)
        # the half-disc's arc: 1 - 1 / (1 + sin theta); a corner's ray is empty
        th = np.array([0.3, 1.2, 2.5])
        y = np.stack([np.cos(th), np.sin(th)], axis=1)
        np.testing.assert_allclose(exit_length(half_disc_neg, y), 1 - 1 / (1 + np.sin(th)),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(exit_length(pentagon, pentagon.vertices), 0.0,
                                   rtol=0, atol=1e-15)

    def test_axis_points_have_two_feet(self, pentagon):
        ma = pentagon.medial_axis()
        bnd = np.array([bp.position for bp in pentagon.boundary_sample(8192)])
        for p, q in ma.segments:
            mid = 0.5 * (np.asarray(p) + np.asarray(q))
            d = pentagon.boundary_distance([mid])[0]
            if d < 1e-6:
                continue
            near = np.hypot(*(bnd - mid).T) <= d + 1e-6
            hits = bnd[near]
            assert len(hits) >= 2
            assert np.max(np.hypot(*(hits - hits.mean(axis=0)).T)) > 1e-3


SQUARE = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
SIDE_REGION_SHAPES = ["rect", "triangle", "pentagon", "regular_pentagon", "square"]


def _polygon(name, request):
    return SQUARE if name == "square" else request.getfixturevalue(name)


def _segment_key(seg):
    """A segment as an unordered pair of end points."""
    return sorted(tuple(np.asarray(p, dtype=float)) for p in seg)


def _same_segments(got, expected, tol=1e-9):
    """Unordered sets of unordered segments agree to tol."""
    left = [_segment_key(s) for s in expected]
    for seg in map(_segment_key, got):
        match = [k for k, e in enumerate(left) if np.allclose(seg, e, atol=tol, rtol=0.0)]
        if not match:
            return False
        left.pop(match[0])
    return not left


class TestSideRegions:
    @pytest.mark.parametrize("name", SIDE_REGION_SHAPES)
    def test_areas_sum_to_the_polygon(self, name, request):
        poly = _polygon(name, request)
        assert abs(sum(r.area() for r in poly.side_regions()) - poly.area()) < 1e-12

    @pytest.mark.parametrize("name", SIDE_REGION_SHAPES)
    def test_points_lie_in_their_nearest_side_region(self, name, request):
        poly = _polygon(name, request)
        regions = poly.side_regions()
        pts = interior_points(poly, 2_000, seed=7)
        # the two nearest sides' distances differ by at least 2e-9 diam, so
        # each point is at least 1e-9 diam from the axis, where they agree
        sd = np.sort(poly.side_distances(pts), axis=1)
        pts = pts[sd[:, 1] - sd[:, 0] >= 2e-9 * poly.diameter()]
        assert len(pts) > 1_900
        side = poly.nearest_side(pts)
        for i, region in enumerate(regions):
            assert np.all(region.contains(pts[side == i]))

    def test_triangle_axis_meets_at_the_incentre(self, triangle):
        c, _ = triangle.incircle()
        ma = triangle.medial_axis()
        assert _same_segments(ma.segments, [(v, c) for v in triangle.vertices])
        ((node, degree),) = ma.vertices
        assert np.allclose(node, c, atol=1e-9) and degree == 3

    def test_regular_pentagon_axis_meets_at_the_centre(self, regular_pentagon):
        ma = regular_pentagon.medial_axis()
        centre = (0.0, 0.0)
        assert _same_segments(ma.segments, [(v, centre) for v in regular_pentagon.vertices])
        ((node, degree),) = ma.vertices
        assert np.allclose(node, centre, atol=1e-9) and degree == 5


SAMPLE_SHAPES = {
    "disc": Disc(1.0),
    "offset_disc": Disc(0.8, (0.4, -0.3)),
    "ellipse": Ellipse(2.0, 1.0),
    "rectangle": Rectangle(2.0, 1.0),
    "triangle": ConvexPolygon([(1.2, 0.0), (-0.6, 1.0), (-0.6, -1.0)]),
    "regular_pentagon": ConvexPolygon(
        np.stack([np.cos(0.3 + 2 * np.pi * np.arange(5) / 5),
                  np.sin(0.3 + 2 * np.pi * np.arange(5) / 5)], axis=1)
    ),
    "pentagon": ConvexPolygon([(1.5, -0.8), (1.8, 0.9), (-0.2, 1.1), (-1.6, 0.2), (-1.0, -1.0)]),
    "half_disc": HalfDisc(1.0),
    "turned_half_disc": HalfDisc(1.0, (0.2, 0.1), 0.7),
}


def _corners(dom):
    """The corners a boundary sample must flag, in boundary order."""
    if isinstance(dom, ConvexPolygon):
        return dom.vertices
    if isinstance(dom, HalfDisc):
        return dom.from_local([(-dom.radius, 0.0), (dom.radius, 0.0)])
    return np.zeros((0, 2))


@pytest.mark.parametrize("n", [4, 16, 1000])
@pytest.mark.parametrize("name", list(SAMPLE_SHAPES))
class TestBoundarySampleRecords:
    """`boundary_sample` on every catalog shape: the records' columns."""

    def test_positions_lie_on_the_boundary(self, name, n):
        dom = SAMPLE_SHAPES[name]
        s = dom.boundary_sample(n)
        assert np.max(np.hypot(*(s.position - dom.nearest_boundary_point(s.position)).T)) <= 1e-12

    def test_arclength_increases_below_the_perimeter(self, name, n):
        dom = SAMPLE_SHAPES[name]
        s = dom.boundary_sample(n)
        arc = s.arclength
        assert arc[0] == 0.0
        assert np.all(np.diff(arc) > 0)
        assert arc[-1] < dom.perimeter()
        # each step along the curve, the closing one too, is no shorter than
        # its chord and no longer than a quarter circle against its chord
        # (chord / arc = 0.9003); and the samples run counterclockwise
        step = np.diff(arc, append=dom.perimeter())
        d = np.roll(s.position, -1, axis=0) - s.position
        chord = np.hypot(*d.T)
        assert np.all(chord <= step + 1e-6) and np.all(chord >= 0.9 * step - 1e-12)
        assert np.sum(s.position[:, 0] * d[:, 1] - s.position[:, 1] * d[:, 0]) > 0

    def test_normals_are_unit_and_outward_off_corners(self, name, n):
        dom = SAMPLE_SHAPES[name]
        s = dom.boundary_sample(n)
        pos, nu = s.position[~s.corner], s.nu[~s.corner]
        assert np.allclose(np.hypot(*nu.T), 1.0, rtol=0, atol=1e-15)
        step = 1e-6 * dom.diameter() * nu
        assert not np.any(dom.contains(pos + step))
        assert np.all(dom.contains(pos - step))

    def test_nu_is_nan_exactly_at_the_corners(self, name, n):
        s = SAMPLE_SHAPES[name].boundary_sample(n)
        assert np.array_equal(np.isnan(s.nu).any(axis=1), s.corner)
        assert np.isnan(s.nu[s.corner]).all()

    def test_corners_are_the_vertices_or_flat_side_ends(self, name, n):
        dom = SAMPLE_SHAPES[name]
        s = dom.boundary_sample(n)
        expect = _corners(dom)
        assert s.position[s.corner].shape == expect.shape
        assert np.allclose(s.position[s.corner], expect, rtol=0, atol=1e-15)

    def test_rows_read_as_the_columns(self, name, n):
        s = SAMPLE_SHAPES[name].boundary_sample(n)
        assert np.array_equal([bp.position for bp in s], s.position)
        assert np.array_equal([bp.arclength for bp in s], s.arclength)


class TestBoundarySample:
    @pytest.mark.parametrize("name", list(SAMPLE_SHAPES))
    def test_needs_4_samples(self, name):
        with pytest.raises(ParameterError):
            SAMPLE_SHAPES[name].boundary_sample(3)

    def test_disc_n4_symmetry(self, disc):
        pts = disc.boundary_sample(4)
        pos = np.array([bp.position for bp in pts])
        expect = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)], dtype=float)
        assert np.allclose(pos, expect, atol=1e-12)
        for bp in pts:
            assert np.allclose(bp.nu, bp.position, atol=1e-12)  # nu = e_r

    def test_ellipse_perimeter(self, ellipse):
        from scipy.special import ellipe

        pts = ellipse.boundary_sample(256)
        pos = np.array([bp.position for bp in pts])
        poly_len = np.hypot(*np.diff(np.vstack([pos, pos[:1]]), axis=0).T).sum()
        exact = 4 * 2.0 * ellipe(1 - 0.25)
        assert abs(poly_len - exact) / exact < 1e-3

    def test_polygon_vertices_included(self, pentagon):
        pts = pentagon.boundary_sample(64)
        pos = np.array([bp.position for bp in pts])
        for v in pentagon.vertices:
            assert np.min(np.hypot(*(pos - v).T)) < 1e-12
        corners = [bp for bp in pts if bp.corner]
        assert len(corners) == 5
        assert all(np.isnan(bp.nu).all() for bp in corners)


class TestEllipticIntegrals:
    """The numpy E(m) and E(phi | m) behind the ellipse's perimeter and
    arclength, against scipy.special as the oracle."""

    @pytest.mark.parametrize("ratio", [0.999, 0.5, 0.1, 1e-3, 1e-6, 1e-9])
    def test_match_scipy(self, ratio):
        from scipy.special import ellipe, ellipeinc

        m1 = ratio * ratio
        whole = ellipe(1.0 - m1)
        tol = (1e-14 if ratio >= 0.1 else 1e-13) * whole
        assert abs(_ellipe(m1) - whole) <= tol
        phi = np.linspace(-1.5 * np.pi, 0.5 * np.pi, 20_000)
        assert np.max(np.abs(_ellipeinc(phi, m1) - ellipeinc(phi, 1.0 - m1))) <= tol
        dom = Ellipse(1.0, ratio)
        assert abs(dom.perimeter() - 4.0 * whole) <= 4.0 * tol
        for angles in (0.5 * np.pi - phi, np.linspace(0.0, 2 * np.pi, 257)):  # the Newton nodes
            expect = whole - ellipeinc(0.5 * np.pi - angles, 1.0 - m1)
            assert np.max(np.abs(dom._arclength(angles) - expect)) <= 2.0 * tol

    def test_thin_ellipse_stays_finite_and_increasing(self):
        # 1 - m would round to 0 here, where R_F(0, 0, 1) is infinite
        for dom in (Ellipse(1.0, 1e-12), Ellipse(1e100, 1e-100)):
            phi = np.linspace(0.0, 2 * np.pi, 20_000)
            s = dom._arclength(phi)
            assert np.all(np.isfinite(s)) and np.all(np.diff(s) > 0)
            assert dom.perimeter() == pytest.approx(4.0 * dom.a, rel=1e-14)
            assert np.all(np.isfinite(dom.boundary_sample(64).position))

    def test_range_reduction_adds_whole_quarter_periods(self):
        m1 = 0.25
        phi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 101)
        for k in (-2, -1, 1, 3):
            shifted = _ellipeinc(phi + k * np.pi, m1)
            assert np.allclose(shifted, _ellipeinc(phi, m1) + 2 * k * _ellipe(m1),
                               rtol=0, atol=1e-14 * (1 + abs(k)))


@pytest.mark.parametrize("name", list(SAMPLE_SHAPES))
class TestLineClipping:
    """`line_spans` and `extent`, which the chord charts clip with."""

    def test_span_ends_lie_on_the_boundary(self, name):
        dom = SAMPLE_SHAPES[name]
        rng = np.random.default_rng(5)
        (x0, y0), (x1, y1) = dom.bbox()
        base = rng.uniform([x0 - 0.5, y0 - 0.5], [x1 + 0.5, y1 + 0.5], size=(400, 2))
        eps = 1e-9 * dom.diameter()
        hits = 0
        for ang in (0.0, np.pi / 2, np.pi / 4, 1.1, 2.9):
            d = np.array([np.cos(ang), np.sin(ang)])
            lo, hi = dom.line_spans(base, d)
            met = hi - lo > 10 * eps
            hits += met.sum()
            start = base[met] + lo[met, None] * d
            end = base[met] + hi[met, None] * d
            for ends in (start, end):
                assert np.all(dom.boundary_distance(ends) <= 1e-12 * dom.diameter())
            assert np.all(dom.contains(0.5 * (start + end)))
            assert not np.any(dom.contains(start - eps * d))
            assert not np.any(dom.contains(end + eps * d))
            # a line farther from the box centre than its corners misses
            centre = 0.5 * np.array([x0 + x1, y0 + y1])
            far = centre + (0.5 * dom.diameter() + 1.0) * np.array([d[1], -d[0]])
            lo, hi = dom.line_spans([far], d)
            assert lo[0] > hi[0]
        assert hits > 500

    def test_extent_matches_boundary_samples(self, name):
        dom = SAMPLE_SHAPES[name]
        bnd = np.array([bp.position for bp in dom.boundary_sample(4096)])
        spacing = np.hypot(*np.diff(np.vstack([bnd, bnd[:1]]), axis=0).T).max()
        for ang in np.linspace(0.0, np.pi, 7):
            m = np.array([np.cos(ang), np.sin(ang)])
            lo, hi = dom.extent(m)
            vals = bnd @ m
            assert lo <= vals.min() + 1e-12 and vals.min() - lo <= spacing
            assert hi >= vals.max() - 1e-12 and hi - vals.max() <= spacing


@pytest.mark.parametrize("name", [*SAMPLE_SHAPES, "tiny_disc"])
def test_interior_points_are_seeded_draws_inside_the_shrunk_shape(name):
    # the shrink is 1e-9 diam, so a shape of any size has room for points
    dom = SAMPLE_SHAPES.get(name, Disc(1e-10))
    pts = geometry.interior_points(dom, 1000, 4)
    assert pts.shape == (1000, 2)
    assert np.all(dom.contains(pts, tol=-1e-9 * dom.diameter()))
    assert np.array_equal(pts, geometry.interior_points(dom, 1000, 4))


def _corners_inside(inside):
    """Cells whose four corners are flagged in the (nx + 1, ny + 1) node array."""
    return inside[:-1, :-1] & inside[1:, :-1] & inside[1:, 1:] & inside[:-1, 1:]


@pytest.mark.parametrize("name", list(SAMPLE_SHAPES))
class TestOneRegion:
    """`contains`, `line_spans`, `boundary_distance` and `bbox` are stated
    once, in `Domain`, from a shape's `region()`, foot point and `extent`."""

    def test_cells_wholly_inside_are_the_cells_whose_corners_are_contained(self, name):
        # `_cell_areas` and `contains` read the same expressions, so a cell
        # is wholly inside exactly when `contains` takes its four corners
        dom = SAMPLE_SHAPES[name]
        for res in (32, 96):
            grid = MaskedGrid(dom, res)
            xn = grid.x0 + np.arange(grid.nx + 1) * grid.h
            yn = grid.y0 + np.arange(grid.ny + 1) * grid.h
            _, full = _cell_areas(dom, xn, yn, grid.h)
            X, Y = np.meshgrid(xn, yn, indexing="ij")
            inside = dom.contains(np.stack([X.ravel(), Y.ravel()], axis=1)).reshape(X.shape)
            assert full.any()
            np.testing.assert_array_equal(full, _corners_inside(inside))

    def test_tol_grows_the_shape_by_a_distance(self, name):
        # exact on half-planes and discs; an ellipse's band lies within tol
        dom = SAMPLE_SHAPES[name]
        s = dom.boundary_sample(64)
        pos, nu = s.position[~s.corner], s.nu[~s.corner]
        t = 1e-6 * dom.diameter()
        if isinstance(dom, Ellipse):
            assert not np.any(dom.contains(pos + 2 * t * nu, tol=t))
            assert np.all(dom.contains(pos - 2 * t * nu, tol=-t))
            assert np.all(dom.contains(pos + 0.5 * t * dom.b / dom.a * nu, tol=t))
            return
        assert np.all(dom.contains(pos + 0.5 * t * nu, tol=t))
        assert not np.any(dom.contains(pos + 2 * t * nu, tol=t))
        assert np.all(dom.contains(pos - 2 * t * nu, tol=-t))
        assert not np.any(dom.contains(pos - 0.5 * t * nu, tol=-t))

    def test_boundary_distance_is_the_distance_to_the_foot(self, name):
        # the distance the foot is built from, which |x - foot| rounds apart from
        dom = SAMPLE_SHAPES[name]
        s = dom.boundary_sample(64)
        pos, nu = s.position[~s.corner], s.nu[~s.corner]
        np.testing.assert_array_equal(dom.boundary_distance(pos + 1e-14 * nu), 0.0)
        with pytest.raises(DomainError):
            dom.boundary_distance(pos + 1e-9 * dom.diameter() * nu)
        x = interior_points(dom, 200)
        np.testing.assert_allclose(dom.boundary_distance(x),
                                   np.hypot(*(x - dom.nearest_boundary_point(x)).T),
                                   rtol=0, atol=4 * np.finfo(float).eps * dom.diameter())

    def test_bbox_is_the_extent_along_the_axes(self, name):
        dom = SAMPLE_SHAPES[name]
        (x0, y0), (x1, y1) = dom.bbox()
        assert (x0, x1) == dom.extent((1.0, 0.0)) and (y0, y1) == dom.extent((0.0, 1.0))
        pos = dom.boundary_sample(4096).position
        np.testing.assert_allclose([x0, y0, x1, y1], [*pos.min(axis=0), *pos.max(axis=0)],
                                   rtol=0, atol=1e-6 * dom.diameter())


def test_no_shape_restates_what_domain_derives():
    derived = ("contains", "line_spans", "nearest_boundary_point", "boundary_distance", "bbox")
    shapes, todo = [], [Domain]
    while todo:
        cls = todo.pop()
        shapes.append(cls)
        todo.extend(cls.__subclasses__())
    assert {ConvexPolygon, Disc, Ellipse, HalfDisc, Rectangle} <= set(shapes)
    for cls in shapes:
        assert "_signed_inside_distance" not in vars(cls), cls
        if cls is not Domain:
            assert not set(derived) & set(vars(cls)), cls


NAN, INF = float("nan"), float("inf")

# Specs that construct no shape, and the field each error must name.
NON_FINITE_SPECS = [
    ({"shape": "disc", "radius": NAN}, "radius"),
    ({"shape": "disc", "radius": 1.0, "center": [NAN, 0.0]}, "center"),
    ({"shape": "ellipse", "a": INF, "b": 1.0}, "a"),
    ({"shape": "rectangle", "a": INF, "b": 1.0}, "a"),
    ({"shape": "half_disc", "radius": NAN}, "radius"),
    ({"shape": "half_disc", "radius": 1.0, "center": [1.0]}, "center"),
    ({"shape": "half_disc", "radius": 1.0, "orientation": -INF}, "orientation"),
    ({"shape": "convex_polygon", "vertices": [[0.0, 0.0], [1.0, NAN], [0.0, 1.0]]}, "vertices"),
]


class TestValidationAndConfig:
    def test_ellipse_needs_b_below_a(self):
        with pytest.raises(ParameterError):
            Ellipse(1.0, 1.0)

    def test_polygon_rejects_collinear(self):
        with pytest.raises(ParameterError):
            ConvexPolygon([(0, 0), (1, 0), (2, 0), (1, 1)])

    def test_huge_polygon_is_rejected_before_any_arithmetic_warns(self):
        # the scale gate runs before the bbox diagonal, which would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                ConvexPolygon([(1e308, 0), (-1e308, 1e308), (-1e308, -1e308)])

    @pytest.mark.parametrize("name", ["triangle", "regular_pentagon"])
    def test_incircle_is_the_chebyshev_centre(self, name, request):
        from scipy.optimize import linprog

        poly = request.getfixturevalue(name)
        n = len(poly.vertices)
        # the largest inscribed circle: maximize r with nu_i . c + r <= c_i
        res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.hstack([poly.edge_normals, np.ones((n, 1))]),
                      b_ub=poly.edge_offsets, bounds=[(None, None), (None, None), (0, None)],
                      method="highs")
        c, r = poly.incircle()
        assert np.allclose(c, res.x[:2], rtol=0, atol=1e-12) and r == pytest.approx(res.x[2])
        assert poly.is_tangential()

    def test_polygon_rejects_cw(self):
        with pytest.raises(ParameterError):
            ConvexPolygon([(0, 0), (0, 1), (1, 0)])

    def test_make_domain_round_trip(self, ellipse, disc, rect, half_disc_neg, triangle):
        for dom in (ellipse, disc, rect, half_disc_neg, triangle):
            clone = make_domain(dom.spec())
            assert clone.spec() == dom.spec()

    def test_rectangle_is_a_polygon(self, rect):
        assert isinstance(rect, ConvexPolygon)
        np.testing.assert_array_equal(rect.vertices, [(-2, -1), (2, -1), (2, 1), (-2, 1)])
        clone = make_domain(rect.spec())
        assert isinstance(clone, Rectangle) and clone.spec() == rect.spec()
        np.testing.assert_array_equal(clone.vertices, rect.vertices)
        with pytest.raises(ParameterError):
            Rectangle(1.0, 1.0)

    def test_polygon_whose_cross_products_overflow_is_rejected(self):
        # (1e200, 1e200) then (2e200, 1e200) turns clockwise, but the cross
        # product would be inf - inf = NaN; the scale gate rejects the
        # vertices before it is formed
        with pytest.raises(ParameterError, match="convex_polygon vertices is out of scale"):
            ConvexPolygon([(0.0, 0.0), (1e200, 1e200), (3e200, 2e200)])

    def test_make_domain_rejects_unknown(self):
        with pytest.raises(Exception):
            make_domain({"shape": "annulus", "r0": 1, "r1": 2})

    @pytest.mark.parametrize(
        "spec, missing",
        [
            ({"shape": "disc"}, "radius"),
            ({"shape": "ellipse", "a": 2.0}, "b"),
            ({"shape": "rectangle", "b": 1.0}, "a"),
            ({"shape": "half_disc", "center": (0.0, 0.0)}, "radius"),
            ({"shape": "convex_polygon"}, "vertices"),
        ],
    )
    def test_make_domain_names_missing_key(self, spec, missing):
        with pytest.raises(ParameterError, match=f"{spec['shape']} needs '{missing}'"):
            make_domain(spec)

    @pytest.mark.parametrize("spec, name", NON_FINITE_SPECS)
    def test_make_domain_names_a_non_finite_field(self, spec, name):
        with pytest.raises(ParameterError, match=f"{name} must"):
            make_domain(spec)

    @pytest.mark.parametrize("spec, name", NON_FINITE_SPECS)
    def test_cli_reports_a_non_finite_field(self, tmp_path, capsys, spec, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"domain": spec, "shell": {"sign": "negative"}}))
        assert cli.main(["defect", "--config", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{name} must" in err

    @pytest.mark.parametrize("spec, name", [
        ({"shape": "ellipse", "a": "x", "b": 1.0}, "ellipse a must"),
        ({"shape": "convex_polygon", "vertices": "abc"}, "vertices must"),
        ({"shape": "disc", "radius": 1.0, "center": "ab"}, "center must"),
    ])
    def test_cli_reports_a_non_numeric_field(self, tmp_path, capsys, spec, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"domain": spec, "shell": {"sign": "negative"}}))
        assert cli.main(["defect", "--config", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_cli_reports_a_shape_too_thin_for_the_grid(self, capsys):
        argv = ["defect", "--shape", "ellipse", "--a", "1", "--b-axis", "1e-6",
                "--sign", "negative", "--resolution", "64"]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "resolution" in err

    def test_cli_lets_a_library_value_error_surface(self, monkeypatch):
        # only a missing or malformed config file reads as a config error
        def broken(cfg):
            raise ValueError("library bug")

        monkeypatch.setitem(cli.COMMANDS, "defect", (broken, cli.COMMANDS["defect"][1]))
        with pytest.raises(ValueError, match="library bug"):
            cli.main(["defect", "--shape", "disc", "--radius", "1"])

    @pytest.mark.parametrize("spec", [
        {"shape": "disc", "radius": 1e308},
        {"shape": "disc", "radius": 5e-324},
        {"shape": "disc", "radius": 1.0, "center": [1e200, 0.0]},
        {"shape": "ellipse", "a": 1e154, "b": 1.0},
        {"shape": "half_disc", "radius": 1e200},
        {"shape": "convex_polygon", "vertices": [[0.0, 0.0], [1e120, 0.0], [0.0, 1e120]]},
    ])
    def test_make_domain_rejects_a_spec_out_of_scale(self, spec):
        # areas and grid steps of such shapes overflow or underflow
        with pytest.raises(ParameterError, match="out of scale"):
            make_domain(spec)

    @pytest.mark.parametrize("build, field", [
        (lambda: Disc(1e308), "disc radius"),
        (lambda: Disc(1e-200), "disc radius"),
        (lambda: Ellipse(1e200, 1.0), "ellipse a"),
        (lambda: HalfDisc(1.0, orientation=1e200), "half_disc orientation"),
        (lambda: Rectangle(2.0, 1e-101), "rectangle b"),
    ])
    def test_a_constructor_rejects_a_number_out_of_scale(self, build, field):
        # the gate every constructor and `make_domain` share
        with pytest.raises(ParameterError, match=f"{field} is out of scale"):
            build()

    @pytest.mark.parametrize("build, field", [
        (lambda: Disc(1.0, center=(1e50, 0.0)), "disc center"),
        (lambda: make_domain({"shape": "disc", "radius": 1, "center": [1e12, 0]}), "disc center"),
        (lambda: make_domain({"shape": "disc", "radius": 1e-3, "center": [0, -2e3]}),
         "disc center"),
        (lambda: HalfDisc(1e-3, center=(10.0, 1e4)), "half_disc center"),
        (lambda: make_domain({"shape": "half_disc", "radius": 1, "center": [0, 1e16]}),
         "half_disc center"),
        (lambda: ConvexPolygon([(1e7, 0.0), (1e7 + 1.0, 0.0), (1e7, 1.0)]),
         "convex_polygon vertices"),
        (lambda: make_domain({"shape": "convex_polygon",
                              "vertices": [[0, 1e9], [1, 1e9], [0, 1e9 + 1]]}),
         "convex_polygon vertices"),
    ])
    def test_a_shape_far_from_the_origin_for_its_size_is_rejected(self, build, field):
        # its grid's cell centres would round together: a unit disc centred
        # at 1e12 covered 3.1393 of its area pi at 64^2, one at 1e16 0.125
        with pytest.raises(ParameterError, match=f"{field}: too far from the origin"):
            build()

    def test_a_shape_placed_within_the_offset_bound_keeps_its_area(self):
        for c in (1e3, 0.5 * OFFSET_BOUND):
            dom = make_domain({"shape": "disc", "radius": 1, "center": [c, -c]})
            assert MaskedGrid(dom, 64).weights.sum() == pytest.approx(np.pi, rel=1e-9)

    def test_cli_reports_missing_key(self, capsys):
        assert cli.main(["defect", "--shape", "disc"]) == cli.EXIT_USAGE
        assert "disc needs 'radius'" in capsys.readouterr().err


@settings(max_examples=40, deadline=None)
@given(
    rho=st.floats(0.0, 0.99),
    ang=st.floats(0.0, 2 * np.pi),
    r=st.floats(0.5, 3.0),
)
def test_disc_distance_property(rho, ang, r):
    d = Disc(r)
    p = r * rho * np.array([np.cos(ang), np.sin(ang)])
    assert d.boundary_distance([p])[0] == pytest.approx(r * (1 - rho), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.0, 2 * np.pi))
@example(0.2, 0.0)  # on the flat side, where v and the region's flat row must round alike
@example(0.05, np.pi)
def test_half_disc_contains_consistent(rho, ang):
    hd = HalfDisc(1.0, center=(0.3, -0.2), orientation=1.1)
    # a point built in the local frame is inside iff its local coords are
    c, u, w = hd._frame()
    p = c + rho * (np.cos(ang) * w + np.sin(ang) * u)
    loc = hd.to_local(p)
    assert hd.contains([p])[0] == bool((np.hypot(*loc) <= 1.0) and loc[1] >= 0)


_FUZZ_BAD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e154, 1e200, 1e308,
                     "abc", "", None, [], [1.0], [1.0, "x"]]),
)
_FUZZ_GOOD = st.floats(0.05, 5.0)
_FUZZ_VALUES = st.one_of(_FUZZ_GOOD, _FUZZ_BAD)
_FUZZ_POLYGONS = st.builds(
    # Python floats, so an infinite r times a zero sine is NaN without a warning
    lambda n, r, phase: [[r * math.cos(phase + 2 * math.pi * k / n),
                          r * math.sin(phase + 2 * math.pi * k / n)] for k in range(n)]
    if isinstance(r, float) else [[r, 0.0]] * n,
    st.integers(1, 6), _FUZZ_VALUES, st.floats(0.0, 2 * np.pi),
)
_FUZZ_CENTERS = st.lists(_FUZZ_VALUES, min_size=2, max_size=2) | st.lists(_FUZZ_VALUES, max_size=3)
_FUZZ_SPECS = st.one_of(
    # each catalog shape with its keys, any of them bad
    st.fixed_dictionaries({"shape": st.just("disc"), "radius": _FUZZ_VALUES},
                          optional={"center": _FUZZ_CENTERS}),
    st.fixed_dictionaries({"shape": st.just("ellipse"), "a": _FUZZ_VALUES, "b": _FUZZ_VALUES}),
    st.fixed_dictionaries({"shape": st.just("rectangle"), "a": _FUZZ_VALUES, "b": _FUZZ_VALUES}),
    st.fixed_dictionaries({"shape": st.just("half_disc"), "radius": _FUZZ_VALUES},
                          optional={"center": _FUZZ_CENTERS, "orientation": _FUZZ_VALUES}),
    st.fixed_dictionaries({"shape": st.just("convex_polygon"), "vertices": _FUZZ_POLYGONS}),
    # any shape name with any subset of the keys
    st.fixed_dictionaries(
        {"shape": st.sampled_from(["disc", "ellipse", "rectangle", "half_disc",
                                   "convex_polygon", "annulus", 3])},
        optional={"radius": _FUZZ_VALUES, "a": _FUZZ_VALUES, "b": _FUZZ_VALUES,
                  "center": _FUZZ_CENTERS | _FUZZ_BAD, "orientation": _FUZZ_VALUES,
                  "vertices": st.lists(st.lists(_FUZZ_VALUES, max_size=3), max_size=4)
                  | _FUZZ_BAD},
    ),
)


@settings(max_examples=300, deadline=None)
@given(spec=_FUZZ_SPECS, resolution=st.sampled_from([-1, 0, 31]) | st.integers(32, 64))
def test_make_domain_fuzz_gives_a_finite_domain_or_a_typed_error(spec, resolution):
    # missing keys, NaN, +-inf, zero and negative sizes, strings and short
    # lists: a spec either builds a domain whose extent and grid are finite
    # or raises one of the package's errors
    try:
        domain = make_domain(spec)
        grid = MaskedGrid(domain, resolution)
    except ShellWrinkleError:
        return
    assert np.all(np.isfinite(domain.bbox())) and np.isfinite(domain.area()) and domain.area() > 0
    assert np.all(np.isfinite(grid.weights)) and grid.weights.sum() > 0
