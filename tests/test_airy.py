"""Extremal potentials: closed forms, ordering, admissibility, dual values,
and the generic convex-combination verifier against its brute-force oracle."""

import numpy as np
import pytest

from conftest import interior_points
from shellwrinkle import airy
from shellwrinkle.errors import DomainError, ResolutionError, UnsupportedShapeError
from shellwrinkle.geometry import ConvexPolygon, Disc, Domain
from shellwrinkle.shell import ShellProfile

POS = ShellProfile.constant(1.0)
NEG = ShellProfile.constant(-1.0)


def convex_roof_bruteforce(domain: Domain, x, n_boundary=24):
    """O(n^3) enumeration over boundary pairs and triples containing x.

    Exists as the independent oracle for the Delaunay verifier; keep n small.
    """
    samples = domain.boundary_sample(n_boundary)
    Y = np.array([bp.position for bp in samples])
    vals = 0.5 * np.sum(Y * Y, axis=1)
    x = np.asarray(x, dtype=float)
    best = np.inf
    n = len(Y)
    # pairs: x on the segment within a barycentric tolerance
    for i in range(n):
        for j in range(i + 1, n):
            d = Y[j] - Y[i]
            L2 = d @ d
            if L2 < 1e-30:
                continue
            t = (x - Y[i]) @ d / L2
            if -1e-12 <= t <= 1 + 1e-12:
                p = Y[i] + t * d
                if np.hypot(*(x - p)) <= 1e-9 * (1 + np.hypot(*x)):
                    best = min(best, (1 - t) * vals[i] + t * vals[j])
    # triples: barycentric containment
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                T = np.column_stack([Y[j] - Y[i], Y[k] - Y[i]])
                det = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
                if abs(det) < 1e-14:
                    continue
                rhs = x - Y[i]
                l2 = (T[1, 1] * rhs[0] - T[0, 1] * rhs[1]) / det
                l3 = (-T[1, 0] * rhs[0] + T[0, 0] * rhs[1]) / det
                l1 = 1.0 - l2 - l3
                if min(l1, l2, l3) >= -1e-12:
                    best = min(best, l1 * vals[i] + l2 * vals[j] + l3 * vals[k])
    return float(best)


def convex_roof_qhull(domain: Domain, x, n_boundary):
    """convex_roof through scipy's qhull Delaunay triangulation of the
    samples: the reference for the chord triangulation.  NaN where qhull
    finds no triangle, as at some samples on a long polygon side."""
    from scipy.spatial import Delaunay

    Y = domain.boundary_sample(n_boundary).position
    tri = Delaunay(Y)
    simplex = tri.find_simplex(x)
    affine = tri.transform[simplex]
    bary = np.einsum("nij,nj->ni", affine[:, :2], x - affine[:, 2])
    bary = np.column_stack([bary, 1.0 - bary.sum(axis=1)])
    out = np.sum(bary * (0.5 * np.sum(Y * Y, axis=1))[tri.simplices[simplex]], axis=1)
    return np.where(simplex >= 0, out, np.nan)


def roof_queries(domain, n_boundary, count, seed):
    """Points inside the polygon of the samples: every sample, points on
    chords between samples, and convex combinations of three samples."""
    rng = np.random.default_rng(seed)
    Y = domain.boundary_sample(n_boundary).position
    pick = rng.integers(len(Y), size=(count, 3))
    t = rng.uniform(size=(count, 1))
    on_chords = t * Y[pick[:, 0]] + (1 - t) * Y[pick[:, 1]]
    w = rng.dirichlet(np.ones(3), size=count)
    inside = np.einsum("nk,nkd->nd", w, Y[pick])
    return np.vstack([Y, on_chords, inside])


class TestPhiMinus:
    def test_disc_example(self, disc):
        # half the squared radius minus half the squared distance: at r=0.5
        # the distance is 0.5, so the value vanishes
        assert airy.phi_minus(disc, [(0.5, 0.0)])[0] == pytest.approx(0.0, abs=1e-14)

    def test_boundary_trace(self, ellipse, rect, pentagon):
        for dom in (ellipse, rect, pentagon):
            for bp in dom.boundary_sample(64):
                x = bp.position
                assert airy.phi_minus(dom, [x])[0] == pytest.approx(0.5 * x @ x, abs=1e-9)

    def test_rectangle_center(self, rect):
        assert airy.phi_minus(rect, [(0.0, 0.0)])[0] == pytest.approx(-0.5, abs=1e-12)

    def test_outside_raises(self, disc):
        with pytest.raises(DomainError):
            airy.phi_minus(disc, [(1.5, 0.0)])

    def test_gradient_is_the_foot_and_raises_outside(self, ellipse, half_disc_neg, pentagon):
        # grad phi = x - d grad d is the foot point inside; outside beyond
        # 1e-12 diam the gradient, like the value, is undefined
        for dom in (ellipse, half_disc_neg, pentagon):
            af = airy.solve_dual(dom, NEG)
            x = interior_points(dom, 100)
            np.testing.assert_array_equal(af.grad_phi(x), dom.nearest_boundary_point(x))
            s = dom.boundary_sample(16)
            out = s.position[~s.corner] + 1e-9 * dom.diameter() * s.nu[~s.corner]
            for p in (out, out[:1]):
                with pytest.raises(DomainError):
                    af.grad_phi(p)


class TestPhiPlus:
    def test_ellipse_value(self, ellipse):
        assert airy.phi_plus(ellipse, [(1.0, 0.0)])[0] == pytest.approx(0.875, abs=1e-12)

    def test_disc_constant(self, disc):
        pts = interior_points(disc, 100, seed=1)
        assert np.allclose(airy.phi_plus(disc, pts), 0.5, atol=1e-12)

    def test_translated_disc_covariance(self):
        c = np.array([0.4, -0.3])
        d = Disc(0.9, center=tuple(c))
        pts = interior_points(d, 200, seed=2)
        # phi(x) = phi0(x - c) + c.(x - c) + |c|^2/2 with phi0 = R^2/2
        expect = 0.5 * 0.81 + (pts - c) @ c + 0.5 * c @ c
        assert np.allclose(airy.phi_plus(d, pts), expect, atol=1e-12)
        # boundary trace in the shifted frame
        for bp in d.boundary_sample(32):
            x = bp.position
            assert airy.phi_plus(d, [x])[0] == pytest.approx(0.5 * x @ x, abs=1e-10)

    def test_half_disc_formula(self, half_disc_pos):
        # paper frame: polar about the origin, rays crossing at |p|, |q|
        pts = interior_points(half_disc_pos, 500, seed=3)
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.arctan2(pts[:, 1], pts[:, 0])
        p = 1.0 / np.sin(th)
        q = 2.0 * np.sin(th)
        expect = 0.5 * (p + q) * r - 0.5 * p * q
        assert np.allclose(airy.phi_plus(half_disc_pos, pts), expect, atol=1e-10)

    def test_sandwich_ordering(self, ellipse, rect, triangle, half_disc_pos):
        for dom in (ellipse, rect, triangle, half_disc_pos):
            pts = interior_points(dom, 500, seed=4)
            lo = airy.phi_minus(dom, pts)
            hi = airy.phi_plus(dom, pts)
            mid = 0.5 * np.sum(pts * pts, axis=1)
            assert np.all(lo <= mid + 1e-12)
            assert np.all(mid <= hi + 1e-12)

    def test_positive_nontangential_polygon_rejected(self):
        quad = ConvexPolygon([(2, -1), (2, 1), (-2, 1.2), (-2, -1.2)])
        assert not quad.is_tangential()
        with pytest.raises(UnsupportedShapeError):
            airy.solve_dual(quad, POS)


class TestSolveDualStructure:
    def test_zero_sign_gives_plus_and_zero_value(self, pentagon):
        sh = ShellProfile(curvature=0.0, sign="zero")
        # pentagon is not tangential; zero curvature still needs the plus
        # structure, so use a tangential shape instead
        tri = ConvexPolygon([(1.2, 0.0), (-0.6, 1.0), (-0.6, -1.0)])
        af = airy.solve_dual(tri, sh)
        assert af.sign > 0
        assert airy.dual_value(tri, sh, af, 64) == pytest.approx(0.0, abs=1e-15)


class TestDualValue:
    def test_positive_ellipse(self, ellipse):
        af = airy.solve_dual(ellipse, POS)
        v = airy.dual_value(ellipse, POS, af, 512)
        assert abs(v - np.pi / 2) / (np.pi / 2) < 1e-3

    def test_positive_disc(self, disc):
        af = airy.solve_dual(disc, POS)
        v = airy.dual_value(disc, POS, af, 512)
        assert abs(v - np.pi / 4) / (np.pi / 4) < 1e-3

    def test_negative_disc(self, disc):
        af = airy.solve_dual(disc, NEG)
        v = airy.dual_value(disc, NEG, af, 512)
        assert abs(v - np.pi / 12) / (np.pi / 12) < 1e-3

    def test_zero_curvature_zero_value(self, ellipse):
        sh = ShellProfile(curvature=0.0, sign="zero")
        af = airy.solve_dual(ellipse, sh)
        assert airy.dual_value(ellipse, sh, af, 64) == 0.0

    def test_extremal_beats_other_admissible(self, ellipse, disc):
        # the identity extension and the opposite extremal are both
        # admissible; the correct extremal dominates for its sign
        for dom in (ellipse, disc):
            plus = airy.solve_dual(dom, POS)
            minus = airy.solve_dual(dom, NEG)
            v_plus = airy.dual_value(dom, POS, plus, 128)
            v_minus_as_plus = airy.dual_value(dom, POS, minus, 128)
            assert v_plus >= v_minus_as_plus - 1e-12
            assert v_plus >= 0.0 - 1e-12  # identity extension gives 0
            v_minus = airy.dual_value(dom, NEG, minus, 128)
            v_plus_as_minus = airy.dual_value(dom, NEG, plus, 128)
            assert v_minus >= v_plus_as_minus - 1e-12
            assert v_minus >= 0.0 - 1e-12

    def test_resolution_guard(self, ellipse):
        af = airy.solve_dual(ellipse, POS)
        with pytest.raises(ResolutionError):
            airy.dual_value(ellipse, POS, af, 16)


class TestAdmissibility:
    def test_ellipse_jump_formula(self, ellipse):
        af = airy.solve_dual(ellipse, POS)
        for bp in ellipse.boundary_sample(64):
            p_in = bp.position - 1e-9 * ellipse.diameter() * bp.nu
            g = af.grad_phi([p_in])[0]
            jump = bp.nu @ (bp.position - g)
            x1, x2 = bp.position
            ref = np.sqrt(x1**2 / 16 + x2**2)  # b^2 sqrt(x1^2/a^4 + x2^2/b^4)
            assert jump == pytest.approx(ref, abs=1e-7)
            assert jump > 0

    def test_minus_passes_all_checks(self, ellipse, disc, rect, pentagon):
        for dom in (ellipse, disc, rect, pentagon):
            af = airy.solve_dual(dom, NEG)
            rep = airy.check_admissible(af, dom, tol=1e-8)
            assert rep.trace_max_violation <= 1e-9
            assert rep.convexity_max_violation <= 1e-9
            assert rep.jump_min >= -1e-8

    def test_plus_passes_all_checks(self, ellipse, disc, rect, triangle, half_disc_pos,
                                    regular_pentagon):
        for dom in (ellipse, disc, rect, triangle, half_disc_pos, regular_pentagon):
            af = airy.solve_dual(dom, POS)
            rep = airy.check_admissible(af, dom, tol=1e-8)
            assert rep.trace_max_violation <= 1e-8
            assert rep.convexity_max_violation <= 1e-9
            assert rep.jump_min >= -1e-7

    def test_identity_extension_jump_zero(self, disc):
        # the potential |x|^2/2 itself: trace exact and zero jump
        af = airy.solve_dual(disc, NEG)  # phi_minus on the disc is not |x|^2/2
        # construct the check directly: nu . (x - x) = 0
        for bp in disc.boundary_sample(16):
            assert bp.nu @ (bp.position - bp.position) == 0.0


class TestConvexRoof:
    def test_matches_bruteforce_small_n(self, ellipse, rect):
        for dom, pts in (
            (ellipse, [(1.0, 0.0), (0.3, 0.4), (-1.2, -0.2)]),
            (rect, [(0.5, 0.3), (-1.4, 0.1)]),
        ):
            for p in pts:
                roof = airy.convex_roof(dom, [p], 24)[0]
                brute = convex_roof_bruteforce(dom, p, 24)
                assert roof == pytest.approx(brute, abs=1e-9)

    def test_reproduces_catalog_closed_forms(self, ellipse, disc, rect, triangle):
        rng = np.random.default_rng(8)
        for dom in (ellipse, disc, rect, triangle):
            pts = interior_points(dom, 24, seed=int(rng.integers(1 << 30)), margin=2e-2)
            roof = airy.convex_roof(dom, pts, 512)
            closed = airy.phi_plus(dom, pts)
            assert np.max(np.abs(roof - closed)) < 1e-3

    @pytest.mark.parametrize("name", ["ellipse", "disc", "rect", "triangle", "half_disc_pos"])
    @pytest.mark.parametrize("n_boundary", [16, 24, 512, 2048])
    def test_matches_qhull_delaunay(self, name, n_boundary, request):
        dom = request.getfixturevalue(name)
        pts = roof_queries(dom, n_boundary, 200, seed=n_boundary)
        roof = airy.convex_roof(dom, pts, n_boundary)
        ref = convex_roof_qhull(dom, pts, n_boundary)
        found = np.isfinite(ref)
        assert np.max(np.abs(roof[found] - ref[found])) <= 1e-13
        # qhull misses only points on a polygon side, where the roof
        # interpolates the lift between the two samples around the point
        Y = dom.boundary_sample(n_boundary).position
        lift, d = 0.5 * np.sum(Y * Y, axis=1), np.roll(Y, -1, axis=0) - Y
        for x, value in zip(pts[~found], roof[~found]):
            t = np.clip(np.sum((x - Y) * d, axis=1) / np.sum(d * d, axis=1), 0.0, 1.0)
            k = np.argmin(np.hypot(*(Y + t[:, None] * d - x).T))
            assert np.hypot(*(Y[k] + t[k] * d[k] - x)) <= 1e-15
            assert value == pytest.approx((1 - t[k]) * lift[k] + t[k] * np.roll(lift, -1)[k],
                                          abs=1e-13)

    def test_triangles_tile_the_sample_polygon(self, ellipse, rect, half_disc_pos, triangle):
        # the chord triangles cover the polygon once: their areas add up to
        # its area, and a polygon side's samples get no sliver triangle
        for dom in (ellipse, rect, half_disc_pos, triangle):
            Y = dom.boundary_sample(512).position
            q = Y - Y.mean(axis=0)
            tri = airy._convex_delaunay(q, 1e-12 * dom.diameter())
            a, b, c = (q[tri[:, m]] for m in range(3))
            area = 0.5 * ((b - a)[:, 0] * (c - a)[:, 1] - (b - a)[:, 1] * (c - a)[:, 0])
            polygon = 0.5 * np.sum(q[:, 0] * np.roll(q[:, 1], -1) - q[:, 1] * np.roll(q[:, 0], -1))
            assert np.all(area > 1e-12 * dom.diameter() ** 2)
            assert area.sum() == pytest.approx(polygon, rel=1e-12)

    def test_a_chain_along_its_chord_gets_no_triangle(self):
        side = np.column_stack([np.linspace(0.0, 1.0, 6), np.zeros(6)])
        assert airy._convex_delaunay(side, 1e-12).shape == (0, 3)
        # a repeated sample adds no zero-area triangle either
        square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        tri = airy._convex_delaunay(square, 1e-12)
        assert len(tri) == 2 and all(len({tuple(v) for v in square[t]}) == 3 for t in tri)

    @pytest.mark.parametrize("name", ["ellipse", "disc", "rect", "triangle", "half_disc_pos"])
    def test_a_point_alone_gets_its_value_in_a_batch(self, name, request):
        dom = request.getfixturevalue(name)
        pts = roof_queries(dom, 512, 400, seed=3)
        alone = roof_queries(dom, 512, 10, seed=4)[-30:]  # 10 samples, on chords and inside
        batch = airy.convex_roof(dom, np.vstack([pts, alone]), 512)[len(pts):]
        assert np.array_equal(batch, [airy.convex_roof(dom, [p], 512)[0] for p in alone])

    def test_needs_16_samples(self, disc):
        with pytest.raises(ResolutionError):
            airy.convex_roof(disc, [(0.0, 0.0)], 8)

    def test_cocircular_disc_samples(self, disc):
        # every sample lies on the circle, so the lifted points are coplanar
        # and the triangulation is degenerate; any triangle gives R^2/2
        pts = interior_points(disc, 200, seed=4)
        roof = airy.convex_roof(disc, pts, 512)
        assert np.max(np.abs(roof - 0.5)) < 1e-12

    def test_outside_sample_polygon_raises(self, disc):
        # inside the disc, but beyond the chord between two adjacent samples
        y0, y1 = (bp.position for bp in disc.boundary_sample(16)[:2])
        mid = 0.5 * (y0 + y1)
        p = 0.999 * mid / np.hypot(*mid)
        assert disc.contains([p])[0]
        with pytest.raises(DomainError):
            airy.convex_roof(disc, [p], 16)

    def test_depth_outside_the_sample_polygon_is_measured_against_1e_12_diam(self, disc):
        y0, y1 = disc.boundary_sample(16).position[:2]
        mid = 0.5 * (y0 + y1)
        out = mid / np.hypot(*mid)
        assert airy.convex_roof(disc, [mid + 1e-14 * out], 16)[0] == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(DomainError):
            airy.convex_roof(disc, [mid + 1e-9 * out], 16)

    def test_outside_domain_raises(self, ellipse):
        with pytest.raises(DomainError):
            airy.convex_roof(ellipse, [(0.0, 0.0), (2.5, 0.0)], 64)
