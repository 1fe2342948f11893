"""Extremal potentials: closed forms, ordering, admissibility, dual values,
and the generic convex-combination verifier against its brute-force oracle."""

import numpy as np
import pytest

from conftest import interior_points
from shellwrinkle import airy
from shellwrinkle.errors import DomainError, ResolutionError, UnsupportedShapeError
from shellwrinkle.geometry import ConvexPolygon, Disc, Ellipse, HalfDisc, Rectangle
from shellwrinkle.shell import ShellProfile

POS = ShellProfile.constant(1.0)
NEG = ShellProfile.constant(-1.0)


class TestPhiMinus:
    def test_disc_example(self, disc):
        # half the squared radius minus half the squared distance: at r=0.5
        # the distance is 0.5, so the value vanishes
        assert airy.phi_minus(disc, (0.5, 0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_boundary_trace(self, ellipse, rect, pentagon):
        for dom in (ellipse, rect, pentagon):
            for bp in dom.boundary_sample(64):
                x = bp.position
                assert airy.phi_minus(dom, x) == pytest.approx(0.5 * x @ x, abs=1e-9)

    def test_rectangle_center(self, rect):
        assert airy.phi_minus(rect, (0.0, 0.0)) == pytest.approx(-0.5, abs=1e-12)

    def test_outside_raises(self, disc):
        with pytest.raises(DomainError):
            airy.phi_minus(disc, (1.5, 0.0))


class TestPhiPlus:
    def test_ellipse_value(self, ellipse):
        assert airy.phi_plus(ellipse, (1.0, 0.0)) == pytest.approx(0.875, abs=1e-12)

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
            assert airy.phi_plus(d, x) == pytest.approx(0.5 * x @ x, abs=1e-10)

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
    def test_negative_disc_hessian(self, disc):
        af = airy.solve_dual(disc, NEG)
        pts = interior_points(disc, 300, seed=5)
        r = np.hypot(pts[:, 0], pts[:, 1])
        keep = r > 1e-3
        zeta, eta, rank = af.hessian_ac(pts[keep])
        assert np.all(rank == 1)
        assert np.allclose(zeta, 1.0 / r[keep], atol=1e-9)
        e_th = np.stack([-pts[keep, 1], pts[keep, 0]], axis=1)
        e_th /= np.hypot(e_th[:, 0], e_th[:, 1])[:, None]
        align = np.abs(np.sum(eta * e_th, axis=1))
        assert np.allclose(align, 1.0, atol=1e-9)

    def test_positive_half_disc_zeta(self, half_disc_pos):
        af = airy.solve_dual(half_disc_pos, POS)
        pts = interior_points(half_disc_pos, 300, seed=6)
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.arctan2(pts[:, 1], pts[:, 0])
        zeta, eta, rank = af.hessian_ac(pts)
        assert np.all(rank == 1)
        assert np.allclose(zeta, 1.0 / (r * np.sin(th) ** 3), rtol=1e-9)

    def test_zero_sign_gives_plus_and_zero_value(self, pentagon):
        sh = ShellProfile(curvature=0.0, sign="zero")
        # pentagon is not tangential; zero curvature still needs the plus
        # structure, so use a tangential shape instead
        tri = ConvexPolygon([(1.2, 0.0), (-0.6, 1.0), (-0.6, -1.0)])
        af = airy.solve_dual(tri, sh)
        assert af.sign > 0
        assert airy.dual_value(tri, sh, af, 64) == pytest.approx(0.0, abs=1e-15)

    def test_singular_curves_negative_ellipse(self, ellipse):
        af = airy.solve_dual(ellipse, NEG)
        curves = af.hessian_singular()
        assert len(curves) >= 1
        dens = curves[0]["density"]
        assert np.all(dens >= -1e-12)
        assert dens.max() > 0.1  # d |[grad d]| is order one mid-segment


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
            g = af.grad_phi(p_in)
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
                roof = airy.convex_roof(dom, p, 24)
                brute = airy.convex_roof_bruteforce(dom, p, 24)
                assert roof == pytest.approx(brute, abs=1e-9)

    def test_reproduces_catalog_closed_forms(self, ellipse, disc, rect, triangle):
        rng = np.random.default_rng(8)
        for dom in (ellipse, disc, rect, triangle):
            pts = interior_points(dom, 24, seed=int(rng.integers(1 << 30)), margin=2e-2)
            roof = airy.convex_roof(dom, pts, 512)
            closed = airy.phi_plus(dom, pts)
            assert np.max(np.abs(roof - closed)) < 1e-3

    def test_needs_16_samples(self, disc):
        with pytest.raises(ResolutionError):
            airy.convex_roof(disc, (0.0, 0.0), 8)

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
        assert disc.contains(p)
        with pytest.raises(DomainError):
            airy.convex_roof(disc, p, 16)

    def test_outside_domain_raises(self, ellipse):
        with pytest.raises(DomainError):
            airy.convex_roof(ellipse, [(0.0, 0.0), (2.5, 0.0)], 64)

    def test_single_point_returns_float(self, ellipse):
        val = airy.convex_roof(ellipse, (0.3, 0.2), 64)
        assert isinstance(val, float)
        assert val == airy.convex_roof(ellipse, [(0.3, 0.2)], 64)[0]
