"""Characteristic ODE solvers against independent RK4 shooting oracles, the
assembled defect fields against closed forms, and the weak-form residual."""

import numpy as np
import pytest

from shellwrinkle import airy
from shellwrinkle import characteristics as chars
from shellwrinkle.errors import DataError, ResolutionError
from shellwrinkle.geometry import Disc, Ellipse, HalfDisc, Rectangle
from shellwrinkle.rulings import LineGeometry, UDecomposition
from shellwrinkle.shell import ShellProfile

POS = ShellProfile.constant(1.0)
NEG = ShellProfile.constant(-1.0)


def rk4_second_order(rhs, L, y0, dy0, n=4000):
    """Independent oracle: integrate y'' = rhs(t) with RK4."""
    t = np.linspace(0.0, L, n + 1)
    h = t[1] - t[0]
    y, dy = y0, dy0
    ys = [y0]
    for i in range(n):
        def f(ti, state):
            return np.array([state[1], rhs(ti)])

        s = np.array([y, dy])
        k1 = f(t[i], s)
        k2 = f(t[i] + h / 2, s + h / 2 * k1)
        k3 = f(t[i] + h / 2, s + h / 2 * k2)
        k4 = f(t[i] + h, s + h * k3)
        s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        y, dy = s
        ys.append(y)
    return t, np.asarray(ys)


def shoot_bvp(rho, K, L, n=4000):
    """Two-point solution of (rho lam)'' = -2 rho K by shooting."""
    t, y_part = rk4_second_order(lambda u: -2 * rho(u) * K(u), L, 0.0, 0.0, n)
    t, y_hom = rk4_second_order(lambda u: 0.0, L, 0.0, 1.0, n)
    c = -y_part[-1] / y_hom[-1]
    return t, (y_part + c * y_hom)


def make_line(start, end, start_kind="boundary", end_kind="boundary", rho0=1.0, rho1=0.0):
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    d = (end - start) / np.hypot(*(end - start))
    eta = np.array([d[1], -d[0]])
    return LineGeometry(
        s=0.0, start=start, end=end, eta=eta, start_kind=start_kind,
        end_kind=end_kind, rho0=rho0, rho1=rho1, label="O",
    )


class TestSolveBVP:
    def test_ellipse_central_chord(self):
        # central vertical chord of the ellipse: unit rho, K = 1, length 2;
        # the midpoint value is 1
        line = make_line((0.0, -1.0), (0.0, 1.0))
        # odd sample count puts a node exactly at the midpoint; the double
        # trapezoid sum is exact there for constant curvature
        sol = chars.solve_bvp(line, lambda x: np.ones(len(x)), n=2001)
        assert sol.lam_at(1.0) == pytest.approx(1.0, abs=1e-12)
        assert sol.lam[0] == pytest.approx(0.0, abs=1e-12)
        assert sol.lam[-1] == pytest.approx(0.0, abs=1e-12)
        # against the shooting oracle along the whole line (oracle sampled
        # densely, compared at the solver's own nodes)
        t, y = shoot_bvp(lambda u: 1.0, lambda u: 1.0, 2.0, n=8000)
        assert np.max(np.abs(np.interp(sol.t, t, y) - sol.lam)) < 1e-8

    def test_zero_curvature_zero_solution(self):
        line = make_line((0.0, 0.0), (1.0, 0.0))
        sol = chars.solve_bvp(line, lambda x: np.zeros(len(x)))
        assert np.max(np.abs(sol.lam)) == 0.0

    def test_half_disc_ray(self):
        # rho = r on [1, 2]: r lam = -r^3/3 + 7r/3 - 2, lam(1.5) = 0.25
        line = make_line((0.0, 1.0), (0.0, 2.0), rho0=1.0, rho1=1.0)
        sol = chars.solve_bvp(line, lambda x: np.ones(len(x)))
        # the double trapezoid sum is second order: ~6e-8 at 2000 samples
        assert sol.lam_at(0.5) == pytest.approx(0.25, abs=5e-7)
        r = 1.0 + sol.t
        exact = (-(r**3) / 3 + 7 * r / 3 - 2) / r
        assert np.max(np.abs(sol.lam - exact)) < 5e-7
        t, y = shoot_bvp(lambda u: 1.0 + u, lambda u: 1.0, 1.0, n=8000)
        assert np.max(np.abs(np.interp(sol.t, t, y) - sol.rho_lam)) < 5e-7

    def test_variable_curvature_against_shooting(self):
        line = make_line((0.0, 0.0), (2.0, 0.0))

        def K(x):
            return np.cos(1.7 * np.atleast_2d(x)[:, 0])

        sol = chars.solve_bvp(line, K)
        t, y = shoot_bvp(lambda u: 1.0, lambda u: np.cos(1.7 * u), 2.0, n=8000)
        assert np.max(np.abs(np.interp(sol.t, t, y) - sol.lam)) < 5e-7

    def test_rho_positive_guard(self):
        line = make_line((0.0, 0.0), (1.0, 0.0), rho0=0.0, rho1=1.0)
        with pytest.raises(DataError):
            chars.solve_bvp(line, lambda x: np.ones(len(x)))


class TestSolveCauchy:
    def test_negative_disc_ray(self):
        # (r lam)'' = 2r with zero data: lam = r^2/3
        line = make_line((0.0, 0.0), (1.0, 0.0), start_kind="focal_point",
                         rho0=0.0, rho1=1.0)
        sol = chars.solve_cauchy(line, lambda x: -np.ones(len(x)))
        assert sol.lam_at(0.9) == pytest.approx(0.27, abs=1e-7)
        assert np.max(np.abs(sol.lam - sol.t**2 / 3)) < 1e-7
        assert not sol.sign_violation
        t, y = rk4_second_order(lambda u: 2 * u, 1.0, 0.0, 0.0, n=8000)
        lam_oracle = np.divide(y[1:], t[1:])
        assert np.max(np.abs(np.interp(sol.t[1:], t[1:], lam_oracle) - sol.lam[1:])) < 1e-7

    def test_rectangle_region_line(self):
        # unit rho, K = -1 from the axis: lam = s^2
        line = make_line((0.0, 0.0), (1.0, -1.0), start_kind="medial_axis")
        line = make_line((0.0, 0.0), (0.0, -1.0), start_kind="medial_axis")
        sol = chars.solve_cauchy(line, lambda x: -np.ones(len(x)))
        assert np.max(np.abs(sol.lam - sol.t**2)) < 1e-12

    def test_zero_curvature(self):
        line = make_line((0.0, 0.0), (1.0, 0.0), start_kind="medial_axis")
        sol = chars.solve_cauchy(line, lambda x: np.zeros(len(x)))
        assert np.max(np.abs(sol.lam)) == 0.0

    def test_sign_rule_flags_positive_curvature(self):
        # Cauchy data with K > 0 forces a negative density: flagged
        line = make_line((0.0, 0.0), (1.0, 0.0), start_kind="medial_axis")
        sol = chars.solve_cauchy(line, lambda x: np.ones(len(x)))
        assert sol.sign_violation

    def test_wrong_data_kind(self):
        line = make_line((0.0, 0.0), (1.0, 0.0), start_kind="boundary")
        with pytest.raises(DataError):
            chars.solve_cauchy(line, lambda x: np.ones(len(x)))

    def test_singular_part_is_zero(self):
        line = make_line((0.0, 0.0), (1.0, 0.0), start_kind="medial_axis")
        sol = chars.solve_cauchy(line, lambda x: -np.ones(len(x)))
        assert sol.lam_sing == 0.0


class TestDefectField:
    def test_positive_ellipse_closed_form(self, ellipse):
        df = chars.defect_field(ellipse, POS, 256)
        pts = df.grid.points()
        lam_exact = np.maximum((1 - pts[:, 0] ** 2 / 4) - pts[:, 1] ** 2, 0.0)
        ok = df.grid.mask & ~df.uncovered & np.atleast_1d(
            ellipse.contains(pts, tol=-1e-12)
        ).reshape(df.lam.shape)
        err = np.abs(df.lam - lam_exact.reshape(df.lam.shape))[ok]
        assert err.max() < 1e-4

    def test_zero_curvature_field(self, ellipse):
        sh = ShellProfile(curvature=0.0, sign="zero")
        df = chars.defect_field(ellipse, sh, 64)
        assert np.max(np.abs(df.lam)) == 0.0
        assert df.primal_value() == 0.0

    def test_negativity_floor(self, ellipse, disc, rect, half_disc_neg):
        for dom, sh in ((ellipse, POS), (disc, NEG), (rect, NEG), (half_disc_neg, NEG)):
            df = chars.defect_field(dom, sh, 96)
            assert df.min_lambda() >= -1e-10

    def test_lambda_vanishes_at_sigma(self, disc):
        df = chars.defect_field(disc, NEG, 128)
        # density at the fan center tends to zero (Cauchy data)
        i = np.argmin(np.abs(df.grid.X.ravel()) + np.abs(df.grid.Y.ravel()))
        assert df.lam.ravel()[i] < 1e-3

    @pytest.mark.parametrize("resolution", [128, 256])
    def test_negative_ellipse_fully_covered(self, ellipse, resolution):
        # boundary projections that round just outside the ellipse belong to
        # the half-chart holding their foot parameter, not to the first one
        df = chars.defect_field(ellipse, NEG, resolution)
        assert int(df.uncovered.sum()) == 0

    def test_internal_vertex_lines_carry_no_singular_part(self, rect):
        # the solver represents the singular density as identically zero, so
        # the lines ending at internal medial vertices carry none
        df = chars.defect_field(rect, NEG, 96)
        assert all(sol.lam_sing == 0.0 for sol in df.line_solutions)

    def test_interface_flag_on_positive_rectangle(self, rect):
        df = chars.defect_field(rect, POS, 96)
        assert df.interface_flag
        dfe = chars.defect_field(Ellipse(2.0, 1.0), POS, 96)
        assert not dfe.interface_flag

    def test_resolution_guard(self, ellipse):
        with pytest.raises(ResolutionError):
            chars.defect_field(ellipse, POS, 16)


class TestPrimalValues:
    def test_positive_ellipse(self, ellipse):
        df = chars.defect_field(ellipse, POS, 256)
        assert abs(df.primal_value() - np.pi / 2) / (np.pi / 2) < 1e-3

    def test_negative_disc(self, disc):
        df = chars.defect_field(disc, NEG, 256)
        assert abs(df.primal_value() - np.pi / 12) / (np.pi / 12) < 1e-3

    def test_negative_rectangle(self, rect):
        # analytic oracle: half the integral of the squared distance,
        # 2 (0 to 1) s^2 (4 - 2s) ds + 2 (0 to 1) s^2 2(1-s) ds = 2
        df = chars.defect_field(rect, NEG, 256)
        assert abs(df.primal_value() - 1.0) < 1e-3

    def test_disc_decompositions_same_primal(self, disc):
        df0 = chars.defect_field(disc, POS, 192, UDecomposition(angle=0.0))
        df1 = chars.defect_field(disc, POS, 192, UDecomposition(angle=np.pi / 4))
        assert abs(df0.primal_value() - df1.primal_value()) / df0.primal_value() < 1e-3
        # the matrix densities genuinely differ
        m = df0.grid.mask & df1.grid.mask
        assert np.abs(df0.mu - df1.mu)[m].max() > 0.1

    def test_mixture_decomposition(self, disc):
        df = chars.defect_field(
            disc, POS, 128, UDecomposition(kind="mixture", angle=0.0, angle2=np.pi / 4)
        )
        # rank-two on the unconstrained set but still feasible and optimal
        assert abs(df.primal_value() - np.pi / 4) / (np.pi / 4) < 2e-3
        res = chars.curlcurl_residual(df, POS, 6)
        assert res < 2e-3 * np.pi


class TestCurlCurlResidual:
    def test_exact_field_small_residual(self, ellipse):
        df = chars.defect_field(ellipse, POS, 256)
        res = chars.curlcurl_residual(df, POS, 8)
        assert res < 1e-3 * 2 * np.pi

    def test_zero_field_zero_residual(self, ellipse):
        sh = ShellProfile(curvature=0.0, sign="zero")
        df = chars.defect_field(ellipse, sh, 64)
        assert chars.curlcurl_residual(df, sh, 4) == pytest.approx(0.0, abs=1e-15)

    def test_scaled_field_detected_at_order_one(self, ellipse):
        df = chars.defect_field(ellipse, POS, 256)
        base = chars.curlcurl_residual(df, POS, 8)
        df.mu = 2.0 * df.mu
        bad = chars.curlcurl_residual(df, POS, 8)
        # linear weak form: doubling the field leaves a residual of the size
        # of the right-hand side for the worst test function
        assert bad > 20 * base
        assert bad > 0.05

    @pytest.mark.parametrize("shape", ["ellipse", "disc"])
    def test_support_windows_match_full_grid(self, shape, request):
        dom = request.getfixturevalue(shape)
        df = chars.defect_field(dom, POS, 128)
        pts = df.grid.points()
        w = df.grid.weights.ravel()
        k = POS.k(pts)
        mu = df.mu.reshape(-1, 3)
        ref = 0.0
        for psi, hess in chars.interior_bumps(dom, 8):
            h11, h12, h22 = hess(pts)
            lhs = np.sum(w * (-0.5) * (h22 * mu[:, 0] - 2 * h12 * mu[:, 1] + h11 * mu[:, 2]))
            ref = max(ref, abs(lhs - np.sum(w * psi(pts) * k)))
        assert ref > 0
        assert chars.curlcurl_residual(df, POS, 8) == pytest.approx(ref, rel=1e-12)

    def test_refinement_order(self, disc):
        r1 = chars.curlcurl_residual(chars.defect_field(disc, NEG, 128), NEG, 6)
        r2 = chars.curlcurl_residual(chars.defect_field(disc, NEG, 256), NEG, 6)
        assert r2 < 0.6 * r1
