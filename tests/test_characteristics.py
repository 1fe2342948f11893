"""Characteristic ODE solvers against independent RK4 shooting oracles, the
assembled defect fields against closed forms, and the weak-form residual."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import CASE_IDS, CASES
from shellwrinkle import airy, rulings
from shellwrinkle import characteristics as chars
from shellwrinkle.errors import DataError, ResolutionError
from shellwrinkle.geometry import Disc, Ellipse, HalfDisc, Rectangle
from shellwrinkle.grids import MaskedGrid
from shellwrinkle.rulings import LineGeometry, UDecomposition, locate
from shellwrinkle.shell import ShellProfile
from shellwrinkle.stablelines import stable_lines

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
        end_kind=end_kind, rho0=rho0, rho1=rho1, length=float(np.hypot(*(end - start))),
    )


def whole_table_field(domain, shell, resolution):
    """Reference (lam, eta) for `defect_field`: every chart's lines solved,
    with the K `defect_field` passes, into one (n_lines, n) table, every
    point interpolated from it at once, and each chart's coordinates taken
    by one `coords_eta` call over all its points."""
    grid = MaskedGrid(domain, resolution)
    family = stable_lines(domain, airy.solve_dual(domain, shell), grid.h / 2.0,
                          min_length=10.0 * grid.h)
    pts = grid.eval_points()
    which = locate(family.charts, pts)[0]
    lam_m = np.zeros(len(pts))
    eta_m = np.full((len(pts), 2), np.nan)
    for ci, (chart, lines) in enumerate(zip(family.charts, family.lines_by_chart)):
        idx = np.flatnonzero(which == ci)
        if len(idx) == 0:
            continue
        x = pts[idx]
        s, u, L, eta_m[idx] = chart.coords_eta(x)
        lam = np.zeros(len(s))
        far = np.ones(len(s), dtype=bool)
        if lines:
            st = np.array([ln.s for ln in lines])
            table = np.array([chars.solve_line(ln, shell.curvature, chart.data_kind).lam
                              for ln in lines])
            n_t = table.shape[1]
            tau = np.clip(u / np.maximum(L, 1e-300), 0.0, 1.0)
            j = np.searchsorted(st, s)
            j0, j1 = np.clip(j - 1, 0, len(st) - 1), np.clip(j, 0, len(st) - 1)
            w1 = np.where(j1 > j0, (s - st[j0]) / np.where(j1 > j0, st[j1] - st[j0], 1.0), 0.0)
            w1 = np.clip(w1, 0.0, 1.0)
            fi = tau * (n_t - 1)
            i0 = np.clip(np.floor(fi).astype(int), 0, n_t - 2)
            wi = fi - i0
            lam0 = table[j0, i0] * (1 - wi) + table[j0, i0 + 1] * wi
            lam1 = table[j1, i0] * (1 - wi) + table[j1, i0 + 1] * wi
            lam = (1 - w1) * lam0 + w1 * lam1
            far[:] = False
            if len(lines) > 1:
                step = np.median(np.diff(st))
                far = (s < st[0] - 1e-12) | (s > st[-1] + 1e-12)
                far |= np.minimum(np.abs(s - st[j0]), np.abs(st[j1] - s)) > 1.5 * step
        lam[far] = chars._frozen_k_fill(chart, shell.k(x[far]), s[far], u[far], L[far])
        lam_m[idx] = lam
    lam, eta = np.zeros((grid.nx, grid.ny)), np.full((grid.nx, grid.ny, 2), np.nan)
    lam[grid.mask], eta[grid.mask] = lam_m, eta_m
    return lam, eta


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
        rho_lam = line.rho_at(sol.t) * sol.lam
        assert np.max(np.abs(np.interp(sol.t, t, y) - rho_lam)) < 5e-7

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

    def test_out_row_gets_the_same_lam(self):
        line = make_line((0.0, -1.0), (0.0, 2.0), rho0=1.0, rho1=0.5)
        K = lambda x: 1.0 + x[:, 1] ** 2  # noqa: E731
        buf = np.full(777, np.nan)
        sol = chars.solve_bvp(line, K, n=777, out=buf)
        assert sol.lam is buf
        assert np.array_equal(buf, chars.solve_bvp(line, K, n=777).lam)


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
        # Cauchy data with K > 0 forces a negative density: flagged, with K
        # sampled or a number
        line = make_line((0.0, 0.0), (1.0, 0.0), start_kind="medial_axis")
        sol = chars.solve_cauchy(line, lambda x: np.ones(len(x)))
        assert sol.sign_violation
        assert chars.solve_cauchy(line, 1.0).sign_violation

    def test_wrong_data_kind(self):
        line = make_line((0.0, 0.0), (1.0, 0.0), start_kind="boundary")
        with pytest.raises(DataError):
            chars.solve_cauchy(line, lambda x: np.ones(len(x)))

    def test_out_row_gets_the_same_lam(self):
        # a fan ray: rho = 0 at the start, where lam is set to 0 and not
        # divided, so a stale value in the row must not survive
        line = make_line((0.0, 0.0), (1.0, 0.0), start_kind="focal_point",
                         rho0=0.0, rho1=1.0)
        K = lambda x: -1.0 - x[:, 0]  # noqa: E731
        buf = np.full(501, np.nan)
        sol = chars.solve_cauchy(line, K, n=501, out=buf)
        assert sol.lam is buf and buf[0] == 0.0
        assert np.array_equal(buf, chars.solve_cauchy(line, K, n=501).lam)


def double_trapezoid_lam(line, K, data_kind, n=chars.DEFAULT_SAMPLES_PER_LINE):
    """lam from the closed forms of the double cumulative trapezoid sums of
    a constant K on the line's n nodes: with rho = rho0 + rho1 L i/(n - 1),
    I2[i] = K h^2 (rho0 i^2/2 + rho1 L i (2 i^2 + 1) / (12 (n - 1)))."""
    i = np.arange(n, dtype=float)
    L = line.length
    h = L / (n - 1)
    t = h * i
    rho = line.rho0 + line.rho1 * t
    i2 = K * h * h * (line.rho0 * i * i / 2 + line.rho1 * L * i * (2 * i * i + 1) / (12 * (n - 1)))
    if data_kind == "bvp":
        return (2.0 * i2[-1] / t[-1] * t - 2.0 * i2) / rho
    lam = np.zeros(n)
    np.divide(-2.0 * i2, rho, out=lam, where=rho > 0)
    return lam


class TestShellProfile:
    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf, "abc", None])
    def test_a_constant_curvature_must_be_finite(self, k):
        with pytest.raises(DataError, match="finite"):
            ShellProfile(curvature=k, sign="negative")

    def test_constant_rejects_a_non_finite_value(self):
        for k in (np.inf, -np.inf, np.nan):
            with pytest.raises(DataError):
                ShellProfile.constant(k)

    def test_a_constant_is_kept_as_a_float(self):
        # the line solve multiplies by it directly
        sh = ShellProfile(curvature=np.float32(-0.5), sign="negative")
        assert type(sh.curvature) is float and sh.curvature == -0.5


class TestConstantCurvature:
    @pytest.mark.parametrize("name,shell", CASES, ids=CASE_IDS)
    def test_a_number_solves_every_line_as_the_sampled_k_does(self, request, name, shell):
        # the cached unit-grid sums give the double trapezoid sums to
        # rounding: against their closed form to 1e-14 of the line's largest
        # |lam|; the sampled path's cumulative sums round to up to 7.3e-14
        # (the regular pentagon), so the two paths meet to 1e-13
        domain = request.getfixturevalue(name)
        grid = MaskedGrid(domain, 128)
        family = stable_lines(domain, airy.solve_dual(domain, shell), grid.h / 2.0,
                              min_length=10.0 * grid.h)
        worst_exact = worst_sampled = 0.0
        for chart, lines in zip(family.charts, family.lines_by_chart):
            for ln in lines:
                lam = chars.solve_line(ln, shell.curvature, chart.data_kind).lam
                exact = double_trapezoid_lam(ln, shell.curvature, chart.data_kind)
                sampled = chars.solve_line(ln, shell.k, chart.data_kind).lam
                scale = np.abs(exact).max()
                worst_exact = max(worst_exact, np.abs(lam - exact).max() / scale)
                worst_sampled = max(worst_sampled, np.abs(lam - sampled).max() / scale)
        assert worst_exact <= 1e-14
        assert worst_sampled <= 1e-13

    def test_unit_sums_are_cached_read_only(self):
        s1, su = chars._unit_sums(501)
        assert chars._unit_sums(501)[0] is s1
        assert not s1.flags.writeable and not su.flags.writeable
        i = np.arange(501.0)
        assert np.array_equal(s1, i * i / 2)
        assert np.abs(su - i * (2 * i * i + 1) / 12 / 500).max() < 1e-12 * su[-1]

    @pytest.mark.parametrize("name,shell", [("rect", NEG), ("rect", POS), ("disc", NEG)],
                             ids=["rect-negative", "rect-positive", "disc-negative"])
    def test_a_number_samples_nothing_inside_the_line_solve(self, request, monkeypatch,
                                                            name, shell):
        # a constant K needs no points along the line and no K call; a
        # callable K, given the same values, samples every line
        inside = {"solves": 0, "point_at": 0, "k": 0}
        solve = chars.solve_line

        def counted_solve(*args, **kwargs):
            inside["solves"] += 1
            active.append(True)
            try:
                return solve(*args, **kwargs)
            finally:
                active.pop()

        def spy(key, fn):
            def wrapped(*args, **kwargs):
                inside[key] += bool(active)
                return fn(*args, **kwargs)
            return wrapped

        active = []
        monkeypatch.setattr(chars, "solve_line", counted_solve)
        monkeypatch.setattr(LineGeometry, "point_at", spy("point_at", LineGeometry.point_at))
        monkeypatch.setattr(ShellProfile, "k", spy("k", ShellProfile.k))
        domain = request.getfixturevalue(name)
        chars.defect_field(domain, shell, 96)
        assert inside["solves"] > 0 and inside["point_at"] == inside["k"] == 0
        k = shell.curvature
        sampled = ShellProfile(curvature=lambda x: np.full(len(x), k), sign=shell.sign)
        inside.update(solves=0)
        chars.defect_field(domain, sampled, 96)
        assert inside["point_at"] == inside["solves"] > 0


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

    @pytest.mark.parametrize("resolution", [32, 64, 128, 256])
    @pytest.mark.parametrize("name,shell", CASES, ids=CASE_IDS)
    def test_every_case_fully_covered(self, request, name, shell, resolution):
        # every masked cell's evaluation point lies in some chart's station
        # range, and cells beyond the last solved line (fan ends, the coarse
        # negative ellipse) take the frozen-K fill instead of dropping out;
        # and no catalog line breaks the Cauchy sign rule
        df = chars.defect_field(request.getfixturevalue(name), shell, resolution)
        assert int(df.uncovered.sum()) == 0
        assert df.sign_violations == 0

    @pytest.mark.parametrize("name,shell", CASES, ids=CASE_IDS)
    def test_eta_is_unit_on_every_covered_cell(self, request, name, shell):
        # mu = lam eta (x) eta carries the cell's mass only when |eta| = 1;
        # cells projected onto the boundary must keep theirs too
        df = chars.defect_field(request.getfixturevalue(name), shell, 128)
        covered = df.grid.mask & ~df.uncovered
        norm = np.hypot(df.eta[..., 0], df.eta[..., 1])[covered]
        bad = ~(np.abs(norm - 1.0) <= 1e-12)
        assert not bad.any(), f"{bad.sum()} of {bad.size} covered cells have |eta| != 1"

    def test_line_solution_derives_t(self):
        # only lam is stored; the nodes follow from the line
        line = make_line((0.0, 1.0), (0.0, 3.0), rho0=1.0, rho1=1.0)
        sol = chars.solve_bvp(line, lambda x: np.ones(len(x)), n=501)
        assert np.array_equal(sol.t, 2.0 * np.linspace(0.0, 1.0, 501))

    @pytest.mark.parametrize("window", [chars.LINE_WINDOW, 7, 2])
    @pytest.mark.parametrize("name,shell", [("rect", NEG), ("rect", POS), ("disc", NEG)],
                             ids=["rect-negative", "rect-positive", "disc-negative"])
    def test_each_line_is_solved_once(self, request, monkeypatch, name, shell, window):
        # the line window carries its last line into the next window instead
        # of solving it again: one solve_line call per stable line, chart by
        # chart in station order (the benchmark's tracer counts calls and
        # samples there)
        solved = []
        solve = chars.solve_line

        def counted(line, *args, **kwargs):
            sol = solve(line, *args, **kwargs)
            solved.append((line.s, *line.start, len(sol.t)))
            return sol

        monkeypatch.setattr(chars, "solve_line", counted)
        monkeypatch.setattr(chars, "LINE_WINDOW", window)
        domain = request.getfixturevalue(name)
        df = chars.defect_field(domain, shell, 96)
        family = stable_lines(domain, df.airy, df.grid.h / 2.0, min_length=10.0 * df.grid.h)
        n = chars.DEFAULT_SAMPLES_PER_LINE
        expected = [(ln.s, *ln.start, n) for lines in family.lines_by_chart for ln in lines]
        assert len(expected) > window
        assert solved == expected

    @pytest.mark.parametrize("window", [chars.LINE_WINDOW, 7])
    @pytest.mark.parametrize("name,shell", CASES, ids=CASE_IDS)
    def test_line_windows_give_the_whole_table_field(self, request, monkeypatch, name, shell,
                                                     window):
        domain = request.getfixturevalue(name)
        lam_ref, eta_ref = whole_table_field(domain, shell, 96)
        monkeypatch.setattr(chars, "LINE_WINDOW", window)
        df = chars.defect_field(domain, shell, 96)
        assert np.array_equal(df.lam, lam_ref)
        assert np.array_equal(df.eta, eta_ref, equal_nan=True)

    def test_point_blocks_give_the_same_field(self, half_disc_neg, monkeypatch):
        # the locator's blocks and the rasterizer's
        whole = chars.defect_field(half_disc_neg, NEG, 64)
        monkeypatch.setattr(rulings, "POINT_BLOCK", 97)
        monkeypatch.setattr(chars, "POINT_BLOCK", 97)
        blocked = chars.defect_field(half_disc_neg, NEG, 64)
        assert np.array_equal(whole.lam, blocked.lam)
        assert np.array_equal(whole.eta, blocked.eta, equal_nan=True)

    def test_sign_violations_are_counted(self, disc):
        # K declared negative but positive beyond x = 0.3: the Cauchy rays
        # through that part of the disc end with a negative density
        shell = ShellProfile(curvature=lambda x: np.where(x[:, 0] > 0.3, 2.0, -1.0),
                             sign="negative")
        df = chars.defect_field(disc, shell, 64)
        assert df.sign_violations > 0

    def test_interface_flag_on_positive_rectangle(self, rect):
        df = chars.defect_field(rect, POS, 96)
        assert df.interface_flag
        dfe = chars.defect_field(Ellipse(2.0, 1.0), POS, 96)
        assert not dfe.interface_flag

    def test_resolution_guard(self, ellipse):
        with pytest.raises(ResolutionError):
            chars.defect_field(ellipse, POS, 16)


class TestMemory:
    def test_defect_field_never_holds_a_chart_table(self, disc):
        # the disc's one chart has n_lines lines of n samples; solved a
        # window at a time, the whole call (field included) stays below
        # what a table of all of them would take
        chars.defect_field(disc, NEG, 64)  # warm caches and lazy imports
        tracemalloc.start()
        try:
            df = chars.defect_field(disc, NEG, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        family = stable_lines(disc, df.airy, df.grid.h / 2.0, min_length=10.0 * df.grid.h)
        (lines,) = family.lines_by_chart
        table = len(lines) * chars.DEFAULT_SAMPLES_PER_LINE * 8
        assert peak < table, (peak, table)

    @staticmethod
    def _scipy_modules_after(body, arg):
        """The scipy modules loaded once ``body`` has run in a fresh process
        with ``arg`` as sys.argv[1]."""
        code = "import json, sys\n" + body + (
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code, arg], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    def test_negative_curvature_imports_no_scipy(self, request):
        # importing scipy.special alone adds about 26 MB of resident memory;
        # the K < 0 pipeline, in a fresh process, must not load any of scipy
        specs = [request.getfixturevalue(name).spec() for name, shell in CASES
                 if shell.sign == "negative"]
        body = (
            "from shellwrinkle.airy import dual_value\n"
            "from shellwrinkle.characteristics import defect_field, primal_value\n"
            "from shellwrinkle.geometry import make_domain\n"
            "from shellwrinkle.shell import ShellProfile\n"
            "neg = ShellProfile.constant(-1.0)\n"
            "for spec in json.loads(sys.argv[1]):\n"
            "    domain = make_domain(spec)\n"
            "    df = defect_field(domain, neg, 64)\n"
            "    primal_value(df)\n"
            "    dual_value(domain, neg, df.airy, 64)\n"
        )
        assert len(specs) == 6
        assert self._scipy_modules_after(body, json.dumps(specs)) == []

    def test_positive_curvature_imports_no_scipy(self, request):
        # the K > 0 pipeline, its admissibility check, the generic roof and
        # the CLI's dual on the ellipse load none of scipy either
        specs = [request.getfixturevalue(name).spec() for name, shell in CASES
                 if shell.sign == "positive"]
        body = (
            "import contextlib, io\n"
            "from shellwrinkle import cli\n"
            "from shellwrinkle.airy import check_admissible, convex_roof, dual_value\n"
            "from shellwrinkle.characteristics import (curlcurl_residual, defect_field,\n"
            "                                          primal_value)\n"
            "from shellwrinkle.geometry import make_domain\n"
            "from shellwrinkle.shell import ShellProfile\n"
            "pos = ShellProfile.constant(1.0)\n"
            "for spec in json.loads(sys.argv[1]):\n"
            "    domain = make_domain(spec)\n"
            "    df = defect_field(domain, pos, 64)\n"
            "    primal_value(df)\n"
            "    dual_value(domain, pos, df.airy, 64)\n"
            "    curlcurl_residual(df, pos, 4)\n"
            "    check_admissible(df.airy, domain, n_boundary=64, n_pairs=100)\n"
            "    s = domain.boundary_sample(64).position\n"
            "    convex_roof(domain, 0.5 * (s[0] + s[len(s) // 2]), 64)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['dual', '--shape', 'ellipse', '--a', '2', '--b-axis', '1',\n"
            "                     '--sign', 'positive', '--resolution', '64'])\n"
            "assert code == cli.EXIT_OK, code\n"
        )
        assert len(specs) == 6
        assert self._scipy_modules_after(body, json.dumps(specs)) == []


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
