"""Characteristic ODEs along stable lines and the assembled defect field.

Along each stable line the defect density solves

    -(1/(2 rho)) (rho lam)'' = K,

with two-point data (rho lam = 0 at both endpoints) when the line runs
boundary-to-boundary, and Cauchy data (rho lam = (rho lam)' = 0 at the
start) when it starts on the singular set or a focal point.  Both are
integrated by double cumulative trapezoid sums on n uniform nodes.  K is the
shell's own `ShellProfile.curvature`: a callable is sampled at the nodes; a
number needs no samples, because the double sum is linear and rho is affine,
so it is K h^2 (rho0 S1 + rho1 L Su) with S1 and Su the unit-step sums of 1
and of u = linspace(0, 1, n), computed once per n.  The defect measure is
taken absolutely continuous, mu = lam eta (x) eta on the cells.  That
misses the line density that an O/U interface carries at K > 0, where the
unconstrained chords end with a nonzero slope of lam; `curlcurl_residual`
shows it (9.1e-2 on the positive 2 x 1 rectangle at 128^2).

`defect_field` solves each chart's lines a window of LINE_WINDOW lines at
a time into one reused buffer and rasterizes the grid points bracketed by
the lines in the window while it is live, so its memory does not grow with
lines x samples.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .airy import AiryField, solve_dual
from .errors import DataError, ParameterError, ResolutionError
from .geometry import Domain
from .grids import MaskedGrid
from .rulings import POINT_BLOCK, LineGeometry, UDecomposition, locate
from .shell import ShellProfile
from .stablelines import stable_lines

DEFAULT_SAMPLES_PER_LINE = 2000
CAUCHY_SIGN_TOL = 1e-8
LINE_WINDOW = 256  # lines held at once by _rasterize_chart; at least 2


@dataclass
class LineSolution:
    """Density lam along one line, sampled at n uniform nodes t = L u with
    u = linspace(0, 1, n) and L the line length.

    Only lam is stored; the nodes ``t`` follow from the line and are
    rebuilt on demand.  When the solve is given an ``out`` row, lam is that
    row: `defect_field` passes rows of its line window, which the next
    window overwrites, so it keeps no solution.
    """

    line: LineGeometry
    lam: np.ndarray
    sign_violation: bool = False

    @property
    def t(self):
        return self.line.length * _unit_grid(len(self.lam))

    def lam_at(self, u):
        return np.interp(u, self.t, self.lam)


@functools.lru_cache(maxsize=4)
def _unit_grid(n):
    """linspace(0, 1, n), shared read-only by every line with n samples."""
    u = np.linspace(0.0, 1.0, n)
    u.flags.writeable = False
    return u


def _cumtrapz(y, h):
    """Cumulative trapezoid sum of samples y on a uniform step h."""
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(y[1:] + y[:-1], out=out[1:])
    out[1:] *= 0.5 * h
    return out


@functools.lru_cache(maxsize=4)
def _unit_sums(n):
    """(S1, Su): the unit-step double cumulative trapezoid sums of 1 and of
    u = linspace(0, 1, n), shared read-only by every constant-K line with n
    samples."""
    sums = tuple(_cumtrapz(_cumtrapz(y, 1.0), 1.0) for y in (np.ones(n), _unit_grid(n)))
    for a in sums:
        a.flags.writeable = False
    return sums


def _integrate_line(line: LineGeometry, K, n):
    """Nodes t, rho(t) and -2 I2, with I2 the double cumulative integral of
    rho K: the rho lam of Cauchy data at the start.

    A callable K is sampled at the line's points and summed twice; a
    number scales the cached unit-grid sums, rho K = K (rho0 + rho1 L u)
    giving I2 = K h^2 (rho0 S1 + rho1 L Su), the same sums to rounding.
    """
    L = line.length
    if L <= 0:
        raise ParameterError("degenerate line")
    t = L * _unit_grid(n)
    rho = line.rho_at(t)
    h = L / (n - 1)
    if callable(K):
        k = np.asarray(K(line.point_at(t)), dtype=float)
        p = _cumtrapz(_cumtrapz(rho * k, h), h)
        p *= -2.0
    else:
        s1, su = _unit_sums(n)
        kh2 = -2.0 * K * h * h
        p = s1 * (kh2 * line.rho0)
        p += su * (kh2 * line.rho1 * L)
    return t, rho, p


def solve_bvp(line: LineGeometry, K, n=DEFAULT_SAMPLES_PER_LINE, out=None) -> LineSolution:
    """Two-point problem: rho lam = 0 at both endpoints.

    (rho lam)(t) = -2 I2(t) + c t with I2 the double cumulative integral of
    rho K and c fixed by the right endpoint.  K is a number or a callable on
    (n, 2) points, as in `ShellProfile.curvature`; a number is integrated
    from cached unit-grid sums without sampling the line.  lam is written
    into ``out`` (an (n,) float array) when given, else into a new array.
    """
    t, rho, p = _integrate_line(line, K, n)
    # rho is affine, so it is positive along the line iff at both ends
    if not (rho[0] > 0 and rho[-1] > 0):
        raise DataError("rho must be positive along a two-point line")
    p += t * (-p[-1] / t[-1])
    lam = np.divide(p, rho, out=out)
    return LineSolution(line=line, lam=lam)


def solve_cauchy(line: LineGeometry, K, n=DEFAULT_SAMPLES_PER_LINE, out=None) -> LineSolution:
    """Cauchy problem from the start point: rho lam = (rho lam)' = 0 there.

    A density dipping below -CAUCHY_SIGN_TOL is reported as a curvature-sign
    violation: along Cauchy lines the density and K take opposite signs.
    K is a number or a callable, as in `solve_bvp`.  lam is written into
    ``out`` (an (n,) float array) when given, else into a new array.
    """
    if line.start_kind == "boundary":
        raise DataError("Cauchy data must start on the singular set or a focal point")
    t, rho, p = _integrate_line(line, K, n)
    # lam = 0 where rho vanishes: at a fan center lam ~ -K u^2 / 3 -> 0
    lam = np.empty(n) if out is None else out
    lam.fill(0.0)
    np.divide(p, rho, out=lam, where=rho > 0)
    violation = bool(lam.min() < -CAUCHY_SIGN_TOL)
    return LineSolution(line=line, lam=lam, sign_violation=violation)


def solve_line(line: LineGeometry, K, data_kind, n=DEFAULT_SAMPLES_PER_LINE, out=None):
    """`solve_bvp` when ``data_kind`` is "bvp", else `solve_cauchy`; K is a
    number or a callable, as `ShellProfile.curvature` holds it."""
    if data_kind == "bvp":
        return solve_bvp(line, K, n, out)
    return solve_cauchy(line, K, n, out)


@dataclass
class DefectField:
    """Rank-one defect density on a masked grid.

    ``uncovered`` marks the masked cells that no chart holds (``locate``
    returns -1); they carry lam = 0 and mu = 0.  ``sign_violations`` counts
    the Cauchy lines whose density took the sign of K (`solve_cauchy`).
    The field keeps the grid values only; the per-line densities they were
    interpolated from are not kept.
    """

    domain: Domain
    grid: MaskedGrid
    lam: np.ndarray  # (nx, ny)
    eta: np.ndarray  # (nx, ny, 2); NaN where the field is rank two
    mu: np.ndarray  # (nx, ny, 3): components 11, 12, 22
    airy: AiryField
    uncovered: np.ndarray
    interface_flag: bool = False
    sign_violations: int = 0

    def primal_value(self):
        return primal_value(self)

    def min_lambda(self):
        return float(np.min(self.lam[self.grid.mask]))


def _rasterize_chart(lines, K, data_kind, idx, s, u, L):
    """Solve a chart's lines and return lam at its points ``idx``, whose
    chart coordinates are (s, u, L)[idx], a mask of points farther than 1.5
    station steps from any solved line, and the number of lines whose solve
    reported a sign violation.

    ``lines`` are sorted by station.  They are solved LINE_WINDOW at a time
    into one reused (LINE_WINDOW, n_t) window, and each point is
    interpolated while both lines that bracket it are in the window; the
    window's last line is carried over as the next window's first, so every
    line is solved once and no table of all the chart's lines is built.
    Interpolation is linear in the station index and in the normalized line
    coordinate.  Far points (beyond dropped short lines near degenerate
    chart ends) get clamped extrapolations, which the caller replaces.
    Points are taken POINT_BLOCK at a time, so the interpolation's
    temporaries stay small.
    """
    n = len(lines)
    if n == 0:
        return np.zeros(len(idx)), np.ones(len(idx), dtype=bool), 0
    stations = np.array([ln.s for ln in lines])
    step = np.median(np.diff(stations)) if n > 1 else None
    # point i lies between stations j[i] - 1 and j[i]; it waits for the
    # window that holds line min(j[i], n - 1)
    j = np.searchsorted(stations, s[idx])
    order = np.argsort(j, kind="stable")
    j_sorted = j[order]
    lam = np.empty(len(idx))
    far = np.zeros(len(idx), dtype=bool)
    window = np.empty((min(LINE_WINDOW, n), DEFAULT_SAMPLES_PER_LINE))
    lo = hi = start = violations = 0  # the window holds lines lo .. hi - 1
    while hi < n:
        if hi:
            window[0] = window[hi - 1 - lo]
            lo = hi - 1
        top = min(lo + len(window), n)
        for k in range(hi, top):
            violations += solve_line(lines[k], K, data_kind, out=window[k - lo]).sign_violation
        hi = top
        stop = len(order) if hi == n else int(np.searchsorted(j_sorted, hi))
        for a in range(start, stop, POINT_BLOCK):
            p = order[a:min(a + POINT_BLOCK, stop)]
            q = idx[p]
            lam[p], far[p] = _interpolate_lines(stations, window, lo, step, j[p], s[q], u[q], L[q])
        start = stop
    return lam, far, violations


def _interpolate_lines(stations, window, lo, step, j, s, u, L):
    """``_rasterize_chart`` on one block of points whose bracketing lines,
    stations j - 1 and j (clamped), are rows of ``window`` counted from
    line ``lo``; ``step`` is the median station step, None for a single
    line."""
    n_t = window.shape[1]
    tau = np.clip(u / np.maximum(L, 1e-300), 0.0, 1.0)
    # bracket stations
    j0 = np.clip(j - 1, 0, len(stations) - 1)
    j1 = np.clip(j, 0, len(stations) - 1)
    s0 = stations[j0]
    s1 = stations[j1]
    w1 = np.where(j1 > j0, (s - s0) / np.where(j1 > j0, s1 - s0, 1.0), 0.0)
    w1 = np.clip(w1, 0.0, 1.0)
    # fractional index along each line's uniform parameter grid
    fi = tau * (n_t - 1)
    i0 = np.clip(np.floor(fi).astype(int), 0, n_t - 2)
    wi = fi - i0
    r0, r1 = j0 - lo, j1 - lo
    lam0 = window[r0, i0] * (1 - wi) + window[r0, i0 + 1] * wi
    lam1 = window[r1, i0] * (1 - wi) + window[r1, i0 + 1] * wi
    lam = (1 - w1) * lam0 + w1 * lam1
    if step is None:
        return lam, False
    # beyond the outermost solved lines (dropped short lines) by more than
    # 1e-12 of their span, or farther than 1.5 steps from any station: the
    # interpolation is a clamp
    tol = 1e-12 * (stations[-1] - stations[0])
    far = (s < stations[0] - tol) | (s > stations[-1] + tol)
    far |= np.minimum(np.abs(s - s0), np.abs(s1 - s)) > 1.5 * step
    return lam, far


def _frozen_k_fill(chart, k, s, u, L):
    """lam on each point's own line with K frozen at the point's value.

    With constant K the line problem has a closed form: rho lam =
    -K u^2 (rho0 + rho1 u/3) with Cauchy data, and K u (rho0 (L - u) +
    rho1 (L^2 - u^2)/3) on two-point lines; lam = 0 where rho = 0 (a fan
    center).  The error is O(L^3 Lip K), so it is exact on constant-K
    shells.
    """
    rho0, rho1 = chart.rho(s)
    u = np.clip(u, 0.0, L)
    if chart.data_kind == "bvp":
        rho_lam = k * u * (rho0 * (L - u) + rho1 * (L**2 - u**2) / 3)
    else:
        rho_lam = -k * u**2 * (rho0 + rho1 * u / 3)
    rho = rho0 + rho1 * u
    lam = np.zeros(len(s))
    np.divide(rho_lam, rho, out=lam, where=rho > 0)
    return lam


def defect_field(domain: Domain, shell: ShellProfile, resolution=256,
                 u_decomposition: Optional[UDecomposition] = None) -> DefectField:
    """Full pipeline: dual potential -> stable lines -> per-line ODE ->
    grid density.

    The line count tracks the grid (about two lines per cell) so the
    rasterization error refines with the quadrature error.  Every masked
    cell is evaluated at its ``grid.eval_points()`` point: between solved
    lines lam is interpolated, and beyond them (lines shorter than 10 h are
    dropped) it takes the frozen-K closed form on the cell's own line.
    """
    if resolution < 32:
        raise ResolutionError("resolution below 32")
    deco = u_decomposition or UDecomposition()
    if deco.kind == "mixture":
        return _mixture_field(domain, shell, resolution, deco)
    airy = solve_dual(domain, shell, deco)
    grid = MaskedGrid(domain, resolution)
    family = stable_lines(domain, airy, grid.h / 2.0, min_length=10.0 * grid.h)

    pts = grid.eval_points()
    lam_m = np.zeros(len(pts))
    which, s, u, L, eta_m = locate(family.charts, pts)
    interface_flag = False
    sign_violations = 0
    for ci, (chart, lines) in enumerate(zip(family.charts, family.lines_by_chart)):
        if any(ln.start_kind == "interface" or ln.end_kind == "interface" for ln in lines):
            interface_flag = True
        idx = np.flatnonzero(which == ci)
        lam, far, bad = _rasterize_chart(lines, shell.curvature, chart.data_kind, idx, s, u, L)
        sign_violations += bad
        if np.any(far):
            f = idx[far]
            lam[far] = _frozen_k_fill(chart, shell.k(pts[f]), s[f], u[f], L[f])
        lam_m[idx] = lam

    lam = np.zeros((grid.nx, grid.ny))
    lam[grid.mask] = lam_m
    eta = np.full((grid.nx, grid.ny, 2), np.nan)
    eta[grid.mask] = eta_m
    mu = np.zeros((grid.nx, grid.ny, 3))
    with np.errstate(invalid="ignore"):
        mu[..., 0] = lam * eta[..., 0] ** 2
        mu[..., 1] = lam * eta[..., 0] * eta[..., 1]
        mu[..., 2] = lam * eta[..., 1] ** 2
    mu[np.isnan(mu)] = 0.0
    uncovered = np.zeros((grid.nx, grid.ny), dtype=bool)
    uncovered[grid.mask] = which < 0
    return DefectField(
        domain=domain, grid=grid, lam=lam, eta=eta, mu=mu,
        airy=airy, uncovered=uncovered, interface_flag=interface_flag,
        sign_violations=sign_violations,
    )


def _mixture_field(domain, shell, resolution, deco):
    """Convex combination of two parallel-chord selections on the
    unconstrained set (rank-two there; constraint satisfaction only)."""
    d1 = UDecomposition(kind="parallel", angle=deco.angle)
    d2 = UDecomposition(kind="parallel", angle=deco.angle2)
    f1 = defect_field(domain, shell, resolution, d1)
    f2 = defect_field(domain, shell, resolution, d2)
    w = deco.weight
    mu = w * f1.mu + (1 - w) * f2.mu
    lam = mu[..., 0] + mu[..., 2]  # trace
    eta = np.where(
        np.isclose(f1.mu, f2.mu, atol=1e-14).all(axis=-1, keepdims=True),
        f1.eta[..., :],
        np.nan,
    )
    f1.mu = mu
    f1.lam = lam
    f1.eta = eta
    f1.sign_violations += f2.sign_violations
    return f1


def primal_value(defect: DefectField):
    """Half the integral of the density (trace of the rank-one measure)
    against the grid's cut-cell weights."""
    trace = defect.mu[..., 0] + defect.mu[..., 2]
    return 0.5 * float(np.sum(defect.grid.weights * trace))


def tensor_bump(center, radius):
    """C^2 tensor-product bump psi = g(u) g(v), g(t) = (1 - t^2)_+^3,
    u = (x1-c1)/r, v = (x2-c2)/r, with closed-form second derivatives.

    g and g' vanish to second order at |t| = 1, so the Hessian is continuous
    across the support edge and midpoint quadrature stays second order.
    ``psi.support`` is (center, radius): psi and its derivatives vanish
    outside the open square |x - center|_inf < radius.
    """
    c = np.asarray(center, dtype=float)
    r = float(radius)

    def g(t):
        q = 1.0 - t * t
        return np.where(q > 0, q**3, 0.0)

    def gp(t):
        q = 1.0 - t * t
        return np.where(q > 0, -6.0 * t * q * q, 0.0)

    def gpp(t):
        q = 1.0 - t * t
        return np.where(q > 0, -6.0 * q * q + 24.0 * t * t * q, 0.0)

    def psi(x):
        u = (x[:, 0] - c[0]) / r
        v = (x[:, 1] - c[1]) / r
        return g(u) * g(v)

    def hess(x):
        """(psi_11, psi_12, psi_22)."""
        u = (x[:, 0] - c[0]) / r
        v = (x[:, 1] - c[1]) / r
        h11 = gpp(u) * g(v) / r**2
        h22 = g(u) * gpp(v) / r**2
        h12 = gp(u) * gp(v) / r**2
        return h11, h12, h22

    psi.support = (c, r)
    return psi, hess


def interior_bumps(domain: Domain, test_count: int):
    """A test_count x test_count lattice of C^2 bumps, radius two lattice
    steps, all supported strictly inside the domain.

    Returns a list of ``(psi, hess)`` pairs from `tensor_bump`: ``psi(x)``
    is the bump's value and ``hess(x)`` its (psi_11, psi_12, psi_22), both
    on an (n, 2) point array; ``psi.support`` is (center, radius).

    The lattice extent is the largest centered scaling of the bounding box
    for which every bump support stays interior (bisection on the scale).
    """
    if test_count < 2:
        raise ParameterError("test_count must be at least 2")
    (x0, y0), (x1, y1) = domain.bbox()
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    hx, hy = 0.5 * (x1 - x0), 0.5 * (y1 - y0)

    def build(scale):
        xs = cx + scale * hx * np.linspace(-1, 1, test_count)
        ys = cy + scale * hy * np.linspace(-1, 1, test_count)
        step = min(
            scale * hx * 2 / (test_count - 1), scale * hy * 2 / (test_count - 1)
        )
        r = 2.0 * step
        centers = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        return centers, r

    def all_interior(scale):
        centers, r = build(scale)
        if not np.all(domain.contains(centers)):
            return False
        d = domain.boundary_distance(centers)
        # square support: the corner sits sqrt(2) r from the center
        return bool(np.all(d > np.sqrt(2.0) * r * 1.02))

    lo, hi = 0.05, 0.95
    for _ in range(50):
        scale = 0.5 * (lo + hi)
        if all_interior(scale):
            lo = scale
        else:
            hi = scale
    centers, r = build(lo)
    return [tensor_bump(c, r) for c in centers]


def _open_window(axis, c, r):
    """Slice of the sorted ``axis`` values strictly inside (c - r, c + r)."""
    return slice(np.searchsorted(axis, c - r, "right"), np.searchsorted(axis, c + r, "left"))


def curlcurl_residual(defect: DefectField, shell: ShellProfile, test_count=8):
    """Max over interior bumps of |weak-form constraint residual|.

    For each bump psi the constraint reads
        int <-(1/2) rot-Hessian(psi), mu> = int psi K,
    with the rotated Hessian evaluated in closed form.  Each bump is
    evaluated only on its support window, the cells whose centers lie in its
    open support square (found by bisection on the grid axes); every term
    dropped outside it is exactly zero.
    """
    if test_count < 2:
        raise ParameterError("test_count must be at least 2")
    grid = defect.grid
    xs, ys = grid.X[:, 0], grid.Y[0, :]
    k_vals = shell.k(grid.points()).reshape(grid.X.shape)
    worst = 0.0
    for psi, hess in interior_bumps(defect.domain, test_count):
        (c1, c2), r = psi.support
        win = (_open_window(xs, c1, r), _open_window(ys, c2, r))
        pts = np.stack([grid.X[win].ravel(), grid.Y[win].ravel()], axis=1)
        w = grid.weights[win].ravel()
        mu = defect.mu[win].reshape(-1, 3)
        h11, h12, h22 = hess(pts)
        # <rot-Hessian psi, mu> = psi_22 mu_11 - 2 psi_12 mu_12 + psi_11 mu_22
        lhs = np.sum(w * (-0.5) * (h22 * mu[:, 0] - 2 * h12 * mu[:, 1] + h11 * mu[:, 2]))
        rhs = np.sum(w * psi(pts) * k_vals[win].ravel())
        worst = max(worst, abs(lhs - rhs))
    return worst
