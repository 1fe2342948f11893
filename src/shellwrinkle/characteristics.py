"""Characteristic ODEs along stable lines and the assembled defect field.

Along each stable line the defect density solves

    -(1/(2 rho)) (rho lam)'' = K,

with two-point data (rho lam = 0 at both endpoints) when the line runs
boundary-to-boundary, and Cauchy data (rho lam = (rho lam)' = 0 at the
start) when it starts on the singular set or a focal point.  Both are
integrated by double cumulative trapezoid sums; the singular part of the
density is identically zero by construction and the weak-form residual
check is the safeguard that would expose that choice if it were wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .airy import AiryField, solve_dual
from .errors import DataError, ParameterError, ResolutionError
from .geometry import Domain
from .grids import MaskedGrid
from .rulings import LineGeometry, UDecomposition, locate
from .shell import ShellProfile
from .stablelines import Partition, StableLineFamily, partition, stable_lines

DEFAULT_SAMPLES_PER_LINE = 2000
NEGATIVITY_TOL = 1e-10
CAUCHY_SIGN_TOL = 1e-8


@dataclass
class LineSolution:
    """Density samples along one line; lam_sing is identically zero."""

    line: LineGeometry
    t: np.ndarray
    lam: np.ndarray
    rho_lam: np.ndarray
    data_kind: str  # 'two_point_bvp' | 'cauchy'
    sign_violation: bool = False

    def lam_at(self, u):
        return np.interp(u, self.t, self.lam)

    @property
    def lam_sing(self):
        return 0.0


def _cumtrapz(y, t):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def _sample_line(line: LineGeometry, K, n):
    if line.length <= 0:
        raise ParameterError("degenerate line")
    t = np.linspace(0.0, line.length, n)
    pos = line.point_at(t)
    rho = line.rho_at(t)
    k = np.asarray(K(pos), dtype=float)
    return t, rho, k


def solve_bvp(line: LineGeometry, K, n=DEFAULT_SAMPLES_PER_LINE) -> LineSolution:
    """Two-point problem: rho lam = 0 at both endpoints.

    (rho lam)(t) = -2 I2(t) + c t with I2 the double cumulative integral of
    rho K and c fixed by the right endpoint.
    """
    t, rho, k = _sample_line(line, K, n)
    if np.any(rho <= 0):
        raise DataError("rho must be positive along a two-point line")
    i1 = _cumtrapz(rho * k, t)
    i2 = _cumtrapz(i1, t)
    c = 2.0 * i2[-1] / t[-1]
    rho_lam = -2.0 * i2 + c * t
    lam = rho_lam / rho
    return LineSolution(line=line, t=t, lam=lam, rho_lam=rho_lam, data_kind="two_point_bvp")


def solve_cauchy(line: LineGeometry, K, n=DEFAULT_SAMPLES_PER_LINE) -> LineSolution:
    """Cauchy problem from the start point: rho lam = (rho lam)' = 0 there.

    A density dipping below -CAUCHY_SIGN_TOL is reported as a curvature-sign
    violation: along Cauchy lines the density and K take opposite signs.
    """
    if line.start_kind == "boundary":
        raise DataError("Cauchy data must start on the singular set or a focal point")
    t, rho, k = _sample_line(line, K, n)
    i1 = _cumtrapz(rho * k, t)
    i2 = _cumtrapz(i1, t)
    rho_lam = -2.0 * i2
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(rho > 0, rho_lam / np.where(rho > 0, rho, 1.0), 0.0)
    if rho[0] == 0.0:
        lam[0] = 0.0  # fan center: lam ~ -K u^2 / 3 -> 0
    violation = bool(np.min(lam) < -CAUCHY_SIGN_TOL)
    return LineSolution(
        line=line, t=t, lam=lam, rho_lam=rho_lam,
        data_kind="cauchy", sign_violation=violation,
    )


def solve_line(line: LineGeometry, K, data_kind, n=DEFAULT_SAMPLES_PER_LINE):
    if data_kind == "bvp":
        return solve_bvp(line, K, n)
    return solve_cauchy(line, K, n)


@dataclass
class DefectField:
    """Rank-one defect density on a masked grid, plus per-line solutions."""

    domain: Domain
    shell: ShellProfile
    grid: MaskedGrid
    lam: np.ndarray  # (nx, ny)
    eta: np.ndarray  # (nx, ny, 2); NaN where the field is rank two
    mu: np.ndarray  # (nx, ny, 3): components 11, 12, 22
    line_solutions: list
    family: StableLineFamily
    airy: AiryField
    part: Partition
    uncovered: np.ndarray
    interface_flag: bool = False
    primal: Optional[float] = None

    def primal_value(self):
        if self.primal is None:
            self.primal = primal_value(self)
        return self.primal

    def min_lambda(self):
        return float(np.min(self.lam[self.grid.mask]))


def _rasterize_chart(solutions, s, u, L):
    """lam at points with chart coordinates (s, u, L), and a mask of points
    farther than 1.5 station steps from any solved line.

    Per-line solutions share a uniform parameter; interpolation is linear in
    the station index and in the normalized line coordinate.  Far points
    (dropped short lines near degenerate chart ends) get clamped
    extrapolations.
    """
    if len(solutions) == 0:
        return np.zeros(len(s)), np.ones(len(s), dtype=bool)
    stations = np.array([sol.line.s for sol in solutions])
    lam_tab = np.stack([sol.lam for sol in solutions])  # (n_lines, n_t)
    n_t = lam_tab.shape[1]
    tau = np.clip(u / np.maximum(L, 1e-300), 0.0, 1.0)
    # bracket stations
    j = np.searchsorted(stations, s)
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
    lam0 = lam_tab[j0, i0] * (1 - wi) + lam_tab[j0, i0 + 1] * wi
    lam1 = lam_tab[j1, i0] * (1 - wi) + lam_tab[j1, i0 + 1] * wi
    lam = (1 - w1) * lam0 + w1 * lam1
    if len(stations) > 1:
        step = np.median(np.diff(stations))
        # beyond the outermost solved lines (dropped short lines), or farther
        # than 1.5 steps from any station: the interpolation is a clamp
        far = (s < stations[0] - 1e-12) | (s > stations[-1] + 1e-12)
        far |= np.minimum(np.abs(s - s0), np.abs(s1 - s)) > 1.5 * step
    else:
        far = np.zeros(len(s), dtype=bool)
    return lam, far


def defect_field(domain: Domain, shell: ShellProfile, resolution=256,
                 u_decomposition: Optional[UDecomposition] = None,
                 line_spacing: Optional[float] = None,
                 samples_per_line: int = DEFAULT_SAMPLES_PER_LINE,
                 airy: Optional[AiryField] = None) -> DefectField:
    """Full pipeline: dual potential -> partition -> stable lines ->
    per-line ODE -> grid density.

    The default line count tracks the grid (about two lines per cell) so the
    rasterization error refines with the quadrature error.
    """
    if resolution < 32:
        raise ResolutionError("resolution below 32")
    deco = u_decomposition or UDecomposition()
    if deco.kind == "mixture":
        return _mixture_field(domain, shell, resolution, deco, line_spacing, samples_per_line)
    if airy is None:
        airy = solve_dual(domain, shell, deco)
    grid = MaskedGrid(domain, resolution)
    if line_spacing is None:
        line_spacing = grid.h / 2.0
    part = partition(domain, airy)
    family = stable_lines(domain, airy, line_spacing, min_length=10.0 * grid.h)

    solutions_by_chart = []
    interface_flag = False
    for chart, chart_lines in zip(family.charts, family.lines_by_chart):
        kind = chart.data_kind
        sols = [solve_line(ln, shell.k, kind, samples_per_line) for ln in chart_lines]
        solutions_by_chart.append(sols)
        if any(ln.start_kind == "interface" or ln.end_kind == "interface" for ln in chart_lines):
            interface_flag = True

    pts = grid.points()
    n_pts = len(pts)
    lam_flat = np.zeros(n_pts)
    eta_flat = np.full((n_pts, 2), np.nan)
    inside = grid.mask.ravel()
    # project boundary-cell centers that fall outside back onto the boundary
    eval_pts = pts.copy()
    out_centers = inside & ~np.asarray(domain.contains(pts, tol=0.0))
    if np.any(out_centers):
        eval_pts[out_centers] = np.atleast_2d(
            domain.nearest_boundary_point(pts[out_centers])
        )
    which = np.full(n_pts, -1)
    which[inside] = locate(family.charts, eval_pts[inside])
    uncovered = inside & (which < 0)
    for ci, (chart, sols) in enumerate(zip(family.charts, solutions_by_chart)):
        idx = np.flatnonzero(which == ci)
        if len(idx) == 0:
            continue
        x = eval_pts[idx]
        s, u, L = chart.coords(x)
        lam, far = _rasterize_chart(sols, s, u, L)
        eta_flat[idx] = chart.eta_at(x)
        # near degenerate chart ends (dropped short lines), the local closed
        # form of the line problem with frozen K is exact to O(L^3 Lip K):
        # use it for unit-rho charts instead of extrapolating from the last
        # solved line; elsewhere the far points stay uncovered
        probe = chart.line_at(0.5 * sum(chart.s_range()))
        if abs(probe.rho1) > 1e-13:
            uncovered[idx[far]] = True
        elif np.any(far):
            k_loc = shell.k(x[far])
            uf, Lf = np.maximum(u[far], 0.0), L[far]
            if chart.data_kind == "bvp":
                lam[far] = k_loc * uf * np.maximum(Lf - uf, 0.0)
            else:
                lam[far] = -k_loc * uf**2
        lam_flat[idx] = lam

    lam = lam_flat.reshape(grid.nx, grid.ny)
    eta = eta_flat.reshape(grid.nx, grid.ny, 2)
    mu = np.zeros((grid.nx, grid.ny, 3))
    with np.errstate(invalid="ignore"):
        mu[..., 0] = lam * eta[..., 0] ** 2
        mu[..., 1] = lam * eta[..., 0] * eta[..., 1]
        mu[..., 2] = lam * eta[..., 1] ** 2
    mu[np.isnan(mu)] = 0.0
    line_solutions = [s for sols in solutions_by_chart for s in sols]
    return DefectField(
        domain=domain, shell=shell, grid=grid, lam=lam, eta=eta, mu=mu,
        line_solutions=line_solutions, family=family, airy=airy, part=part,
        uncovered=uncovered.reshape(grid.nx, grid.ny),
        interface_flag=interface_flag,
    )


def _mixture_field(domain, shell, resolution, deco, line_spacing, samples_per_line):
    """Convex combination of two parallel-chord selections on the
    unconstrained set (rank-two there; constraint satisfaction only)."""
    d1 = UDecomposition(kind="parallel", angle=deco.angle)
    d2 = UDecomposition(kind="parallel", angle=deco.angle2)
    f1 = defect_field(domain, shell, resolution, d1, line_spacing, samples_per_line)
    f2 = defect_field(domain, shell, resolution, d2, line_spacing, samples_per_line)
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
    f1.primal = None
    return f1


def primal_value(defect: DefectField):
    """Half the integral of the density (trace of the rank-one measure).

    Uncovered cells (beyond 1.5 line spacings from any solved line) are
    excluded, with an area renormalization over the covered part.
    """
    trace = defect.mu[..., 0] + defect.mu[..., 2]
    w = defect.grid.weights.copy()
    w[defect.uncovered] = 0.0
    covered_area = float(w.sum())
    total_area = defect.grid.covered_area()
    if covered_area <= 0:
        return 0.0
    raw = float(np.sum(w * trace))
    return 0.5 * raw * (total_area / covered_area)


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
        x = np.atleast_2d(x)
        u = (x[:, 0] - c[0]) / r
        v = (x[:, 1] - c[1]) / r
        return g(u) * g(v)

    def hess(x):
        """(psi_11, psi_12, psi_22)."""
        x = np.atleast_2d(x)
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
        d = np.atleast_1d(domain.boundary_distance(centers))
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
