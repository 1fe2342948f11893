"""Extremal convex potentials and the dual objective.

The dual problem maximizes int (phi - |x|^2/2) K over convex extensions of
|x|^2/2 into the domain.  For one-signed K it is solved by the largest
(K >= 0) or smallest (K <= 0) convex extension:

    phi_minus(x) = |x|^2/2 - d(x)^2/2            (d = boundary distance)
    phi_plus(x)  = convex interpolation of |y|^2/2 along boundary chords,
                   affine on unconstrained patches

Both are evaluated in closed form per catalog shape.  A generic verifier
minimizes convex combinations of |y|^2/2 over boundary samples: the lower
convex hull of the lifted samples, read off their Delaunay triangulation.
It reproduces the closed forms for any shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AmbiguityError, DomainError, ResolutionError
from .geometry import Domain, rot90
from .grids import MaskedGrid
from .rulings import UDecomposition, charts_for, locate
from .shell import ShellProfile


def _pts(x):
    x = np.asarray(x, dtype=float)
    return (x[None, :], True) if x.ndim == 1 else (x, False)


def phi_minus(domain: Domain, x):
    """Smallest convex extension of |x|^2/2 into the domain."""
    pts, single = _pts(x)
    d = np.atleast_1d(domain.boundary_distance(pts))
    vals = 0.5 * np.sum(pts * pts, axis=1) - 0.5 * d * d
    return float(vals[0]) if single else vals


@dataclass
class AiryField:
    """An extremal dual potential with its Hessian structure.

    sign: +1 for the largest extension, -1 for the smallest.
    charts: ruling charts (shared with the stable-line machinery).
    """

    sign: int
    domain: Domain
    charts: list
    sigma: Optional[dict] = None
    decomposition: UDecomposition = field(default_factory=UDecomposition)

    def _by_chart(self, pts):
        """(chart, indices into pts) for each chart that holds some point."""
        which = locate(self.charts, pts)
        for i, chart in enumerate(self.charts):
            idx = np.flatnonzero(which == i)
            if len(idx):
                yield chart, idx

    # -- potential values ------------------------------------------------
    def phi(self, x):
        pts, single = _pts(x)
        if self.sign < 0:
            vals = phi_minus(self.domain, pts)
            return float(np.atleast_1d(vals)[0]) if single else vals
        vals = self._phi_plus(pts)
        return float(vals[0]) if single else vals

    def _phi_plus(self, pts):
        inside = np.atleast_1d(self.domain.contains(pts, tol=1e-12))
        if not np.all(inside):
            raise DomainError("point outside domain")
        vals = np.full(len(pts), np.nan)
        for chart, idx in self._by_chart(pts):
            if chart.label == "O":
                vals[idx] = self._interp_along_rulings(chart, pts[idx])
            else:
                c, g = chart.clip.affine_roof()
                vals[idx] = c + pts[idx] @ g
        return vals

    @staticmethod
    def _interp_along_rulings(chart, pts):
        """phi at pts = convex interpolation of |y|^2/2 along the ruling."""
        s, u, L = chart.coords(pts)
        y1, y2 = chart.endpoints(pts)
        theta = np.clip(u / np.maximum(L, 1e-300), 0.0, 1.0)
        return (1 - theta) * 0.5 * np.sum(y1 * y1, axis=1) + theta * 0.5 * np.sum(y2 * y2, axis=1)

    # -- gradient ----------------------------------------------------------
    def grad_phi(self, x):
        pts, single = _pts(x)
        if self.sign < 0:
            d = np.atleast_1d(self.domain.boundary_distance(pts))
            y = np.atleast_2d(self.domain.nearest_boundary_point(pts))
            g = pts - y
            n = np.hypot(g[:, 0], g[:, 1])
            n = np.where(n < 1e-300, 1.0, n)
            grad = pts - d[:, None] * (g / n[:, None])
            return grad[0] if single else grad
        grad = self._grad_plus(pts)
        return grad[0] if single else grad

    def _grad_plus(self, pts):
        out = np.full_like(pts, np.nan)
        for chart, idx in self._by_chart(pts):
            if chart.label == "O":
                out[idx] = self._grad_along_rulings(chart, pts[idx])
            else:
                out[idx] = chart.clip.affine_roof()[1]
        return out

    def _grad_along_rulings(self, chart, pts):
        """grad phi is constant along each ruling; recover it from the
        boundary trace.  At the ruling's endpoints y1, y2 on the boundary,
        the tangential derivative of phi equals y . tau, and the derivative
        along the ruling equals the affine slope.  Two directions -> solve."""
        y1, y2 = chart.endpoints(pts)
        L = np.hypot(*(y2 - y1).T)
        ldir = (y2 - y1) / L[:, None]
        slope = (0.5 * np.sum(y2 * y2, axis=1) - 0.5 * np.sum(y1 * y1, axis=1)) / L
        # tangent of the domain boundary at y2 (smooth points of the catalog)
        nu = self.domain._outward_normal_at(np.atleast_2d(y2))
        tau = rot90(nu)
        tang = np.sum(y2 * tau, axis=1)
        # solve [ldir; tau] grad = [slope; tang] row-wise
        det = ldir[:, 0] * tau[:, 1] - ldir[:, 1] * tau[:, 0]
        det = np.where(np.abs(det) < 1e-14, np.nan, det)
        gx = (slope * tau[:, 1] - tang * ldir[:, 1]) / det
        gy = (tang * ldir[:, 0] - slope * tau[:, 0]) / det
        return np.stack([gx, gy], axis=1)

    # -- Hessian structure -------------------------------------------------
    def hessian_ac(self, x):
        """(zeta, eta, rank) of the absolutely continuous Hessian at x."""
        pts, single = _pts(x)
        zeta = np.zeros(len(pts))
        eta = np.full_like(pts, np.nan)
        rank = np.zeros(len(pts), dtype=int)
        for chart, idx in self._by_chart(pts):
            z = chart.zeta_at(pts[idx])
            if z is not None:
                zeta[idx] = z
                eta[idx] = chart.eta_at(pts[idx])
                rank[idx] = 1
        if single:
            return float(zeta[0]), eta[0], int(rank[0])
        return zeta, eta, rank

    def hessian_singular(self):
        """Singular Hessian curves (smallest extension only): polylines with
        the transverse density d(x) |jump of grad d| sampled along them."""
        if self.sign > 0 or self.sigma is None:
            return []
        curves = []
        axis = self.domain.medial_axis()
        for line in axis.polylines(arc_samples=257):
            mids = 0.5 * (line[:-1] + line[1:])
            dens = self._sigma_density(mids)
            curves.append({"points": line, "density": dens})
        return curves

    def _sigma_density(self, pts):
        """d * |[grad d]| across the medial set, from the two-sided feet."""
        pts = np.atleast_2d(pts)
        d = np.atleast_1d(self.domain.boundary_distance(pts))
        jump = np.empty(len(pts))
        h = 1e-6 * self.domain.diameter()
        for i, p in enumerate(pts):
            # probe the exit gradient slightly off the axis on both sides
            best = None
            for probe in (np.array([h, 0.0]), np.array([0.0, h])):
                try:
                    g1 = self.domain.quickest_exit_gradient(p + probe)
                    g2 = self.domain.quickest_exit_gradient(p - probe)
                except (AmbiguityError, DomainError):
                    continue
                j = np.hypot(*(g1 - g2))
                if best is None or j > best:
                    best = j
            jump[i] = best if best is not None else 0.0
        return d * jump

    def dual_objective_density(self, pts):
        """phi - |x|^2/2 at pts (the dual integrand against K)."""
        pts = np.atleast_2d(pts)
        return self.phi(pts) - 0.5 * np.sum(pts * pts, axis=1)


def solve_dual(domain: Domain, shell: ShellProfile,
               decomposition: Optional[UDecomposition] = None) -> AiryField:
    """Extremal potential for the declared curvature sign.

    positive or zero -> largest extension; negative -> smallest.
    """
    sign = {"positive": 1, "zero": 1, "negative": -1}[shell.sign]
    charts, meta = charts_for(domain, sign, decomposition)
    return AiryField(
        sign=sign,
        domain=domain,
        charts=charts,
        sigma=meta["sigma"],
        decomposition=decomposition or UDecomposition(),
    )


def phi_plus(domain: Domain, x):
    """Largest convex extension of |x|^2/2 (closed form per catalog shape)."""
    field_ = solve_dual(domain, ShellProfile(curvature=0.0, sign="zero"))
    return field_.phi(x)


def dual_value(domain: Domain, shell: ShellProfile, airy: AiryField, resolution=256):
    """Quadrature of (phi - |x|^2/2) K over the domain.

    Boundary cells with outside centers are projected onto the boundary,
    where the integrand vanishes by the trace condition; the projection
    error is second order, matching the quadrature rule.
    """
    grid = MaskedGrid(domain, resolution)
    pts = grid.masked_points()
    outside = ~np.atleast_1d(domain.contains(pts, tol=0.0))
    if np.any(outside):
        pts = pts.copy()
        pts[outside] = np.atleast_2d(domain.nearest_boundary_point(pts[outside]))
    dens = airy.dual_objective_density(pts) * shell.k(pts)
    return grid.integrate(dens)


@dataclass(frozen=True)
class AdmissibilityReport:
    trace_max_violation: float
    convexity_max_violation: float
    jump_min: float

    def ok(self, tol):
        return (
            self.trace_max_violation <= tol
            and self.convexity_max_violation <= tol
            and self.jump_min >= -tol
        )


def check_admissible(airy: AiryField, domain: Domain, tol=1e-8,
                     n_boundary=512, n_pairs=2000, seed=0) -> AdmissibilityReport:
    """Verify boundary trace, midpoint convexity, and the sign of the
    normal jump nu . (x - grad phi) at boundary samples away from corners."""
    samples = domain.boundary_sample(n_boundary)
    delta = domain.corner_delta()
    corners = domain.corner_points()

    def far_from_corners(p):
        if len(corners) == 0:
            return True
        return np.min(np.hypot(*(corners - p).T)) > delta

    trace_viol = 0.0
    jump_min = np.inf
    for bp in samples:
        if bp.corner or not far_from_corners(bp.position):
            continue
        val = airy.phi(bp.position)
        trace_viol = max(trace_viol, abs(val - 0.5 * bp.position @ bp.position))
        # pull slightly inside to evaluate the interior gradient trace
        p_in = bp.position - 1e-9 * domain.diameter() * bp.nu
        if not domain.contains(p_in, tol=1e-12):
            p_in = bp.position
        g = airy.grad_phi(p_in)
        jump_min = min(jump_min, float(bp.nu @ (bp.position - g)))

    rng = np.random.default_rng(seed)
    (x0, y0), (x1, y1) = domain.bbox()
    pts = []
    while len(pts) < 2 * n_pairs:
        cand = rng.uniform([x0, y0], [x1, y1], size=(4 * n_pairs, 2))
        keep = domain.contains(cand, tol=-1e-9)
        pts.extend(cand[keep])
    pts = np.asarray(pts[: 2 * n_pairs])
    a, b = pts[:n_pairs], pts[n_pairs:]
    mid = 0.5 * (a + b)
    conv_viol = float(np.max(airy.phi(mid) - 0.5 * (airy.phi(a) + airy.phi(b))))
    return AdmissibilityReport(
        trace_max_violation=float(trace_viol),
        convexity_max_violation=max(conv_viol, 0.0),
        jump_min=float(jump_min),
    )


def convex_roof(domain: Domain, x, n_boundary=512):
    """Generic largest-extension verifier: the minimum over convex
    combinations of boundary samples y_i equal to x of sum w_i |y_i|^2/2.

    That minimum is the lower convex hull of the lifted samples
    (y_i, |y_i|^2/2), whose projection is the samples' Delaunay
    triangulation; the value at x is the barycentric interpolation of
    |y|^2/2 on the triangle containing x.  Cocircular samples (the disc)
    lift to coplanar points, where every triangulation gives the same value.
    A point outside the domain, or outside the polygon of the samples,
    raises DomainError.
    """
    from scipy.spatial import Delaunay

    if n_boundary < 16:
        raise ResolutionError("generic verifier needs at least 16 boundary samples")
    samples = domain.boundary_sample(n_boundary)
    Y = np.array([bp.position for bp in samples])
    lift = 0.5 * np.sum(Y * Y, axis=1)
    pts, single = _pts(x)
    if not np.all(domain.contains(pts, tol=1e-12)):
        raise DomainError("point outside domain")
    tri = Delaunay(Y)
    simplex = tri.find_simplex(pts)
    if np.any(simplex < 0):
        raise DomainError("point outside the polygon of the boundary samples")
    affine = tri.transform[simplex]  # (n, 3, 2): inverse map and origin
    bary = np.einsum("nij,nj->ni", affine[:, :2], pts - affine[:, 2])
    bary = np.column_stack([bary, 1.0 - bary.sum(axis=1)])
    out = np.sum(bary * lift[tri.simplices[simplex]], axis=1)
    return float(out[0]) if single else out


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
