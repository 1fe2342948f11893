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

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, ResolutionError
from .geometry import CORNER_DELTA_FACTOR, Domain, _cross, rot90
from .grids import MaskedGrid
from .rulings import POINT_BLOCK, UDecomposition, charts_for, locate
from .shell import ShellProfile

ROOF_BLOCK = 64  # query points per block of convex_roof's triangle search


def _pts(x):
    x = np.asarray(x, dtype=float)
    return (x[None, :], True) if x.ndim == 1 else (x, False)


def phi_minus(domain: Domain, x):
    """Smallest convex extension of |x|^2/2 into the domain."""
    pts, single = _pts(x)
    d = np.atleast_1d(domain.boundary_distance(pts))
    vals = 0.5 * np.sum(pts * pts, axis=1) - 0.5 * d * d
    return float(vals[0]) if single else vals


def _ruling_ends(pts, u, L, eta):
    """Each point's ruling ends y1 = x - u d, y2 = x + (L - u) d, d = rot90(eta)."""
    d = rot90(eta)
    return pts - u[:, None] * d, pts + (L - u)[:, None] * d


@dataclass
class AiryField:
    """An extremal dual potential: its values and gradient, per chart.

    sign: +1 for the largest extension, -1 for the smallest.
    charts: ruling charts (shared with the stable-line machinery).  At +1
    values and gradient are read off the chart coordinates `locate` returns.
    The smallest extension's singular set is ``domain.medial_axis()``.
    """

    sign: int
    domain: Domain
    charts: list
    decomposition: UDecomposition = field(default_factory=UDecomposition)

    def _by_chart(self, pts):
        """(chart, indices into pts, their (s, u, L, eta)) per chart held,
        POINT_BLOCK points at a time, so the temporaries stay small."""
        for a in range(0, len(pts), POINT_BLOCK):
            which, *coords = locate(self.charts, pts[a:a + POINT_BLOCK])
            for i, chart in enumerate(self.charts):
                idx = np.flatnonzero(which == i)
                if len(idx):
                    yield chart, a + idx, [c[idx] for c in coords]

    # -- potential values ------------------------------------------------
    def phi(self, x):
        pts, single = _pts(x)
        vals = phi_minus(self.domain, pts) if self.sign < 0 else self._phi_plus(pts)
        return float(vals[0]) if single else vals

    def _phi_plus(self, pts):
        inside = np.atleast_1d(self.domain.contains(pts, tol=1e-12))
        if not np.all(inside):
            raise DomainError("point outside domain")
        vals = np.full(len(pts), np.nan)
        for chart, idx, coords in self._by_chart(pts):
            if chart.label == "O":
                vals[idx] = self._interp_along_rulings(pts[idx], *coords)
            else:
                c, g = chart.roof
                vals[idx] = c + pts[idx] @ g
        return vals

    @staticmethod
    def _interp_along_rulings(pts, s, u, L, eta):
        """phi at pts = convex interpolation of |y|^2/2 along the ruling."""
        y1, y2 = _ruling_ends(pts, u, L, eta)
        theta = np.clip(u / np.maximum(L, 1e-300), 0.0, 1.0)
        return (1 - theta) * 0.5 * np.sum(y1 * y1, axis=1) + theta * 0.5 * np.sum(y2 * y2, axis=1)

    # -- gradient ----------------------------------------------------------
    def grad_phi(self, x):
        pts, single = _pts(x)
        # at -1, grad (|x|^2 - d^2)/2 = x - d grad d, which is the foot point
        grad = self.domain._inside_foot(pts)[0] if self.sign < 0 else self._grad_plus(pts)
        return grad[0] if single else grad

    def _grad_plus(self, pts):
        out = np.full_like(pts, np.nan)
        for chart, idx, coords in self._by_chart(pts):
            if chart.label == "O":
                out[idx] = self._grad_along_rulings(pts[idx], *coords)
            else:
                out[idx] = chart.roof[1]
        return out

    def _grad_along_rulings(self, pts, s, u, L, eta):
        """grad phi is constant along each ruling; recover it from the
        boundary trace.  At the ruling's endpoints y1, y2 on the boundary,
        the tangential derivative of phi equals y . tau, and the derivative
        along the ruling equals the affine slope.  Two directions -> solve."""
        y1, y2 = _ruling_ends(pts, u, L, eta)
        ldir = rot90(eta)
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
    return AiryField(
        sign=sign,
        domain=domain,
        charts=charts_for(domain, sign, decomposition),
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
    pts = grid.eval_points()
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
    s = domain.boundary_sample(n_boundary)
    gap = np.hypot(*(s.position[:, None] - s.position[s.corner]).T)  # a corner is 0 from itself
    keep = np.all(gap > CORNER_DELTA_FACTOR * domain.diameter(), axis=0)
    pos, nu = s.position[keep], s.nu[keep]

    trace_viol = np.max(np.abs(airy.phi(pos) - 0.5 * np.sum(pos * pos, axis=1)), initial=0.0)
    # pull slightly inside to evaluate the interior gradient trace
    p_in = pos - 1e-9 * domain.diameter() * nu
    out = ~np.atleast_1d(domain.contains(p_in, tol=1e-12))
    p_in[out] = pos[out]
    g = airy.grad_phi(p_in)
    jump_min = np.min(np.sum(nu * (pos - g), axis=1), initial=np.inf)

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


def _convex_delaunay(q, tol):
    """The (t, 3) Delaunay triangles (i, k, j), i < k < j, of points q in
    counterclockwise convex position.  The triangle on a chord (i, j), from
    the side (0, n-1) on, takes the vertex i < k < j of largest angle at k,
    whose circle through i and j holds no other (inscribed-angle theorem);
    (i, k) and (k, j) are the next chords.  A vertex within tol of the chord
    is no apex, so a polygon side's samples get no triangle.  cot(angle) =
    dot / cross of y_i - y_k and y_j - y_k, linear in (y_k, |y_k|^2)."""
    rows = np.column_stack([q, np.sum(q * q, axis=1), np.ones(len(q))])
    xy = q.tolist()
    tris, chords = [], [(0, len(q) - 1)]
    while chords:
        i, j = chords.pop()
        if j - i < 2:
            continue
        (xi, yi), (xj, yj) = xy[i], xy[j]
        ex, ey = xj - xi, yj - yi
        c = [[-xi - xj, ey], [-yi - yj, -ex], [1.0, 0.0], [xi * xj + yi * yj, ex * yi - ey * xi]]
        dot, cross = (rows[i + 1:j] @ np.array(c)).T
        lim = tol * math.hypot(ex, ey)
        cot = np.where(cross > lim, dot, np.inf) / np.maximum(cross, lim)
        m = int(np.argmin(cot))
        if cot[m] == np.inf:
            continue
        tris.append((i, i + 1 + m, j))
        chords += [(i, i + 1 + m), (i + 1 + m, j)]
    return np.array(tris, dtype=np.intp).reshape(-1, 3)


def convex_roof(domain: Domain, x, n_boundary=512):
    """Generic largest-extension verifier: the minimum over convex
    combinations of boundary samples y_i equal to x of sum w_i |y_i|^2/2.

    That minimum is the lower convex hull of the lifted samples
    (y_i, |y_i|^2/2), whose projection is the samples' Delaunay
    triangulation (Edelsbrunner & Seidel 1986), built by `_convex_delaunay`.
    Each point takes the triangle it lies least far outside, by elementwise
    edge tests on the triangles that span its x, ROOF_BLOCK points at a
    time, and the value is the barycentric interpolation of |y|^2/2 there,
    whatever points come with it.  Cocircular samples (the disc) lift to
    coplanar points, where every triangulation gives the same value.  A
    point outside the domain, or over 1e-12 diam outside the polygon of the
    samples, raises DomainError.
    """
    if n_boundary < 16:
        raise ResolutionError("generic verifier needs at least 16 boundary samples")
    Y = domain.boundary_sample(n_boundary).position
    lift = 0.5 * np.sum(Y * Y, axis=1)
    pts, single = _pts(x)
    if not np.all(domain.contains(pts, tol=1e-12)):
        raise DomainError("point outside domain")
    tol = 1e-12 * domain.diameter()
    origin = Y.mean(axis=0)  # work near the samples, where distances keep their digits
    q, p = Y - origin, pts - origin
    tri = _convex_delaunay(q, tol)
    corner = q[tri.T]  # (3, t, 2): each triangle's corners, counterclockwise
    edge = np.roll(corner, -1, axis=0) - corner
    unit = edge / np.hypot(edge[..., 0], edge[..., 1])[..., None]
    # each edge's outward unit normal and offset, (9, t)
    lines = np.concatenate([unit[..., 1], -unit[..., 0], _cross(corner, unit)])
    x_lo, x_hi = corner[..., 0].min(axis=0) - tol, corner[..., 0].max(axis=0) + tol
    order = np.argsort(p[:, 0], kind="stable")
    best = np.empty(len(p), dtype=np.intp)
    for a in range(0, len(p), ROOF_BLOCK):
        blk = order[a:a + ROOF_BLOCK]
        X, Z = p[blk, :1], p[blk, 1:]
        near = np.flatnonzero((x_lo <= X[-1]) & (x_hi >= X[0]))
        gx, gy, go = lines[:, near].reshape(3, 3, -1)
        depth = gx[0] * X + gy[0] * Z - go[0]
        for e in (1, 2):
            np.maximum(depth, gx[e] * X + gy[e] * Z - go[e], out=depth)
        if np.min(depth, axis=1, initial=np.inf).max() > tol:
            raise DomainError("point outside the polygon of the boundary samples")
        best[blk] = near[np.argmin(depth, axis=1)]
    A, B, C = (corner[m, best] - p for m in range(3))
    w = _cross(B, C), _cross(C, A), _cross(A, B)
    out = sum(wm * lift[tri[best, m]] for m, wm in enumerate(w)) / (w[0] + w[1] + w[2])
    return float(out[0]) if single else out
