"""Ruling charts: the per-shape line structure of the extremal potentials.

For each catalog shape and curvature sign, the extremal convex potential is
affine along a family of segments (its ruling lines).  A *chart* describes
one region of that family in closed form: membership test, the coordinates
(s, u) of a point (line index and position along its line), the line through
any station, the transverse Hessian density ``zeta``, and the
change-of-measure factor ``rho`` (affine along each line).

Charts are consumed by the dual-potential evaluator (values by convex
interpolation along rulings), by the stable-line builder, and by the
characteristic-ODE rasterizer.  Each of them asks `locate` which chart holds
a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedShapeError
from .geometry import ConvexPolygon, Disc, Ellipse, HalfDisc, Rectangle, rot90


def rot_minus90(v):
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = v[..., 1]
    out[..., 1] = -v[..., 0]
    return out


@dataclass(frozen=True)
class LineGeometry:
    """One ruling segment: start -> end with transverse direction eta.

    rho(u) = rho0 + rho1 * u is the change-of-measure factor along the line,
    normalized to 1 at the index (start) point when the start is regular.
    """

    s: float
    start: np.ndarray
    end: np.ndarray
    eta: np.ndarray
    start_kind: str
    end_kind: str
    rho0: float
    rho1: float
    label: str  # 'O' or 'U'

    @property
    def length(self):
        return float(np.hypot(*(self.end - self.start)))

    def direction(self):
        d = self.end - self.start
        return d / np.hypot(*d)

    def point_at(self, u):
        u = np.asarray(u, dtype=float)
        return self.start + np.multiply.outer(u, self.direction())

    def rho_at(self, u):
        return self.rho0 + self.rho1 * np.asarray(u, dtype=float)


class Chart:
    """Base chart; subclasses fill in the closed-form geometry."""

    label = "O"
    data_kind = "bvp"  # or 'cauchy'
    start_kind = "boundary"
    end_kind = "boundary"

    def contains(self, x):
        raise NotImplementedError

    def coords(self, x):
        """(s, u, L): line index, distance from start, line length."""
        raise NotImplementedError

    def line_at(self, s):
        raise NotImplementedError

    def s_range(self):
        raise NotImplementedError

    def s_step(self, spacing):
        """Station step in s-units producing start points ~spacing apart."""
        return spacing

    def zeta_at(self, x):
        """Transverse Hessian density (None on unconstrained charts)."""
        return None

    def eta_at(self, x):
        raise NotImplementedError

    def stations(self, spacing, min_length=0.0):
        """Interior lattice of stations at the given step: s0 + step, ...,
        strictly inside (s0, s1)."""
        s0, s1 = self.s_range()
        step = self.s_step(spacing)
        n = max(1, int(np.ceil((s1 - s0) / step - 1e-12)) - 1)
        ss = s0 + step * np.arange(1, n + 1)
        ss = ss[ss < s1 - 1e-12 * max(1.0, abs(s1))]
        if len(ss) == 0:
            ss = np.array([0.5 * (s0 + s1)])
        lines = [self.line_at(s) for s in ss]
        return [ln for ln in lines if ln.length > min_length]


def locate(charts, pts):
    """Index into ``charts`` of the chart that holds each point, or -1.

    A point belongs to the first chart, in list order, whose ``contains``
    accepts it.  A point that no chart contains (a seam, or a boundary
    projection that rounds just outside) goes to the chart whose station
    range holds its s and whose line it misses least, the miss being
    max(-u, u - L, 0); ties go to the lower index.  A point that no chart's
    station range holds is uncovered (-1).
    """
    pts = np.atleast_2d(pts)
    which = np.full(len(pts), -1)
    for i, chart in enumerate(charts):
        todo = np.flatnonzero(which < 0)
        if len(todo) == 0:
            return which
        which[todo[np.asarray(chart.contains(pts[todo]))]] = i
    rest = np.flatnonzero(which < 0)
    best = np.full(len(rest), np.inf)
    for i, chart in enumerate(charts):
        if len(rest) == 0:
            break
        s, u, L = chart.coords(pts[rest])
        s0, s1 = chart.s_range()
        miss = np.maximum(np.maximum(-u, u - L), 0.0)
        better = (s >= s0) & (s <= s1) & (miss < best)
        which[rest[better]] = i
        best[better] = miss[better]
    return which


# ----------------------------------------------------------------------
# clip regions for chord charts
# ----------------------------------------------------------------------


class PolygonClip:
    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        self.vertices = v
        d = np.roll(v, -1, axis=0) - v
        L = np.hypot(d[:, 0], d[:, 1])
        keep = L > 1e-14
        v2 = v[keep]
        d = np.roll(v2, -1, axis=0) - v2
        L = np.hypot(d[:, 0], d[:, 1])
        t = d / L[:, None]
        # outward normals assuming CCW ordering
        self.normals = -rot90(t)
        self.offsets = np.sum(self.normals * v2, axis=1)
        self.vertices = v2

    def contains(self, x, tol=1e-12):
        x = np.atleast_2d(x)
        return np.all(x @ self.normals.T <= self.offsets[None, :] + tol, axis=1)

    def line_span(self, p, d):
        """Intersect {p + t d} with the region: (t_lo, t_hi); empty -> lo>hi."""
        lo, hi = self.line_spans(np.asarray(p, float)[None, :], d)
        return float(lo[0]), float(hi[0])

    def line_spans(self, pts, d):
        """Vectorized line_span for many base points, one direction."""
        pts = np.atleast_2d(pts)
        num = self.offsets[None, :] - pts @ self.normals.T
        den = self.normals @ np.asarray(d, float)
        t_lo = np.full(len(pts), -np.inf)
        t_hi = np.full(len(pts), np.inf)
        for j, dn in enumerate(den):
            if abs(dn) < 1e-14:
                # a point on an edge parallel to d: the same slack as contains
                bad = num[:, j] < -1e-12
                t_lo = np.where(bad, 1.0, t_lo)
                t_hi = np.where(bad, 0.0, t_hi)
            elif dn > 0:
                t_hi = np.minimum(t_hi, num[:, j] / dn)
            else:
                t_lo = np.maximum(t_lo, num[:, j] / dn)
        return t_lo, t_hi

    def extent(self, m):
        vals = self.vertices @ np.asarray(m, float)
        return float(vals.min()), float(vals.max())

    def affine_roof(self):
        """(c, g): the affine c + g . x matching |y|^2/2 at the vertices."""
        v = self.vertices
        A = np.column_stack([np.ones(len(v)), v])
        coef, *_ = np.linalg.lstsq(A, 0.5 * np.sum(v * v, axis=1), rcond=None)
        return coef[0], coef[1:]


class DiscClip:
    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def contains(self, x, tol=1e-12):
        x = np.atleast_2d(x)
        return np.hypot(*(x - self.center).T) <= self.radius + tol

    def line_span(self, p, d):
        lo, hi = self.line_spans(np.asarray(p, float)[None, :], d)
        return float(lo[0]), float(hi[0])

    def line_spans(self, pts, d):
        pts = np.atleast_2d(pts)
        d = np.asarray(d, float)
        q = pts - self.center
        b = q @ d
        c = np.sum(q * q, axis=1) - self.radius**2
        disc = b * b - c
        ok = disc >= 0
        r = np.sqrt(np.maximum(disc, 0.0))
        t_lo = np.where(ok, -b - r, 1.0)
        t_hi = np.where(ok, -b + r, 0.0)
        return t_lo, t_hi

    def extent(self, m):
        c = self.center @ np.asarray(m, float)
        return c - self.radius, c + self.radius

    def affine_roof(self):
        """(c, g): on the circle |y - center| = R, |y|^2/2 equals c + g . y
        with g = center and c = (R^2 - |center|^2)/2."""
        c = self.center
        return 0.5 * self.radius**2 - 0.5 * c @ c, c


class EllipseClip:
    def __init__(self, a, b):
        self.a, self.b = float(a), float(b)

    def contains(self, x, tol=1e-12):
        x = np.atleast_2d(x)
        return (x[:, 0] / self.a) ** 2 + (x[:, 1] / self.b) ** 2 <= 1 + tol

    def line_span(self, p, d):
        lo, hi = self.line_spans(np.asarray(p, float)[None, :], d)
        return float(lo[0]), float(hi[0])

    def line_spans(self, pts, d):
        pts = np.atleast_2d(pts)
        q = pts / np.array([self.a, self.b])
        e = np.asarray(d, float) / np.array([self.a, self.b])
        A = e @ e
        B = q @ e
        C = np.sum(q * q, axis=1) - 1.0
        disc = B * B - A * C
        ok = disc >= 0
        r = np.sqrt(np.maximum(disc, 0.0))
        t_lo = np.where(ok, (-B - r) / A, 1.0)
        t_hi = np.where(ok, (-B + r) / A, 0.0)
        return t_lo, t_hi

    def extent(self, m):
        m = np.asarray(m, float)
        r = np.hypot(self.a * m[0], self.b * m[1])
        return -r, r


class ChordChart(Chart):
    """Parallel chords of a convex clip region in a fixed direction.

    ``direction`` is the line direction; the index coordinate is the signed
    offset s = x . m with m = rot90(direction).  Start = the end with smaller
    t so that eta = rot_minus90(direction) points consistently.
    """

    def __init__(self, clip, direction, label="O", kinds=("boundary", "boundary"),
                 zeta=None, data_kind="bvp"):
        d = np.asarray(direction, dtype=float)
        self.d = d / np.hypot(*d)
        self.m = rot90(self.d)
        self.clip = clip
        self.label = label
        self.start_kind, self.end_kind = kinds
        self.zeta = zeta
        self.data_kind = data_kind
        self._eta = rot_minus90(self.d)

    def contains(self, x):
        return self.clip.contains(x)

    def coords(self, x):
        x = np.atleast_2d(x)
        s = x @ self.m
        rel_lo, rel_hi = self.clip.line_spans(x, self.d)
        return s, -rel_lo, np.maximum(rel_hi - rel_lo, 0.0)

    def endpoints(self, x):
        """Start and end of the ruling through each point."""
        x = np.atleast_2d(x)
        rel_lo, rel_hi = self.clip.line_spans(x, self.d)
        return x + rel_lo[:, None] * self.d, x + rel_hi[:, None] * self.d

    def line_at(self, s):
        p = s * self.m
        lo, hi = self.clip.line_span(p, self.d)
        start = p + lo * self.d
        end = p + hi * self.d
        return LineGeometry(
            s=float(s), start=start, end=end, eta=self._eta.copy(),
            start_kind=self.start_kind, end_kind=self.end_kind,
            rho0=1.0, rho1=0.0, label=self.label,
        )

    def s_range(self):
        return self.clip.extent(self.m)

    def zeta_at(self, x):
        if self.zeta is None:
            return None
        return np.full(len(np.atleast_2d(x)), float(self.zeta))

    def eta_at(self, x):
        x = np.atleast_2d(x)
        return np.broadcast_to(self._eta, x.shape).copy()


class FanChart(Chart):
    """Radial rulings about a center point, in a rotated local frame.

    Local polar coordinates (r, theta) about ``center`` with theta measured
    from the local first axis; lines run from r_inner(theta) to
    r_outer(theta).  rho is proportional to r.
    """

    def __init__(self, center, frame, theta_range, r_inner, r_outer,
                 label="O", kinds=("boundary", "boundary"), data_kind="bvp",
                 zeta_fn=None):
        self.center = np.asarray(center, dtype=float)
        self.frame = np.asarray(frame, dtype=float)  # columns: local axes
        self.t0, self.t1 = theta_range
        self.r_inner = r_inner
        self.r_outer = r_outer
        self.label = label
        self.start_kind, self.end_kind = kinds
        self.data_kind = data_kind
        self.zeta_fn = zeta_fn

    def _local(self, x):
        x = np.atleast_2d(x)
        v = (x - self.center) @ self.frame
        r = np.hypot(v[:, 0], v[:, 1])
        th = np.arctan2(v[:, 1], v[:, 0])
        return r, th

    def contains(self, x, tol=1e-9):
        r, th = self._local(x)
        ok = (th >= self.t0 - tol) & (th <= self.t1 + tol)
        ri = self.r_inner(np.clip(th, self.t0, self.t1))
        ro = self.r_outer(np.clip(th, self.t0, self.t1))
        scale = 1.0 + np.abs(ro)
        return ok & (r >= ri - tol * scale) & (r <= ro + tol * scale)

    def coords(self, x):
        r, th = self._local(x)
        ri = self.r_inner(th)
        ro = self.r_outer(th)
        return th, r - ri, np.maximum(ro - ri, 0.0)

    def endpoints(self, x):
        """Start and end of the ray through each point."""
        r, th = self._local(x)
        e_r = np.stack([np.cos(th), np.sin(th)], axis=1) @ self.frame.T
        return (self.center + self.r_inner(th)[:, None] * e_r,
                self.center + self.r_outer(th)[:, None] * e_r)

    def line_at(self, s):
        ri = float(self.r_inner(s))
        ro = float(self.r_outer(s))
        e_r = self.frame @ np.array([np.cos(s), np.sin(s)])
        start = self.center + ri * e_r
        end = self.center + ro * e_r
        eta = rot_minus90(e_r)
        if ri > 1e-12 * (1 + ro):
            rho0, rho1 = 1.0, 1.0 / ri
        else:
            rho0, rho1 = 0.0, 1.0  # singular fan center: rho = r, flagged
        return LineGeometry(
            s=float(s), start=start, end=end, eta=eta,
            start_kind=self.start_kind, end_kind=self.end_kind,
            rho0=rho0, rho1=rho1, label=self.label,
        )

    def s_range(self):
        return self.t0, self.t1

    def s_step(self, spacing):
        r_ref = max(float(self.r_outer(0.5 * (self.t0 + self.t1))), 1e-12)
        return spacing / r_ref

    def zeta_at(self, x):
        if self.zeta_fn is None:
            return None
        r, th = self._local(x)
        return self.zeta_fn(r, th)

    def eta_at(self, x):
        r, th = self._local(x)
        e_r = np.stack([np.cos(th), np.sin(th)], axis=1) @ self.frame.T
        return rot_minus90(e_r)


class PolygonSideChart(Chart):
    """Quickest-exit rulings of one side region of a convex polygon.

    Lines run from the medial axis to side ``i`` along the outward normal;
    the index coordinate is the tangential station along the side.
    """

    label = "O"
    data_kind = "cauchy"
    start_kind = "medial_axis"
    end_kind = "boundary"

    def __init__(self, poly: ConvexPolygon, i: int):
        self.poly = poly
        self.i = i
        self.nu = poly.edge_normals[i]
        self.tau = poly.edge_tangents[i]
        self.v0 = poly.vertices[i]
        self.Ls = poly.edge_lengths[i]
        # precompute the per-side interaction coefficients
        others = [j for j in range(poly.n_sides()) if j != i]
        self.others = np.array(others)
        self.denoms = 1.0 - poly.edge_normals[others] @ self.nu

    def _t_end_at_feet(self, feet):
        """Cut distance along -nu from foot points on side i."""
        sd = self.poly.side_distances(feet)[:, self.others]
        return np.min(sd / self.denoms[None, :], axis=1)

    def contains(self, x):
        x = np.atleast_2d(x)
        return self.poly.nearest_side(x) == self.i

    def coords(self, x):
        x = np.atleast_2d(x)
        s = (x - self.v0) @ self.tau
        d = self.poly.side_distances(x)[:, self.i]
        feet = self.v0 + s[:, None] * self.tau[None, :]
        t_end = self._t_end_at_feet(feet)
        return s, t_end - d, t_end

    def line_at(self, s):
        foot = self.v0 + s * self.tau
        t_end = float(self._t_end_at_feet(foot[None, :])[0])
        start = foot - t_end * self.nu
        return LineGeometry(
            s=float(s), start=start, end=foot, eta=rot_minus90(self.nu),
            start_kind=self.start_kind, end_kind=self.end_kind,
            rho0=1.0, rho1=0.0, label=self.label,
        )

    def s_range(self):
        return 0.0, float(self.Ls)

    def zeta_at(self, x):
        return np.ones(len(np.atleast_2d(x)))

    def eta_at(self, x):
        x = np.atleast_2d(x)
        return np.broadcast_to(rot_minus90(self.nu), x.shape).copy()


class EllipseExitChart(Chart):
    """Quickest-exit rulings of the negatively curved ellipse.

    Lines run from the medial segment to the boundary along the boundary
    normal; the index is the boundary parameter phi of the foot point,
    running over (0, pi) for the upper half and (pi, 2 pi) for the lower.
    rho is affine along each line (the family is a tangential fan).
    """

    label = "O"
    data_kind = "cauchy"
    start_kind = "medial_axis"
    end_kind = "boundary"

    def __init__(self, ellipse: Ellipse, half: str):
        self.E = ellipse
        self.half = half  # 'upper' | 'lower'

    def _phi_data(self, phi):
        a, b = self.E.a, self.E.b
        cs, sn = np.cos(phi), np.sin(phi)
        y = np.stack([a * cs, b * sn], axis=-1)
        g = np.stack([cs / a, sn / b], axis=-1)
        N = np.hypot(g[..., 0], g[..., 1])
        nu = g / N[..., None]
        t_cut = b * b * N
        z = np.stack([cs * (a - b * b / a), np.zeros_like(sn)], axis=-1)
        return y, nu, t_cut, z

    def contains(self, x):
        x = np.atleast_2d(x)
        inside = self.E.contains(x)
        # the upper chart takes the closed half so that axis points (medial
        # segment and its two extensions) are covered by exactly one chart
        if self.half == "upper":
            side = x[:, 1] >= 0
        else:
            side = x[:, 1] < 0
        return inside & side

    def _phi_of(self, x):
        y = np.atleast_2d(self.E.nearest_boundary_point(x))
        return np.arctan2(y[:, 1] / self.E.b, y[:, 0] / self.E.a)

    def coords(self, x):
        x = np.atleast_2d(x)
        phi = np.mod(self._phi_of(x), 2 * np.pi)
        y, nu, t_cut, z = self._phi_data(phi)
        d = np.hypot(*(x - y).T)
        return phi, t_cut - d, t_cut

    def line_at(self, s):
        y, nu, t_cut, z = self._phi_data(float(s))
        # rho'(u) from the fan spread: position(u) = z + u nu
        a, b = self.E.a, self.E.b
        cs, sn = np.cos(s), np.sin(s)
        g = np.array([cs / a, sn / b])
        N = np.hypot(*g)
        gp = np.array([-sn / a, cs / b])
        nup = gp / N - g * (g @ gp) / N**3
        zp = np.array([-sn * (a - b * b / a), 0.0])
        perp = rot90(nu)
        c0 = zp @ perp
        c1 = nup @ perp
        if abs(c0) < 1e-14:
            rho0, rho1 = 0.0, 1.0
        else:
            rho0, rho1 = 1.0, c1 / c0
        return LineGeometry(
            s=float(s), start=z, end=y, eta=rot_minus90(nu),
            start_kind=self.start_kind, end_kind=self.end_kind,
            rho0=rho0, rho1=rho1, label=self.label,
        )

    def s_range(self):
        eps = 1e-6
        if self.half == "upper":
            return eps, np.pi - eps
        return np.pi + eps, 2 * np.pi - eps

    def s_step(self, spacing):
        return spacing / self.E.a

    def zeta_at(self, x):
        x = np.atleast_2d(x)
        y = np.atleast_2d(self.E.nearest_boundary_point(x))
        kappa = self.E.boundary_curvature(y)
        d = np.hypot(*(x - y).T)
        return 1.0 / (1.0 - d * kappa)

    def eta_at(self, x):
        x = np.atleast_2d(x)
        y = np.atleast_2d(self.E.nearest_boundary_point(x))
        g = x - y
        n = np.hypot(g[:, 0], g[:, 1])
        n = np.where(n < 1e-300, 1.0, n)
        grad_d = g / n[:, None]
        return rot90(grad_d)


class HalfDiscSouthChart(Chart):
    """Flat-side region of the negatively curved half-disc: parallel exit
    lines from the medial parabola to the flat side (stated in the local
    frame of the half-disc)."""

    label = "O"
    data_kind = "cauchy"
    start_kind = "medial_axis"
    end_kind = "boundary"

    def __init__(self, hd: HalfDisc):
        self.hd = hd
        self.R = hd.radius
        c, u, w = hd._frame()
        self.c, self.u, self.w = c, u, w

    def _vM(self, t):
        return (self.R**2 - t**2) / (2 * self.R)

    def contains(self, x, tol=0.0):
        loc = np.atleast_2d(self.hd.to_local(x))
        return (loc[:, 1] >= -tol) & (loc[:, 1] <= self._vM(loc[:, 0]) + tol) & (
            np.abs(loc[:, 0]) <= self.R
        )

    def coords(self, x):
        loc = np.atleast_2d(self.hd.to_local(x))
        s = loc[:, 0]
        L = self._vM(s)
        return s, L - loc[:, 1], L

    def line_at(self, s):
        top = self.c + s * self.w + self._vM(s) * self.u
        bot = self.c + s * self.w
        return LineGeometry(
            s=float(s), start=top, end=bot, eta=rot_minus90(-self.u),
            start_kind=self.start_kind, end_kind=self.end_kind,
            rho0=1.0, rho1=0.0, label=self.label,
        )

    def s_range(self):
        return -self.R, self.R

    def zeta_at(self, x):
        return np.ones(len(np.atleast_2d(x)))

    def eta_at(self, x):
        x = np.atleast_2d(x)
        return np.broadcast_to(rot_minus90(-self.u), x.shape).copy()


# ----------------------------------------------------------------------
# chart assembly per shape and sign
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UDecomposition:
    """How unconstrained regions are filled with ruling chords."""

    kind: str = "parallel"  # 'parallel' | 'mixture'
    angle: float = 0.0
    angle2: float = np.pi / 4
    weight: float = 0.5  # mixture weight on the first angle


def tangential_data(poly: ConvexPolygon):
    """(incenter, inradius, vertex list data) for a tangential polygon."""
    c, r = poly.incircle()
    v = poly.vertices - c
    n = len(v)
    data = []
    for i in range(n):
        prev = (i - 1) % n
        a_i = v[i]
        contacts = (r * poly.edge_normals[prev], r * poly.edge_normals[i])
        mag = np.hypot(*a_i)
        ahat = a_i / mag
        sin_half = r / mag
        alpha = 2 * np.arcsin(np.clip(sin_half, -1, 1))
        data.append(
            {
                "vertex": a_i,
                "ahat": ahat,
                "alpha": alpha,
                "contacts": contacts,
                "mag": mag,
            }
        )
    return np.asarray(c), float(r), data


def rectangle_regions(rect: Rectangle):
    """The five ordered regions and two unconstrained triangles, as vertex
    lists (CCW)."""
    a, b = rect.a, rect.b
    m = a - b
    regions = {
        "band": [(-m, -b), (m, -b), (m, b), (-m, b)],
        "ne": [(m, b), (a, 0.0), (a, b)],
        "se": [(a, -b), (a, 0.0), (m, -b)],
        "sw": [(-a, -b), (-m, -b), (-a, 0.0)],
        "nw": [(-a, 0.0), (-m, b), (-a, b)],
        "t_left": [(-a, 0.0), (-m, -b), (-m, b)],
        "t_right": [(a, 0.0), (m, b), (m, -b)],
    }
    return {k: np.asarray(vv, dtype=float) for k, vv in regions.items()}


def _u_charts_for_clip(clip, decomposition: UDecomposition, kinds):
    ang = decomposition.angle
    d = np.array([np.cos(ang), np.sin(ang)])
    return [ChordChart(clip, d, label="U", kinds=kinds, zeta=None, data_kind="bvp")]


def charts_for(domain, sign, decomposition: Optional[UDecomposition] = None):
    """Build the ruling charts for (shape, curvature sign).

    sign: +1 (or 0, which shares the structure of +1) or -1.
    Returns (charts, meta) where meta records the singular set.
    """
    if decomposition is None:
        decomposition = UDecomposition()
    meta = {"sigma": None}

    if sign >= 0:
        if isinstance(domain, Ellipse):
            zeta = 1.0 - domain.b**2 / domain.a**2
            chart = ChordChart(EllipseClip(domain.a, domain.b), (0.0, 1.0),
                               label="O", zeta=zeta)
            return [chart], meta
        if isinstance(domain, Disc):
            clip = DiscClip(domain.center, domain.radius)
            return _u_charts_for_clip(clip, decomposition, ("boundary", "boundary")), meta
        if isinstance(domain, HalfDisc):
            R = domain.radius
            c, u, w = domain._frame()
            f = c - R * u  # fan point (mirror of the apex across the flat side)
            frame = np.stack([w, u], axis=1)
            chart = FanChart(
                center=f, frame=frame,
                theta_range=(np.pi / 4, 3 * np.pi / 4),
                r_inner=lambda th: R / np.sin(th),
                r_outer=lambda th: 2 * R * np.sin(th),
                label="O", kinds=("boundary", "boundary"), data_kind="bvp",
                zeta_fn=lambda r, th: R / (r * np.sin(th) ** 3),
            )
            return [chart], meta
        if isinstance(domain, Rectangle):
            regs = rectangle_regions(domain)
            charts = [
                ChordChart(PolygonClip(regs["band"]), (0.0, 1.0), label="O", zeta=1.0),
                ChordChart(PolygonClip(regs["ne"]), (1.0, -1.0), label="O", zeta=2.0),
                ChordChart(PolygonClip(regs["sw"]), (1.0, -1.0), label="O", zeta=2.0),
                ChordChart(PolygonClip(regs["se"]), (1.0, 1.0), label="O", zeta=2.0),
                ChordChart(PolygonClip(regs["nw"]), (1.0, 1.0), label="O", zeta=2.0),
            ]
            for key in ("t_left", "t_right"):
                clip = PolygonClip(regs[key])
                charts += _u_charts_for_clip(clip, decomposition, ("interface", "interface"))
            return charts, meta
        if isinstance(domain, ConvexPolygon):
            if not domain.is_tangential():
                raise UnsupportedShapeError(
                    "positive curvature on a non-tangential polygon is outside the catalog"
                )
            c, r, data = tangential_data(domain)
            charts = []
            contact_pts = []
            for i, rec in enumerate(data):
                tri = PolygonClip(
                    np.asarray([rec["vertex"], rec["contacts"][0], rec["contacts"][1]]) + c
                )
                # ensure CCW orientation of the small triangle
                vv = tri.vertices - c
                e1, e2 = vv[1] - vv[0], vv[2] - vv[0]
                area2 = e1[0] * e2[1] - e1[1] * e2[0]
                if area2 < 0:
                    tri = PolygonClip(
                        np.asarray([rec["vertex"], rec["contacts"][1], rec["contacts"][0]]) + c
                    )
                zeta = 1.0 + np.tan(rec["alpha"] / 2) ** 2
                charts.append(
                    ChordChart(tri, rot90(rec["ahat"]), label="O", zeta=zeta)
                )
                contact_pts.append(rec["contacts"][1] + c)
            contact_poly = PolygonClip(np.asarray(contact_pts))
            charts += _u_charts_for_clip(contact_poly, decomposition, ("interface", "interface"))
            return charts, meta
        raise UnsupportedShapeError(f"no positive-curvature charts for {domain.name}")

    # negative sign
    if isinstance(domain, Disc):
        R = domain.radius
        chart = FanChart(
            center=np.asarray(domain.center, dtype=float), frame=np.eye(2),
            theta_range=(-np.pi, np.pi),
            r_inner=lambda th: 0.0 * np.asarray(th),
            r_outer=lambda th: R + 0.0 * np.asarray(th),
            label="O", kinds=("focal_point", "boundary"), data_kind="cauchy",
            zeta_fn=lambda r, th: R / np.maximum(r, 1e-300),
        )
        meta["sigma"] = {"kind": "point", "point": np.asarray(domain.center, float)}
        return [chart], meta
    if isinstance(domain, Ellipse):
        charts = [EllipseExitChart(domain, "upper"), EllipseExitChart(domain, "lower")]
        m = domain.medial_segment_halflength()
        meta["sigma"] = {"kind": "segment", "p0": np.array([-m, 0.0]), "p1": np.array([m, 0.0])}
        return charts, meta
    if isinstance(domain, (Rectangle, ConvexPolygon)):
        poly = domain.as_polygon() if isinstance(domain, Rectangle) else domain
        charts = [PolygonSideChart(poly, i) for i in range(poly.n_sides())]
        meta["sigma"] = {"kind": "tree", "axis": domain.medial_axis()}
        return charts, meta
    if isinstance(domain, HalfDisc):
        R = domain.radius
        c, u, w = domain._frame()
        frame = np.stack([w, u], axis=1)
        south = HalfDiscSouthChart(domain)
        north = FanChart(
            center=c, frame=frame,
            theta_range=(0.0, np.pi),
            r_inner=lambda th: R / (1.0 + np.sin(th)),
            r_outer=lambda th: R + 0.0 * np.asarray(th),
            label="O", kinds=("medial_axis", "boundary"), data_kind="cauchy",
            zeta_fn=lambda r, th: R / np.maximum(r, 1e-300),
        )
        meta["sigma"] = {"kind": "arc", "axis": domain.medial_axis()}
        return [south, north], meta
    raise UnsupportedShapeError(f"no negative-curvature charts for {domain.name}")
