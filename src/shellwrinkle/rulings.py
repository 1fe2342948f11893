"""Ruling charts: the per-shape line structure of the extremal potentials.

For each catalog shape and curvature sign, the extremal convex potential is
affine along a family of segments (its ruling lines).  A *chart* describes
one region of that family in closed form: membership test, the coordinates
(s, u) of a point (line index and position along its line), the lines
through an array of stations, the transverse direction ``eta``, and the
change-of-measure factor ``rho`` (affine along each line).  A chart builds
its lines in one array pass over the stations (`Chart.lines_at`), lengths
included.

At negative curvature every shape has the same family: the rays of
quickest exit, which leave each boundary point along the inward normal and
end on the medial axis.  `ExitChart` builds them for any shape from its
boundary data (see `geometry.Domain`), one chart per smooth boundary piece.
At positive curvature the charts are chords in a fixed direction
(`ChordChart`) of a convex piece of the shape (the whole shape, or the
rectangle's and a tangential polygon's regions), and the half-disc's fan of
rays (`FanChart`).

Charts are consumed by the dual-potential evaluator (values by convex
interpolation along rulings), by the stable-line builder, and by the
characteristic-ODE rasterizer.  Each of them asks `locate` which chart holds
a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, UnsupportedShapeError
from .geometry import ConvexPolygon, Disc, Ellipse, HalfDisc, Rectangle, _pair, rot90


def rot_minus90(v):
    """Clockwise rotation by 90 degrees; works on (..., 2) arrays."""
    return -rot90(v)


@dataclass(frozen=True)
class LineGeometry:
    """One ruling segment: start -> end with transverse direction eta.

    rho(u) = rho0 + rho1 * u is the change-of-measure factor along the line,
    normalized to 1 at the index (start) point when the start is regular.
    ``length`` is |end - start|, filled by the chart that builds the line.
    """

    s: float
    start: np.ndarray
    end: np.ndarray
    eta: np.ndarray
    start_kind: str
    end_kind: str
    rho0: float
    rho1: float
    length: float

    def direction(self):
        return (self.end - self.start) / self.length

    def point_at(self, u):
        """(len(u), 2) points at distances u (a 1-D array) from the start."""
        x0, d = self.start, self.direction()
        return _pair(x0[0] + u * d[0], x0[1] + u * d[1])

    def rho_at(self, u):
        return self.rho0 + self.rho1 * np.asarray(u, dtype=float)


def _lines(ss, start, end, eta, rho0, rho1, start_kind, end_kind):
    """One `LineGeometry` per row of the (n, 2) arrays ``start``, ``end``
    and ``eta``; rho and the kinds are one value or one per line.  The
    lengths come from one hypot over the whole array."""
    per_line = [np.broadcast_to(v, len(start)).tolist() for v in (
        np.asarray(ss, dtype=float), rho0, rho1, start_kind, end_kind, np.hypot(*(end - start).T))]
    return [LineGeometry(s, a, b, e, k0, k1, r0, r1, L)
            for s, r0, r1, k0, k1, L, a, b, e in zip(*per_line, start, end, eta)]


class Chart:
    """Base chart; subclasses fill in the closed-form geometry.  A chart
    defines ``lines_at(ss)``, the lines at an array of stations built in
    one array pass; ``rho(ss)``, the (rho0, rho1) of those lines, each one
    value or one per station, which ``lines_at`` reads too; and ``coords``
    and ``eta_at`` or ``coords_eta``, the pair's other member following."""

    label = "O"
    data_kind = "bvp"  # or 'cauchy'
    speed = 1.0  # stations are spacing / speed apart: about the largest |d end / ds|

    def contains(self, x):
        raise NotImplementedError

    def coords(self, x):
        """(s, u, L): line index, distance from start, line length."""
        return self.coords_eta(x)[:3]

    def line_at(self, s):
        return self.lines_at([s])[0]

    def s_range(self):
        """(s0, s1), the range of the line index."""
        return self.t0, self.t1

    def eta_at(self, x):
        return self.coords_eta(x)[3]

    def coords_eta(self, x):
        """``coords(x)`` and ``eta_at(x)`` as one (s, u, L, eta) tuple."""
        return (*self.coords(x), self.eta_at(x))

    def stations(self, spacing, min_length=0.0):
        """Interior lattice of stations at the given step: s0 + step, ...,
        strictly inside (s0, s1)."""
        s0, s1 = self.s_range()
        step = spacing / self.speed
        n = max(1, int(np.ceil((s1 - s0) / step - 1e-12)) - 1)
        ss = s0 + step * np.arange(1, n + 1)
        ss = ss[ss < s1 - 1e-12 * max(1.0, abs(s1))]
        if len(ss) == 0:
            ss = np.array([0.5 * (s0 + s1)])
        return [ln for ln in self.lines_at(ss) if ln.length > min_length]


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


class ChordChart(Chart):
    """Parallel chords of a convex shape in a fixed direction.

    ``shape`` is a convex `Domain`: the chart reads its ``contains``,
    ``line_spans`` and ``extent``.  ``direction`` is the line direction;
    the index coordinate is the signed offset s = x . m with
    m = rot90(direction).  Start = the end with smaller t so that
    eta = rot_minus90(direction) points consistently.  An unconstrained
    chart carries its affine roof ``(c, g)``: phi = c + g . x on it.
    """

    def __init__(self, shape, direction, label="O", kinds=("boundary", "boundary"), roof=None):
        d = np.asarray(direction, dtype=float)
        self.d = d / np.hypot(*d)
        self.m = rot90(self.d)
        self.shape = shape
        self.roof = roof
        self.label = label
        self.start_kind, self.end_kind = kinds
        self._eta = rot_minus90(self.d)

    def contains(self, x):
        return self.shape.contains(np.atleast_2d(x), tol=1e-12)

    def coords(self, x):
        x = np.atleast_2d(x)
        s = x @ self.m
        rel_lo, rel_hi = self.shape.line_spans(x, self.d)
        return s, -rel_lo, np.maximum(rel_hi - rel_lo, 0.0)

    def endpoints(self, x):
        """Start and end of the ruling through each point."""
        x = np.atleast_2d(x)
        rel_lo, rel_hi = self.shape.line_spans(x, self.d)
        return x + rel_lo[:, None] * self.d, x + rel_hi[:, None] * self.d

    def lines_at(self, ss):
        start, end = self.endpoints(np.multiply.outer(ss, self.m))
        return _lines(ss, start, end, np.broadcast_to(self._eta, start.shape).copy(),
                      *self.rho(ss), self.start_kind, self.end_kind)

    def rho(self, ss):
        return 1.0, 0.0

    def s_range(self):
        return self.shape.extent(self.m)

    def eta_at(self, x):
        x = np.atleast_2d(x)
        return np.broadcast_to(self._eta, x.shape).copy()


class FanChart(Chart):
    """Radial rulings about a center point, in a rotated local frame.

    Local polar coordinates (r, theta) about ``center`` with theta measured
    from the local first axis; lines run from r_inner(theta) > 0 to
    r_outer(theta), boundary to boundary.  rho is proportional to r.
    """

    def __init__(self, center, frame, theta_range, r_inner, r_outer):
        self.center = np.asarray(center, dtype=float)
        self.frame = np.asarray(frame, dtype=float)  # columns: local axes
        self.t0, self.t1 = theta_range
        self.r_inner = r_inner
        self.r_outer = r_outer
        self.speed = float(r_outer(0.5 * (self.t0 + self.t1)))

    def _local(self, x):
        v = (np.atleast_2d(x) - self.center) @ self.frame
        return np.hypot(v[:, 0], v[:, 1]), np.arctan2(v[:, 1], v[:, 0])

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
        return th, r - ri, np.maximum(self.r_outer(th) - ri, 0.0)

    def _ray(self, th):
        """The unit direction of the rays at angles th."""
        return np.stack([np.cos(th), np.sin(th)], axis=1) @ self.frame.T

    def _ends(self, th, e_r):
        return (self.center + self.r_inner(th)[:, None] * e_r,
                self.center + self.r_outer(th)[:, None] * e_r)

    def endpoints(self, x):
        """Start and end of the ray through each point."""
        th = self._local(x)[1]
        return self._ends(th, self._ray(th))

    def lines_at(self, ss):
        e_r = self._ray(ss)
        return _lines(ss, *self._ends(ss, e_r), rot_minus90(e_r), *self.rho(ss),
                      "boundary", "boundary")

    def rho(self, ss):
        return 1.0, 1.0 / self.r_inner(ss)

    def eta_at(self, x):
        return rot_minus90(self._ray(self._local(x)[1]))


class ExitChart(Chart):
    """Quickest-exit rays of one smooth boundary piece, t in (t0, t1).

    The line at t runs from y - L nu to y = ``domain._boundary_at(t)``, with
    nu the outward normal at y and L = ``exit_length(y, nu)`` the distance
    to the medial axis; eta = rot_minus90(nu).  rho = 1 + u kappa / (1 -
    kappa L); where 1 - kappa L ~ 0 the ray starts at its centre of
    curvature (the disc's) and rho = u.  A point lies on its foot's line.
    """

    data_kind = "cauchy"

    def __init__(self, domain, t0, t1, speed):
        self.domain, self.t0, self.t1, self.speed = domain, t0, t1, speed
        self._axis = domain.medial_axis()
        self._one_piece = len(domain._boundary_pieces()) == 1

    def _rays(self, t):
        """Foot y, outward normal nu and length L of the lines at t."""
        y = self.domain._boundary_at(t)
        nu = self.domain._outward_normal_at(y)
        return y, nu, self._axis.exit_length(y, nu)

    def contains(self, x):
        x = np.atleast_2d(x)
        if self._one_piece:
            return self.domain.contains(x)
        t = self.domain._boundary_parameter(self.domain.nearest_boundary_point(x))
        return self.domain.contains(x) & (t >= self.t0) & (t <= self.t1)

    def _foot(self, x):
        """Each point's foot parameter t and its depth |x - foot|; the foot
        points die here, before `coords_eta` builds the rays."""
        foot = self.domain.nearest_boundary_point(x)
        return self.domain._boundary_parameter(foot), np.hypot(*(x - foot).T)

    def coords_eta(self, x):
        x = np.atleast_2d(x)
        t, depth = self._foot(x)
        _, nu, L = self._rays(t)
        return t, L - depth, L, rot_minus90(nu)

    def rho(self, ss, rays=None):
        """(rho0, rho1) of the lines at ss, from their `_rays` where given;
        rho0 = 0 on a ray from its focal point."""
        y, _, L = rays or self._rays(np.asarray(ss, dtype=float))
        kappa = self.domain._curvature_at(y)
        rest = 1.0 - kappa * L
        focal = rest < 1e-9
        return np.where(focal, 0.0, 1.0), np.where(focal, 1.0, kappa / np.where(focal, 1.0, rest))

    def lines_at(self, ss):
        y, nu, L = rays = self._rays(np.asarray(ss, dtype=float))
        rho0, rho1 = self.rho(ss, rays)
        return _lines(ss, y - L[:, None] * nu, y, rot_minus90(nu), rho0, rho1,
                      np.where(rho0 == 0.0, "focal_point", "medial_axis"), "boundary")


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

    def __post_init__(self):
        if self.kind not in ("parallel", "mixture"):
            raise ParameterError(
                f"unknown u_decomposition kind {self.kind!r}: use 'parallel' or 'mixture'"
            )


def tangential_data(poly: ConvexPolygon):
    """(incenter, inradius, vertex list data) for a tangential polygon."""
    c, r = poly.incircle()
    data = []
    for i, a_i in enumerate(poly.vertices - c):
        mag = np.hypot(*a_i)
        data.append({"vertex": a_i, "ahat": a_i / mag, "mag": mag,
                     "alpha": 2 * np.arcsin(np.clip(r / mag, -1, 1)),
                     "contacts": (r * poly.edge_normals[i - 1], r * poly.edge_normals[i])})
    return np.asarray(c), float(r), data


def rectangle_regions(rect: Rectangle):
    """The five ordered regions and the two unconstrained triangles."""
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
    return {k: ConvexPolygon(vv) for k, vv in regions.items()}


def _vertex_roof(poly: ConvexPolygon):
    """(c, g): the affine c + g . x matching |y|^2/2 at the vertices."""
    v = poly.vertices
    A = np.column_stack([np.ones(len(v)), v])
    coef, *_ = np.linalg.lstsq(A, 0.5 * np.sum(v * v, axis=1), rcond=None)
    return coef[0], coef[1:]


def _u_chart(shape, roof, decomposition: UDecomposition, kinds):
    ang = decomposition.angle
    d = np.array([np.cos(ang), np.sin(ang)])
    return ChordChart(shape, d, label="U", kinds=kinds, roof=roof)


def charts_for(domain, sign, decomposition: Optional[UDecomposition] = None):
    """Build the ruling charts for (shape, curvature sign).

    sign: +1 (or 0, which shares the structure of +1) or -1.  At +1 the
    charts are stated per catalog shape.  At -1 they are one `ExitChart` per
    smooth boundary piece, built from the shape's boundary data alone, so
    any convex shape that states it is covered.
    """
    if decomposition is None:
        decomposition = UDecomposition()

    if sign >= 0:
        if isinstance(domain, Ellipse):
            return [ChordChart(domain, (0.0, 1.0), label="O")]
        if isinstance(domain, Disc):
            # on the circle |y - c| = R, |y|^2/2 = (R^2 - |c|^2)/2 + c . y
            c = np.asarray(domain.center, dtype=float)
            roof = (0.5 * domain.radius**2 - 0.5 * c @ c, c)
            return [_u_chart(domain, roof, decomposition, ("boundary", "boundary"))]
        if isinstance(domain, HalfDisc):
            R = domain.radius
            c, u, w = domain._frame()
            f = c - R * u  # fan point (mirror of the apex across the flat side)
            frame = np.stack([w, u], axis=1)
            return [FanChart(f, frame, (np.pi / 4, 3 * np.pi / 4),
                             r_inner=lambda th: R / np.sin(th),
                             r_outer=lambda th: 2 * R * np.sin(th))]
        if isinstance(domain, Rectangle):
            regs = rectangle_regions(domain)
            charts = [
                ChordChart(regs["band"], (0.0, 1.0), label="O"),
                ChordChart(regs["ne"], (1.0, -1.0), label="O"),
                ChordChart(regs["sw"], (1.0, -1.0), label="O"),
                ChordChart(regs["se"], (1.0, 1.0), label="O"),
                ChordChart(regs["nw"], (1.0, 1.0), label="O"),
            ]
            for key in ("t_left", "t_right"):
                tri = regs[key]
                charts.append(_u_chart(tri, _vertex_roof(tri), decomposition,
                                       ("interface", "interface")))
            return charts
        if isinstance(domain, ConvexPolygon):
            if not domain.is_tangential():
                raise UnsupportedShapeError(
                    "positive curvature on a non-tangential polygon is outside the catalog"
                )
            c, r, data = tangential_data(domain)
            charts = []
            contact_pts = []
            for rec in data:
                tri = np.asarray([rec["vertex"], rec["contacts"][0], rec["contacts"][1]]) + c
                # orient the small triangle counterclockwise
                e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
                if e1[0] * e2[1] - e1[1] * e2[0] < 0:
                    tri = tri[[0, 2, 1]]
                charts.append(ChordChart(ConvexPolygon(tri), rot90(rec["ahat"]), label="O"))
                contact_pts.append(rec["contacts"][1] + c)
            contact_poly = ConvexPolygon(np.asarray(contact_pts))
            charts.append(_u_chart(contact_poly, _vertex_roof(contact_poly), decomposition,
                                   ("interface", "interface")))
            return charts
        raise UnsupportedShapeError(f"no positive-curvature charts for {domain.name}")

    return [ExitChart(domain, *piece) for piece in domain._boundary_pieces()]
