"""Ruling charts: the per-shape line structure of the extremal potentials.

For each catalog shape and curvature sign, the extremal convex potential is
affine along a family of segments (its ruling lines).  A *chart* describes
one region of that family in closed form: the coordinates (s, u, L, eta) of
a point (line index, position along its line, line length and transverse
direction), from which membership follows; the lines through an array of
stations; and the change-of-measure factor ``rho`` (affine along each
line).  A chart builds its lines in one array pass over the stations
(`Chart.lines_at`), lengths included.

At negative curvature every shape has the same family: the rays of
quickest exit, which leave each boundary point along the inward normal and
end on the medial axis.  `ExitRays` builds them for any shape from its
boundary data (see `geometry.Domain`), and one `ExitChart` per smooth
boundary piece reads them.
At positive curvature the charts are chords in a fixed direction
(`ChordChart`) of a convex piece of the shape (the whole shape, or the
rectangle's and a tangential polygon's regions), and the half-disc's fan of
rays (`FanChart`).

Charts are consumed by the dual-potential evaluator (values by convex
interpolation along rulings), by the partition and by the
characteristic-ODE rasterizer.  Each of them asks `locate` which chart holds
a point, and reads the point's coordinates from the same call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, UnsupportedShapeError
from .geometry import ConvexPolygon, Disc, Ellipse, HalfDisc, Rectangle, _as_points, _pair, rot90

POINT_BLOCK = 1 << 15  # points per block of `locate`, and of the rasterizer's interpolation


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
    """Base chart.  A chart states ``coords_eta(x)``, from which membership
    follows (`_miss`); ``lines_at(ss)``, the lines at an array of stations
    built in one array pass; and ``rho(ss)``, the (rho0, rho1) of those
    lines, each one value or one per station, which ``lines_at`` reads too."""

    label = "O"
    data_kind = "bvp"  # or 'cauchy'
    speed = 1.0  # stations are spacing / speed apart: about the largest |d end / ds|

    def coords_eta(self, x):
        """(s, u, L, eta): line index, distance from start, length, and eta."""
        raise NotImplementedError

    def coords(self, x):
        """(s, u, L): line index, distance from start, line length."""
        return self.coords_eta(x)[:3]

    def contains(self, x):
        """Whether each point's s lies in `s_range` and its u on its line."""
        return _miss(self, *self.coords(x)) == 0

    def coords_source(self):
        """The object whose ``coords_eta`` this chart's is."""
        return self

    def line_at(self, s):
        return self.lines_at([s])[0]

    def s_range(self):
        """(s0, s1), the range of the line index."""
        return self.t0, self.t1

    def stations(self, spacing, min_length=0.0):
        """Interior lattice of stations at the given step: s0 + step, ...,
        strictly inside (s0, s1)."""
        s0, s1 = self.s_range()
        step = spacing / self.speed
        n = max(1, int(np.ceil((s1 - s0) / step - 1e-12)) - 1)
        ss = s0 + step * np.arange(1, n + 1)
        ss = ss[ss < s1 - 1e-12 * (s1 - s0)]
        if len(ss) == 0:
            ss = np.array([0.5 * (s0 + s1)])
        return [ln for ln in self.lines_at(ss) if ln.length > min_length]


def _miss(chart, s, u, L):
    """max(-u, u - L, 0) where s lies in ``chart.s_range()``, else inf: how
    far each point misses the chart.  The chart holds the points it misses by 0."""
    s0, s1 = chart.s_range()
    miss = np.maximum(np.maximum(-u, u - L), 0.0)
    return np.where((s >= s0) & (s <= s1), miss, np.inf)


def locate(charts, pts):
    """(which, s, u, L, eta): the index into ``charts`` of the chart that
    holds each point, or -1, and the point's ``coords_eta`` on that chart.

    Charts are tried in list order on the points not yet settled, POINT_BLOCK
    points at a time; neighbouring charts with one `Chart.coords_source`
    share one computation.  A point settles at the first chart it misses by
    0 (`_miss`); any other point (a seam, or a boundary projection that
    rounds just outside) keeps the least miss, the lower index on ties.  A
    point that no chart's station range holds is -1, with NaN coordinates.
    """
    pts = _as_points(pts)
    which = np.full(len(pts), -1)
    s, u, L = np.full((3, len(pts)), np.nan)
    eta = np.full(pts.shape, np.nan)
    cols = [s, u, L, eta[:, 0], eta[:, 1]]  # 1-D, where indexing is cheap
    for a in range(0, len(pts), POINT_BLOCK):
        x = pts[a:a + POINT_BLOCK]
        got_which, got = which[a:a + POINT_BLOCK], [c[a:a + POINT_BLOCK] for c in cols]
        best = np.full(len(x), np.inf)
        todo, source = np.arange(len(x)), None
        for i, chart in enumerate(charts):
            if len(todo) == 0:
                break
            if chart.coords_source() is source:  # the last chart's, on the points left
                c = [ck[rest] for ck in c]
            else:
                source = chart.coords_source()
                *c, e = chart.coords_eta(x if len(todo) == len(x) else x[todo])
                c += [e[:, 0], e[:, 1]]
            miss = _miss(chart, *c[:3])
            better = miss < best[todo]
            hit = todo[better]
            got_which[hit], best[hit] = i, miss[better]
            for g, ck in zip(got, c):
                g[hit] = ck[better]
            rest = miss != 0
            todo = todo[rest]
    return which, s, u, L, eta


class ChordChart(Chart):
    """Parallel chords of a convex shape in a fixed direction.

    ``shape`` is a convex `Domain`: the chart reads its ``line_spans`` and
    ``extent``.  ``direction`` is the line direction; the index coordinate
    is the signed offset s = x . m with m = rot90(direction).  Start = the
    end with smaller t so that eta = rot_minus90(direction) points
    consistently.  An unconstrained chart carries its affine roof
    ``(c, g)``: phi = c + g . x on it.
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

    def coords_eta(self, x):
        rel_lo, rel_hi = self.shape.line_spans(x, self.d)
        return x @ self.m, -rel_lo, np.maximum(rel_hi - rel_lo, 0.0), np.tile(self._eta, (len(x), 1))

    def lines_at(self, ss):
        x = np.multiply.outer(ss, self.m)
        rel_lo, rel_hi = self.shape.line_spans(x, self.d)
        start, end = x + rel_lo[:, None] * self.d, x + rel_hi[:, None] * self.d
        return _lines(ss, start, end, np.tile(self._eta, (len(x), 1)),
                      *self.rho(ss), self.start_kind, self.end_kind)

    def rho(self, ss):
        return 1.0, 0.0

    def s_range(self):
        return self.shape.extent(self.m)


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

    def coords_eta(self, x):
        v = (_as_points(x) - self.center) @ self.frame
        r, th = np.hypot(v[:, 0], v[:, 1]), np.arctan2(v[:, 1], v[:, 0])
        ri = self.r_inner(th)
        return th, r - ri, np.maximum(self.r_outer(th) - ri, 0.0), rot_minus90(self._ray(th))

    def _ray(self, th):
        """The unit direction of the rays at angles th."""
        return np.stack([np.cos(th), np.sin(th)], axis=1) @ self.frame.T

    def lines_at(self, ss):
        e_r = self._ray(ss)
        start = self.center + self.r_inner(ss)[:, None] * e_r
        end = self.center + self.r_outer(ss)[:, None] * e_r
        return _lines(ss, start, end, rot_minus90(e_r), *self.rho(ss), "boundary", "boundary")

    def rho(self, ss):
        return 1.0, 1.0 / self.r_inner(ss)


class ExitRays:
    """The quickest-exit rays of one domain, shared by its `ExitChart`s: the
    ray at t runs from y - L nu to y = ``domain._boundary_at(t)``, nu the
    outward normal and L its ``exit_length`` to the medial axis, built once
    here.  A point lies on its foot's ray: one foot gives its coordinates."""

    def __init__(self, domain):
        self.domain = domain
        self.axis = domain.medial_axis()

    def at(self, t):
        """Foot y, outward normal nu and length L of the rays at t."""
        y = self.domain._boundary_at(t)
        nu = self.domain._outward_normal_at(y)
        return y, nu, self.axis.exit_length(y, nu)

    def coords_eta(self, x):
        foot = self.domain.nearest_boundary_point(x)
        t = self.domain._boundary_parameter(foot)
        _, nu, L = self.at(t)
        return t, L - np.hypot(*(x - foot).T), L, rot_minus90(nu)


class ExitChart(Chart):
    """Quickest-exit rays of one smooth boundary piece, t in (t0, t1).

    It reads the domain's shared `ExitRays` at t in the piece; eta =
    rot_minus90(nu).  rho = 1 + u kappa / (1 - kappa L); where 1 - kappa L
    ~ 0 the ray starts at its centre of curvature (the disc's) and rho = u.
    """

    data_kind = "cauchy"

    def __init__(self, rays, t0, t1, speed):
        self.rays, self.t0, self.t1, self.speed = rays, t0, t1, speed

    def coords_eta(self, x):
        return self.rays.coords_eta(x)

    def coords_source(self):
        return self.rays

    def rho(self, ss, rays=None):
        """(rho0, rho1) of the lines at ss, from their rays (y, nu, L) where
        given; rho0 = 0 on a ray from its focal point."""
        y, _, L = rays or self.rays.at(np.asarray(ss, dtype=float))
        kappa = self.rays.domain._curvature_at(y)
        rest = 1.0 - kappa * L
        focal = rest < 1e-9
        return np.where(focal, 0.0, 1.0), np.where(focal, 1.0, kappa / np.where(focal, 1.0, rest))

    def lines_at(self, ss):
        y, nu, L = rays = self.rays.at(np.asarray(ss, dtype=float))
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
        data.append({"vertex": a_i, "ahat": a_i / np.hypot(*a_i),
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
            charts = [ChordChart(regs[k], d) for k, d in (
                ("band", (0.0, 1.0)), ("ne", (1.0, -1.0)), ("sw", (1.0, -1.0)),
                ("se", (1.0, 1.0)), ("nw", (1.0, 1.0)))]
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

    rays = ExitRays(domain)
    return [ExitChart(rays, *piece) for piece in domain._boundary_pieces()]
