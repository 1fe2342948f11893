"""Ruling charts: the per-shape line structure of the extremal potentials.

For each catalog shape and curvature sign, the extremal convex potential is
affine along a family of segments (its ruling lines).  A *chart* describes
one region of that family in closed form: membership test, the coordinates
(s, u) of a point (line index and position along its line), the line through
any station, the transverse direction ``eta``, and the change-of-measure
factor ``rho`` (affine along each line).

Most charts are chords in a fixed direction (`ChordChart`) of a convex
piece of the shape: the whole shape, the positive rectangle's and tangential
polygon's regions, or, at negative curvature, a polygon's side regions
(`ConvexPolygon.side_regions`) along their outward normals.  Fans of rays
and the ellipse and half-disc exit families have charts of their own.

Charts are consumed by the dual-potential evaluator (values by convex
interpolation along rulings), by the stable-line builder, and by the
characteristic-ODE rasterizer.  Each of them asks `locate` which chart holds
a point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, UnsupportedShapeError
from .geometry import ConvexPolygon, Disc, Ellipse, HalfDisc, Rectangle, _pair, rot90


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

    @functools.cached_property
    def length(self):
        return float(np.hypot(*(self.end - self.start)))

    def direction(self):
        return (self.end - self.start) / self.length

    def point_at(self, u):
        """(len(u), 2) points at distances u (a 1-D array) from the start."""
        x0, d = self.start, self.direction()
        return _pair(x0[0] + u * d[0], x0[1] + u * d[1])

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


    def eta_at(self, x):
        raise NotImplementedError

    def coords_eta(self, x):
        """``coords(x)`` and ``eta_at(x)`` as one (s, u, L, eta) tuple; a
        chart whose two share work overrides it."""
        return (*self.coords(x), self.eta_at(x))

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


class ChordChart(Chart):
    """Parallel chords of a convex shape in a fixed direction.

    ``shape`` is a `Disc`, `Ellipse` or `ConvexPolygon`: the chart reads its
    ``contains``, ``line_spans`` and ``extent``.  ``direction`` is the line
    direction; the index coordinate is the signed offset s = x . m with
    m = rot90(direction).  Start = the end with smaller t so that
    eta = rot_minus90(direction) points consistently.  An unconstrained
    chart carries its affine roof ``(c, g)``: phi = c + g . x on it.
    """

    def __init__(self, shape, direction, label="O", kinds=("boundary", "boundary"),
                 data_kind="bvp", roof=None):
        d = np.asarray(direction, dtype=float)
        self.d = d / np.hypot(*d)
        self.m = rot90(self.d)
        self.shape = shape
        self.roof = roof
        self.label = label
        self.start_kind, self.end_kind = kinds
        self.data_kind = data_kind
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

    def line_at(self, s):
        p = s * self.m
        lo, hi = self.shape.line_spans(p, self.d)
        start = p + lo[0] * self.d
        end = p + hi[0] * self.d
        return LineGeometry(
            s=float(s), start=start, end=end, eta=self._eta.copy(),
            start_kind=self.start_kind, end_kind=self.end_kind,
            rho0=1.0, rho1=0.0, label=self.label,
        )

    def s_range(self):
        return self.shape.extent(self.m)


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
                 label="O", kinds=("boundary", "boundary"), data_kind="bvp"):
        self.center = np.asarray(center, dtype=float)
        self.frame = np.asarray(frame, dtype=float)  # columns: local axes
        self.t0, self.t1 = theta_range
        self.r_inner = r_inner
        self.r_outer = r_outer
        self.label = label
        self.start_kind, self.end_kind = kinds
        self.data_kind = data_kind

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
            rho0, rho1 = 0.0, 1.0  # fan center: rho = r vanishes at the start
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


    def eta_at(self, x):
        r, th = self._local(x)
        e_r = np.stack([np.cos(th), np.sin(th)], axis=1) @ self.frame.T
        return rot_minus90(e_r)


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
        y = _pair(a * cs, b * sn)
        g = _pair(cs / a, sn / b)
        N = np.hypot(g[..., 0], g[..., 1])
        nu = g / N[..., None]
        t_cut = b * b * N
        z = _pair(cs * (a - b * b / a), 0.0)
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
        """Boundary parameter of each point's foot, in [-pi, pi]."""
        y = np.atleast_2d(self.E.nearest_boundary_point(x))
        return np.arctan2(y[:, 1] / self.E.b, y[:, 0] / self.E.a)

    def coords(self, x, phi=None):
        """(s, u, L); ``phi`` is ``_phi_of(x)`` when the caller has it."""
        x = np.atleast_2d(x)
        if phi is None:
            phi = self._phi_of(x)
        phi = np.mod(phi, 2 * np.pi)
        y, nu, t_cut, z = self._phi_data(phi)
        d = np.hypot(*(x - y).T)
        return phi, t_cut - d, t_cut

    def _eta_of_phi(self, phi):
        # the boundary normal at the foot, as in line_at: x - foot vanishes
        # on cells projected onto the boundary.  phi is not reduced mod
        # 2 pi, so eta keeps the bits of the unreduced cos and sin.
        return rot_minus90(self._phi_data(phi)[1])

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


    def eta_at(self, x):
        return self._eta_of_phi(self._phi_of(np.atleast_2d(x)))

    def coords_eta(self, x):
        """The coordinates and eta from one foot point per point."""
        x = np.atleast_2d(x)
        phi = self._phi_of(x)
        return (*self.coords(x, phi), self._eta_of_phi(phi))


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

    def __post_init__(self):
        if self.kind not in ("parallel", "mixture"):
            raise ParameterError(
                f"unknown u_decomposition kind {self.kind!r}: use 'parallel' or 'mixture'"
            )


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
    return ChordChart(shape, d, label="U", kinds=kinds, data_kind="bvp", roof=roof)


def charts_for(domain, sign, decomposition: Optional[UDecomposition] = None):
    """Build the ruling charts for (shape, curvature sign).

    sign: +1 (or 0, which shares the structure of +1) or -1.  At -1 the
    lines start on the medial axis, which ``domain.medial_axis()`` describes.
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
            chart = FanChart(
                center=f, frame=frame,
                theta_range=(np.pi / 4, 3 * np.pi / 4),
                r_inner=lambda th: R / np.sin(th),
                r_outer=lambda th: 2 * R * np.sin(th),
                label="O", kinds=("boundary", "boundary"), data_kind="bvp",
            )
            return [chart]
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

    # negative sign
    if isinstance(domain, Disc):
        R = domain.radius
        chart = FanChart(
            center=np.asarray(domain.center, dtype=float), frame=np.eye(2),
            theta_range=(-np.pi, np.pi),
            r_inner=lambda th: 0.0 * np.asarray(th),
            r_outer=lambda th: R + 0.0 * np.asarray(th),
            label="O", kinds=("focal_point", "boundary"), data_kind="cauchy",
        )
        return [chart]
    if isinstance(domain, Ellipse):
        return [EllipseExitChart(domain, "upper"), EllipseExitChart(domain, "lower")]
    if isinstance(domain, ConvexPolygon):
        return [ChordChart(region, nu, kinds=("medial_axis", "boundary"), data_kind="cauchy")
                for region, nu in zip(domain.side_regions(), domain.edge_normals)]
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
        )
        return [south, north]
    raise UnsupportedShapeError(f"no negative-curvature charts for {domain.name}")
