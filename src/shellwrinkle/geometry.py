"""Planar shape catalog with exact boundary distance, normals and medial axes.

The catalog is closed: disc, ellipse, half-disc, convex polygon, and the
rectangle, which is a convex polygon that keeps its half-widths.
Every operation is a pure function of an immutable shape; point-valued
arguments take batches ``(n, 2)`` and give one value, or one row, per point.

A shape states each thing once: its `region()` (half-planes and at most one
ellipse), its `extent` along a direction, its foot point with the distance
it is built from (`_foot`), its boundary data (see `Domain`), its
`medial_axis()`, `area()`, `perimeter()` and `spec()`.  `Domain` derives the
rest from these: `contains` and `line_spans` from the region (the chord
charts of `rulings` clip with them), `nearest_boundary_point` and
`boundary_distance` from the foot, `bbox` and `diameter` from the extent,
and `boundary_sample`, one record array, from the boundary curve and
outward normal.

Conventions: boundaries are oriented counterclockwise and ``nu`` is the
outward unit normal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedShapeError
from .grids import _clip, _conic_coords, _cross

CORNER_DELTA_FACTOR = 1e-3  # check_admissible skips samples within 1e-3 diam of a corner
_FOOT_MAX_STEPS = 100  # guard on the ellipse Newton iterations (foot ~12, arclength 2-4)
SCALE_BOUND = 1e100  # a shape's numbers are at most this in magnitude, its sizes at least 1/this
OFFSET_BOUND = 1e6  # a centre or vertex is at most this many sizes from the origin


def rot90(v):
    """Counterclockwise rotation by 90 degrees; works on (..., 2) arrays."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def _as_points(x):
    """``x`` as a float array of points; a ValueError unless its shape is
    (n, 2), so a single point is a one-row batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got shape {x.shape}")
    return x


def _finite(shape, name, value, dims=(), size=None):
    """``value`` as a float, or as an array of shape ``dims``; a
    ParameterError naming the field unless it is that many finite numbers,
    none above SCALE_BOUND in magnitude (where areas and grid steps would
    overflow) and, given the shape's ``size``, none above OFFSET_BOUND * size
    (a placement, whose cell centres would round together)."""
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        x = np.array(np.nan)
    if x.shape != dims or not np.all(np.isfinite(x)):
        what = f"a finite {dims[0]}-vector" if dims else "a finite number"
        raise ParameterError(f"{shape} {name} must be {what}, got {value!r}")
    if np.any(np.abs(x) > SCALE_BOUND):
        raise ParameterError(f"{shape} {name} is out of scale: numbers must be at most "
                             f"{SCALE_BOUND:g} in magnitude, got {value!r}")
    if size is not None and np.max(np.abs(x)) > OFFSET_BOUND * size:
        raise ParameterError(
            f"{shape} {name}: too far from the origin for the shape's size {size:g}; numbers "
            f"must be at most {OFFSET_BOUND:g} times it in magnitude, got {value!r}")
    return x if dims else float(x)


def _size(shape, name, value):
    """A size of the shape: a `_finite` number that is positive and at
    least 1/SCALE_BOUND (where areas and grid steps would underflow)."""
    x = _finite(shape, name, value)
    if x <= 0:
        raise ParameterError(f"{shape} {name} must be positive, got {value!r}")
    if x < 1.0 / SCALE_BOUND:
        raise ParameterError(f"{shape} {name} is out of scale: sizes must be at least "
                             f"{1.0 / SCALE_BOUND:g}, got {value!r}")
    return x


def _pair(u, v):
    """np.stack([u, v], axis=-1) for u of any shape and v broadcast to it,
    without stack's per-call checks."""
    out = np.empty(np.shape(u) + (2,))
    out[..., 0] = u
    out[..., 1] = v
    return out


def _carlson(x, y, z):
    """Carlson's R_F(x, y, z) and R_D(x, y, z), elementwise, by duplication
    (DLMF 19.36.1-2; Carlson, Numer. Algorithms 10, 1995) until every
    element's arguments are within 1e-3 of their mean (series error < 1e-18)."""
    v = np.array(np.broadcast_arrays(x, y, z), dtype=float)  # (3, ...)
    tail = np.zeros(v.shape[1:])  # 3 sum_k 4^-k / (sqrt(z_k) (z_k + lam_k)), of R_D
    scale = 1.0  # 4^-k
    while np.any(np.abs(v - v.mean(axis=0)) > 1e-3 * v.mean(axis=0)):
        r = np.sqrt(v)
        lam = r[0] * (r[1] + r[2]) + r[1] * r[2]
        tail += 3.0 * scale / (r[2] * (v[2] + lam))
        v = 0.25 * (v + lam)
        scale *= 0.25
    mu = v.mean(axis=0)
    X, Y = 1.0 - v[0] / mu, 1.0 - v[1] / mu
    e2, e3 = X * Y - (X + Y) ** 2, -X * Y * (X + Y)
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(mu)
    mu = (v[0] + v[1] + 3.0 * v[2]) / 5.0
    X, Y = 1.0 - v[0] / mu, 1.0 - v[1] / mu
    XY, Z = X * Y, -(X + Y) / 3.0
    e2, e3 = XY - 6.0 * Z * Z, (3.0 * XY - 8.0 * Z * Z) * Z
    e4, e5 = 3.0 * (XY - Z * Z) * Z * Z, XY * Z**3
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return rf, tail + scale * series / (mu * np.sqrt(mu))


@functools.lru_cache(maxsize=64)
def _ellipe(m1):
    """E(m) of the second kind from m1 = 1 - m in (0, 1]: 2 R_G(0, m1, 1) =
    m1 (R_F(0, 1, m1) + (m/3) R_D(0, 1, m1)) (DLMF 19.25.1, 19.21.10), whose
    positive terms, unlike R_F(0, m1, 1) - (m/3) R_D(0, m1, 1), do not
    cancel as m nears 1."""
    rf, rd = _carlson(0.0, 1.0, m1)
    return float(m1 * (rf + (1.0 - m1) / 3.0 * rd))


def _ellipeinc(phi, m1):
    """E(phi | m) of the second kind for any real phi, from m1 = 1 - m: on
    |phi| <= pi/2, s R_F(c^2, c^2 + m1 s^2, 1) - (m/3) s^3 R_D(same) with s,
    c = sin, cos phi (DLMF 19.25.5), and E(phi + k pi) = E(phi) + 2 k E(m)."""
    k = np.round(np.asarray(phi, dtype=float) / np.pi)
    r = phi - k * np.pi
    s, c = np.sin(r), np.cos(r)
    rf, rd = _carlson(c * c, c * c + m1 * s * s, 1.0)
    return s * rf - (1.0 - m1) / 3.0 * s**3 * rd + 2.0 * k * _ellipe(m1)


# A boundary sample: position, outward normal, arclength and corner flag.
SAMPLE_DTYPE = np.dtype([("position", float, 2), ("nu", float, 2), ("arclength", float),
                         ("corner", bool)])


@dataclass(frozen=True)
class ParabolicArc:
    """Medial-axis arc in focus + directrix form.

    The arc is {x : |x - focus| = d(x, directrix)} with the directrix the
    line through ``directrix_point`` with unit normal ``directrix_normal``
    (pointing from the arc toward the line).  ``t_range`` parameterizes the
    arc by the coordinate along the directrix direction.
    """

    focus: np.ndarray
    directrix_point: np.ndarray
    directrix_normal: np.ndarray
    t_range: tuple

    def points(self, n=129):
        """Sample the arc as an (n, 2) polyline."""
        u = np.asarray(self.directrix_normal, float)
        u = u / np.hypot(*u)
        v = rot90(u)
        c = np.asarray(self.focus, float)
        p0 = np.asarray(self.directrix_point, float)
        h = (p0 - c) @ u  # distance focus -> directrix
        t = np.linspace(self.t_range[0], self.t_range[1], n)
        # In the (v, u) frame centered at the focus the arc is
        # s = (h^2 - t^2) / (2 h), measured toward the directrix.
        s = (h * h - t * t) / (2.0 * h)
        return c + t[:, None] * v[None, :] + s[:, None] * u[None, :]


@dataclass(frozen=True)
class MedialAxis:
    """Medial axis as straight segments, parabolic arcs, and vertices."""

    segments: list = field(default_factory=list)  # [((x1,y1),(x2,y2)), ...]
    arcs: list = field(default_factory=list)  # [ParabolicArc, ...]
    vertices: list = field(default_factory=list)  # [(point, degree), ...]

    def polylines(self, arc_samples=129):
        """All components as polylines (for CSV/SVG export and tests)."""
        lines = [np.asarray(seg, dtype=float) for seg in self.segments]
        lines += [arc.points(arc_samples) for arc in self.arcs]
        if not lines and self.vertices:
            lines = [np.asarray([v for v, _ in self.vertices], dtype=float)]
        return lines

    def exit_length(self, y, nu):
        """Distance from boundary points y along -nu to the axis: the length
        of each quickest-exit ray, 0 from a corner.  A ray along a segment's
        own line (the ellipse's vertex rays) meets its nearer end; an arc is
        met where |x - focus| = d(x, directrix); a lone node (the disc's
        centre) is at |y - node|."""
        if not self.segments and not self.arcs:
            return np.hypot(*(y - self.vertices[0][0]).T)
        best = np.full(len(y), np.inf)

        def keep(L, hit, tol):
            hit &= L >= -1e-3 * tol  # a corner's ray meets the axis at L ~ 0
            np.minimum(best, np.where(hit, np.maximum(L, 0.0), np.inf), out=best)

        for p, q in self.segments:
            w, e = np.subtract(p, y), np.subtract(q, p)  # y - L nu = p + s e
            den, wxn, tol = _cross(nu, e), _cross(w, nu), 1e-9 * np.hypot(*e)
            par = np.abs(den) <= 1e-3 * tol
            den = np.where(par, 1.0, den)
            s = wxn / den
            keep(-_cross(w, e) / den, ~par & (s >= -1e-9) & (s <= 1 + 1e-9), tol)
            if par.any():
                wn = np.sum(w * nu, axis=1)  # the ends lie at L = -wn and -wn - e.nu
                keep(-np.maximum(wn, wn + nu @ e), par & (np.abs(wxn) <= tol), tol)
        for arc in self.arcs:
            f, u = np.asarray(arc.focus, float), np.asarray(arc.directrix_normal, float)
            w, nu_u = y - f, nu @ u
            g = (arc.directrix_point - f) @ u - w @ u  # y's distance to the directrix
            # |w - L nu|^2 = (g + L nu_u)^2, that is A L^2 + B L + C = 0
            A, B = 1.0 - nu_u**2, -2.0 * (np.sum(w * nu, axis=1) + g * nu_u)
            C = np.sum(w * w, axis=1) - g * g
            q = -0.5 * (B + np.copysign(np.sqrt(np.maximum(B * B - 4 * A * C, 0.0)), B))
            with np.errstate(divide="ignore", invalid="ignore"):
                for L in (C / q, q / A):  # both roots, stable as A -> 0
                    t = (w - L[:, None] * nu) @ rot90(u)
                    keep(L, (g + L * nu_u >= 0.0) & (t >= arc.t_range[0] - 1e-9)
                         & (t <= arc.t_range[1] + 1e-9), 1e-9 * np.ptp(arc.t_range))
        return best

    def to_csv_rows(self):
        """Flatten `polylines()` to (x1, y1, x2, y2) rows, one per
        sub-segment; a lone node (the disc's) is one zero-length row."""
        rows = []
        for line in self.polylines():
            if len(line) == 1:
                line = np.repeat(line, 2, axis=0)
            for p, q in zip(line[:-1], line[1:]):
                rows.append((p[0], p[1], q[0], q[1]))
        return rows


class Domain:
    """Base class for catalog shapes; generic Lipschitz domains are rejected
    by design.

    A shape states, in closed form: `region()`, `extent(m)`, `_foot(x)`,
    its boundary data, `medial_axis()`, `area()`, `perimeter()` and
    `spec()`.  `Domain` derives `contains`, `line_spans`,
    `nearest_boundary_point`, `boundary_distance`, `bbox`, `diameter` and
    `boundary_sample` from them, so no shape states its inside twice.

    At K < 0 `rulings.ExitRays` and `ExitChart` read a shape only through its boundary
    data: `_boundary_pieces()`, a (t0, t1, speed) per smooth piece between
    corners, with t the shape's own parameter (an angle on a circle or an
    ellipse, the position along a polygon's side, the position over the
    radius along the half-disc's flat side) and speed the largest |dy/dt|;
    `_boundary_at(t)` and its inverse `_boundary_parameter(y)`;
    `_curvature_at(y)`, 0 on flat sides; `_outward_normal_at` and
    `medial_axis()`.
    """

    name = "domain"

    # -- what every shape states ------------------------------------------
    def region(self):
        """The shape as an intersection of half-planes and at most one ellipse.

        Returns ``(planes, conic)``.  ``planes`` is an (m, 3) array of rows
        (n1, n2, c) with unit outward normal n: the shape lies in n.x <= c.
        ``conic`` is None or ``(center, M)`` with det M > 0: the shape lies
        in |M (x - center)| <= 1.
        """
        raise NotImplementedError

    def extent(self, m):
        """(min, max) of x . m over the shape, |m| = 1."""
        raise NotImplementedError

    def _foot(self, x):
        """(y, d) for (n, 2) points: each one's foot y, its nearest point of
        the closed boundary (one of them where there are several), and d,
        the distance the foot is built from, negative outside (where only
        |d| <= |x - y| holds)."""
        raise NotImplementedError

    def _outward_normal_at(self, y):
        """Outward normal at boundary points (smooth points only)."""
        raise NotImplementedError

    def medial_axis(self):
        """The medial axis, a `MedialAxis`.  It is the singular set of the
        smallest extension, where the quickest-exit rays end."""
        raise NotImplementedError

    def boundary_sample(self, n):
        """About n boundary samples (a polygon rounds per side), quasi-uniform
        in arclength: a record array with fields ``position`` (2), ``nu``
        (2), ``arclength`` and ``corner``, read by column (``s.position``) or
        by row (``s[i].position``).  ``nu`` is the outward normal, NaN at
        corners."""
        if n < 4:
            raise ParameterError("need at least 4 boundary samples")
        pos, arc, corner = self._boundary_curve(n)
        s = np.recarray(len(pos), dtype=SAMPLE_DTYPE)
        s.position, s.arclength, s.corner = pos, arc, corner
        s.nu = np.where(corner[:, None], np.nan, self._outward_normal_at(pos))
        return s

    def _boundary_curve(self, n):
        """(positions, arclengths, corner flags) of about n boundary points, CCW."""
        raise NotImplementedError

    def area(self):
        raise NotImplementedError

    def perimeter(self):
        raise NotImplementedError

    def spec(self):
        raise NotImplementedError

    # -- what `Domain` derives from it ----------------------------------------
    def contains(self, x, tol=0.0):
        """Whether each point lies in the shape grown by ``tol`` (shrunk for
        tol < 0): each half-plane row of `region()`, then the conic, which
        grows by 1 + tol / (its longest semi-axis).  So ``tol`` is a distance
        on half-planes and discs, and on an ellipse a band within |tol| of
        the boundary.  At tol = 0 these are the expressions of the
        cell-corner test in `grids._cell_areas`."""
        x = _as_points(x)
        X, Y = x[:, 0], x[:, 1]
        planes, conic = self.region()
        ok = np.ones(len(x), dtype=bool)
        for n1, n2, c in planes:
            ok &= c - n1 * X - n2 * Y >= -tol
        if conic is not None:
            center, M = conic
            u, v = _conic_coords(X, Y, center, M)
            # 1 / the longest semi-axis is M's least singular value, |det M| / the greatest
            (p, q), (r, s) = M
            grow = 1.0 + 2 * tol * abs(p * s - q * r) / (np.hypot(p + s, r - q)
                                                          + np.hypot(p - s, r + q))
            ok &= u * u + v * v <= grow * abs(grow)
        return ok

    def line_spans(self, pts, d):
        """(t_lo, t_hi) where each line {p + t d}, |d| = 1, enters and leaves
        the shape, cut by each row of `region()` elementwise, so that a span
        does not depend on the lines clipped with it; a line that misses the
        shape gets t_lo > t_hi."""
        p = _as_points(pts)
        X, Y = p[:, 0], p[:, 1]
        d = np.asarray(d, dtype=float)
        planes, conic = self.region()
        slack = 1e-12 * self.diameter()
        lo, hi = np.full(len(p), -np.inf), np.full(len(p), np.inf)
        for n1, n2, c in planes:
            num, den = c - n1 * X - n2 * Y, n1 * d[0] + n2 * d[1]
            if abs(den) < 1e-14:
                # a line parallel to a side misses the shape once it lies
                # beyond that side by more than 1e-12 diam, at any scale
                miss = num < -slack
                lo, hi = np.where(miss, 1.0, lo), np.where(miss, 0.0, hi)
            elif den > 0:
                hi = np.minimum(hi, num / den)
            else:
                lo = np.maximum(lo, num / den)
        if conic is not None:
            center, M = conic
            u, v = _conic_coords(X, Y, center, M)
            e = M @ d
            A, B = e @ e, u * e[0] + v * e[1]
            disc = B * B - A * (u * u + v * v - 1.0)
            ok = disc >= 0
            r = np.sqrt(np.maximum(disc, 0.0))
            lo = np.where(ok, np.maximum(lo, (-B - r) / A), 1.0)
            hi = np.where(ok, np.minimum(hi, (-B + r) / A), 0.0)
        return lo, hi

    def nearest_boundary_point(self, x):
        """The foot of each point: its nearest point of the closed boundary."""
        return self._foot(_as_points(x))[0]

    def boundary_distance(self, x):
        """The distance to the boundary, |x - foot| as `_foot` builds it: 0
        for a point outside within 1e-12 diam, a DomainError farther out."""
        return self._inside_foot(_as_points(x))[1]

    def _inside_foot(self, x):
        """`_foot` of (n, 2) points, with d = 0 for a point outside within
        1e-12 diam of the boundary; a DomainError for one farther out."""
        y, d = self._foot(x)
        if np.any(d < -1e-12 * self.diameter()):
            raise DomainError(f"point outside {self.name}")
        return y, np.maximum(d, 0.0)

    def bbox(self):
        """((xmin, ymin), (xmax, ymax)): `extent` along the two axes."""
        (x0, x1), (y0, y1) = self.extent((1.0, 0.0)), self.extent((0.0, 1.0))
        return (x0, y0), (x1, y1)

    def diameter(self):
        (x0, y0), (x1, y1) = self.bbox()
        return float(np.hypot(x1 - x0, y1 - y0))


@dataclass(frozen=True)
class Disc(Domain):
    radius: float
    center: tuple = (0.0, 0.0)
    name = "disc"

    def __post_init__(self):
        _finite("disc", "center", self.center, (2,), size=_size("disc", "radius", self.radius))

    def _c(self):
        return np.asarray(self.center, dtype=float)

    def _foot(self, x):
        v = x - self._c()
        r = np.hypot(v[:, 0], v[:, 1])
        safe = np.where(r < 1e-300, 1.0, r)
        y = self._c() + self.radius * v / safe[:, None]
        y[r < 1e-300] = self._c() + np.array([self.radius, 0.0])
        return y, self.radius - r

    def _outward_normal_at(self, y):
        v = y - self._c()
        n = np.hypot(v[:, 0], v[:, 1])
        return v / n[:, None]

    def medial_axis(self):
        return MedialAxis(vertices=[(tuple(self._c()), 0)])

    def _boundary_curve(self, n):
        th = 2.0 * np.pi * np.arange(n) / n
        return self._boundary_at(th), self.radius * th, np.zeros(n, dtype=bool)

    def _boundary_pieces(self):
        return [(-np.pi, np.pi, self.radius)]

    def _boundary_at(self, t):
        return self._c() + self.radius * _pair(np.cos(t), np.sin(t))

    def _boundary_parameter(self, y):
        v = y - self._c()
        return np.arctan2(v[:, 1], v[:, 0])

    def _curvature_at(self, y):
        return np.full(len(y), 1.0 / self.radius)

    def area(self):
        return float(np.pi * self.radius**2)

    def region(self):
        return np.zeros((0, 3)), (self._c(), np.eye(2) / self.radius)

    def extent(self, m):
        """(min, max) of x . m over the disc, |m| = 1."""
        c = self._c() @ np.asarray(m, float)
        return c - self.radius, c + self.radius

    def perimeter(self):
        return float(2 * np.pi * self.radius)

    def spec(self):
        return {"shape": "disc", "radius": self.radius, "center": list(self.center)}


@dataclass(frozen=True)
class Ellipse(Domain):
    """Axis-aligned ellipse x1^2/a^2 + x2^2/b^2 < 1 centered at the origin,
    with 0 < b < a.  Its perimeter and arclength are E(m) and E(phi | m) with
    m = 1 - b^2/a^2 (`_ellipe`, `_ellipeinc`), given m1 = b^2/a^2 (`_m1`)."""

    a: float
    b: float
    name = "ellipse"

    def __post_init__(self):
        if not _size("ellipse", "b", self.b) < _size("ellipse", "a", self.a):
            raise ParameterError("ellipse requires 0 < b < a")

    def _foot_parameter(self, p):
        """delta = t + b^2 for the foot of each point p (p1, p2 >= 0).

        The nearest boundary point of p is (a^2 p1 / (delta + a^2 - b^2),
        b^2 p2 / delta), where delta is the largest root of

            f(delta) = (a p1 / (delta + a^2 - b^2))^2 + (b p2 / delta)^2 - 1,

        bracketed by [b p2, hypot(a p1, b p2)].  On delta > 0, f is convex
        and decreasing, and f >= 0 at the left bracket.  Newton's tangent at
        a point where f >= 0 then lies below f and meets zero at or before
        the root, so iterates started from the left bracket climb to the root
        without overshooting; they are clamped to the right bracket and
        stopped once no iterate changes.  Working in delta rather than t
        keeps b^2 p2 / delta exact near the major axis, where delta ~ p2.
        """
        a, b = self.a, self.b
        c2 = a * a - b * b
        ap, bp = a * p[:, 0], b * p[:, 1]
        hi = np.hypot(ap, bp)
        delta = bp.copy()
        for _ in range(_FOOT_MAX_STEPS):
            q1 = ap / (delta + c2)
            q2 = bp / delta
            f = q1 * q1 + q2 * q2 - 1.0
            df = -2.0 * (q1 * q1 / (delta + c2) + q2 * q2 / delta)
            nxt = np.minimum(np.maximum(delta - f / df, delta), hi)
            if np.array_equal(nxt, delta):
                break
            delta = nxt
        return delta

    def _foot(self, x):
        a, b = self.a, self.b
        y = np.empty_like(x)
        p = np.abs(x)
        on_major = p[:, 1] < 1e-14 * b
        # off-axis (or on the minor axis): the foot equation is well posed
        gen = ~on_major
        if np.any(gen):
            delta = self._foot_parameter(p[gen])
            y[gen, 0] = a * a * p[gen, 0] / (delta + (a * a - b * b))
            y[gen, 1] = b * b * p[gen, 1] / delta
        if np.any(on_major):
            # on the major axis the foot is either the vertex or a symmetric
            # off-axis pair; return the upper representative of the pair.
            x1 = p[on_major, 0]
            cusp = a - b * b / a
            beyond = x1 >= cusp
            c = np.minimum(x1 * a / (a * a - b * b), 1.0)
            yy = np.empty((int(on_major.sum()), 2))
            yy[:, 0] = np.where(beyond, a, a * c)
            yy[:, 1] = np.where(beyond, 0.0, b * np.sqrt(np.maximum(1 - c * c, 0.0)))
            y[on_major] = yy
        # restore quadrant signs (points exactly on an axis keep the + side)
        sgn = np.where(np.abs(x) < 1e-300, 1.0, np.sign(np.where(x == 0.0, 1.0, x)))
        y *= sgn
        d = np.hypot(*(x - y).T)
        return y, np.where(self.contains(x), d, -d)

    def medial_segment_halflength(self):
        return self.a - self.b**2 / self.a

    def _outward_normal_at(self, y):
        g = np.stack([y[:, 0] / self.a**2, y[:, 1] / self.b**2], axis=1)
        n = np.hypot(g[:, 0], g[:, 1])
        return g / n[:, None]

    def medial_axis(self):
        m = self.medial_segment_halflength()
        return MedialAxis(
            segments=[((-m, 0.0), (m, 0.0))],
            vertices=[((-m, 0.0), 1), ((m, 0.0), 1)],
        )

    def _m1(self):
        """(b/a)^2 itself, as 1 - m rounds to 0 once b/a < 1e-8, where R_F(0, 0,
        1) is infinite; floored at 1e-300, where E no longer moves and R_D
        would overflow."""
        return max((self.b / self.a) ** 2, 1e-300)

    def perimeter(self):
        return float(4.0 * self.a * _ellipe(self._m1()))

    def _arclength(self, phi):
        """Arclength from (a, 0) to (a cos phi, b sin phi), counterclockwise:
        a (E(m) - E(pi/2 - phi | m)) with m = 1 - b^2/a^2."""
        m1 = self._m1()
        return self.a * (_ellipe(m1) - _ellipeinc(0.5 * np.pi - phi, m1))

    def _boundary_curve(self, n):
        # phi solves s(phi) = target by Newton from the inverse interpolation
        # of s at 257 angles; after a step below 1e-8 the next is rounding
        targets = self.perimeter() * np.arange(n) / n
        nodes = np.linspace(0.0, 2 * np.pi, 257)
        phi = np.interp(targets, self._arclength(nodes), nodes)
        for _ in range(_FOOT_MAX_STEPS):
            step = (self._arclength(phi) - targets) / np.hypot(
                self.a * np.sin(phi), self.b * np.cos(phi))
            phi -= step
            if np.abs(step).max() < 1e-8:
                break
        return self._boundary_at(phi), targets, np.zeros(n, dtype=bool)

    def _boundary_pieces(self):
        return [(-np.pi, np.pi, self.a)]

    def _boundary_at(self, t):
        return _pair(self.a * np.cos(t), self.b * np.sin(t))

    def _boundary_parameter(self, y):
        return np.arctan2(y[:, 1] / self.b, y[:, 0] / self.a)

    def _curvature_at(self, y):
        # 1 / (a^2 b^2 |g|^3) with g = (y1/a^2, y2/b^2) the unnormalised normal
        g = np.hypot(y[:, 0] / self.a**2, y[:, 1] / self.b**2)
        return 1.0 / ((self.a * self.b * g) ** 2 * g)

    def area(self):
        return float(np.pi * self.a * self.b)

    def region(self):
        return np.zeros((0, 3)), (np.zeros(2), np.diag([1.0 / self.a, 1.0 / self.b]))

    def extent(self, m):
        """(min, max) of x . m over the ellipse, |m| = 1."""
        m = np.asarray(m, float)
        r = np.hypot(self.a * m[0], self.b * m[1])
        return -r, r

    def spec(self):
        return {"shape": "ellipse", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class HalfDisc(Domain):
    """Half-disc {|x - center| < radius, (x - center).u > 0} where u is the
    unit vector at angle ``orientation``; the flat side passes through the
    center."""

    radius: float
    center: tuple = (0.0, 0.0)
    orientation: float = np.pi / 2
    name = "half_disc"

    def __post_init__(self):
        _finite("half_disc", "center", self.center, (2,),
                size=_size("half_disc", "radius", self.radius))
        _finite("half_disc", "orientation", self.orientation)

    def _frame(self):
        u = np.array([np.cos(self.orientation), np.sin(self.orientation)])
        return np.asarray(self.center, dtype=float), u, -rot90(u)

    def to_local(self, x):
        """Map (..., 2) points to the canonical frame: center at origin, flat
        side on v=0, bulge toward v>0.  Returns (t, v) with t along the flat
        side; v = (x - c).u is rounded as `contains` rounds the flat row of
        `region()`, so that the two agree on which side a point lies."""
        c, u, w = self._frame()
        x = np.asarray(x, dtype=float)
        return _pair((x - c) @ w, x[..., 0] * u[0] - u @ c + x[..., 1] * u[1])

    def from_local(self, loc):
        c, u, w = self._frame()
        loc = np.asarray(loc, dtype=float)
        return c + loc[..., :1] * w + loc[..., 1:] * u

    def _foot(self, x):
        loc = self.to_local(x)
        r = np.hypot(loc[:, 0], loc[:, 1])
        d_arc = self.radius - r
        d_flat = loc[:, 1]
        y = loc.copy()
        use_arc = d_arc <= d_flat
        safe = np.where(r < 1e-300, 1.0, r)
        y[use_arc] = self.radius * loc[use_arc] / safe[use_arc, None]
        y[~use_arc, 1] = 0.0
        # below the flat side's line the nearest point of the closed boundary
        # is on the closed flat side: the foot when it lies on the side (then
        # it is the foot above), else the nearer corner, whose normal cone
        # holds every such point beyond the arc
        below = d_flat < 0
        y[below, 0] = np.clip(loc[below, 0], -self.radius, self.radius)
        y[below, 1] = 0.0
        return self.from_local(y), np.minimum(d_arc, d_flat)

    def _on_arc(self, loc):
        """Whether boundary points, in local coordinates, lie on the arc
        rather than the flat side: the nearer of the two; a corner is on the
        flat side."""
        return np.abs(np.hypot(loc[:, 0], loc[:, 1]) - self.radius) < np.abs(loc[:, 1])

    def _outward_normal_at(self, y):
        loc = self.to_local(y)
        radial = loc / np.maximum(np.hypot(loc[:, 0], loc[:, 1]), 1e-300)[:, None]
        nu_loc = np.where(self._on_arc(loc)[:, None], radial, (0.0, -1.0))
        c, u, w = self._frame()
        return nu_loc[:, :1] * w + nu_loc[:, 1:] * u

    def _boundary_pieces(self):
        # the arc by its angle, then the flat side by pi + 1 + its local t / R,
        # a parameter of the same size as the arc's at every radius
        return [(0.0, np.pi, self.radius), (np.pi, np.pi + 2.0, self.radius)]

    def _boundary_at(self, t):
        R = self.radius
        arc = R * _pair(np.cos(t), np.sin(t))
        flat = _pair(R * (t - np.pi - 1.0), 0.0)
        return self.from_local(np.where((t <= np.pi)[:, None], arc, flat))

    def _boundary_parameter(self, y):
        loc = self.to_local(y)
        R = self.radius
        return np.where(self._on_arc(loc), np.clip(np.arctan2(loc[:, 1], loc[:, 0]), 0.0, np.pi),
                        np.pi + 1.0 + np.clip(loc[:, 0] / R, -1.0, 1.0))

    def _curvature_at(self, y):
        return np.where(self._on_arc(self.to_local(y)), 1.0 / self.radius, 0.0)

    def medial_axis(self):
        c, u, w = self._frame()
        arc = ParabolicArc(
            focus=c,
            directrix_point=c + self.radius * u,
            directrix_normal=u,
            t_range=(-self.radius, self.radius),
        )
        return MedialAxis(arcs=[arc])

    def _boundary_curve(self, n):
        # the flat side from t = -R with its length's share of the samples,
        # then the arc from theta = 0, so that both corners are samples
        R = self.radius
        k = max(1, round(2 * n / (2 + np.pi)))
        flat = 2 * R * np.arange(k) / k
        th = np.pi * np.arange(n - k) / (n - k)
        loc = np.concatenate([_pair(flat - R, 0.0), _pair(R * np.cos(th), R * np.sin(th))])
        arc = np.concatenate([flat, 2 * R + R * th])
        return self.from_local(loc), arc, np.isin(np.arange(n), (0, k))

    def extent(self, m):
        """(min, max) of x . m over the half-disc, |m| = 1."""
        c, u, w = self._frame()
        m = np.asarray(m, dtype=float)
        # the support function: the arc reaches R along e when e.u >= 0,
        # otherwise a corner c +- R w is extreme
        lo, hi = (self.radius if e @ u >= 0 else self.radius * abs(e @ w) for e in (-m, m))
        return c @ m - lo, c @ m + hi

    def area(self):
        return float(0.5 * np.pi * self.radius**2)

    def region(self):
        c, u, _ = self._frame()
        flat = np.array([[-u[0], -u[1], -(u @ c)]])  # (x - c).u >= 0
        return flat, (c, np.eye(2) / self.radius)

    def perimeter(self):
        return float((2 + np.pi) * self.radius)

    def spec(self):
        return {
            "shape": "half_disc",
            "radius": self.radius,
            "center": list(self.center),
            "orientation": self.orientation,
        }


class ConvexPolygon(Domain):
    """Strictly convex polygon with CCW vertices.  Collinear or repeated
    vertices are rejected.

    Its one medial description is `side_regions`: the points nearest each
    side, where that side's quickest-exit rays run.  The medial axis is the
    edges the regions share.  Its boundary parameter is the arclength from
    the first vertex, so each side is one flat piece.
    """

    name = "convex_polygon"

    def __init__(self, vertices):
        try:
            v = np.asarray(vertices, dtype=float)
        except (TypeError, ValueError):
            v = np.empty(0)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3 or not np.all(np.isfinite(v)):
            raise ParameterError("polygon vertices must be at least 3 finite planar points")
        _finite(self.name, "vertices", v.tolist(), v.shape)  # in scale, so ptp cannot overflow
        size = float(np.hypot(*np.ptp(v, axis=0)))  # the bbox diagonal, as in `diameter`
        _finite(self.name, "vertices", v.tolist(), v.shape, size=size)
        scale = np.max(np.abs(v)) + 1.0
        d = np.roll(v, -1, axis=0) - v
        self.edge_lengths = np.hypot(d[:, 0], d[:, 1])
        if np.any(self.edge_lengths < 1e-12 * scale):
            raise ParameterError("repeated polygon vertices")
        if not np.all(_cross(d, np.roll(d, -1, axis=0)) > 1e-12 * scale**2):
            raise ParameterError("polygon must be strictly convex with CCW vertices")
        self.vertices = v
        self.edge_tangents = d / self.edge_lengths[:, None]
        self.edge_normals = -rot90(self.edge_tangents)  # outward for CCW
        self.edge_offsets = np.sum(self.edge_normals * v, axis=1)  # x.nu = c on edge
        self._side_starts = np.concatenate([[0.0], np.cumsum(self.edge_lengths)])

    def __repr__(self):
        return f"ConvexPolygon({self.vertices.tolist()})"

    def side_distances(self, x):
        """(n_pts, n_sides) array of inward distances c_i - x.nu_i: each
        side's slack c - n1 x1 - n2 x2, elementwise as `contains` reads it,
        so a point's distances do not depend on the points batched with it."""
        x = _as_points(x)
        sd = np.empty((len(x), len(self.edge_offsets)))
        for i, (n1, n2, c) in enumerate(self.region()[0]):
            sd[:, i] = c - n1 * x[:, 0] - n2 * x[:, 1]
        return sd

    def _foot(self, x):
        """Inside, the foot on the nearest side's line; outside, the nearest
        point of the closed sides (a vertex when the foot misses its side)."""
        sd = self.side_distances(x)
        i = np.argmin(sd, axis=1)
        d = sd[np.arange(len(x)), i]
        y = x + d[:, None] * self.edge_normals[i]
        out = d < 0.0
        if np.any(out):
            xo = x[out]
            feet = xo[:, None, :] + sd[out][..., None] * self.edge_normals
            t = np.sum((feet - self.vertices) * self.edge_tangents, axis=-1)
            feet = np.where((t < 0.0)[..., None], self.vertices, feet)
            feet = np.where((t > self.edge_lengths)[..., None],
                            np.roll(self.vertices, -1, axis=0), feet)
            j = np.argmin(np.sum((feet - xo[:, None, :]) ** 2, axis=-1), axis=1)
            y[out] = feet[np.arange(len(xo)), j]
        return y, d

    def nearest_side(self, x):
        return np.argmin(self.side_distances(x), axis=1)

    def _outward_normal_at(self, y):
        return self.edge_normals[self.nearest_side(y)]

    def _boundary_pieces(self):
        return [(t0, t1, 1.0) for t0, t1 in zip(self._side_starts[:-1], self._side_starts[1:])]

    def _boundary_at(self, t):
        i = np.clip(np.searchsorted(self._side_starts, t, "right") - 1, 0, len(self.vertices) - 1)
        return self.vertices[i] + (t - self._side_starts[i])[:, None] * self.edge_tangents[i]

    def _boundary_parameter(self, y):
        i = self.nearest_side(y)
        along = np.sum((y - self.vertices[i]) * self.edge_tangents[i], axis=1)
        return self._side_starts[i] + np.clip(along, 0.0, self.edge_lengths[i])

    def _curvature_at(self, y):
        return np.zeros(len(y))

    def side_regions(self):
        """The side regions as polygons: region i is {x : d_i(x) <= d_j(x)
        for every j}, which the quickest-exit rays of side i fill.

        Each is the polygon clipped by the half-planes
        (n_j - n_i) . x <= c_j - c_i.  The clipper pads with repeated
        vertices and a bisector through a vertex adds a copy of it, so a
        vertex within 1e-12 diam of the one before it is dropped.
        """
        n, c = self.edge_normals, self.edge_offsets
        tol = 1e-12 * self.diameter()
        regions = []
        for i in range(len(n)):
            poly = self.vertices[None]
            for j in range(len(n)):
                if j != i:
                    poly = _clip(poly, n[j] - n[i], c[j] - c[i])
            v = poly[0] + 0.0  # +0.0: no -0.0 in exported axes
            regions.append(ConvexPolygon(v[np.hypot(*(v - np.roll(v, 1, axis=0)).T) > tol]))
        return regions

    def medial_axis(self):
        """The edges that neighbouring side regions share.

        Each edge is taken once, from region i when i is below the other
        side nearest the edge's midpoint; region i's edge on side i is not
        on the axis.  The nodes are the edges' end points inside the
        polygon, with the number of edges that meet there.
        """
        tol = 1e-12 * self.diameter()
        segments = []
        for i, region in enumerate(self.side_regions()):
            v = region.vertices
            for p, q in zip(v, np.roll(v, -1, axis=0)):
                sd = self.side_distances([0.5 * (p + q)])[0]
                if sd[i] <= tol:
                    continue
                sd[i] = np.inf
                if i < np.argmin(sd):
                    segments.append((tuple(p), tuple(q)))
        nodes = []  # [point, degree]
        for p in (p for seg in segments for p in seg):
            if self.side_distances([p]).min() <= tol:
                continue
            node = next((nd for nd in nodes if np.hypot(*np.subtract(nd[0], p)) <= tol), None)
            if node is None:
                nodes.append([p, 1])
            else:
                node[1] += 1
        return MedialAxis(segments=segments, vertices=[(p, deg) for p, deg in nodes])

    def incircle(self):
        """(centre, radius) of the circle touching every side: the
        least-squares solution of nu_i . c + r = c_i, exact on a tangential
        polygon; on any other only a fit, which `is_tangential` rejects."""
        rows = np.column_stack([self.edge_normals, np.ones(len(self.vertices))])
        sol = np.linalg.lstsq(rows, self.edge_offsets, rcond=None)[0]
        return sol[:2], float(sol[2])

    def is_tangential(self, tol=1e-9):
        """True if the circle of `incircle` touches every side."""
        c, r = self.incircle()
        sd = self.side_distances([c])[0]
        return bool(np.all(np.abs(sd - r) <= tol * (1 + r)))

    def _boundary_curve(self, n):
        # every vertex is a sample; the rest go to the sides by length
        L = self.edge_lengths
        per_edge = np.maximum(1, np.round(n * L / L.sum()).astype(int))
        side = np.repeat(np.arange(len(L)), per_edge)
        j = np.arange(len(side)) - np.repeat(np.cumsum(per_edge) - per_edge, per_edge)
        frac = j / per_edge[side]
        d = np.roll(self.vertices, -1, axis=0) - self.vertices
        pos = self.vertices[side] + frac[:, None] * d[side]
        arc = self._side_starts[side] + frac * L[side]
        return pos, arc, j == 0

    def area(self):
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return float(0.5 * np.abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    def region(self):
        return np.column_stack([self.edge_normals, self.edge_offsets]), None

    def extent(self, m):
        """(min, max) of x . m over the polygon."""
        vals = self.vertices @ np.asarray(m, float)
        return float(vals.min()), float(vals.max())

    def perimeter(self):
        return float(self.edge_lengths.sum())

    def spec(self):
        return {"shape": "convex_polygon", "vertices": self.vertices.tolist()}


class Rectangle(ConvexPolygon):
    """Axis-aligned rectangle (-a, a) x (-b, b) with 0 < b < a: the convex
    polygon with vertices (-a, -b), (a, -b), (a, b), (-a, b)."""

    name = "rectangle"

    def __init__(self, a, b):
        if not _size("rectangle", "b", b) < _size("rectangle", "a", a):
            raise ParameterError("rectangle requires 0 < b < a")
        self.a, self.b = a, b
        super().__init__(((-a, -b), (a, -b), (a, b), (-a, b)))

    def __repr__(self):
        return f"Rectangle(a={self.a!r}, b={self.b!r})"

    def spec(self):
        return {"shape": "rectangle", "a": self.a, "b": self.b}


def make_domain(spec):
    """Build a catalog shape from a JSON-compatible description; a missing
    key, or a value the constructors' gate (`_finite`) rejects, raises a
    ParameterError naming it."""
    if not isinstance(spec, dict) or "shape" not in spec:
        raise ParameterError("domain spec must be a mapping with a 'shape' key")
    kind = spec["shape"]

    def need(key):
        if key not in spec:
            raise ParameterError(f"{kind} needs {key!r}")
        return spec[key]

    def num(key, default=None, dims=()):
        x = _finite(kind, key, need(key) if default is None else spec.get(key, default), dims)
        return tuple(x.tolist()) if dims else x

    if kind == "disc":
        return Disc(radius=num("radius"), center=num("center", (0.0, 0.0), (2,)))
    if kind == "ellipse":
        return Ellipse(a=num("a"), b=num("b"))
    if kind == "rectangle":
        return Rectangle(a=num("a"), b=num("b"))
    if kind == "half_disc":
        return HalfDisc(radius=num("radius"), center=num("center", (0.0, 0.0), (2,)),
                        orientation=num("orientation", np.pi / 2))
    if kind == "convex_polygon":
        return ConvexPolygon(need("vertices"))
    raise UnsupportedShapeError(f"unknown shape {kind!r}")


def interior_points(domain: Domain, n, seed):
    """n points drawn uniformly from the domain shrunk by 1e-9 diam: rounds
    of 2n uniform draws from its bounding box (``default_rng(seed)``), of
    which those inside are kept in draw order until there are n."""
    rng = np.random.default_rng(seed)
    (x0, y0), (x1, y1) = domain.bbox()
    tol = -1e-9 * domain.diameter()
    pts = np.empty((0, 2))
    while len(pts) < n:
        cand = rng.uniform([x0, y0], [x1, y1], size=(2 * n, 2))
        keep = domain.contains(cand, tol=tol)
        pts = np.concatenate([pts, cand[keep][: n - len(pts)]])
    return pts
