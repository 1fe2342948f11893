"""Masked Cartesian grids with exact cut-cell areas.

Quadrature rule: composite midpoint on square cells covering the domain's
bounding box, each cell weighted by the exact area of its intersection with
the domain.  Every catalog shape is an intersection of half-planes and at
most one ellipse (``Domain.region``).  A cell the boundary crosses is clipped
by the half-planes (Sutherland-Hodgman); if there is an ellipse, the clipped
polygon is mapped affinely to the unit disc, where its intersection with the
disc has a closed-form area edge by edge.  The covered area equals the
domain's area to round-off.  The midpoint value is first order on the cut
cells, which form a band O(h) wide, so the rule is second order for
integrands smooth up to the boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import ResolutionError

# A cut area is known to about eps * extent * h, where extent bounds the
# coordinates: the boundary's own position is only known to eps * extent.
# Smaller areas are set to 0: they cannot be told from cells that only touch
# the domain.
_ROUNDOFF = 16 * np.finfo(float).eps


class MaskedGrid:
    """Cell-centered grid over a domain's bounding box.

    ``resolution`` is the cell count along the longer bounding-box side;
    cells are square.  ``weights`` holds the exact area of cell ∩ domain
    (h^2 inside, the cut area on cells the boundary crosses, 0 outside), and
    ``mask`` is ``weights > 0``: it includes cut cells whose centers lie
    outside the domain.
    """

    def __init__(self, domain, resolution):
        if resolution < 32:
            raise ResolutionError("grid resolution below 32")
        (x0, y0), (x1, y1) = domain.bbox()
        w, h_ext = x1 - x0, y1 - y0
        self.h = max(w, h_ext) / resolution
        self.nx = max(2, int(np.ceil(w / self.h - 1e-9)))
        self.ny = max(2, int(np.ceil(h_ext / self.h - 1e-9)))
        self.x0, self.y0 = x0, y0
        self.domain = domain
        xs = x0 + (np.arange(self.nx) + 0.5) * self.h
        ys = y0 + (np.arange(self.ny) + 0.5) * self.h
        self.X, self.Y = np.meshgrid(xs, ys, indexing="ij")
        xn = x0 + np.arange(self.nx + 1) * self.h
        yn = y0 + np.arange(self.ny + 1) * self.h
        self.weights, full = _cell_areas(domain, xn, yn, self.h)
        if not full.any():
            raise ResolutionError(f"no cell of the resolution-{resolution} grid lies wholly"
                                  f" inside the {domain.name}: raise the resolution")
        self.mask = self.weights > 0.0

    def points(self):
        return np.stack([self.X.ravel(), self.Y.ravel()], axis=1)

    def masked_points(self):
        return np.stack([self.X[self.mask], self.Y[self.mask]], axis=1)

    def eval_points(self):
        """Where each masked cell is evaluated, in ``masked_points`` order.

        That is the cell centre, or, for a cut cell whose centre lies
        outside the domain, the centre's nearest boundary point.  The
        projection moves a point by at most half a cell diagonal, so the
        midpoint rule stays second order on the O(h) band of cut cells.
        """
        pts = self.masked_points()
        out = ~self.domain.contains(pts, tol=0.0)
        if np.any(out):
            pts[out] = self.domain.nearest_boundary_point(pts[out])
        return pts

    def integrate(self, values):
        """Integrate values at the masked cells' centres (in `mask` order)
        against their covered-area weights."""
        return float(np.sum(np.asarray(values, dtype=float) * self.weights[self.mask]))

    def covered_area(self):
        return float(self.weights.sum())


def _cell_areas(domain, xn, yn, h):
    """Area inside the domain of each cell [xn[i], xn[i+1]] x [yn[j], yn[j+1]]
    (cells of side h), and which cells lie wholly inside."""
    planes, conic = domain.region()
    xn_, yn_ = xn[:, None], yn[None, :]

    def all_corners(at_nodes):
        return at_nodes[:-1, :-1] & at_nodes[1:, :-1] & at_nodes[1:, 1:] & at_nodes[:-1, 1:]

    # a convex cell is inside a convex set iff its corners are, and outside
    # a half-plane iff its corners are
    full = np.ones((len(xn) - 1, len(yn) - 1), dtype=bool)
    out = np.zeros_like(full)
    for n1, n2, c in planes:
        s = c - n1 * xn_ - n2 * yn_
        full &= all_corners(s >= 0.0)
        out |= all_corners(s <= 0.0)
    if conic is not None:
        center, M = conic
        u, v = _conic_coords(xn_, yn_, center, M)
        full &= all_corners(u * u + v * v <= 1.0)
        # the cell's image is a parallelogram within `reach` of its center's
        reach = 0.5 * h * max(np.hypot(*(M @ [1.0, 1.0])), np.hypot(*(M @ [1.0, -1.0])))
        xc, yc = 0.5 * (xn[:-1] + xn[1:]), 0.5 * (yn[:-1] + yn[1:])
        u, v = _conic_coords(xc[:, None], yc[None, :], center, M)
        out |= u * u + v * v >= (1.0 + reach) ** 2
    weights = np.where(full, h * h, 0.0)
    ix, iy = np.nonzero(~full & ~out)
    if len(ix):
        # (m, 4, 2) cell corners, counterclockwise from the lower left
        polys = np.stack([xn[ix[:, None] + [0, 1, 1, 0]], yn[iy[:, None] + [0, 0, 1, 1]]], axis=-1)
        origin = polys[:, :1, :]
        for plane in planes:
            polys = _clip(polys, plane[:2], plane[2])
        if conic is None:
            area = _shoelace(polys - origin)
        else:
            center, M = conic
            area = _unit_disc_area((polys - center) @ M.T) / np.linalg.det(M)
        extent = max(np.abs(xn[[0, -1]]).max(), np.abs(yn[[0, -1]]).max())
        weights[ix, iy] = np.where(area > _ROUNDOFF * extent * h, area, 0.0)
    return weights, full


def _conic_coords(X, Y, center, M):
    """(u, v) = M (x - center) at the points (X, Y), elementwise: the one
    expression `_cell_areas` and `Domain.contains` read a conic through, so
    that neither depends on how many points it is given."""
    u = M[0, 0] * (X - center[0]) + M[0, 1] * (Y - center[1])
    v = M[1, 0] * (X - center[0]) + M[1, 1] * (Y - center[1])
    return u, v


def _clip(polys, normal, offset):
    """Sutherland-Hodgman clip of convex polygons (m, V, 2) to normal.x <= offset.

    Returns (m, V + 1, 2): the inside vertices and the edge crossings in
    order, padded by repeating the last one.  A convex polygon crosses a line
    at most twice, with at least one vertex outside, so V + 1 slots suffice.
    A polygon clipped away becomes one repeated point, of area 0.
    """
    m, V, _ = polys.shape
    s = offset - polys @ normal  # >= 0 inside
    nxt_s = np.roll(s, -1, axis=1)
    nxt = np.roll(polys, -1, axis=1)
    inside = s >= 0.0
    crosses = inside != (nxt_s >= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(crosses, s / (s - nxt_s), 0.0)
    hit = polys + t[..., None] * (nxt - polys)
    pts = np.stack([polys, hit], axis=2).reshape(m, 2 * V, 2)
    keep = np.stack([inside, crosses], axis=2).reshape(m, 2 * V)
    count = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")
    slot = np.minimum(np.arange(V + 1), count[:, None] - 1)
    return np.take_along_axis(pts, np.take_along_axis(order, slot, axis=1)[..., None], axis=1)


def _cross(p, q):
    """The z-component of p x q over (..., 2) arrays."""
    return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]


def _shoelace(polys):
    return 0.5 * _cross(polys, np.roll(polys, -1, axis=1)).sum(axis=1)


def _unit_disc_area(polys):
    """Area of counterclockwise polygons (m, V, 2) inside the unit disc.

    Integrates the 1-form (x dy - y dx) / (2 max(1, |x|^2)) along each edge
    p -> p + d: the part of the edge inside the disc adds its triangle with
    the origin, the parts outside add the circular sector they subtend.  All
    cross products are written as multiples of cross(p, d), which is O(h)
    with an O(eps h) error, so the terms cancel to O(h^2) without losing
    more than that.
    """
    p = polys
    d = np.roll(polys, -1, axis=1) - p
    a = np.sum(d * d, axis=-1)
    b = np.sum(p * d, axis=-1)
    c = np.sum(p * p, axis=-1)
    disc = b * b - a * (c - 1.0)
    hits = (a > 0.0) & (disc > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.where(hits, disc, 0.0))
        t1 = np.where(hits, np.clip((-b - root) / a, 0.0, 1.0), 0.0)
        t2 = np.where(hits, np.clip((-b + root) / a, 0.0, 1.0), 0.0)
    x = _cross(p, d)
    # sectors from p to p + t1 d and from p + t2 d to p + d (dot products
    # of the end points expanded in t), and the triangle between
    into = np.arctan2(t1 * x, c + t1 * b)
    out_of = np.arctan2((1.0 - t2) * x, c + (1.0 + t2) * b + t2 * a)
    return 0.5 * (into + (t2 - t1) * x + out_of).sum(axis=1)
