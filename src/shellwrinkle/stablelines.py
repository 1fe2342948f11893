"""Shell partition and stable-line families.

The partition splits the shell into the singular set (where the potential's
Hessian has a one-dimensional concentration), the ordered set (rank-one
absolutely continuous Hessian, filled by stable lines), the unconstrained
set (Hessian zero), and the flattened set (rank two; empty on the catalog).

Stable lines are built from the shape-specific ruling charts, never
extracted numerically from a discrete Hessian: the catalog's uniqueness
results hold for exactly these families and numerical ruling extraction is
ill-conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .airy import AiryField
from .errors import ConsistencyError, FamilyLookupError, ParameterError
from .geometry import Domain
from .grids import MaskedGrid
from .rulings import locate

# Region labels used in rasterized partitions.
OUTSIDE, SIGMA, FLATTENED, ORDERED, UNCONSTRAINED = -1, 0, 1, 2, 3
LABEL_NAMES = {SIGMA: "Sigma", FLATTENED: "F", ORDERED: "O", UNCONSTRAINED: "U"}


@dataclass
class Partition:
    """Region descriptors plus rasterization support."""

    domain: Domain
    airy: AiryField
    sigma: Optional[dict]

    def labels(self, grid: MaskedGrid):
        """Label array over a masked grid (OUTSIDE where uncovered).

        Boundary cells whose centers fall just outside the domain are
        labeled through their boundary projection.
        """
        lab = np.full((grid.nx, grid.ny), OUTSIDE, dtype=int)
        pts = grid.points()
        inside = grid.mask.ravel()
        out_centers = inside & ~np.asarray(self.domain.contains(pts, tol=0.0))
        if np.any(out_centers):
            pts = pts.copy()
            pts[out_centers] = np.atleast_2d(
                self.domain.nearest_boundary_point(pts[out_centers])
            )
        lab_flat = lab.ravel()
        lab_flat[inside] = self._chart_labels()[locate(self.airy.charts, pts[inside])]
        # singular set: measure-zero, override within half a cell
        if self.sigma is not None:
            sig = self._sigma_distance(pts) <= 0.5 * grid.h
            lab_flat[inside & sig] = SIGMA
        return lab_flat.reshape(grid.nx, grid.ny)

    def _sigma_distance(self, pts):
        pts = np.atleast_2d(pts)
        sig = self.sigma
        if sig is None:
            return np.full(len(pts), np.inf)
        if sig["kind"] == "point":
            return np.hypot(*(pts - sig["point"]).T)
        if sig["kind"] == "segment":
            return _dist_to_segment(pts, sig["p0"], sig["p1"])
        # tree or arc: use the medial-axis polylines
        axis = sig["axis"]
        best = np.full(len(pts), np.inf)
        for line in axis.polylines(arc_samples=257):
            for p0, p1 in zip(line[:-1], line[1:]):
                best = np.minimum(best, _dist_to_segment(pts, p0, p1))
        return best

    def _chart_labels(self):
        """Region label per chart, then OUTSIDE for the locator's -1."""
        labels = [ORDERED if c.label == "O" else UNCONSTRAINED for c in self.airy.charts]
        return np.array(labels + [OUTSIDE])

    def region_of(self, x):
        """'Sigma' | 'O' | 'U' per point (inside the domain)."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        names = np.array([LABEL_NAMES.get(lab, "?") for lab in self._chart_labels()], dtype=object)
        out = names[locate(self.airy.charts, pts)]
        tol = 1e-9 * self.domain.diameter()
        out[self._sigma_distance(pts) <= tol] = "Sigma"
        return out


def _dist_to_segment(pts, p0, p1):
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    L2 = d @ d
    if L2 < 1e-30:
        return np.hypot(*(pts - p0).T)
    t = np.clip((pts - p0) @ d / L2, 0.0, 1.0)
    proj = p0 + t[:, None] * d[None, :]
    return np.hypot(*(pts - proj).T)


def partition(domain: Domain, airy: AiryField) -> Partition:
    """Exact shape-specific partition induced by the extremal potential."""
    if airy.domain is not domain and airy.domain.spec() != domain.spec():
        raise ConsistencyError("airy field was built for a different domain")
    return Partition(domain=domain, airy=airy, sigma=airy.sigma)


@dataclass
class StableLine:
    """Spec-facing view of one ruling segment."""

    endpoints: tuple
    eta: np.ndarray
    start_kind: str
    end_kind: str
    index: float

    @property
    def start(self):
        return self.endpoints[0]

    @property
    def end(self):
        return self.endpoints[1]

    @property
    def length(self):
        return float(np.hypot(*(self.endpoints[1] - self.endpoints[0])))


@dataclass
class StableLineFamily:
    """All stable lines of a shell, grouped by chart.

    ``rho_kind`` summarizes the change-of-measure factor: 'constant' for
    parallel families, 'proportional_to_r' for fans, 'general' otherwise.
    """

    domain: Domain
    charts: list
    lines_by_chart: list  # list of lists of LineGeometry
    spacing: float

    @property
    def lines(self):
        out = []
        for chart_lines in self.lines_by_chart:
            for ln in chart_lines:
                out.append(
                    StableLine(
                        endpoints=(ln.start, ln.end),
                        eta=ln.eta,
                        start_kind=ln.start_kind,
                        end_kind=ln.end_kind,
                        index=ln.s,
                    )
                )
        return out

    @property
    def rho_kind(self):
        from .rulings import ChordChart, EllipseExitChart, FanChart

        kinds = set()
        for chart in self.charts:
            if isinstance(chart, FanChart):
                kinds.add("proportional_to_r")
            elif isinstance(chart, EllipseExitChart):
                kinds.add("general")
            else:
                kinds.add("constant")
        if kinds == {"constant"}:
            return "constant"
        if kinds == {"proportional_to_r"}:
            return "proportional_to_r"
        return "general"

    def _locate(self, x, snap_tol):
        """(chart, line, u) for a point on some family line."""
        p = np.asarray(x, dtype=float)
        best = None
        for chart, chart_lines in zip(self.charts, self.lines_by_chart):
            if len(chart_lines) == 0:
                continue
            if not bool(np.atleast_1d(chart.contains(p[None, :]))[0]):
                continue
            stations = np.array([ln.s for ln in chart_lines])
            s, u, L = chart.coords(p[None, :])
            j = int(np.argmin(np.abs(stations - s[0])))
            ln = chart_lines[j]
            d = _dist_to_segment(p[None, :], ln.start, ln.end)[0]
            if best is None or d < best[0]:
                best = (d, chart, ln)
        if best is None or best[0] > snap_tol:
            raise FamilyLookupError("point does not lie on a family line")
        _, chart, ln = best
        u = float((p - ln.start) @ ln.direction())
        return chart, ln, u

    def eta(self, x, snap_tol=None):
        """The line's transverse unit direction at a point on the family."""
        snap_tol = snap_tol if snap_tol is not None else 0.75 * self.spacing
        _, ln, _ = self._locate(x, snap_tol)
        return ln.eta

    def rho(self, x, snap_tol=None):
        """Change-of-measure factor at a point on the family.

        Returns (value, singular) where singular flags evaluation at a fan
        center (rho -> 0)."""
        snap_tol = snap_tol if snap_tol is not None else 0.75 * self.spacing
        _, ln, u = self._locate(x, snap_tol)
        val = float(ln.rho_at(u))
        singular = ln.rho0 == 0.0 and abs(u) < 1e-12 * (1 + ln.length)
        return val, singular


def stable_lines(domain: Domain, airy: AiryField, spacing: float,
                 min_length: float = 0.0) -> StableLineFamily:
    """Sample the stable-line family at the given index spacing.

    Unconstrained regions contribute their decomposition chords (one valid
    selection; the choice is not unique there).  An empty ordered set yields
    an empty family rather than an error.
    """
    if spacing <= 0:
        raise ParameterError("spacing must be positive")
    lines_by_chart = [chart.stations(spacing, min_length=min_length) for chart in airy.charts]
    return StableLineFamily(
        domain=domain, charts=list(airy.charts),
        lines_by_chart=lines_by_chart, spacing=spacing,
    )
