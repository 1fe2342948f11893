"""Shell partition and stable-line families.

The partition splits the shell into the singular set (where the potential's
Hessian has a one-dimensional concentration), the ordered set (rank-one
absolutely continuous Hessian, filled by stable lines), the unconstrained
set (Hessian zero), and the flattened set (rank two; empty on the catalog).
The singular set is empty for the largest extension; for the smallest it
is the medial axis, ``Domain.medial_axis()``, where the quickest-exit rays
end.

Stable lines are built from the closed-form ruling charts of `rulings`,
never extracted numerically from a discrete Hessian: the catalog's
uniqueness results hold for exactly these families and numerical ruling
extraction is ill-conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airy import AiryField
from .errors import ConsistencyError, ParameterError
from .geometry import Domain
from .grids import MaskedGrid
from .rulings import locate

# Region labels used in rasterized partitions.
OUTSIDE, SIGMA, ORDERED, UNCONSTRAINED = -1, 0, 2, 3


@dataclass
class Partition:
    """Region descriptors plus rasterization support."""

    airy: AiryField

    def labels(self, grid: MaskedGrid):
        """Label array over a masked grid (OUTSIDE where uncovered).

        Each masked cell is labeled at its ``grid.eval_points()`` point.
        The singular set of the smallest extension is the domain's medial
        axis; it has measure zero, so cells within half a cell of it are
        labeled SIGMA.
        """
        pts = grid.eval_points()
        # a label per chart, then OUTSIDE for the locator's -1
        labels = [ORDERED if c.label == "O" else UNCONSTRAINED for c in self.airy.charts]
        lab = np.array(labels + [OUTSIDE])[locate(self.airy.charts, pts)[0]]
        if self.airy.sign < 0:
            lab[self._sigma_distance(pts) <= 0.5 * grid.h] = SIGMA
        out = np.full((grid.nx, grid.ny), OUTSIDE, dtype=int)
        out[grid.mask] = lab
        return out

    def _sigma_distance(self, pts):
        """Distance to the medial axis's polylines; a lone node (the
        disc's centre) is a point."""
        best = np.full(len(pts), np.inf)
        for line in self.airy.domain.medial_axis().polylines(arc_samples=257):
            pairs = zip(line[:-1], line[1:]) if len(line) > 1 else [(line[0], line[0])]
            for p0, p1 in pairs:
                best = np.minimum(best, _dist_to_segment(pts, p0, p1))
        return best


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
    return Partition(airy=airy)


@dataclass
class StableLineFamily:
    """All stable lines of a shell, grouped by chart: ``lines_by_chart[i]``
    holds the `LineGeometry` stations of ``charts[i]`` in station order."""

    charts: list
    lines_by_chart: list

    @property
    def lines(self):
        """Every line, chart by chart."""
        return [ln for chart_lines in self.lines_by_chart for ln in chart_lines]


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
    return StableLineFamily(charts=list(airy.charts), lines_by_chart=lines_by_chart)
