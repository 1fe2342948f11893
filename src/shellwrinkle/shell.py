"""Shell curvature data: the Gaussian-curvature density and optional slope
field of the reference profile.

The solver only ever needs det(Hessian of the profile) -- called K below --
plus, for full energy evaluation, the profile gradient.  K may be a constant
or a callable field on (n, 2) points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DataError
from .geometry import _as_points


@dataclass(frozen=True)
class ShellProfile:
    """Curvature data K = det(grad grad p) with a declared sign.

    sign is one of {"positive", "negative", "zero"}; a constant K must be a
    finite number, is kept as a float, and must not contradict the sign
    beyond ``tol``.  grad_p is only needed for energy evaluation with a
    nonflat reference profile.
    """

    curvature: float | Callable = 0.0
    sign: str = "zero"
    grad_p: Optional[Callable] = None
    tol: float = 1e-10

    def __post_init__(self):
        if self.sign not in ("positive", "negative", "zero"):
            raise DataError(f"bad curvature sign {self.sign!r}")
        if not callable(self.curvature):
            try:
                k = float(self.curvature)
            except (TypeError, ValueError):
                k = np.nan
            if not np.isfinite(k):
                raise DataError(
                    f"constant curvature must be a finite number, got {self.curvature!r}")
            object.__setattr__(self, "curvature", k)
            ok = (
                (self.sign == "positive" and k >= -self.tol)
                or (self.sign == "negative" and k <= self.tol)
                or (self.sign == "zero" and abs(k) <= self.tol)
            )
            if not ok:
                raise DataError("constant curvature contradicts declared sign")

    def k(self, x):
        """K at (n, 2) points, one value each."""
        pts = _as_points(x)
        if callable(self.curvature):
            return np.asarray(self.curvature(pts), dtype=float)
        return np.full(len(pts), float(self.curvature))

    def gradient(self, x):
        """Profile gradient at (n, 2) points, one row each; zero for a flat
        reference profile."""
        pts = _as_points(x)
        if self.grad_p is None:
            return np.zeros_like(pts)
        return np.asarray(self.grad_p(pts), dtype=float)

    @staticmethod
    def constant(k):
        sign = "zero" if k == 0 else ("positive" if k > 0 else "negative")
        return ShellProfile(curvature=float(k), sign=sign)
