import numpy as np
import pytest

from shellwrinkle.geometry import ConvexPolygon, Disc, Ellipse, HalfDisc, Rectangle
from shellwrinkle.shell import ShellProfile

_POS = ShellProfile.constant(1.0)
_NEG = ShellProfile.constant(-1.0)

# The catalog's shape/sign cases, by fixture name.
CASES = [
    ("ellipse", _POS), ("disc", _POS), ("rect", _POS), ("half_disc_pos", _POS),
    ("triangle", _POS), ("regular_pentagon", _POS),
    ("ellipse", _NEG), ("disc", _NEG), ("rect", _NEG), ("half_disc_neg", _NEG),
    ("triangle", _NEG), ("pentagon", _NEG),
]
CASE_IDS = [f"{n}-{s.sign}" for n, s in CASES]


@pytest.fixture
def ellipse():
    return Ellipse(2.0, 1.0)


@pytest.fixture
def disc():
    return Disc(1.0)


@pytest.fixture
def rect():
    return Rectangle(2.0, 1.0)


@pytest.fixture
def half_disc_pos():
    # the placement used by the closed-form largest extension: disc center
    # (0, R), bulge upward, fan point at the origin
    return HalfDisc(1.0, center=(0.0, 1.0), orientation=np.pi / 2)


@pytest.fixture
def half_disc_neg():
    return HalfDisc(1.0, center=(0.0, 0.0), orientation=np.pi / 2)


@pytest.fixture
def triangle():
    return ConvexPolygon([(1.2, 0.0), (-0.6, 1.0), (-0.6, -1.0)])


@pytest.fixture
def pentagon():
    return ConvexPolygon(
        [(1.5, -0.8), (1.8, 0.9), (-0.2, 1.1), (-1.6, 0.2), (-1.0, -1.0)]
    )


@pytest.fixture
def regular_pentagon():
    # tangential, so it has positive-curvature charts; one edge of each
    # vertex triangle runs parallel to that triangle's chords
    ang = 0.3 + 2 * np.pi * np.arange(5) / 5
    return ConvexPolygon(np.stack([np.cos(ang), np.sin(ang)], axis=1))


def interior_points(domain, n, seed=0, margin=1e-9):
    rng = np.random.default_rng(seed)
    (x0, y0), (x1, y1) = domain.bbox()
    pts = []
    while len(pts) < n:
        cand = rng.uniform([x0, y0], [x1, y1], size=(2 * n, 2))
        keep = np.atleast_1d(domain.contains(cand, tol=-margin * domain.diameter()))
        pts.extend(cand[keep][: n - len(pts)])
    return np.asarray(pts)
