"""One point format: every function that takes points takes an (n, 2)
batch and gives one value, or one row, per point.

A single point is a one-row batch.  A (2,) array is rejected with a
ValueError that names the (n, 2) shape, and no module of `src/` promotes
one with `np.atleast_1d` or `np.atleast_2d`.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from shellwrinkle import airy
from shellwrinkle.geometry import ConvexPolygon, Disc, Ellipse, HalfDisc
from shellwrinkle.herringbone import (
    HerringboneField,
    PiecewiseHerringboneField,
    TargetDefect,
    optimal_params,
)
from shellwrinkle.rulings import charts_for, locate
from shellwrinkle.shell import ShellProfile

SRC = Path(__file__).resolve().parents[1] / "src" / "shellwrinkle"

ELLIPSE = Ellipse(2.0, 1.0)
TRIANGLE = ConvexPolygon([(1.2, 0.0), (-0.6, 1.0), (-0.6, -1.0)])
HALF_DISC = HalfDisc(1.0, center=(0.0, 1.0), orientation=np.pi / 2)
PLUS = airy.solve_dual(ELLIPSE, ShellProfile.constant(1.0))
MINUS = airy.solve_dual(ELLIPSE, ShellProfile.constant(-1.0))
CURVED = ShellProfile(curvature=lambda x: 1.0 + x[:, 0] ** 2, sign="positive",
                      grad_p=lambda x: x)
PARAMS = optimal_params(1e-8, 1.0, TargetDefect(np.eye(2)))
GLUED = PiecewiseHerringboneField(Disc(0.02), TargetDefect(np.eye(2)), PARAMS)

# Each public function that takes points, called on them.
POINT_FUNCTIONS = {
    "Domain.contains": lambda x: ELLIPSE.contains(x),
    "Domain.line_spans": lambda x: ELLIPSE.line_spans(x, (1.0, 0.0)),
    "Domain.nearest_boundary_point": lambda x: ELLIPSE.nearest_boundary_point(x),
    "Domain.boundary_distance": lambda x: ELLIPSE.boundary_distance(x),
    "ConvexPolygon.side_distances": lambda x: TRIANGLE.side_distances(x),
    "ConvexPolygon.nearest_side": lambda x: TRIANGLE.nearest_side(x),
    "airy.phi_minus": lambda x: airy.phi_minus(ELLIPSE, x),
    "airy.phi_plus": lambda x: airy.phi_plus(ELLIPSE, x),
    "AiryField.phi+": lambda x: PLUS.phi(x),
    "AiryField.phi-": lambda x: MINUS.phi(x),
    "AiryField.grad_phi+": lambda x: PLUS.grad_phi(x),
    "AiryField.grad_phi-": lambda x: MINUS.grad_phi(x),
    "AiryField.dual_objective_density": lambda x: PLUS.dual_objective_density(x),
    "airy.convex_roof": lambda x: airy.convex_roof(ELLIPSE, x, 64),
    "ShellProfile.k constant": lambda x: ShellProfile.constant(1.0).k(x),
    "ShellProfile.k field": lambda x: CURVED.k(x),
    "ShellProfile.gradient flat": lambda x: ShellProfile.constant(1.0).gradient(x),
    "ShellProfile.gradient curved": lambda x: CURVED.gradient(x),
    "rulings.locate": lambda x: locate(PLUS.charts, x),
    "ChordChart.coords_eta": lambda x: PLUS.charts[0].coords_eta(x),
    "FanChart.coords_eta": lambda x: charts_for(HALF_DISC, 1)[0].coords_eta(x),
    "ExitChart.coords_eta": lambda x: MINUS.charts[0].coords_eta(x),
    "TargetDefect.matrix_at constant": lambda x: TargetDefect(np.eye(2)).matrix_at(x),
    "TargetDefect.matrix_at field": lambda x: TargetDefect(
        lambda p: np.tile(np.eye(2), (len(p), 1, 1))).matrix_at(x),
    "HerringboneField.evaluate": lambda x: HerringboneField(np.eye(2), PARAMS).evaluate(x),
    "PiecewiseHerringboneField.evaluate": lambda x: GLUED.evaluate(x),
    "PiecewiseHerringboneField.cell_of": lambda x: GLUED.cell_of(x),
}


@pytest.mark.parametrize("name", POINT_FUNCTIONS)
def test_a_single_point_is_a_one_row_batch(name):
    point = np.array([0.001, 0.002])
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        POINT_FUNCTIONS[name](point)
    # the same point as a one-row batch gives one value, or one row, in
    # each output
    out = POINT_FUNCTIONS[name](point[None, :])
    values = out.values() if isinstance(out, dict) else out if isinstance(out, tuple) else [out]
    assert all(np.shape(v)[:1] == (1,) for v in values)


def test_src_promotes_no_single_point():
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("atleast_1d", "atleast_2d")
    ]
    assert not calls, f"np.atleast_1d / np.atleast_2d in src/: {calls}"
