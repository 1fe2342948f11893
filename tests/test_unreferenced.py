"""Every function and class in `src/` has a reader in `src/` or the benchmark.

An AST scan of `src/shellwrinkle` collects each function and class
definition, and every name the package reads (as a bare name or as an
attribute).  A definition passes when its name is read somewhere outside
its own body, when `perfbench/tracing.LAYERS` names it, or when it is one of
the test oracles listed in ORACLES.  Code that only tests call fails here.
Names match by spelling alone, so a dead method that shares its name with a
live one elsewhere passes.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

SRC = ROOT / "src" / "shellwrinkle"

# Library functions that only tests call, kept on purpose: each is the
# reference a test compares the pipeline against.
ORACLES = {
    "duality_gap": "|primal - dual| / max(primal, dual), the figure the duality tests assert",
    "covered_area": "sum of the cut-cell weights, which a test checks against the exact area",
    "profile_W": "the closed-form wrinkle profile sqrt(2) cos t; a test pins its normalisation",
    "strain_deviation": "closed-form membrane strain minus mu/2, the herringbone strain oracle",
    "sym_grad_u": "whole-grid strain stencil, the reference for the row-block strain",
    "piecewise_herringbone": "glued herringbone lattice that the herringbone and energy tests build",
}


def _layer_names():
    return {part for _, _, attr, _ in tracing.LAYERS for part in attr.split(".")}


def _scan():
    """(definitions, reads): (name, file, first line, last line) per def,
    and (name, file, line) per name read."""
    defs, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((node.name, path.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, path.name, node.lineno))
    return defs, reads


def _unreferenced():
    defs, reads = _scan()
    layers = _layer_names()
    out = set()
    for name, fname, first, last in defs:
        if name.startswith("__") and name.endswith("__"):
            continue  # called by Python itself
        if name in layers:
            continue
        read = any(
            rn == name and not (rf == fname and first <= line <= last)
            for rn, rf, line in reads
        )
        if not read:
            out.add(name)
    return out


def test_every_definition_has_a_reader():
    assert _unreferenced() == set(ORACLES)
