"""Every function, class and module-level name in `src/` has a reader in
`src/` or the benchmark.

An AST scan of `src/shellwrinkle` collects each function and class
definition and each name a module-level assignment binds, and every name
that the package or the benchmark's code (`perfbench/run.py`, `workloads.py`
and `tracing.py`, not its pytest file `selfcheck.py`) reads (as a bare name
or as an attribute).  A definition passes when its name is read somewhere outside
its own body (an assignment: outside its own statement), when
`perfbench/tracing.LAYERS` names it, or when it is listed in ORACLES or
READ_ELSEWHERE.  Dunders (``__all__``, ``__init__``) are exempt.  A method
(a def directly in a class body) counts as read only when it is read as an
attribute (``x.name``), so a bare call of a function of the same name does
not keep it.  Code that only tests call fails here.  Names still match by
spelling, so a dead method that shares its name with a live attribute read
passes.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

SRC = ROOT / "src" / "shellwrinkle"
BENCH = [ROOT / "perfbench" / name for name in ("run.py", "workloads.py", "tracing.py")]

# Library functions that only tests call, kept on purpose: each is the
# reference a test compares the pipeline against.
ORACLES = {
    "duality_gap": "|primal - dual| / max(primal, dual), the figure the duality tests assert",
    "covered_area": "sum of the cut-cell weights, which a test checks against the exact area",
    "profile_W": "the closed-form wrinkle profile sqrt(2) cos t; a test pins its normalisation",
    "strain_deviation": "closed-form membrane strain minus mu/2, the herringbone strain oracle",
    "sym_grad_u": "whole-grid strain stencil, the reference for the row-block strain",
    "grad_w": "whole-grid slope stencil, the reference for the row-block slopes",
    "hess_w": "whole-grid Hessian stencil, the reference for the row-block Hessian",
    "piecewise_herringbone": "glued herringbone lattice that the herringbone and energy tests build",
    "rect": "one `<rect>` per call, the per-run reference for the heatmap's block writer",
}

# Definitions that only tests call today but that a planned reader needs.
READ_ELSEWHERE = {
    "labels": "read by the `pattern` output of ROADMAP item 8",
}


def _layer_names():
    return {part for _, _, attr, _ in tracing.LAYERS for part in attr.split(".")}


def _reads(tree, fname):
    """(name, file, line, as_attribute) per name read in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, fname, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, fname, node.lineno, True


def _assigned(tree):
    """(name, first line, last line) per name a module-level assignment
    binds, tuple targets included."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                        yield node.id, stmt.lineno, stmt.end_lineno


def _scan():
    """(definitions, reads): (name, file, first line, last line, is_method)
    per def or module-level assignment in `src/`, and (name, file, line,
    as_attribute) per name read in `src/` or the benchmark's code."""
    defs, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {
            id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((node.name, path.name, node.lineno, node.end_lineno,
                             id(node) in methods))
        defs.extend((name, path.name, first, last, False) for name, first, last in _assigned(tree))
        reads.extend(_reads(tree, path.name))
    for path in BENCH:
        reads.extend(_reads(ast.parse(path.read_text(), filename=str(path)),
                            "perfbench/" + path.name))
    return defs, reads


def _unreferenced():
    defs, reads = _scan()
    layers = _layer_names()
    out = set()
    for name, fname, first, last, is_method in defs:
        if name.startswith("__") and name.endswith("__"):
            continue  # called by Python itself
        if name in layers:
            continue
        read = any(
            rn == name and (attr or not is_method) and not (rf == fname and first <= line <= last)
            for rn, rf, line, attr in reads
        )
        if not read:
            out.add(name)
    return out


def test_every_definition_has_a_reader():
    assert _unreferenced() == set(ORACLES) | set(READ_ELSEWHERE)
