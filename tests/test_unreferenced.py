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
not keep it.  Code that only tests call fails here.

The same scan collects each dataclass field and each ``self.<name>`` that an
``__init__`` assigns; each needs an attribute read of its name in `src/` or
the benchmark's code, unless its class is listed in READ_WHOLE.  Names still
match by spelling, so a dead method or field that shares its name with a
live attribute read passes.
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
    "duality_gap": "the relative gap of primal and dual, the figure the duality tests assert",
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

# Classes whose fields are read whole, not one attribute at a time.
READ_WHOLE = {
    "ScalingReport": "`cmd_sweep` serialises it whole with `dataclasses.asdict`",
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


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _fields(tree):
    """(class, name) per dataclass field and per ``self.<name>`` that an
    ``__init__`` assigns, tuple targets included."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if any(_decorator_name(d) == "dataclass" for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for sub in ast.walk(item):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        yield node.name, sub.attr


def _scan():
    """(definitions, fields, reads): (name, file, first line, last line,
    is_method) per def or module-level assignment in `src/`, (class, name)
    per field of a class in `src/` (`_fields`), and (name, file, line,
    as_attribute) per name read in `src/` or the benchmark's code."""
    defs, fields, reads = [], [], []
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
        fields.extend(_fields(tree))
        reads.extend(_reads(tree, path.name))
    for path in BENCH:
        reads.extend(_reads(ast.parse(path.read_text(), filename=str(path)),
                            "perfbench/" + path.name))
    return defs, fields, reads


def _unreferenced():
    defs, _, reads = _scan()
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


def test_every_field_has_a_reader():
    _, fields, reads = _scan()
    attrs = {name for name, _, _, as_attribute in reads if as_attribute}
    unread = {f"{cls}.{name}" for cls, name in fields
              if cls not in READ_WHOLE and name not in attrs}
    assert unread == set()
