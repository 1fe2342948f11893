"""The benchmark's tracer finds every function it names, and counts them.

`perfbench/tracing.Tracer` wraps the library functions listed in
`tracing.LAYERS` by name.  A name that no longer resolves would only show
when the benchmark runs; a test here makes it fail, and checks that
`uninstall()` puts every original binding back.  Another checks that a
traced `defect_field` reports one line solve per stable line.
"""

import importlib
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from shellwrinkle import characteristics as chars  # noqa: E402
from shellwrinkle.geometry import Rectangle  # noqa: E402
from shellwrinkle.shell import ShellProfile  # noqa: E402

MODULES = sorted({mod for _, mod, _, _ in tracing.LAYERS})


def _bindings():
    """Every name bound in a shellwrinkle module or in a class defined
    there, with the object it is bound to."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("shellwrinkle"):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def _resolved(mod, attr):
    """The object the tracer must have wrapped for one LAYERS entry."""
    owner_name, _, method = attr.partition(".")
    owner = getattr(sys.modules["shellwrinkle." + mod], owner_name)
    if inspect.isclass(owner):
        return vars(owner).get(method or "__init__")
    return owner


def test_every_layer_resolves_and_uninstall_restores():
    for mod in MODULES:
        importlib.import_module("shellwrinkle." + mod)
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for prefix, mod, attr, _ in tracing.LAYERS:
            target = _resolved(mod, attr)
            assert target is not None, prefix
            assert hasattr(target, "__wrapped__"), prefix
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_traced_defect_field_solves_each_stable_line_once():
    # the per-layer counters keep their meaning: the line window never
    # solves a line twice
    tracer = tracing.Tracer()
    try:
        tracer.install()
        chars.defect_field(Rectangle(2.0, 1.0), ShellProfile.constant(-1.0), 96)
    finally:
        tracer.uninstall()
    stats = tracer.take()
    lines = stats["stablelines.lines"]
    assert lines > 0
    assert stats["characteristics.solve_line.calls"] == lines
    assert stats["characteristics.solve_line.samples"] == lines * chars.DEFAULT_SAMPLES_PER_LINE
