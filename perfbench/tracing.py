"""Per-layer spans for the traced run, recorded from outside the library.

`Tracer.install()` wraps the public functions in LAYERS wherever they are
bound: a module-level function in every `shellwrinkle` module that holds it
(modules bind names with `from ... import`), a method in the class and in
each subclass that defines its own.  Each wrapper counts calls (and points,
for functions that take a point array) and times a span; a span's self time
is its duration minus the spans it encloses.  `uninstall()` restores the
original bindings, so untraced passes in the same process run bare.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

import numpy as np

# (metric prefix, module, attribute; "Class.method" wraps that method in
# the class and every subclass, a bare class wraps its constructor, and
# whether the first argument after self is a point array)
LAYERS = [
    ("characteristics.defect_field", "characteristics", "defect_field", False),
    ("characteristics.solve_line", "characteristics", "solve_line", False),
    ("characteristics.primal_value", "characteristics", "primal_value", False),
    ("characteristics.curlcurl_residual", "characteristics", "curlcurl_residual", False),
    ("geometry.contains", "geometry", "Domain.contains", True),
    ("geometry.boundary_distance", "geometry", "Domain.boundary_distance", True),
    ("geometry.nearest_boundary_point", "geometry", "Domain.nearest_boundary_point", True),
    ("rulings.Chart.contains", "rulings", "Chart.contains", True),
    ("rulings.Chart.coords", "rulings", "Chart.coords", True),
    ("rulings.Chart.stations", "rulings", "Chart.stations", False),
    ("grids.MaskedGrid", "grids", "MaskedGrid", False),
    ("stablelines.stable_lines", "stablelines", "stable_lines", False),
    ("stablelines.partition", "stablelines", "partition", False),
    ("airy.solve_dual", "airy", "solve_dual", False),
    ("airy.dual_value", "airy", "dual_value", False),
    ("airy.check_admissible", "airy", "check_admissible", False),
    ("airy.AiryField.phi", "airy", "AiryField.phi", True),
    ("airy.convex_roof", "airy", "convex_roof", True),
    ("herringbone.optimal_params", "herringbone", "optimal_params", False),
    ("herringbone.herringbone", "herringbone", "herringbone", False),
    ("herringbone.HerringboneField.evaluate", "herringbone", "HerringboneField.evaluate", True),
    ("herringbone.PiecewiseHerringboneField.evaluate", "herringbone",
     "PiecewiseHerringboneField.evaluate", True),
    ("energy.strain", "energy", "strain", False),
    ("energy.energy", "energy", "energy", False),
    ("energy.scaling_study", "energy", "scaling_study", False),
    ("render.defect_csv", "render", "defect_csv", False),
    ("render.heatmap_svg", "render", "heatmap_svg", False),
]

# Work counters, taken from each call's arguments or result.
COUNTERS = {
    "characteristics.solve_line.samples": "count",
    "characteristics.uncovered_cells": "count",
    "characteristics.curlcurl_residual.bump_cells": "count",
    "grids.cut_cells": "count",
    "stablelines.lines": "count",
    "render.defect_csv.bytes": "B",
    "render.heatmap_svg.bytes": "B",
}

# Functions the workloads call directly: each reports the process's peak RSS
# at the end of its span, which shows the span that raised it.
TOP_LEVEL = [
    "characteristics.defect_field", "characteristics.primal_value",
    "characteristics.curlcurl_residual", "airy.dual_value", "airy.check_admissible",
    "airy.convex_roof", "stablelines.stable_lines", "render.defect_csv",
    "render.heatmap_svg", "herringbone.optimal_params", "herringbone.herringbone",
    "energy.strain", "energy.energy", "energy.scaling_study",
]

# Whole-pass figures that run.py fills in.
PASS_METRICS = {
    "trace.overhead_frac": "1",
    "trace.attributed_frac": "1",
}


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for prefix, _, _, points in LAYERS:
        units[prefix + ".calls"] = "count"
        if points:
            units[prefix + ".points"] = "count"
        units[prefix + ".s"] = "s"
    units.update(COUNTERS)
    for prefix in TOP_LEVEL:
        units[prefix + ".rss_high_water_mb"] = "MB"
    units.update(PASS_METRICS)
    return units


def repeatable(name):
    """Counts repeat exactly for the same seed; times and RSS do not."""
    return not (name.endswith(".s") or name.endswith("_mb") or name.startswith("trace."))


def _n_points(x):
    return 1 if np.ndim(x) == 1 else len(x)


def _count_solve_line(stats, args, result):
    stats["characteristics.solve_line.samples"] += len(result.t)


def _count_defect_field(stats, args, result):
    stats["characteristics.uncovered_cells"] += int(result.uncovered.sum())


def _count_masked_grid(stats, args, result):
    grid = args[0]
    w = grid.weights
    stats["grids.cut_cells"] += int(np.count_nonzero((w > 0) & (w < grid.h**2)))


def _count_stable_lines(stats, args, result):
    stats["stablelines.lines"] += sum(len(c) for c in result.lines_by_chart)


def _count_bytes(key):
    def count(stats, args, result):
        stats[key] += len(result)
    return count


HOOKS = {
    "characteristics.solve_line": _count_solve_line,
    "characteristics.defect_field": _count_defect_field,
    "grids.MaskedGrid": _count_masked_grid,
    "stablelines.stable_lines": _count_stable_lines,
    "render.defect_csv": _count_bytes("render.defect_csv.bytes"),
    "render.heatmap_svg": _count_bytes("render.heatmap_svg.bytes"),
}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(float)
        self._children = []  # time covered by child spans, per open span
        self._undo = []

    def _wrap(self, prefix, fn, points, hook):
        stats = self.stats
        children = self._children
        calls, npts, self_s = prefix + ".calls", prefix + ".points", prefix + ".s"
        rss = prefix + ".rss_high_water_mb" if prefix in TOP_LEVEL else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats[calls] += 1
            if points:
                stats[npts] += _n_points(args[1] if len(args) > 1 else kwargs["x"])
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                stats[self_s] += span - children.pop()
                if children:
                    children[-1] += span
                elif rss is not None:
                    stats[rss] = max(stats[rss], _rss_mb())
            if hook is not None:
                hook(stats, args, result)
            return result

        return traced

    def _bind(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "shellwrinkle" or name.startswith("shellwrinkle."))]
        for prefix, mod_name, attr, points in LAYERS:
            module = sys.modules["shellwrinkle." + mod_name]
            hook = HOOKS.get(prefix)
            owner_name, _, method = attr.partition(".")
            target = getattr(module, owner_name)
            if isinstance(target, type):
                method = method or "__init__"
                todo = [target]
                while todo:
                    cls = todo.pop()
                    todo.extend(cls.__subclasses__())
                    if method in cls.__dict__:
                        self._bind(cls, method, self._wrap(prefix, cls.__dict__[method], points, hook))
                continue
            wrapper = self._wrap(prefix, target, points, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is target:
                        self._bind(m, name, wrapper)
        self._install_bump_counter()

    def _install_bump_counter(self):
        """Count the grid cells each weak-form test bump is evaluated on."""
        stats = self.stats
        characteristics = sys.modules["shellwrinkle.characteristics"]
        original = characteristics.interior_bumps

        def counting_bumps(domain, test_count):
            def counted(hess):
                def hess_counted(x):
                    stats["characteristics.curlcurl_residual.bump_cells"] += _n_points(x)
                    return hess(x)
                return hess_counted
            return [(psi, counted(hess)) for psi, hess in original(domain, test_count)]

        self._bind(characteristics, "interior_bumps", counting_bumps)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self):
        """The figures recorded so far, all per-layer names present."""
        out = {name: float(self.stats.get(name, 0.0)) for name in metric_units()}
        self.stats.clear()
        return out

